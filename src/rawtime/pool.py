"""Independent jobs on forked worker processes, one per usable CPU.

The planner's cold chain runs and the simulator's run batches are independent
and deterministic, so they can run anywhere and in any order; ``map_jobs``
returns their results in job order either way.
"""

from __future__ import annotations

import os
import sys


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` start method where it is safe, else None (run serially).

    Forked workers inherit the loaded modules, so a pool starts in
    milliseconds and never re-runs the caller's main script, as ``spawn`` and
    ``forkserver`` children do; a script without an ``if __name__ ==
    "__main__":`` guard therefore works.  ``fork`` is not safe on macOS, and
    not in a caller running threads of its own, which might hold a lock the
    child then waits on for ever.
    """
    import multiprocessing
    import threading

    if (sys.platform == "darwin" or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


def map_jobs(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, on a process pool of ``min(usable CPUs,
    jobs)`` forked workers when that is more than one and ``fork`` is safe.

    ``fn`` must be a module-level function, so the pool can send it by name.
    A worker's exception is raised here.
    """
    jobs = list(zip(*iterables))
    workers = min(_usable_cpus(), len(jobs))
    context = _fork_context() if workers > 1 else None
    if context is None:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, *zip(*jobs)))
