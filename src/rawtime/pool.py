"""Independent jobs on forked worker processes, one per usable CPU.

The planner's chain runs and the simulator's run batches are independent and
deterministic, so they can run anywhere and in any order.  One protocol serves
them all: ``ResidentJobs`` deals the jobs out in turn to its groups, one forked
worker per usable CPU (or the calling process alone), makes each job's state
where its group keeps it, and answers each call sent to a group with the list
of ``step(state, *args)`` over the states it keeps, in job order.  The
planner's sweep keeps its stacks there and advances them in rounds;
``map_jobs`` is one round whose states are the jobs' results, put back in job
order.
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
    """``list(map(fn, *iterables))``: one call to a ``ResidentJobs`` whose states are
    the results ``fn(*job)``, each made where its group keeps it.  A worker's exception
    is raised here.
    """
    jobs = list(zip(*iterables))
    with ResidentJobs(fn, lambda state: state, jobs) as pool:
        for group in range(pool.groups):
            pool.send(group)
        replies = {group: iter(reply) for group, reply in
                   (pool.receive() for _ in range(pool.groups))}
        return [next(replies[pool.group_of(i)]) for i in range(len(jobs))]


class ResidentJobs:
    """Jobs whose state stays where it was made: each job's state is ``start(*job)``,
    and group ``group_of(i)`` of ``groups`` keeps the state of job ``i``.
    ``send(group, *args)`` asks a group to run ``step(state, *args)`` on each of its
    states, and ``receive()`` returns ``(group, replies)`` for a group that has
    answered, its replies in job order.

    With more than one usable CPU, more than one job and a safe ``fork``, each group
    is a forked worker, one per usable CPU and never more than jobs, which keeps its
    states for as long as the block runs, and groups answer as they finish;
    otherwise the states live in the calling process, in one group that runs a call
    when it is received.  A worker's exception is raised here.  Use it as a context
    manager: leaving the block stops every worker.
    """

    def __init__(self, start, step, jobs):
        jobs = list(jobs)
        workers = min(_usable_cpus(), len(jobs))
        context = _fork_context() if workers > 1 else None
        self._step = step
        self._states, self._calls, self._conns, self._procs = [], [], [], []
        self._waiting: set[int] = set()
        if context is None:
            self._states = [start(*job) for job in jobs]
            self.groups = min(len(jobs), 1)
            return
        self.groups = workers
        try:
            for group in range(workers):
                ours, theirs = context.Pipe()
                self._conns.append(ours)
                kept = [job for i, job in enumerate(jobs) if self.group_of(i) == group]
                proc = context.Process(target=_serve, daemon=True, args=(
                    theirs, [*self._conns], start, step, kept))
                with theirs:  # the worker's end, which the fork copies
                    proc.start()
                self._procs.append(proc)
        except BaseException:  # stop the workers that did start before re-raising
            self.__exit__()
            raise

    def group_of(self, job: int) -> int:
        """The group that keeps the state of ``jobs[job]``: the jobs are dealt out in turn."""
        return job % self.groups

    def send(self, group: int, *args) -> None:
        if self._conns:
            self._conns[group].send(args)
            self._waiting.add(group)
        else:
            self._calls.append(args)

    def receive(self) -> tuple[int, list]:
        if not (self._calls or self._waiting):
            raise RuntimeError("no group has a call to answer")
        if not self._conns:
            args = self._calls.pop(0)
            return 0, [self._step(state, *args) for state in self._states]
        from multiprocessing.connection import wait

        conn = wait([self._conns[group] for group in sorted(self._waiting)])[0]
        group = self._conns.index(conn)
        self._waiting.remove(group)
        try:
            reply = conn.recv()
        except EOFError:
            raise RuntimeError("a worker exited without answering") from None
        if isinstance(reply, BaseException):
            raise reply
        return group, reply

    def __enter__(self) -> ResidentJobs:
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:  # one may still be running a call nobody will read
            proc.terminate()
        for proc in self._procs:
            proc.join()
            proc.close()
        for conn in self._conns:
            conn.close()
        self._states, self._conns, self._procs = [], [], []


def _serve(conn, inherited, start, step, jobs) -> None:
    """A ``ResidentJobs`` worker: make the states of ``jobs``, then answer each call with
    the list of ``step(state, *args)``, or with the exception it raised, until it is
    stopped or the pipe is closed."""
    for other in inherited:  # the other pipes' ends the fork copied: they are not ours
        other.close()
    try:
        states = [start(*job) for job in jobs]
    except Exception as exc:  # reported at the first call
        states = exc
    with conn:
        while True:
            try:
                args = conn.recv()
            except EOFError:
                return
            try:
                if isinstance(states, Exception):
                    raise states
                reply = [step(state, *args) for state in states]
            except Exception as exc:  # the caller raises it
                reply = exc
            conn.send(reply)
