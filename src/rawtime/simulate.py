"""Slot-level Monte-Carlo simulator of N stations contending in a RAW slot.

The simulator works on the virtual-slot time scale: every station holds a
backoff counter, stations at zero transmit, and each slot is typed empty /
success / collision with the configured real-time durations.  AIFS/EIFS gaps
are folded into those durations, and counters decrement exactly once per
virtual slot, matching the abstraction the analytical chains use -- this is
the independent oracle for exactly the quantities they predict.

Randomness comes from Philox (counter-based) streams keyed by
``SeedSequence((seed, batch_index))`` over run batches whose size follows
from the station count, so results are bit-identical for a given
configuration.  Station 0 is the tagged station.

A batch holds its per-station state as ``(station, run)`` arrays and reduces
over the station axis; each slot updates every run at once by arithmetic on
masks.  The draws keep their (run, station) order in the stream: the initial
counters are drawn as a ``(runs, stations)`` array and transposed, and the
redraws after a collision are taken run by run.  Batches are independent, so
they run on one forked worker per usable CPU (see ``pool.map_jobs``) and are
merged in batch order; the counts are the same whatever the worker count.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .distribution import TimeDistribution
from .params import ConfigurationError, ModelParams, SlotDurations
from .pool import map_jobs

_BATCH_CELL_BUDGET = 2_000_000  # stations x runs per batch


def _batch_runs(n_stations: int) -> int:
    """Runs per batch; part of the random-stream layout, so changing it
    changes the (still deterministic) sample."""
    return max(64, min(8192, _BATCH_CELL_BUDGET // n_stations))


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation campaign."""

    params: ModelParams
    durations: SlotDurations
    runs: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(eq=False)
class EmpiricalDistribution:
    """Delivery-time histogram over completed runs.

    For the tagged-station distribution, ``failure_count`` counts runs whose
    tagged station exhausted its retries.  For the all-stations distribution,
    atoms record the completion time of the last successful station (runs in
    which every station failed contribute no atom) and ``failure_count``
    counts runs where at least one station failed.  ``batches`` is the
    campaign's batch count and ``batch_s`` its batches' own run times, summed
    over the processes they ran in.
    """

    atoms: dict[int, int]
    runs: int
    failure_count: int
    batches: int
    batch_s: float

    def to_time_distribution(self) -> TimeDistribution:
        return TimeDistribution.from_atoms(
            {d: c / self.runs for d, c in self.atoms.items()}
        )


@dataclass
class _BatchOutcome:
    tagged_times: np.ndarray
    tagged_failures: int
    finish_times: np.ndarray  # last-success time per run with >= 1 success
    any_failure: int
    seconds: float  # the batch's own run time, where it ran


def _batches(runs: int, batch_runs: int) -> Iterator[tuple[int, int]]:
    full, rest = divmod(runs, batch_runs)
    for i in range(full):
        yield i, batch_runs
    if rest:
        yield full, rest


def _simulate_batch(config: SimConfig, batch_index: int, batch_runs: int) -> _BatchOutcome:
    started = time.perf_counter()
    params, durations = config.params, config.durations
    n = params.n_stations
    rl = params.retry_limit
    windows = np.asarray(params.contention_windows(), dtype=np.int64)
    slot_time = np.array([durations.t_empty, durations.t_success, durations.t_collision])

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, batch_index))))

    # (station, run) arrays in the smallest integer types that hold every
    # counter, retry count and transmitter count; a station that delivered or
    # failed holds counter -1
    small = np.min_scalar_type(-max(params.cw_max, rl) - 1)
    counters = np.ascontiguousarray(
        rng.integers(0, windows[0], size=(batch_runs, n), dtype=np.int64).T, dtype=small)
    retries = np.zeros((n, batch_runs), dtype=small)
    count_type = np.min_scalar_type(n)
    remaining = np.full(batch_runs, n, dtype=np.int64)
    elapsed = np.zeros(batch_runs, dtype=np.int64)

    tagged_time = np.full(batch_runs, -1, dtype=np.int64)
    tagged_failed = np.zeros(batch_runs, dtype=bool)
    last_success = np.full(batch_runs, -1, dtype=np.int64)
    any_failed = np.zeros(batch_runs, dtype=bool)

    done_tagged: list[np.ndarray] = []
    done_tagged_failed: list[np.ndarray] = []
    done_last: list[np.ndarray] = []
    done_any_failed: list[np.ndarray] = []

    def _harvest(done_mask: np.ndarray) -> None:
        done_tagged.append(tagged_time[done_mask])
        done_tagged_failed.append(tagged_failed[done_mask])
        done_last.append(last_success[done_mask])
        done_any_failed.append(any_failed[done_mask])

    while True:
        tx = counters == 0
        # waiting stations count down now, so counters redrawn below count
        # from the next slot on
        counters -= counters > 0
        ntx = tx.sum(axis=0, dtype=count_type)
        elapsed += slot_time[np.minimum(ntx, 2)]

        success = ntx == 1
        won = tx & success
        counters -= won
        remaining -= success
        last_success = np.where(success, elapsed, last_success)
        tagged_time = np.where(won[0], elapsed, tagged_time)

        collision = ntx >= 2
        if collision.any():
            colliders = tx & collision
            retries += colliders
            dead = colliders & (retries >= rl)
            counters -= dead
            n_dead = dead.sum(axis=0, dtype=count_type)
            remaining -= n_dead
            any_failed |= n_dead > 0
            tagged_failed |= dead[0]
            # redraws are taken in (run, station) order
            station, run = np.divmod(np.flatnonzero(colliders ^ dead), counters.shape[1])
            if run.size:
                order = np.argsort(run, kind="stable")
                station, run = station[order], run[order]
                counters[station, run] = rng.integers(0, windows[retries[station, run]],
                                                      dtype=np.int64)

        running = remaining > 0
        if not running.all():
            if not running.any():
                _harvest(slice(None))
                break
            if running.mean() < 0.75:
                _harvest(~running)
                counters = counters[:, running]
                retries = retries[:, running]
                remaining = remaining[running]
                elapsed = elapsed[running]
                tagged_time = tagged_time[running]
                tagged_failed = tagged_failed[running]
                last_success = last_success[running]
                any_failed = any_failed[running]

    tagged_times = np.concatenate(done_tagged)
    tagged_fail = np.concatenate(done_tagged_failed)
    last = np.concatenate(done_last)
    anyf = np.concatenate(done_any_failed)
    return _BatchOutcome(
        tagged_times=tagged_times[~tagged_fail],
        tagged_failures=int(tagged_fail.sum()),
        finish_times=last[last >= 0],
        any_failure=int(anyf.sum()),
        seconds=time.perf_counter() - started,
    )


def simulate(config: SimConfig) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Run the campaign and return (tagged-station, all-stations) histograms."""
    indices, sizes = zip(*_batches(config.runs, _batch_runs(config.params.n_stations)))
    outcomes = map_jobs(_simulate_batch, repeat(config), indices, sizes)

    counts_a: dict[int, int] = {}
    counts_b: dict[int, int] = {}

    def _merge(target: dict[int, int], times: np.ndarray) -> None:
        values, counts = np.unique(times, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            target[v] = target.get(v, 0) + c

    for outcome in outcomes:
        _merge(counts_a, outcome.tagged_times)
        _merge(counts_b, outcome.finish_times)
    campaign = dict(runs=config.runs, batches=len(outcomes),
                    batch_s=math.fsum(outcome.seconds for outcome in outcomes))
    emp_a = EmpiricalDistribution(atoms=dict(sorted(counts_a.items())),
                                  failure_count=sum(o.tagged_failures for o in outcomes),
                                  **campaign)
    emp_b = EmpiricalDistribution(atoms=dict(sorted(counts_b.items())),
                                  failure_count=sum(o.any_failure for o in outcomes),
                                  **campaign)
    return emp_a, emp_b
