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
configuration and batches may be executed in any order or in parallel.
Station 0 is the tagged station.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distribution import TimeDistribution
from .params import ConfigurationError, ModelParams, SlotDurations

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
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")


@dataclass(eq=False)
class EmpiricalDistribution:
    """Delivery-time histogram over completed runs.

    For the tagged-station distribution, ``failure_count`` counts runs whose
    tagged station exhausted its retries.  For the all-stations distribution,
    atoms record the completion time of the last successful station (runs in
    which every station failed contribute no atom) and ``failure_count``
    counts runs where at least one station failed.
    """

    atoms: dict[int, int]
    runs: int
    failure_count: int

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


def _batches(runs: int, batch_runs: int) -> Iterator[tuple[int, int]]:
    full, rest = divmod(runs, batch_runs)
    for i in range(full):
        yield i, batch_runs
    if rest:
        yield full, rest


def _simulate_batch(config: SimConfig, batch_index: int, batch_runs: int) -> _BatchOutcome:
    params, durations = config.params, config.durations
    n = params.n_stations
    rl = params.retry_limit
    windows = np.asarray(params.contention_windows(), dtype=np.int64)
    te, ts, tc = durations.t_empty, durations.t_success, durations.t_collision

    seed = config.seed & 0xFFFFFFFFFFFFFFFF
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, batch_index))))

    counters = rng.integers(0, windows[0], size=(batch_runs, n), dtype=np.int64)
    retries = np.zeros((batch_runs, n), dtype=np.int64)
    alive = np.ones((batch_runs, n), dtype=bool)
    elapsed = np.zeros(batch_runs, dtype=np.int64)

    tagged_time = np.full(batch_runs, -1, dtype=np.int64)
    tagged_failed = np.zeros(batch_runs, dtype=bool)
    last_success = np.full(batch_runs, -1, dtype=np.int64)
    any_failed = np.zeros(batch_runs, dtype=bool)

    done_tagged: list[np.ndarray] = []
    done_tagged_failed: list[np.ndarray] = []
    done_last: list[np.ndarray] = []
    done_any_failed: list[np.ndarray] = []
    step = 0

    def _harvest(done_mask: np.ndarray) -> None:
        done_tagged.append(tagged_time[done_mask])
        done_tagged_failed.append(tagged_failed[done_mask])
        done_last.append(last_success[done_mask])
        done_any_failed.append(any_failed[done_mask])

    while counters.shape[0]:
        tx = alive & (counters == 0)
        ntx = tx.sum(axis=1)
        elapsed += np.where(ntx == 0, te, np.where(ntx == 1, ts, tc))

        success = np.flatnonzero(ntx == 1)
        if success.size:
            winner = np.argmax(tx[success], axis=1)
            alive[success, winner] = False
            last_success[success] = elapsed[success]
            hit = success[winner == 0]
            tagged_time[hit] = elapsed[hit]

        collision = ntx >= 2
        if collision.any():
            colliders = tx & collision[:, None]
            retries[colliders] += 1
            dead = colliders & (retries >= rl)
            alive[dead] = False
            any_failed |= dead.any(axis=1)
            tagged_failed |= dead[:, 0]
            redraw = colliders & (retries < rl)
            idx = np.nonzero(redraw)
            if idx[0].size:
                counters[idx] = rng.integers(0, windows[retries[idx]], dtype=np.int64)

        counters[alive & ~tx] -= 1

        running = alive.any(axis=1)
        step += 1
        if step % 32 == 0 or not running.all():
            if not running.any():
                _harvest(slice(None))
                break
            if running.mean() < 0.75:
                finished = ~running
                _harvest(finished)
                counters = counters[running]
                retries = retries[running]
                alive = alive[running]
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
    )


def simulate(config: SimConfig) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Run the campaign and return (tagged-station, all-stations) histograms."""
    counts_a: dict[int, int] = {}
    counts_b: dict[int, int] = {}
    failures_a = 0
    failures_b = 0

    def _merge(target: dict[int, int], times: np.ndarray) -> None:
        values, counts = np.unique(times, return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            target[v] = target.get(v, 0) + c

    for batch_index, batch_runs in _batches(config.runs, _batch_runs(config.params.n_stations)):
        outcome = _simulate_batch(config, batch_index, batch_runs)
        _merge(counts_a, outcome.tagged_times)
        _merge(counts_b, outcome.finish_times)
        failures_a += outcome.tagged_failures
        failures_b += outcome.any_failure

    emp_a = EmpiricalDistribution(atoms=dict(sorted(counts_a.items())), runs=config.runs,
                                  failure_count=failures_a)
    emp_b = EmpiricalDistribution(atoms=dict(sorted(counts_b.items())), runs=config.runs,
                                  failure_count=failures_b)
    return emp_a, emp_b
