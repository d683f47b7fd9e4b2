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

A batch keeps, for each station still contending, the virtual slot of its
next transmission, in flat run-major arrays, and visits only the slots in
which some run of the batch transmits: one compare finds that slot's
transmitters, already in (run, station) order, and a run with one of them
delivers while a run with more collides.  A run's elapsed time follows from
the slot index and the time its successful and collided slots took.  The
draws keep their (run, station) order in the stream: the initial slots are
drawn as a ``(runs, stations)`` array and raveled, and the redraws after a
collision are taken in transmitter order.  A slot in which no run transmits
draws nothing, so jumping over it keeps every draw in place; a jump per run
would not, as runs would then take their redraws in another order.  Batches
are independent, so they run on one forked worker per usable CPU (see
``pool.map_jobs``) and are merged in batch order; the counts are the same
whatever the worker count.
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

    Its atoms are the sorted ``durations`` and their run ``counts``.  For the
    tagged-station distribution, ``failure_count`` counts runs whose tagged
    station exhausted its retries.  For the all-stations distribution, atoms
    record the completion time of the last successful station (runs in which
    every station failed contribute no atom) and ``failure_count`` counts runs
    where at least one station failed.  ``batches`` is the campaign's batch
    count, ``slots`` the event slots its batches visited (slots in which some
    run of the batch transmits), and ``batch_s`` its batches' own run times,
    summed over the processes they ran in.
    """

    durations: np.ndarray
    counts: np.ndarray
    runs: int
    failure_count: int
    batches: int
    slots: int
    batch_s: float

    def to_time_distribution(self) -> TimeDistribution:
        return TimeDistribution(self.durations, self.counts / self.runs)


@dataclass
class _BatchOutcome:
    tagged_times: np.ndarray
    tagged_failures: int
    finish_times: np.ndarray  # last-success time per run with >= 1 success
    any_failure: int
    slots: int  # event slots visited: slots in which some run transmits
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
    support = params.max_backoff_slots()
    windows = np.asarray(params.contention_windows(), dtype=np.int64)
    t_empty = durations.t_empty

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, batch_index))))

    def schedule(slots: np.ndarray) -> np.ndarray:
        # every station resolves within the support the chains stop at
        if slots.max() >= support:
            raise RuntimeError(f"transmission scheduled at slot {int(slots.max())}, "
                               f"beyond the support of {support} slots")
        return slots

    # flat run-major arrays over the live stations; a station that delivered
    # or failed holds the slot ``resolved``, after every possible transmission
    slot_type = np.min_scalar_type(support)
    resolved = np.iinfo(slot_type).max
    next_slot = schedule(rng.integers(0, windows[0], size=(batch_runs, n), dtype=np.int64))
    next_slot = next_slot.ravel().astype(slot_type)
    retries = np.zeros(next_slot.size, dtype=np.min_scalar_type(rl))
    owner = np.repeat(np.arange(batch_runs, dtype=np.min_scalar_type(batch_runs)), n)
    tagged = np.tile(np.arange(n) == 0, batch_runs)
    live = next_slot.size

    # a run's elapsed time after slot t is (t + 1) * t_empty plus what its
    # successful and collided slots took beyond an empty one
    busy = np.zeros(batch_runs, dtype=np.int64)
    tagged_time = np.full(batch_runs, -1, dtype=np.int64)
    tagged_failed = np.zeros(batch_runs, dtype=bool)
    last_success = np.full(batch_runs, -1, dtype=np.int64)
    any_failed = np.zeros(batch_runs, dtype=bool)

    t = -1
    slots = 0
    while live:
        # a slot in which no run transmits draws nothing: jump over it
        t += 1
        tx = np.flatnonzero(next_slot == t)
        if not tx.size:
            t = int(next_slot.min())
            tx = np.flatnonzero(next_slot == t)
        slots += 1

        # transmitters come in (run, station) order; group them by run
        run = owner[tx]
        new_run = np.empty(run.size + 1, dtype=bool)
        new_run[0] = new_run[-1] = True
        np.not_equal(run[1:], run[:-1], out=new_run[1:-1])
        alone = new_run[:-1] & new_run[1:]
        single, several = np.flatnonzero(alone), np.flatnonzero(~alone)

        won, won_run = tx[single], run[single]
        busy[won_run] += durations.t_success - t_empty
        elapsed = (t + 1) * t_empty + busy[won_run]
        last_success[won_run] = elapsed
        won_tagged = tagged[won]
        tagged_time[won_run[won_tagged]] = elapsed[won_tagged]
        next_slot[won] = resolved
        live -= won.size

        if several.size:
            collided, collided_run = tx[several], run[several]
            # a buffered add: a run counts once however often its index repeats
            busy[collided_run] += durations.t_collision - t_empty
            retries[collided] += 1
            dead = retries[collided] >= rl
            gone, gone_run = collided[dead], collided_run[dead]
            next_slot[gone] = resolved
            any_failed[gone_run] = True
            tagged_failed[gone_run[tagged[gone]]] = True
            live -= gone.size
            redraw = collided[~dead]
            if redraw.size:
                next_slot[redraw] = schedule(
                    t + 1 + rng.integers(0, windows[retries[redraw]], dtype=np.int64))

        if live < 0.75 * next_slot.size:
            keep = np.flatnonzero(next_slot != resolved)
            next_slot, retries = next_slot[keep], retries[keep]
            owner, tagged = owner[keep], tagged[keep]

    return _BatchOutcome(
        tagged_times=tagged_time[~tagged_failed],
        tagged_failures=int(tagged_failed.sum()),
        finish_times=last_success[last_success >= 0],
        any_failure=int(any_failed.sum()),
        slots=slots,
        seconds=time.perf_counter() - started,
    )


def simulate(config: SimConfig) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Run the campaign and return (tagged-station, all-stations) histograms."""
    indices, sizes = zip(*_batches(config.runs, _batch_runs(config.params.n_stations)))
    outcomes = map_jobs(_simulate_batch, repeat(config), indices, sizes)

    def histogram(times: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(np.concatenate(times), return_counts=True)

    campaign = dict(runs=config.runs, batches=len(outcomes),
                    slots=sum(outcome.slots for outcome in outcomes),
                    batch_s=math.fsum(outcome.seconds for outcome in outcomes))
    emp_a = EmpiricalDistribution(*histogram([o.tagged_times for o in outcomes]),
                                  failure_count=sum(o.tagged_failures for o in outcomes),
                                  **campaign)
    emp_b = EmpiricalDistribution(*histogram([o.finish_times for o in outcomes]),
                                  failure_count=sum(o.any_failure for o in outcomes),
                                  **campaign)
    return emp_a, emp_b
