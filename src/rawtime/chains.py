"""Full chain runs: interleaved process A/B stepping, stacks of process-A populations and
duration extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distribution import TimeDistribution
from .layers import StateLayer, step_process_a, step_process_b
from .params import ModelParams, SlotDurations
from .txprob import build_tx_prob_table


def _state_time(c, s, t: int, durations: SlotDurations):
    """Real time (microseconds) needed to traverse ``c`` collision, ``s``
    success and ``t - c - s`` empty virtual slots; ``c`` and ``s`` may be
    integer arrays."""
    if np.add(c, s).max(initial=0) > t:
        raise ValueError(f"more collision and success slots than the {t} slots")
    t_empty = durations.t_empty
    return c * (durations.t_collision - t_empty) + s * (durations.t_success - t_empty) + t * t_empty


class _AtomAccumulator:
    """Sums (duration, mass) batches of ``populations`` populations into a float64 array
    indexed by population and ``duration // g``, ``g = gcd(Te, Ts, Tc)``, in arrival order
    (one ``np.add.at`` per population): for each population the order, and so the bits,
    of ``TimeDistribution.from_arrays`` over its concatenated batches.  The rows
    grow to the largest index seen: at most ``t_stop * max(T) / g + 1`` entries, about
    85k for 802.11ah."""

    def __init__(self, durations: SlotDurations, populations: int = 1):
        self._durations = durations
        self._g = math.gcd(durations.t_empty, durations.t_success, durations.t_collision)
        self._mass = np.zeros((populations, 0))

    def absorb(self, layer: StateLayer, rows=(0,)) -> None:
        """Add the absorptions of the step that made ``layer``: mass absorbed from the
        state ``(t - 1, c, s)`` lands at ``_state_time(c, s + 1, t)`` -- the absorbing
        success slot counts.  ``rows``: the row of each population of ``layer``."""
        if layer.new_p.size:
            self.add(_state_time(layer.new_c, layer.new_s + 1, layer.t, self._durations),
                     layer.new_p, rows, layer.new_ends)

    def add(self, taus: np.ndarray, masses: np.ndarray, rows, ends: list[int]) -> None:
        """Add ``masses`` at ``taus``, the run of them that ends at ``ends[i]`` to row
        ``rows[i]``."""
        idx = taus // self._g
        top = int(idx.max(initial=-1)) + 1
        width = self._mass.shape[1]
        if top > width:  # grow geometrically: a run adds a few new indices per step
            grown = np.zeros((self._mass.shape[0], max(top, 2 * width)))
            grown[:, :width] = self._mass
            self._mass = grown
        start = 0
        for row, end in zip(rows, ends):
            np.add.at(self._mass[row], idx[start:end], masses[start:end])
            start = end

    def finish(self, row: int = 0) -> TimeDistribution:
        mass = self._mass[row]
        idx = np.flatnonzero(mass)
        return TimeDistribution(idx * self._g, mass[idx])


@dataclass(frozen=True)
class ChainDiagnostics:
    """Run bookkeeping: where the probability mass ended up and why we stopped."""

    t_stop: int
    truncated: bool
    b_stalled: bool
    absorbed_success_a: float
    absorbed_failure_a: float
    unresolved_a: float  # pruned + still-carried tagged-station mass
    absorbed_b: float
    unresolved_b: float  # pruned + never-absorbing aggregate mass (failure tail)
    mass_error_a: float
    mass_error_b: float
    table_extent: int


class ChainResult(NamedTuple):
    p_a: TimeDistribution
    p_b: TimeDistribution | None
    p_fail_a: float
    diagnostics: ChainDiagnostics


def run_chains(
    params: ModelParams,
    durations: SlotDurations,
    *,
    compute_b: bool = True,
) -> ChainResult:
    """Run both chains until absorbed-plus-dropped mass reaches ``1 - epsilon``.

    Success absorption of the tagged station from state ``(t, c, s)`` lands at
    duration ``_state_time(c, s + 1, t + 1)`` -- its own successful slot counts.
    Aggregate absorption from ``(t, c, N - 1)`` lands at
    ``_state_time(c, N, t + 1)``.

    The loop also stops, with the remainder booked as deficit, when no further
    transmission is possible: every station resolves within
    ``params.max_backoff_slots()`` virtual slots, after which process B's
    remaining mass is exactly the some-station-failed tail and can never
    absorb.  Hitting ``t_max_cap`` earlier is reported via
    ``diagnostics.truncated``.  The run is ``run_stack``'s stack of one: process A's
    box is ``p[r, 0, c, s]`` and process B's ``p[0, 0, c, s]``.
    """
    return run_stack([params], durations, compute_b=compute_b)[0]


def run_stack(stack: Sequence[ModelParams], durations: SlotDurations, *,
              compute_b: bool = False) -> list[ChainResult]:
    """``run_chains(params, durations, compute_b=compute_b)`` for each ``params`` of
    ``stack``, bit for bit, with process A stepped for all of them as one stack.  The
    populations may differ only in ``n_stations``; each stops on its own test and then
    leaves the stack.  Process B runs for a stack of one only."""
    params = stack[0]
    if any(p.with_stations(params.n_stations) != params for p in stack):
        raise ValueError("a stack's populations may differ only in n_stations")
    if compute_b and len(stack) > 1:
        raise ValueError("process B runs one population at a time")
    support = params.max_backoff_slots()
    cap = params.t_max_cap
    table = build_tx_prob_table(params, min(cap, support) + 1)

    layer_a = StateLayer.initial([p.n_stations for p in stack])
    layer_b = StateLayer.initial([params.n_stations]) if compute_b else None
    atoms_a = _AtomAccumulator(durations, len(stack))
    atoms_b = _AtomAccumulator(durations)
    rows = np.arange(len(stack))  # the accumulator row of each population still stepped
    results: list[ChainResult | None] = [None] * len(stack)
    threshold = 1.0 - params.epsilon

    while True:
        t = layer_a.t
        done_b = layer_b is None or layer_b.resolved(0) >= threshold
        leave = [done and done_b for done in layer_a.done(threshold)]
        # At the cap, with no mass in A or past the support every population stops; in
        # the last two no station can transmit any more, so process B's leftover mass
        # is the tail where one station failed.
        forced = not all(leave) and (t >= cap or t >= support or layer_a.p.size == 0)
        if forced or any(leave):
            truncated = forced and t >= cap
            b_stalled = forced and t < cap and not done_b
            for j in (j for j, gone in enumerate(leave) if gone or forced):
                results[rows[j]] = _result(
                    t, layer_a, j, atoms_a.finish(rows[j]), layer_b, atoms_b,
                    truncated=truncated, b_stalled=b_stalled, table_extent=table.t_extent)
            if forced or all(leave):
                return results
            keep = [j for j, gone in enumerate(leave) if not gone]
            layer_a, rows = layer_a.members(keep), rows[keep]

        next_a = step_process_a(layer_a, table, params)
        atoms_a.absorb(next_a, rows)
        if layer_b is not None:
            layer_b = step_process_b(layer_b, table, layer_a, params)
            atoms_b.absorb(layer_b)
        layer_a = next_a


def _result(t: int, layer_a: StateLayer, j: int, p_a: TimeDistribution,
            layer_b: StateLayer | None, atoms_b: _AtomAccumulator, **diagnostics) -> ChainResult:
    """The result of a run whose process-A population ``j`` of ``layer_a`` stops at ``t``."""
    p_a, absorbed_a, residual_a, mass_error_a = _outcome(p_a, layer_a, j)
    p_b, absorbed_b, residual_b, mass_error_b = (
        (None, 0.0, 0.0, 0.0) if layer_b is None else _outcome(atoms_b.finish(), layer_b, 0))
    failed_a = layer_a.failed[j].value
    return ChainResult(p_a=p_a, p_b=p_b, p_fail_a=failed_a, diagnostics=ChainDiagnostics(
        t_stop=t,
        absorbed_success_a=absorbed_a,
        absorbed_failure_a=failed_a,
        unresolved_a=residual_a,
        absorbed_b=absorbed_b,
        unresolved_b=residual_b,
        mass_error_a=mass_error_a,
        mass_error_b=mass_error_b,
        **diagnostics,
    ))


def _outcome(dist: TimeDistribution, layer: StateLayer,
             j: int) -> tuple[TimeDistribution, float, float, float]:
    """Population ``j``'s distribution, absorbed mass, unresolved mass (carried plus
    pruned) and mass error in one process's ``layer``."""
    residual = layer.carried_mass(j) + layer.dropped[j].value
    return (dist, layer.absorbed[j].value, residual,
            abs(dist.total_mass + layer.failed[j].value + residual - 1.0))
