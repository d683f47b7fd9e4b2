"""Full chain runs: interleaved process A/B stepping, stacks of process-A populations that
can be advanced step budget by step budget, and duration extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
    run = StackRun(stack, durations, compute_b=compute_b)
    run.advance()
    return run.results


class StackRun:
    """``run_stack``'s run, resumable: each ``advance`` steps it on, and ``results[j]``
    holds population ``j``'s ``ChainResult`` once it has stopped.

    Every population leaves the stack at the step its own run stops, whatever budgets
    the run was advanced in, so the results are ``run_stack``'s bit for bit.  ``drop``
    takes populations out of the stack with no result, which leaves the others' bits
    alone.  ``steps`` counts population-steps: each step once per population it
    carries.
    """

    def __init__(self, stack: Sequence[ModelParams], durations: SlotDurations, *,
                 compute_b: bool = False):
        params = stack[0]
        if any(p.with_stations(params.n_stations) != params for p in stack):
            raise ValueError("a stack's populations may differ only in n_stations")
        if compute_b and len(stack) > 1:
            raise ValueError("process B runs one population at a time")
        self.params, self.durations = params, durations
        self._support = params.max_backoff_slots()
        self._table = build_tx_prob_table(params, min(params.t_max_cap, self._support) + 1)
        self._layer_a = StateLayer.initial([p.n_stations for p in stack])
        self._layer_b = StateLayer.initial([params.n_stations]) if compute_b else None
        self._atoms_a = _AtomAccumulator(durations, len(stack))
        self._atoms_b = _AtomAccumulator(durations)
        self._rows = np.arange(len(stack))  # the accumulator row of each population stepped
        self.results: list[ChainResult | None] = [None] * len(stack)
        self.steps = 0

    def advance(self, budget: int | None = None) -> bool:
        """Step the stack until every population has stopped, or ``budget`` steps;
        whether every population has stopped (or been dropped)."""
        layer_a, layer_b, rows, atoms_a, atoms_b = (
            self._layer_a, self._layer_b, self._rows, self._atoms_a, self._atoms_b)
        params, table, support = self.params, self._table, self._support
        cap, threshold = params.t_max_cap, 1.0 - params.epsilon
        steps = carried = 0
        while rows.size:
            t = layer_a.t
            done_b = layer_b is None or layer_b.resolved()[0] >= threshold
            leave = (layer_a.done(threshold) & done_b).tolist()
            # At the cap, with no mass in A or past the support every population stops; in
            # the last two no station can transmit any more, so process B's leftover mass
            # is the tail where one station failed.
            forced = not all(leave) and (t >= cap or t >= support or layer_a.p.size == 0)
            if forced or any(leave):
                truncated = forced and t >= cap
                b_stalled = forced and t < cap and not done_b
                for j in (j for j, gone in enumerate(leave) if gone or forced):
                    self.results[rows[j]] = _result(
                        t, layer_a, j, atoms_a.finish(rows[j]), layer_b, atoms_b,
                        truncated=truncated, b_stalled=b_stalled, table_extent=table.t_extent)
                keep = [] if forced else [j for j, gone in enumerate(leave) if not gone]
                layer_a, rows = layer_a.members(keep), rows[keep]
                if not keep:
                    break
            if steps == budget:
                break
            next_a = step_process_a(layer_a, table, params)
            atoms_a.absorb(next_a, rows)
            if layer_b is not None:
                layer_b = step_process_b(layer_b, table, layer_a, params)
                atoms_b.absorb(layer_b)
            layer_a = next_a
            steps += 1
            carried += rows.size
        self._layer_a, self._layer_b, self._rows = layer_a, layer_b, rows
        self.steps += carried
        return not rows.size

    def drop(self, populations) -> None:
        """Take the populations ``populations`` indexes out of the stack, with no result."""
        gone = set(populations)
        keep = [j for j, row in enumerate(self._rows.tolist()) if row not in gone]
        self._layer_a, self._rows = self._layer_a.members(keep), self._rows[keep]

    def profiles(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each population's reach profile at the stack's time ``t``: the distinct
        ``_state_time(c, s + 1, t + 1)`` of its live process-A cells ``(c, s)``, rising,
        and the cumulative mass those cells carry (summed over ``r``, then over the
        times up to each).  A population that has left the stack has no cells.

        A step moves mass from ``(t, c, s)`` to ``t + 1`` and never lowers ``c`` or
        ``s``, and a success absorbed from ``(t', c', s')`` lands at ``_state_time(c',
        s' + 1, t' + 1)``, which is ``(c' - c)(Tc - Te) + (s' - s)(Ts - Te) + (t' - t)
        Te`` above ``_state_time(c, s + 1, t + 1)``: no less, as ``Ts, Tc >= Te``.  So
        every later absorption lands at or above the first time, and the atoms below
        it are final to the bit.  A step passes a cell's mass on, absorbs, fails or
        prunes it and creates none, so the mass the run absorbs from now on below a
        duration ``d`` is at most the cumulative mass of the times below ``d``, up to
        the rounding of the steps (``planner._slack`` bounds it).
        """
        none = (np.empty(0, dtype=np.int64), np.empty(0))
        profiles = [none] * len(self.results)
        layer = self._layer_a
        if not (self._rows.size and layer.p.size):
            return profiles
        mass = reduce(np.add, layer.p)  # [j, c, s], rows added in increasing r
        for j, row in enumerate(self._rows.tolist()):
            c, s = mass[j].nonzero()
            times = _state_time(layer.c0[j] + c, layer.s0[j] + s + 1, layer.t + 1,
                                self.durations)
            distinct, inverse = np.unique(times, return_inverse=True)
            profiles[row] = (distinct, np.cumsum(np.bincount(inverse, mass[j][c, s])))
        return profiles

    def atoms(self, population: int) -> TimeDistribution:
        """The P_A atoms population ``population`` has absorbed so far."""
        return self._atoms_a.finish(population)


def _result(t: int, layer_a: StateLayer, j: int, p_a: TimeDistribution,
            layer_b: StateLayer | None, atoms_b: _AtomAccumulator, **diagnostics) -> ChainResult:
    """The result of a run whose process-A population ``j`` of ``layer_a`` stops at ``t``."""
    p_a, absorbed_a, residual_a, mass_error_a = _outcome(p_a, layer_a, j)
    p_b, absorbed_b, residual_b, mass_error_b = (
        (None, 0.0, 0.0, 0.0) if layer_b is None else _outcome(atoms_b.finish(), layer_b, 0))
    failed_a = float(layer_a.totals[1, j])
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
    absorbed, failed, dropped = layer.totals[:, j].tolist()
    residual = layer.carried_mass(j) + dropped
    return dist, absorbed, residual, abs(dist.total_mass + failed + residual - 1.0)
