"""Full chain runs: interleaved process A/B stepping and duration extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """Sums (duration, mass) batches into a float64 array indexed by ``duration // g``,
    ``g = gcd(Te, Ts, Tc)``, in arrival order (``np.add.at``): the order, and so the bits,
    of ``TimeDistribution.from_arrays`` over the concatenated batches.  The array grows
    to the largest index seen: at most ``t_stop * max(T) / g + 1`` entries, about 85k
    for 802.11ah."""

    def __init__(self, durations: SlotDurations):
        self._durations = durations
        self._g = math.gcd(durations.t_empty, durations.t_success, durations.t_collision)
        self._mass = np.zeros(0)

    def absorb(self, layer: StateLayer) -> None:
        """Add the absorptions of the step that made ``layer``: mass absorbed from the
        state ``(t - 1, c, s)`` lands at ``_state_time(c, s + 1, t)`` -- the absorbing
        success slot counts."""
        if layer.new_p.size:
            self.add(_state_time(layer.new_c, layer.new_s + 1, layer.t, self._durations),
                     layer.new_p)

    def add(self, taus: np.ndarray, masses: np.ndarray) -> None:
        idx = taus // self._g
        top = int(idx.max(initial=-1)) + 1
        if top > self._mass.size:  # grow geometrically: a run adds a few new indices per step
            self._mass.resize(max(top, 2 * self._mass.size), refcheck=False)
        np.add.at(self._mass, idx, masses)

    def finish(self) -> TimeDistribution:
        idx = np.flatnonzero(self._mass)
        return TimeDistribution(idx * self._g, self._mass[idx])


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
    ``diagnostics.truncated``.
    """
    support = params.max_backoff_slots()
    cap = params.t_max_cap
    table = build_tx_prob_table(params, min(cap, support) + 1)

    layer_a = StateLayer.initial()
    layer_b = StateLayer.initial() if compute_b else None
    atoms_a = _AtomAccumulator(durations)
    atoms_b = _AtomAccumulator(durations)

    threshold = 1.0 - params.epsilon
    truncated = False
    b_stalled = False

    while True:
        t = layer_a.t
        done_a = layer_a.resolved() >= threshold or layer_a.p.size == 0
        done_b = layer_b is None or layer_b.resolved() >= threshold
        if done_a and done_b:
            break
        if t >= cap:
            truncated = True
            break
        if layer_a.p.size == 0 or t >= support:
            # No station can transmit any more; process B's leftover mass is
            # the tail where at least one station failed.
            b_stalled = not done_b
            break

        next_a = step_process_a(layer_a, table, params)
        atoms_a.absorb(next_a)
        if layer_b is not None:
            layer_b = step_process_b(layer_b, table, layer_a, params)
            atoms_b.absorb(layer_b)
        layer_a = next_a

    p_a, absorbed_a, residual_a, mass_error_a = _outcome(layer_a, atoms_a)
    p_b, absorbed_b, residual_b, mass_error_b = (
        (None, 0.0, 0.0, 0.0) if layer_b is None else _outcome(layer_b, atoms_b))
    diagnostics = ChainDiagnostics(
        t_stop=layer_a.t,
        truncated=truncated,
        b_stalled=b_stalled,
        absorbed_success_a=absorbed_a,
        absorbed_failure_a=layer_a.failed.value,
        unresolved_a=residual_a,
        absorbed_b=absorbed_b,
        unresolved_b=residual_b,
        mass_error_a=mass_error_a,
        mass_error_b=mass_error_b,
        table_extent=table.t_extent,
    )
    return ChainResult(p_a=p_a, p_b=p_b, p_fail_a=layer_a.failed.value, diagnostics=diagnostics)


def _outcome(layer: StateLayer, atoms: _AtomAccumulator
             ) -> tuple[TimeDistribution, float, float, float]:
    """A process's distribution, absorbed mass, unresolved mass (carried plus pruned) and
    mass error."""
    dist = atoms.finish()
    residual = layer.carried_mass() + layer.dropped.value
    error = abs(dist.total_mass + layer.failed.value + residual - 1.0)
    return dist, layer.absorbed.value, residual, error
