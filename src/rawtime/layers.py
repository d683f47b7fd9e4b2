"""Layer-by-layer advance of the two absorbing chains.

Process A tracks one tagged station through states ``(t, c, s, r)`` -- virtual
slot, collision slots, success slots, retry count -- until it delivers its frame
or exhausts the retry limit; process B tracks the aggregate ``(t, c, s)`` until
all ``n_stations`` have delivered (``s == N``).

Every transition moves a state by a fixed offset in ``(c, s, r)``, so a layer
is a dense float64 array over the bounding box of its live cells,
``StateLayerA.p[r - r0, c - c0, s - s0]`` and ``StateLayerB.p[c - c0, s - s0]``.
A step writes each route into a box one larger in ``r``, ``c`` and ``s`` by a
shifted slice-add, zeroes the cells below ``prune_floor`` into the dropped
mass and trims the box to what is left on every axis: retry counts never
decrease, so rows below ``r0`` stay empty for the rest of the run.

Each floating-point sum has a fixed order, so a run gives the same bits
whatever the extent of its boxes: a cell receives its routes in the order
stay, peer success, other collision, tagged collision; sums over ``r`` add
rows in increasing ``r``; the pruned, absorbed and failed totals sum live
cells only, in ``(c, s, r)`` order, since the zeros of dead cells would
regroup the pairwise summation of ``np.sum``.  The pruned cells are found in
the box's own ``(r, c, s)`` order by one ``nonzero`` and put in ``(c, s, r)``
order by a stable sort of their ``(c, s)`` index, which keeps ``r`` rising
within a cell; a boolean index of the box viewed with ``r`` last needs no
sort but walks the box ``n_r`` cells at a time, which is slower from a few
thousand cells on.

A process-B cell transmits with process A's cell mixture, which is 0 where A
holds no mass.  A's ``c0`` and ``s0`` never fall, so a B cell below either can
never move again: each B step first cuts those strips from the box and keeps
their non-zero values in ``StateLayerB.stalled``.  ``carried_mass`` sums box
and store with ``math.fsum``, which is correctly rounded, so the split moves
no bit; frozen cells never change and are never pruned, so the pruned mass
keeps its order too.  Summed over a run, frozen cells were 43%, 83%, 88% and
89% of B's box at N = 7, 30, 100 and 200.  B's P(one) for the ``N - s``
stations of a cell needs ``(1 - q)^(N - 1 - s)``, bit for bit process A's
P(empty) on the same cell, so B reads it from A's cached slot-type
probabilities and raises ``1 - q`` to one power instead of two.  At N = 200
this cut B's box from 38.3k to 4.2k cells per step and a B step from
340-380 to 150-215 µs (CPU time, medians of three runs).

For the planner's populations (k <= 70, boxes of tens to a few thousand
cells) a step costs mostly a fixed number of numpy calls, not arithmetic, so
each step makes as few as it can: one product with ``TxProbTable.split``
gives a layer's silent mass, its mass and its transmitting mass; one
row-by-row pass sums the mixture's numerator and denominator; one product
with the stacked slot-type probabilities gives four of the five routes.  On
a 2-vCPU Xeon VM this cut a process-A step at k = 10, 30 and 60 from 218,
259 and 344 to 169, 201 and 268 µs (CPU time over a whole run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .params import ModelParams
from .txprob import TxProbTable

_EMPTY_I, _EMPTY_F = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
_TINY = float(np.nextafter(0.0, 1.0))  # the least positive float64


def _kahan_add(total: float, comp: float, x: float) -> tuple[float, float]:
    """One compensated-summation step; keeps totals honest over thousands of steps."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


@dataclass(eq=False)
class _Layer:
    """Mass box ``p`` with origin ``(c0, s0)`` at model time ``t``; cumulative pruned mass."""

    t: int
    p: np.ndarray
    c0: int = 0
    s0: int = 0
    dropped_mass: float = 0.0
    _drop_comp: float = 0.0

    def carried_mass(self) -> float:
        return math.fsum(self.p.ravel().tolist())

    @classmethod
    def initial(cls):
        """The layer at ``t = 0``: all mass in the origin cell."""
        return cls(t=0, p=np.ones((1,) * cls._ndim))


@dataclass(eq=False)
class StateLayerA(_Layer):
    """Tagged-station layer ``p[r - r0, c - c0, s - s0]``; ``new_success_*``: last step's
    absorptions; ``cell_prob``, ``slot_probs``: the layer's cell mixture and its peers'
    slot-type probabilities once ``_cell_prob`` and ``_peer_slot_probs`` have computed them."""

    _ndim = 3
    r0: int = 0
    new_success_c: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_success_s: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_success_p: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    absorbed_success_total: float = 0.0
    absorbed_failure: float = 0.0
    _succ_comp: float = 0.0
    _fail_comp: float = 0.0
    cell_prob: np.ndarray | None = field(default=None, init=False, repr=False)
    slot_probs: np.ndarray | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class StateLayerB(_Layer):
    """Aggregate layer ``p[c - c0, s - s0]``; ``new_absorbed_*``: last step's absorptions;
    ``stalled``: the non-zero mass of the cells retired from the box; ``a_c0``, ``a_s0``: the
    process-A origin they were last retired against."""

    _ndim = 2
    new_absorbed_c: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_absorbed_p: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    absorbed_total: float = 0.0
    _abs_comp: float = 0.0
    stalled: tuple[np.ndarray, ...] = ()
    a_c0: int = 0
    a_s0: int = 0

    def carried_mass(self) -> float:
        # fsum is correctly rounded, so splitting the cells between box and store keeps every bit
        return math.fsum(np.concatenate((self.p.ravel(), *self.stalled)).tolist())


def _split(layer: StateLayerA, table: TxProbTable) -> np.ndarray:
    """``w[r, 0]``, ``w[r, 1]``, ``w[r, 2]``: a process-A layer's silent mass, its mass and
    its transmitting mass on retry row ``r``, from one product with ``table.split``."""
    m, r0 = layer.p, layer.r0
    return m[:, None] * table.split_row(layer.t)[r0 : r0 + m.shape[0], :, None, None]


def _cell_prob(layer: StateLayerA, table: TxProbTable, w: np.ndarray | None = None) -> np.ndarray:
    """Per-cell retry-count mixture ``sum_r p q_r / sum_r p`` of a process-A layer
    (0 on empty cells); both processes step from it, so it is kept on the layer.
    ``w``: the layer's ``_split`` where the caller has it already."""
    if layer.cell_prob is None:
        # Both sums row by row (``p.sum(0)`` may sum pairwise).  Where ``den`` is 0
        # so is ``num``, and dividing by the least subnormal instead leaves the 0.
        sums = reduce(np.add, (_split(layer, table) if w is None else w)[:, 1:])
        prob = np.divide(sums[1], np.maximum(sums[0], _TINY))
        layer.cell_prob = np.minimum(prob, 1.0, out=prob)
    return layer.cell_prob


def _peer_slot_probs(layer: StateLayerA, table: TxProbTable, n_stations: int,
                     w: np.ndarray | None = None) -> np.ndarray:
    """``_slot_probs`` of a process-A layer's cell mixture for the ``N - 1 - s`` peers of each
    cell, kept on the layer: process B reads its P(empty).  ``w``: as for ``_cell_prob``."""
    if layer.slot_probs is None:
        layer.slot_probs = _slot_probs(_cell_prob(layer, table, w), n_stations - 1 - layer.s0)
    return layer.slot_probs


def _slot_probs(prob: np.ndarray, k0: int) -> np.ndarray:
    """Slot-type probabilities for ``k0, k0 - 1, ...`` stations (along the last axis of
    ``prob``) each sending w.p. ``prob``, stacked as P(one transmission), P(collision),
    P(empty), 1 - P(empty)."""
    # The counts and the counts less one (0 where the count is 0), as floats: mixed
    # int/float arithmetic would cast through a buffer on every call.
    k = np.arange(k0, k0 - prob.shape[-1] - 1, -1.0)
    np.maximum(k, 0.0, out=k)
    silent = 1.0 - prob
    pi = np.empty((4, *prob.shape))
    one, coll, empty, busy = pi[0], pi[1], pi[2], pi[3]
    np.power(silent, k[:-1], out=empty)
    np.multiply(k[:-1], prob, out=one)  # exactly 0 where the count is 0
    one *= silent ** k[1:]
    np.subtract(1.0, empty, out=busy)
    np.subtract(busy, one, out=coll)
    np.maximum(coll, 0.0, out=coll)
    return pi


def _span(any_: np.ndarray) -> tuple[int, int]:
    """First and one past the last true index of ``any_``; ``(0, 0)`` when none is true."""
    nz = any_.nonzero()[0]
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


def _advance(layer: _Layer, out: np.ndarray, floor: float) -> dict:
    """Fields of the layer after ``layer``, whose routed mass is ``out`` (axes ``[r,] c, s``,
    origin ``layer``'s): cells below ``floor`` are zeroed into the dropped mass, the box is
    trimmed to the rest on every axis."""
    flat = ((out < floor) & (out > 0.0)).ravel().nonzero()[0]  # pruned, in (r, c, s) order
    if out.ndim == 3:  # a stable sort on the (c, s) index puts them in (c, s, r) order
        flat = flat[(flat % (out.shape[1] * out.shape[2])).argsort(kind="stable")]
    low = out.take(flat)
    out.put(flat, 0.0)
    cells = out
    if out.ndim == 3:  # process A: trim the retry axis too
        r_any, cells = out.any(axis=(1, 2)), out.any(axis=0)
    (c_lo, c_hi), (s_lo, s_hi) = _span(cells.any(axis=1)), _span(cells.any(axis=0))
    dropped = _kahan_add(layer.dropped_mass, layer._drop_comp, float(low.sum()))
    fields = dict(t=layer.t + 1, p=out[..., c_lo:c_hi, s_lo:s_hi], c0=layer.c0 + c_lo,
                  s0=layer.s0 + s_lo, dropped_mass=dropped[0], _drop_comp=dropped[1])
    if out.ndim == 3:
        r_lo, r_hi = _span(r_any)
        fields.update(p=fields["p"][r_lo:r_hi], r0=layer.r0 + r_lo)
    return fields


def step_process_a(layer: StateLayerA, table: TxProbTable, params: ModelParams) -> StateLayerA:
    """Advance the tagged-station layer one virtual slot.

    Routing from each carried state, with q the tagged station's transmission
    probability and the peers' slot-type probabilities from the cell mixture:
    * empty slot, tagged silent          -> (t+1, c, s, r)
    * tagged transmits, peers silent     -> success absorption
    * one peer succeeds                  -> (t+1, c, s+1, r)
    * tagged transmits and is not alone  -> (t+1, c+1, s, r+1) or retry-limit failure
    * peers collide without tagged       -> (t+1, c+1, s, r)
    """
    m, rl, r0 = layer.p, params.retry_limit, layer.r0
    if m.size == 0:
        return replace(layer, t=layer.t + 1, new_success_c=_EMPTY_I, new_success_s=_EMPTY_I,
                       new_success_p=_EMPTY_F)
    n_r, n_c, n_s = m.shape
    w = _split(layer, table)
    pi = _peer_slot_probs(layer, table, params.n_stations, w)
    # One product gives the silent share times (P(one), P(collision)) and the
    # transmitting share times (P(empty), 1 - P(empty)): [r, share, slot type].
    routes = w[:, ::2, None] * pi.reshape(2, 2, n_c, n_s)
    r_out = min(n_r + 1, rl - r0)
    out = np.zeros((r_out, n_c + 1, n_s + 1))
    # A cell receives stay, peer success, other collision, tagged collision, in
    # that order; the stay route is written straight into the zeroed box.
    np.multiply(w[:, 0], pi[2], out=out[:n_r, :n_c, :n_s])
    out[:n_r, :n_c, 1:] += routes[:, 0, 0]
    out[:n_r, 1:, :n_s] += routes[:, 0, 1]
    tagged_coll = routes[:, 1, 1]
    out[1:, 1:, :n_s] += tagged_coll[: r_out - 1]
    new_failure = float(tagged_coll[-1][m[-1] > 0.0].sum()) if r0 + n_r == rl else 0.0
    succ = reduce(np.add, routes[:, 1, 0])
    hit = succ > 0.0
    succ_p = succ[hit]
    succ_c, succ_s = hit.nonzero()
    succ_total, succ_comp = _kahan_add(
        layer.absorbed_success_total, layer._succ_comp, float(succ_p.sum()))
    fail_total, fail_comp = _kahan_add(layer.absorbed_failure, layer._fail_comp, new_failure)
    return StateLayerA(
        **_advance(layer, out, params.prune_floor), new_success_c=layer.c0 + succ_c,
        new_success_s=layer.s0 + succ_s, new_success_p=succ_p, absorbed_success_total=succ_total,
        _succ_comp=succ_comp, absorbed_failure=fail_total, _fail_comp=fail_comp)


def step_process_b(
    layer: StateLayerB, table: TxProbTable, layer_a: StateLayerA, params: ModelParams
) -> StateLayerB:
    """Advance the aggregate layer one virtual slot.

    Each cell transmits with process A's cell mixture at the same time; where A
    holds no mass that is 0 and the cell self-loops through empty slots until
    mass arrives (or never, once A has resolved: the some-station-failed tail).
    A's ``c0`` and ``s0`` never fall, so a cell below either can never move
    again: it is retired from the box into ``stalled`` before the step.
    """
    n, a, a_c0, a_s0 = params.n_stations, layer_a.p, layer_a.c0, layer_a.s0
    if layer_a.t != layer.t:
        raise ValueError(f"process A layer at t={layer_a.t}, process B at t={layer.t}")
    if a_c0 < layer.a_c0 or a_s0 < layer.a_s0:
        raise ValueError(f"process A origin (c0, s0) = ({a_c0}, {a_s0}) fell below the "
                         f"({layer.a_c0}, {layer.a_s0}) process B was retired against")
    dc, ds = max(a_c0 - layer.c0, 0), max(a_s0 - layer.s0, 0)
    if dc or ds:
        m = layer.p
        frozen = np.concatenate((m[:dc].ravel(), m[dc:, :ds].ravel()))
        frozen = frozen[frozen > 0.0]
        layer = replace(layer, p=m[dc:, ds:], c0=layer.c0 + dc, s0=layer.s0 + ds,
                        stalled=layer.stalled + (frozen,) if frozen.size else layer.stalled)
    m, c0, s0 = layer.p, layer.c0, layer.s0
    if m.size == 0:
        return replace(layer, t=layer.t + 1, a_c0=a_c0, a_s0=a_s0, new_absorbed_c=_EMPTY_I,
                       new_absorbed_p=_EMPTY_F)
    n_c, n_s = m.shape
    # The box now starts at or above A's origin, so its overlap with A's box is
    # the corner [:h, :w].  Outside it P = 0, so P(empty) = 1 exactly and all
    # mass stays; only the overlap needs the slot-type probabilities.
    ia, ja = c0 - a_c0, s0 - a_s0
    h, w = max(min(n_c, a.shape[1] - ia), 0), max(min(n_s, a.shape[2] - ja), 0)
    out = np.zeros((n_c + 1, n_s + 1))
    out[h:n_c, :n_s] = m[h:]
    out[:h, w:n_s] = m[:h, w:]
    abs_c, abs_p, abs_x = _EMPTY_I, _EMPTY_F, 0.0
    if h and w:
        # With k = N - s contenders, P(one) = k q (1 - q)^(k - 1), and (1 - q)^(k - 1)
        # is process A's P(empty) for the N - 1 - s peers of the same cell.
        prob = _cell_prob(layer_a, table)[ia : ia + h, ja : ja + w]
        empty_a = _peer_slot_probs(layer_a, table, n)[2, ia : ia + h, ja : ja + w]
        k = np.arange(n - s0, n - s0 - w, -1.0)
        empty = np.power(1.0 - prob, k)
        pi = np.empty((2, h, w))
        p_one, p_coll = pi
        np.multiply(k, prob, out=p_one)
        p_one *= empty_a
        np.subtract(1.0, empty, out=p_coll)
        p_coll -= p_one
        np.maximum(p_coll, 0.0, out=p_coll)
        sub = m[:h, :w]
        np.multiply(sub, empty, out=out[:h, :w])
        succ, coll = sub * pi
        if s0 + w == n:  # successes from s == N - 1 absorb
            abs_c = np.flatnonzero(succ[:, -1] > 0.0)
            abs_p = succ[abs_c, -1]
            abs_x = float(abs_p.sum())
            succ[:, -1] = 0.0
        out[:h, 1 : w + 1] += succ
        out[1 : h + 1, :w] += coll
    abs_total, abs_comp = _kahan_add(layer.absorbed_total, layer._abs_comp, abs_x)
    return StateLayerB(
        **_advance(layer, out, params.prune_floor), new_absorbed_c=c0 + abs_c,
        new_absorbed_p=abs_p, absorbed_total=abs_total, _abs_comp=abs_comp,
        stalled=layer.stalled, a_c0=a_c0, a_s0=a_s0,
    )
