"""Layer-by-layer advance of the two absorbing chains.

Process A tracks one tagged station through states ``(t, c, s, r)`` -- virtual
slot, collision slots, success slots, retry count -- until it delivers its frame
or exhausts the retry limit; process B tracks the aggregate ``(t, c, s)`` until
all ``n_stations`` have delivered (``s == N``).

Every transition moves a state by a fixed offset in ``(c, s, r)``, so a layer
is a dense float64 array over the bounding box of its live cells,
``StateLayerA.p[r, c - c0, s - s0]`` and ``StateLayerB.p[c - c0, s - s0]``.
A step writes each route into a box one larger in ``c`` and ``s`` by a
shifted slice-add, zeroes the cells below ``prune_floor`` into the dropped
mass and trims the box to what is left.

Each floating-point sum has a fixed order, so a run gives the same bits
whatever the extent of its boxes: a cell receives its routes in the order
stay, peer success, other collision, tagged collision; sums over ``r`` add
rows in increasing ``r``; the pruned, absorbed and failed totals sum live
cells only, in ``(c, s, r)`` order, since the zeros of dead cells would
regroup the pairwise summation of ``np.sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .params import ModelParams
from .txprob import TxProbTable

_EMPTY_I, _EMPTY_F = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


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
    """Tagged-station layer ``p[r, c - c0, s - s0]``; ``new_success_*``: last step's absorptions;
    ``cell_prob``: the layer's cell mixture once ``_cell_prob`` has computed it."""

    _ndim = 3
    new_success_c: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_success_s: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_success_p: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    absorbed_success_total: float = 0.0
    absorbed_failure: float = 0.0
    _succ_comp: float = 0.0
    _fail_comp: float = 0.0
    cell_prob: np.ndarray | None = field(default=None, init=False, repr=False)


@dataclass(eq=False)
class StateLayerB(_Layer):
    """Aggregate layer ``p[c - c0, s - s0]``; ``new_absorbed_*``: last step's absorptions."""

    _ndim = 2
    new_absorbed_c: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_absorbed_p: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    absorbed_total: float = 0.0
    _abs_comp: float = 0.0


def _cell_prob(layer: StateLayerA, table: TxProbTable, pq: np.ndarray | None = None) -> np.ndarray:
    """Per-cell retry-count mixture ``sum_r p q_r / sum_r p`` of a process-A layer
    (0 on empty cells); both processes step from it, so it is kept on the layer.
    ``pq``: the product ``p q_r`` where the caller has it already."""
    if layer.cell_prob is None:
        p = layer.p
        if pq is None:
            pq = p * table.p_tx_row(layer.t)[: p.shape[0], None, None]
        den = reduce(np.add, p)  # row by row: ``p.sum(0)`` may sum pairwise
        prob = np.divide(reduce(np.add, pq), den, out=np.zeros_like(den), where=den > 0.0)
        layer.cell_prob = np.clip(prob, 0.0, 1.0, out=prob)
    return layer.cell_prob


def _slot_probs(prob: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """P(empty), P(one transmission), P(collision) for ``k`` stations sending w.p. ``prob``."""
    silent = 1.0 - prob
    empty = silent**k
    one = np.where(k > 0, k * prob * silent ** np.maximum(k - 1, 0), 0.0)
    return empty, one, np.maximum(1.0 - empty - one, 0.0)


def _advance(layer: _Layer, out: np.ndarray, floor: float) -> dict:
    """Fields of the layer after ``layer``, whose routed mass is ``out`` (last axes ``c, s``):
    cells below ``floor`` are zeroed into the dropped mass, the box is trimmed to the rest."""
    n_c, n_s = out.shape[-2:]
    flat = np.flatnonzero((out > 0.0) & (out < floor))
    r, cs = np.divmod(flat, n_c * n_s)
    low = out.ravel()[flat[np.argsort(cs * (out.size // (n_c * n_s)) + r)]]
    out.ravel()[flat] = 0.0
    live = (out != 0.0).reshape(-1, n_c, n_s).any(axis=0)
    cs, ss = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
    dropped = _kahan_add(layer.dropped_mass, layer._drop_comp, float(np.sum(low)))
    c_lo, c_hi, s_lo, s_hi = (cs[0], cs[-1] + 1, ss[0], ss[-1] + 1) if cs.size else (0,) * 4
    return dict(t=layer.t + 1, p=out[..., c_lo:c_hi, s_lo:s_hi], c0=layer.c0 + int(c_lo),
                s0=layer.s0 + int(s_lo), dropped_mass=dropped[0], _drop_comp=dropped[1])


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
    m, rl = layer.p, params.retry_limit
    n_r, n_c, n_s = m.shape
    q = table.p_tx_row(layer.t)[:n_r, None, None]
    silent_m, tx_m = m * (1.0 - q), m * q
    peers = params.n_stations - 1 - (layer.s0 + np.arange(n_s))
    pi_empty, pi_peer_succ, pi_peer_coll = _slot_probs(_cell_prob(layer, table, tx_m), peers)
    coll_tagged = tx_m * (1.0 - pi_empty)
    r_out = min(n_r + 1, rl)
    out = np.zeros((r_out, n_c + 1, n_s + 1))
    out[:n_r, :n_c, :n_s] += silent_m * pi_empty
    out[:n_r, :n_c, 1:] += silent_m * pi_peer_succ
    out[:n_r, 1:, :n_s] += silent_m * pi_peer_coll
    out[1:, 1:, :n_s] += coll_tagged[: r_out - 1]
    new_failure = float(np.sum(coll_tagged[-1][m[-1] > 0.0])) if n_r == rl else 0.0
    succ = reduce(np.add, tx_m * pi_empty)
    succ_c, succ_s = np.nonzero(succ > 0.0)
    succ_p = succ[succ_c, succ_s]
    succ_total, succ_comp = _kahan_add(
        layer.absorbed_success_total, layer._succ_comp, float(np.sum(succ_p)))
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
    """
    n, m, a = params.n_stations, layer.p, layer_a.p
    if layer_a.t != layer.t:
        raise ValueError(f"process A layer at t={layer_a.t}, process B at t={layer.t}")
    if m.size == 0:
        return replace(layer, t=layer.t + 1, new_absorbed_c=_EMPTY_I, new_absorbed_p=_EMPTY_F)
    n_c, n_s = m.shape
    # Outside process A's box P = 0, so pi_empty = 1 exactly and all mass
    # stays; only the overlap with A's box needs the slot-type powers.
    out = np.zeros((n_c + 1, n_s + 1))
    out[:n_c, :n_s] = m
    absorbed = _EMPTY_F
    c_lo, s_lo = max(layer.c0, layer_a.c0), max(layer.s0, layer_a.s0)
    h = min(layer.c0 + n_c, layer_a.c0 + a.shape[1]) - c_lo
    w = min(layer.s0 + n_s, layer_a.s0 + a.shape[2]) - s_lo
    if h > 0 and w > 0:
        ia, ja, i, j = c_lo - layer_a.c0, s_lo - layer_a.s0, c_lo - layer.c0, s_lo - layer.s0
        peer_prob = _cell_prob(layer_a, table)[ia : ia + h, ja : ja + w]
        sub = m[i : i + h, j : j + w]
        pi_empty, pi_succ, pi_coll = _slot_probs(peer_prob, n - np.arange(s_lo, s_lo + w))
        succ = sub * pi_succ
        if s_lo + w == n:  # successes from s == N - 1 absorb
            absorbed = succ[:, -1].copy()
            succ[:, -1] = 0.0
        out[i : i + h, j : j + w] = sub * pi_empty
        out[i : i + h, j + 1 : j + w + 1] += succ
        out[i + 1 : i + h + 1, j : j + w] += sub * pi_coll
    abs_c = np.flatnonzero(absorbed > 0.0)
    abs_p = absorbed[abs_c]
    abs_total, abs_comp = _kahan_add(layer.absorbed_total, layer._abs_comp, float(np.sum(abs_p)))
    return StateLayerB(
        **_advance(layer, out, params.prune_floor), new_absorbed_c=c_lo + abs_c,
        new_absorbed_p=abs_p, absorbed_total=abs_total, _abs_comp=abs_comp,
    )
