"""Layer-by-layer advance of the two absorbing chains.

Process A tracks one tagged station through states ``(t, c, s, r)`` -- virtual
slot, collision slots, success slots, retry count -- until it delivers its frame
or exhausts the retry limit; process B tracks the aggregate ``(t, c, s)`` until
all ``n_stations`` have delivered (``s == N``).

Both processes share one layer type.  Every transition moves a state by a
fixed offset in ``(c, s, r)``, so a layer is a dense float64 array over the
bounding box of its live cells.  Process A steps a stack of populations that
differ only in their station count as one box
``StateLayer.p[r - r0, j, c - c0[j], s - s0[j]]``: the retry rows share one
origin ``r0``, each population ``j`` has its own ``(c, s)`` origin
``(c0[j], s0[j])`` at its own live cells, so the box's c and s extents are the
largest of the populations' own, and each population has its own column ``j``
of the compensated totals; a lone run is the stack of one.  Process B has no
retry count and one population, so its box is ``p[0, 0, c - c0[0], s - s0[0]]``.
A step routes the mass into a box one larger on each axis it can grow on by
shifted slice-adds, records the cells that absorbed (``new_c``, ``new_s``,
``new_p``: the origin cell of each and its mass, population by population, with
``new_ends`` where each population's run of them ends), and hands the rest to
one shared tail: it zeroes the cells below ``prune_floor``, trims the rows and
each population's slab to what is left, and adds every population's absorbed,
failed and pruned mass to the layer's compensated totals, two ``(3, k)``
arrays of values ``totals`` and compensations ``comps``, with one vectorised
Kahan update.  Mass only moves up in c and s, so while every population still
holds a live cell on its own low c and low s faces one slice of the box trims
them all; only on a step where some population's low face has emptied is each
slab copied down to its own origin.  Retry counts never decrease, so rows below
``r0`` stay empty for the rest of the run.

Each floating-point sum has a fixed order, so a population gives the same
bits whatever the extent of its box, and so in any stack: a cell receives its
routes in the order stay, peer success, other collision, tagged collision;
sums over ``r`` add rows in increasing ``r``; the pruned, absorbed and failed
totals sum one population's live cells only, in ``(c, s, r)`` order, with one
``np.sum`` each, since the zeros of dead cells, or a segmented sum such as
``np.add.reduceat``, would regroup the pairwise summation of ``np.sum``.  The
pruned cells are found in the box's own ``(r, j, c, s)`` order by one
``nonzero`` and put in ``(j, c, s, r)`` order by a stable sort of their index
within a row, which keeps ``r`` rising within a cell and is the identity on a
one-row box.

A process-B cell transmits with process A's cell mixture, which is 0 where A
holds no mass.  A's ``c0[0]`` and ``s0[0]`` never fall, so a B cell below either
can never move again: each B step first cuts those strips from the box and keeps
their non-zero values in ``stalled``.  ``carried_mass`` sums box and store
with ``math.fsum``, which is correctly rounded, so the split moves no bit;
frozen cells never change and are never pruned, so the pruned mass keeps its
order too.  B's P(one) for the ``N - s`` stations of a cell needs
``(1 - q)^(N - 1 - s)``, bit for bit process A's P(empty) on the same cell, so
B reads it from A's cached slot-type probabilities.

For the planner's populations (k <= 70, boxes of tens to a few thousand
cells) a step costs both a fixed number of numpy calls and arithmetic on
every cell of its box (lone runs over k = 10-90 fit about 120 us per step
plus 20-60 ns per box cell), so each step makes as few calls as it can, and
a stack shares them among its populations (each of which leaves the stack as
it stops): one product with ``TxProbTable.split`` gives a layer's silent
mass, its mass and its transmitting mass; one row-by-row pass sums the
mixture's numerator and denominator; one product with the stacked slot-type
probabilities gives four of the five routes.
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


@dataclass(eq=False)
class StateLayer:
    """Mass box ``p[r - r0, j, c - c0[j], s - s0[j]]`` at model time ``t`` of the
    populations ``j``, which have ``stations[j]`` stations each: ``c0`` and ``s0`` are
    int arrays with one origin per population, each population's slab starts at its own
    live cells, and the rows share ``r0``.  Process B's box has one row and one
    population, ``p[0, 0, c - c0[0], s - s0[0]]``.

    ``totals``, ``comps``: float64 arrays of shape ``(3, k)``, whose rows are the
    cumulative absorbed, retry-limit-failed and pruned mass and whose columns are the
    populations, kept as compensated (Kahan) sums that stay honest over thousands of
    steps: ``totals`` holds the running values and ``comps`` their compensations.
    ``new_c``, ``new_s``, ``new_p``: the cells the step that made this layer absorbed from
    and their mass, population by population, and ``new_ends``: where each population's
    run of them ends.  Process B only: ``stalled``, the non-zero mass of the cells
    retired from the box, and ``a_c0``, ``a_s0``, the process-A origin they were last
    retired against.  Process A only: ``cell_prob``, ``slot_probs``, the layer's cell
    mixture and its peers' slot-type probabilities once ``_cell_prob`` and
    ``_peer_slot_probs`` have computed them, with the population axis before ``c``.
    """

    t: int
    p: np.ndarray
    stations: np.ndarray
    totals: np.ndarray
    comps: np.ndarray
    c0: np.ndarray
    s0: np.ndarray
    r0: int = 0
    new_c: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_s: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    new_p: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    new_ends: list[int] = field(default_factory=list)
    stalled: tuple[np.ndarray, ...] = ()
    a_c0: int = 0
    a_s0: int = 0
    cell_prob: np.ndarray | None = field(default=None, init=False, repr=False)
    slot_probs: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def initial(cls, stations) -> StateLayer:
        """The layer at ``t = 0`` of populations of ``stations`` stations each: all mass in
        the origin cell."""
        k = len(stations)
        origin = np.zeros(k, dtype=np.int64)
        return cls(t=0, p=np.ones((1, k, 1, 1)), stations=np.asarray(stations),
                   totals=np.zeros((3, k)), comps=np.zeros((3, k)), c0=origin, s0=origin)

    def carried_mass(self, j: int) -> float:
        """Mass population ``j`` still carries."""
        # fsum is correctly rounded, so splitting the cells between box and store keeps every bit
        return math.fsum(np.concatenate((self.p[:, j].ravel(), *self.stalled)).tolist())

    def resolved(self) -> np.ndarray:
        """Mass each population no longer carries: absorbed, failed or pruned, added in
        that order."""
        return self.totals[0] + self.totals[1] + self.totals[2]

    def done(self, threshold: float) -> np.ndarray:
        """Whether each population has resolved ``threshold`` of its mass or carries none."""
        if self.p.size == 0:
            return np.ones(len(self.stations), dtype=bool)
        done = self.resolved() >= threshold
        if len(self.stations) > 1:
            # a trimmed box holds a live cell on each live population's own low c face
            done |= ~self.p[:, :, 0].any(axis=(0, 2))
        return done

    def members(self, keep: list[int]) -> StateLayer:
        """The stack of the populations ``keep`` indexes; the next step trims its box."""
        return StateLayer(t=self.t, p=self.p[:, keep], c0=self.c0[keep], s0=self.s0[keep],
                          r0=self.r0, stations=self.stations[keep],
                          totals=self.totals[:, keep], comps=self.comps[:, keep])


def _split(layer: StateLayer, table: TxProbTable) -> np.ndarray:
    """``w[r, 0]``, ``w[r, 1]``, ``w[r, 2]``: a process-A layer's silent mass, its mass and
    its transmitting mass on retry row ``r``, from one product with ``table.split``."""
    m, r0 = layer.p, layer.r0
    return m[:, None] * table.split_row(layer.t)[r0 : r0 + m.shape[0], :, None, None, None]


def _cell_prob(layer: StateLayer, table: TxProbTable, w: np.ndarray | None = None) -> np.ndarray:
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


def _peer_slot_probs(layer: StateLayer, table: TxProbTable,
                     w: np.ndarray | None = None) -> np.ndarray:
    """``_slot_probs`` of a process-A layer's cell mixture for the ``N - 1 - s`` peers of each
    cell, kept on the layer: process B reads its P(empty).  ``w``: as for ``_cell_prob``."""
    if layer.slot_probs is None:
        prob = _cell_prob(layer, table, w)
        # Each population's peer counts of the columns and one more, as floats: mixed
        # int/float arithmetic would cast through a buffer on every call.
        k = (layer.stations - layer.s0)[:, None, None] - np.arange(1.0, 2.0 + prob.shape[-1])
        layer.slot_probs = _slot_probs(prob, k)
    return layer.slot_probs


def _slot_probs(prob: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Slot-type probabilities for ``k[..., s]`` stations (``prob`` has one column fewer)
    each sending w.p. ``prob``, stacked as P(one transmission), P(collision), P(empty),
    1 - P(empty)."""
    # the counts and the counts less one, 0 where the count is 0
    np.maximum(k, 0.0, out=k)
    lead, rest = k[..., :-1], k[..., 1:]
    silent = 1.0 - prob
    pi = np.empty((4, *prob.shape))
    one, coll, empty, busy = pi[0], pi[1], pi[2], pi[3]
    np.power(silent, lead, out=empty)
    np.multiply(lead, prob, out=one)  # exactly 0 where the count is 0
    one *= silent ** rest
    np.subtract(1.0, empty, out=busy)
    np.subtract(busy, one, out=coll)
    np.maximum(coll, 0.0, out=coll)
    return pi


def _span(any_: np.ndarray) -> tuple[int, int]:
    """First and one past the last true index of ``any_``; ``(0, 0)`` when none is true."""
    nz = any_.nonzero()[0]
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


def _ends(keys: np.ndarray, k: int, per: int) -> list[int]:
    """Where the run of each of ``k`` populations ends in the increasing ``keys``, in which
    population ``j``'s keys lie in ``[j * per, (j + 1) * per)``."""
    if k == 1:  # a lone run: one run, nothing to search
        return [keys.size]
    return np.searchsorted(keys, np.arange(per, (k + 1) * per, per)).tolist()


def _run_sums(values: np.ndarray, ends: list[int]) -> list[float]:
    """One ``np.sum`` over each run of ``values`` (0.0 for an empty run); the runs end at
    ``ends``."""
    if len(ends) == 1:  # a lone run: the whole array, with no slicing
        return [float(values.sum())]
    return [float(values[start:end].sum()) if end > start else 0.0
            for start, end in zip([0, *ends], ends)]


def _idle(layer: StateLayer, **kept) -> StateLayer:
    """The layer after ``layer`` when its box is empty: nothing moves or absorbs."""
    return replace(layer, t=layer.t + 1, new_c=_EMPTY_I, new_s=_EMPTY_I, new_p=_EMPTY_F,
                   new_ends=[], **kept)


def _compensated_add(totals: np.ndarray, comps: np.ndarray,
                     values) -> tuple[np.ndarray, np.ndarray]:
    """``values`` added to the compensated (Kahan) sums ``totals``, whose compensations are
    ``comps``, entry by entry: the new totals and compensations."""
    y = np.subtract(values, comps)
    t = totals + y
    return t, (t - totals) - y


def _next(layer: StateLayer, out: np.ndarray, floor: float, new_c: np.ndarray,
          new_s: np.ndarray, new_p: np.ndarray, new_ends: list[int], failed: list[float],
          **kept) -> StateLayer:
    """The layer after ``layer``, whose routed mass is ``out`` (the axes and origins of
    ``layer.p``): cells below ``floor`` are zeroed into the dropped mass, and the rows and
    each population's slab are trimmed to the rest.  The step absorbed ``new_p``
    from the cells ``(new_c, new_s)``, population ``j``'s run of them ending at
    ``new_ends[j]``, and population ``j`` failed ``failed[j]``; ``kept``: further fields."""
    n_r, k, n_c, n_s = out.shape
    row = out.size // n_r
    live = out >= max(floor, _TINY)  # mass is never negative: neither pruned nor 0
    flat = ((out > 0.0) ^ live).ravel().nonzero()[0]  # pruned, in (r, j, c, s) order
    low, low_ends = _EMPTY_F, [0] * k
    if flat.size:
        # a stable sort on the (j, c, s) index puts them in (j, c, s, r) order
        within = flat % row
        order = within.argsort(kind="stable")
        flat, low_ends = flat[order], _ends(within[order], k, n_c * n_s)
        low = out.take(flat)
        out.put(flat, 0.0)
    # Boolean reductions cost about half as much as ``any`` on the float box.
    r_lo, r_hi = _span(np.logical_or.reduce(live.reshape(n_r, row), axis=1))
    union = np.logical_or.reduce(live.reshape(-1, n_c, n_s), axis=0)
    (c_lo, c_hi) = _span(np.logical_or.reduce(union, axis=1))
    (s_lo, s_hi) = _span(np.logical_or.reduce(union, axis=0))
    c0, s0 = layer.c0, layer.s0
    if k == 1 or (all(np.logical_or.reduce(live[:, :, 0], axis=(0, 2)).tolist())
                  and all(np.logical_or.reduce(live[:, :, :, 0], axis=(0, 2)).tolist())):
        # every population still holds a live cell on its own low c and low s faces
        # (a lone one's are the box's), so one slice of the box trims them all
        p = out[r_lo:r_hi, :, c_lo:c_hi, s_lo:s_hi]
        c0, s0 = c0 + c_lo if c_lo else c0, s0 + s_lo if s_lo else s0
    else:
        p, c0, s0 = _own_origins(out[r_lo:r_hi], live, c0, s0)
    totals, comps = _compensated_add(layer.totals, layer.comps, [
        _run_sums(new_p, new_ends), failed, _run_sums(low, low_ends)])
    return StateLayer(
        t=layer.t + 1, p=p, c0=c0, s0=s0, r0=layer.r0 + r_lo, stations=layer.stations,
        new_c=new_c, new_s=new_s, new_p=new_p, new_ends=new_ends, totals=totals,
        comps=comps, **kept)


def _own_origins(out: np.ndarray, live: np.ndarray, c0: np.ndarray,
                 s0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack's box ``out`` with each population's slab moved down to its own live cells,
    which ``live`` (the axes of the box before its rows were trimmed) marks, and the new
    origins; a population with no live cell keeps its origin."""
    cells = np.logical_or.reduce(live, axis=0)
    c_any, s_any = np.logical_or.reduce(cells, axis=2), np.logical_or.reduce(cells, axis=1)
    alive = np.logical_or.reduce(c_any, axis=1)
    c_lo, s_lo = c_any.argmax(axis=1), s_any.argmax(axis=1)  # 0 where none is live
    c_ext = np.where(alive, c_any.shape[1] - c_any[:, ::-1].argmax(axis=1) - c_lo, 0)
    s_ext = np.where(alive, s_any.shape[1] - s_any[:, ::-1].argmax(axis=1) - s_lo, 0)
    p = np.zeros((*out.shape[:2], c_ext.max(), s_ext.max()))
    for j, (c, s, h, w) in enumerate(zip(c_lo.tolist(), s_lo.tolist(), c_ext.tolist(),
                                         s_ext.tolist())):
        p[:, j, :h, :w] = out[:, j, c : c + h, s : s + w]
    return p, c0 + c_lo, s0 + s_lo


def step_process_a(layer: StateLayer, table: TxProbTable, params: ModelParams) -> StateLayer:
    """Advance the tagged-station stack one virtual slot.

    Routing from each carried state, with q the tagged station's transmission
    probability and the peers' slot-type probabilities from the cell mixture:
    * empty slot, tagged silent          -> (t+1, c, s, r)
    * tagged transmits, peers silent     -> success absorption
    * one peer succeeds                  -> (t+1, c, s+1, r)
    * tagged transmits and is not alone  -> (t+1, c+1, s, r+1) or retry-limit failure
    * peers collide without tagged       -> (t+1, c+1, s, r)

    The populations take their station counts from ``layer.stations`` and the rest
    of the model from ``params``.
    """
    m, rl, r0 = layer.p, params.retry_limit, layer.r0
    if m.size == 0:
        return _idle(layer)
    n_r, k, n_c, n_s = m.shape
    w = _split(layer, table)
    pi = _peer_slot_probs(layer, table, w)
    # One product gives the silent share times (P(one), P(collision)) and the
    # transmitting share times (P(empty), 1 - P(empty)): [r, share, slot type].
    routes = w[:, ::2, None] * pi.reshape(2, 2, *pi.shape[1:])
    r_out = min(n_r + 1, rl - r0)
    out = np.zeros((r_out, k, n_c + 1, n_s + 1))
    # A cell receives stay, peer success, other collision, tagged collision, in
    # that order; the stay route is written straight into the zeroed box.
    np.multiply(w[:, 0], pi[2], out=out[:n_r, :, :n_c, :n_s])
    out[:n_r, :, :n_c, 1:] += routes[:, 0, 0]
    out[:n_r, :, 1:, :n_s] += routes[:, 0, 1]
    tagged_coll = routes[:, 1, 1]
    out[1:, :, 1:, :n_s] += tagged_coll[: r_out - 1]
    failed = [0.0] * k
    if r0 + n_r == rl:  # tagged collisions on the last retry row fail
        top = m[-1] > 0.0
        lost = tagged_coll[-1][top]
        # a lone run skips the nonzero that finds a stack's runs
        failed = _run_sums(lost, [lost.size] if k == 1 else _ends(top.nonzero()[0], k, 1))
    succ = reduce(np.add, routes[:, 1, 0])
    hit = succ > 0.0
    if k == 1:  # a lone run: nonzero costs less without the population axis
        new_c, new_s = hit[0].nonzero()
        new_c += layer.c0[0]
        new_s += layer.s0[0]
        ends = [new_c.size]
    else:  # each cell offset by its own population's origin
        new_j, new_c, new_s = hit.nonzero()
        new_c += layer.c0[new_j]
        new_s += layer.s0[new_j]
        ends = _ends(new_j, k, 1)
    return _next(layer, out, params.prune_floor, new_c, new_s, succ[hit], ends, failed)


def step_process_b(
    layer: StateLayer, table: TxProbTable, layer_a: StateLayer, params: ModelParams
) -> StateLayer:
    """Advance the aggregate layer one virtual slot.

    Each cell transmits with process A's cell mixture at the same time; where A
    holds no mass that is 0 and the cell self-loops through empty slots until
    mass arrives (or never, once A has resolved: the some-station-failed tail).
    A's ``c0`` and ``s0`` (those of its one population) never fall, so a cell
    below either can never move again: it is retired from the box into
    ``stalled`` before the step.  Absorptions come from ``s == N - 1``.
    """
    n, a, a_c0, a_s0 = params.n_stations, layer_a.p, int(layer_a.c0[0]), int(layer_a.s0[0])
    if layer_a.t != layer.t:
        raise ValueError(f"process A layer at t={layer_a.t}, process B at t={layer.t}")
    if a_c0 < layer.a_c0 or a_s0 < layer.a_s0:
        raise ValueError(f"process A origin (c0, s0) = ({a_c0}, {a_s0}) fell below the "
                         f"({layer.a_c0}, {layer.a_s0}) process B was retired against")
    dc, ds = max(a_c0 - int(layer.c0[0]), 0), max(a_s0 - int(layer.s0[0]), 0)
    if dc or ds:
        m = layer.p[0, 0]
        frozen = np.concatenate((m[:dc].ravel(), m[dc:, :ds].ravel()))
        frozen = frozen[frozen > 0.0]
        layer = replace(layer, p=layer.p[..., dc:, ds:], c0=layer.c0 + dc, s0=layer.s0 + ds,
                        stalled=layer.stalled + (frozen,) if frozen.size else layer.stalled)
    if layer.p.size == 0:
        return _idle(layer, a_c0=a_c0, a_s0=a_s0)
    m, c0, s0 = layer.p[0, 0], int(layer.c0[0]), int(layer.s0[0])
    n_c, n_s = m.shape
    # The box now starts at or above A's origin, so its overlap with A's box is
    # the corner [:h, :w].  Outside it P = 0, so P(empty) = 1 exactly and all
    # mass stays; only the overlap needs the slot-type probabilities.
    ia, ja = c0 - a_c0, s0 - a_s0
    h, w = max(min(n_c, a.shape[2] - ia), 0), max(min(n_s, a.shape[3] - ja), 0)
    out = np.zeros((1, 1, n_c + 1, n_s + 1))
    o = out[0, 0]
    o[h:n_c, :n_s] = m[h:]
    o[:h, w:n_s] = m[:h, w:]
    new_c, new_p = _EMPTY_I, _EMPTY_F
    if h and w:
        # With k = N - s contenders, P(one) = k q (1 - q)^(k - 1), and (1 - q)^(k - 1)
        # is process A's P(empty) for the N - 1 - s peers of the same cell.
        prob = _cell_prob(layer_a, table)[0, ia : ia + h, ja : ja + w]
        empty_a = _peer_slot_probs(layer_a, table)[2, 0, ia : ia + h, ja : ja + w]
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
        np.multiply(sub, empty, out=o[:h, :w])
        succ, coll = sub * pi
        if s0 + w == n:  # successes from s == N - 1 absorb
            new_c = np.flatnonzero(succ[:, -1] > 0.0)
            new_p = succ[new_c, -1]
            succ[:, -1] = 0.0
        o[:h, 1 : w + 1] += succ
        o[1 : h + 1, :w] += coll
    return _next(layer, out, params.prune_floor, new_c + c0, np.full_like(new_c, n - 1), new_p,
                 [new_c.size], [0.0], stalled=layer.stalled, a_c0=a_c0, a_s0=a_s0)
