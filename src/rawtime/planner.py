"""Slot sizing and station grouping on top of the delivery-time model.

Given a population in which each station independently holds a frame with
probability ``p_active``, the delivery-time distribution for a tagged station
is a binomial mixture of fixed-population distributions.  The planner turns
mixture quantiles into minimal RAW slot durations and sweeps group counts to
minimize total reserved channel time.
"""

from __future__ import annotations

import math
import time
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterator

import numpy as np

from .chains import run_chains, run_stack
from .distribution import TimeDistribution, UnsatisfiableQuantileError, merge_weighted
from .params import ConfigurationError, ModelParams, SlotDurations
from .pool import map_jobs

#: Longest RAW slot the 802.11ah signalling can encode, in microseconds.
MAX_RAW_SLOT_US = 246_140

#: Binomial tail probability ignored (and booked as deficit) per mixture side.
_WEIGHT_TAIL = 1e-10


class Conditioning(str, Enum):
    """How the random active count is conditioned for the tagged-station mixture.

    ``TAGGED_HAS_PACKET``: the question "how long until a station delivers"
    presupposes that station holds a frame, so the remaining N-1 stations are
    the random part.  ``POPULATION_WIDE`` applies the plain binomial over all
    N stations, restricted to k >= 1 and renormalized.
    """

    TAGGED_HAS_PACKET = "tagged-has-packet"
    POPULATION_WIDE = "population-wide"


@dataclass(frozen=True)
class MixtureSpec:
    n_total: int
    p_active: float
    conditioning: Conditioning = Conditioning.TAGGED_HAS_PACKET

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ConfigurationError(f"n_total must be >= 1, got {self.n_total}")
        if not 0.0 <= self.p_active <= 1.0:
            raise ConfigurationError(f"p_active must lie in [0, 1], got {self.p_active}")
        object.__setattr__(self, "conditioning", Conditioning(self.conditioning))


#: Most populations a chain run steps as one stack.
_STACK = 8

#: Largest population stepped in a stack.  A step costs a fixed number of
#: numpy calls, which a stack shares, plus arithmetic on every cell of its box.
#: With one (c, s) origin per population a stack of k >= 16 holds 1.1-1.3 times
#: its populations' own cells, and a step copies every slab down to its own
#: origin when some population's lowest c or s has emptied: on 31% of the
#: steps at k = 72-86, 40% at 100-121 and 83% at 287-336.  Measured per 8
#: neighbours at 802.11ah parameters, stacked against alone, CPU seconds over
#: five runs: k = 72-86, 2.1-2.6 vs 3.0-3.9; k = 100-121, 3.0-3.7 vs 3.8-5.2;
#: k = 287-336, 10.9-12.2 vs 8.3-10.1.  The bound stays at 90 although stacking
#: paid up to k = 121: no benchmarked workload runs a larger population.
_STACK_MAX_K = 90


def _chain_run(stack: list[ModelParams], durations: SlotDurations, compute_b: bool):
    """Cold chain runs of one job: (P_B of its one population if ``compute_b``,
    else P_A of each population of the stack; seconds the job took where it
    ran).

    Module-level so a process pool can send it by name; it looks up
    ``run_chains`` and ``run_stack`` in this module at call time.
    """
    started = time.perf_counter()
    if compute_b:
        (params,) = stack
        dists = [run_chains(params, durations).p_b]
    else:
        dists = [result.p_a for result in run_stack(stack, durations)]
    return dists, time.perf_counter() - started


class DistributionCache:
    """The planner's model and its store of per-population chain runs.

    A run is keyed by its population ``k`` and its process: ``pa(k)`` is P_A
    of an A-only run, ``pb(k)`` P_B of a run of both processes, so which of
    the two was asked for first never changes the other.
    ``params.n_stations`` is ignored; the population comes from the lookup
    key.  ``chain_runs`` counts cold runs, one per population also where
    ``fill`` stepped several as one stack; ``cache_hits`` counts the
    ``pa``/``pb`` lookups served without one; ``chain_run_s`` sums the seconds
    of ``fill``'s jobs where they ran, a stack's once.  The first lookup a run
    was made for is its miss, whether ``fill`` ran it ahead of the lookup or
    the lookup itself did.
    """

    def __init__(self, params: ModelParams, durations: SlotDurations):
        self.params = params
        self.durations = durations
        # keyed (k, compute_b); zero active stations complete instantly
        self._runs: dict[tuple[int, bool], TimeDistribution] = {
            (0, True): TimeDistribution([0], [1.0])}
        # the keys of the runs whose first lookup is still to come
        self._unread: set[tuple[int, bool]] = set()
        self.chain_runs = 0
        self.cache_hits = 0
        self.chain_run_s = 0.0

    def counters(self) -> dict:
        return {"chain_runs": self.chain_runs, "cache_hits": self.cache_hits,
                "chain_run_s": self.chain_run_s}

    def fill(self, ks, compute_b: bool) -> None:
        """Run every population in ``ks`` that ``pa`` (or ``pb`` when
        ``compute_b``) would miss, in one batch.

        Process A alone steps neighbouring populations of at most
        ``_STACK_MAX_K`` stations as one stack (``run_stack``): sorted, they
        are cut into contiguous stacks of at most ``_STACK``, as even as
        possible.  A larger population, or a run of process B, is a job of its
        own.  The jobs are independent, so with more than one usable CPU and a
        forking platform they go to a process pool of at most one worker per
        CPU, largest populations (the longest runs) first.  Results are stored
        exactly as serial lookups would store them, bit for bit.
        """
        missing = [k for k in sorted({int(k) for k in ks}, reverse=True)
                   if (k, compute_b) not in self._runs]
        alone = [[k] for k in missing if compute_b or k > _STACK_MAX_K]
        small = missing[len(alone):]
        n, count = len(small), -(-len(small) // _STACK)
        stacks = alone + [small[n * i // count : n * (i + 1) // count] for i in range(count)]
        results = map_jobs(_chain_run, ([self.params.with_stations(k) for k in stack]
                                        for stack in stacks),
                           repeat(self.durations), repeat(compute_b))
        for stack, (dists, seconds) in zip(stacks, results):
            for k, dist in zip(stack, dists):
                self._runs[k, compute_b] = dist
                self._unread.add((k, compute_b))
            self.chain_runs += len(stack)
            self.chain_run_s += seconds

    def pa(self, k: int) -> TimeDistribution:
        return self._lookup(k, compute_b=False)

    def pb(self, k: int) -> TimeDistribution:
        return self._lookup(k, compute_b=True)

    def _lookup(self, k: int, compute_b: bool) -> TimeDistribution:
        key = (k, compute_b)
        if key not in self._runs:
            self.fill([k], compute_b)
        if key in self._unread:
            self._unread.remove(key)
        else:
            self.cache_hits += 1
        return self._runs[key]


def _binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of k = 0..n, each correctly rounded.

    ``p`` is a binary fraction num/den, so ``comb(n, k) num^k (den-num)^(n-k)``
    over ``den^n`` is a ratio of integers; successive numerators differ by the
    exact factor ``(n-k) num / ((k+1) (den-num))``.
    """
    num, den = p.as_integer_ratio()
    rest = den - num
    if rest == 0:
        return (np.arange(n + 1) == n).astype(float)
    total, term = den**n, rest**n
    out = np.empty(n + 1)
    for k in range(n + 1):
        out[k] = term / total
        term = term * (n - k) * num // ((k + 1) * rest)
    return out


def _stride_from_weights(k_values: np.ndarray, weights: np.ndarray) -> int:
    """Grid stride for subsampled mixtures: about two grid points per standard
    deviation of the weights, so the mixture stays smooth while large sweeps
    reuse a shared lattice of population sizes."""
    total = float(np.sum(weights))
    mean = float(np.dot(weights, k_values)) / total
    var = float(np.dot(weights, (k_values - mean) ** 2)) / total
    return max(1, round(math.sqrt(var) / 2.0))


def mixture_weights(spec: MixtureSpec) -> np.ndarray:
    """Weights over active counts k = 1..n_total; sums to 1."""
    n, p = spec.n_total, spec.p_active
    if spec.conditioning is Conditioning.TAGGED_HAS_PACKET:
        return _binom_pmf(n - 1, p)
    if p == 0.0:
        raise ConfigurationError(
            "population-wide conditioning with p_active=0 has empty support"
        )
    norm = 1.0 - (1.0 - p) ** n
    return _binom_pmf(n, p)[1:] / norm


def _grid_points(ks: np.ndarray, stride: int) -> np.ndarray:
    """Subsampling lattice: multiples of ``stride`` plus both endpoints.

    Anchoring on absolute multiples makes different mixtures in a sweep share
    chain runs.
    """
    lo, hi = int(ks[0]), int(ks[-1])
    inner = np.arange(-(-lo // stride) * stride, hi + 1, stride)
    return np.unique(np.concatenate(([lo], inner, [hi])))


def _subsample_weights(ks: np.ndarray, weights: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Reassign each k's weight linearly onto the two surrounding grid points."""
    grid = _grid_points(ks, stride)
    pos = np.searchsorted(grid, ks)
    exact = grid[np.minimum(pos, grid.size - 1)] == ks
    rest = ~exact
    hi_idx = pos[rest]
    lo_idx = hi_idx - 1
    span = (grid[hi_idx] - grid[lo_idx]).astype(float)
    frac_hi = (ks[rest] - grid[lo_idx]) / span
    # bincount adds in input order: exact weights, then the low and high shares
    out = np.bincount(np.concatenate((pos[exact], lo_idx, hi_idx)),
                      np.concatenate((weights[exact], weights[rest] * (1.0 - frac_hi),
                                      weights[rest] * frac_hi)),
                      minlength=grid.size)
    return grid, out


def _lattice(
    weights: np.ndarray, k_values: np.ndarray, k_stride: int | str
) -> tuple[np.ndarray, np.ndarray]:
    """Populations a mixture evaluates and their weights: positive weights,
    negligible binomial tails trimmed (the trimmed weight lands in the
    deficit), then subsampled onto the stride's lattice."""
    keep = weights > 0.0
    k_values, weights = k_values[keep], weights[keep]
    if k_values.size == 0:
        raise ConfigurationError("mixture has no components with positive weight")

    cum = np.cumsum(weights)
    lo = int(np.searchsorted(cum, _WEIGHT_TAIL))
    hi = int(np.searchsorted(cum, cum[-1] - _WEIGHT_TAIL, side="right"))
    k_values, weights = k_values[lo : hi + 1], weights[lo : hi + 1]

    stride = _stride_from_weights(k_values, weights) if k_stride == "auto" else int(k_stride)
    if stride > 1 and k_values.size > 2:
        k_values, weights = _subsample_weights(k_values, weights, stride)
    return k_values, weights


def _spec_lattice(
    spec: MixtureSpec, problem_b: bool, k_stride: int | str
) -> tuple[np.ndarray, np.ndarray]:
    """The lattice of P_A's mixture over k = 1..n_total, or of P_B's
    Binomial(n_total, p_active) mixture over k = 0..n_total."""
    if problem_b:
        weights, k0 = _binom_pmf(spec.n_total, spec.p_active), 0
    else:
        weights, k0 = mixture_weights(spec), 1
    return _lattice(weights, np.arange(k0, spec.n_total + 1), k_stride)


def _mixtures(
    specs: list[MixtureSpec], cache: DistributionCache, problem_b: bool, k_stride: int | str
) -> Iterator[TimeDistribution]:
    """Each spec's P_A (or, with ``problem_b``, P_B) mixture in turn, after
    one batch that runs every population their lattices need.  A mixture is
    built only when asked for, so a sweep holds one at a time."""
    lattices = [_spec_lattice(spec, problem_b, k_stride) for spec in specs]
    cache.fill(np.concatenate([ks for ks, _ in lattices]), compute_b=problem_b)
    component = cache.pb if problem_b else cache.pa
    for ks, weights in lattices:
        yield merge_weighted((float(w), component(int(k))) for k, w in zip(ks, weights))


def mixture_pa(
    spec: MixtureSpec, cache: DistributionCache, *, k_stride: int | str = 1
) -> TimeDistribution:
    """Tagged-station delivery-time distribution under a random active count,
    from the model and the chain runs of ``cache``.

    ``k_stride > 1`` (or ``"auto"``) evaluates the chain only on a lattice of
    population sizes and reassigns the skipped binomial weights linearly onto
    the neighbouring lattice points; the lattice is anchored on absolute
    multiples of the stride so sweeps share runs.
    """
    return next(_mixtures([spec], cache, False, k_stride))


def mixture_pb(
    spec: MixtureSpec, cache: DistributionCache, *, k_stride: int | str = 1
) -> TimeDistribution:
    """All-actives completion-time distribution under a Binomial(n_total,
    p_active) active count; zero active stations complete instantly (atom at
    duration 0).  Every station of the group is counted, so
    ``spec.conditioning`` plays no part."""
    return next(_mixtures([spec], cache, True, k_stride))


@dataclass(frozen=True)
class GroupPlan:
    """One feasible grouping decision: ``per_group_slot`` is the slot duration
    of the largest group (groups differ in size by at most one station);
    ``total_reserved`` sums the per-group slots of all groups."""

    group_count: int
    group_sizes: tuple[int, ...]
    per_group_slot: int
    total_reserved: int
    quantile_target: float
    standard_compliant: bool


def _even_split(n: int, g: int) -> tuple[int, ...]:
    base, rem = divmod(n, g)
    return (base + 1,) * rem + (base,) * (g - rem)


def optimize_groups(
    spec: MixtureSpec,
    cache: DistributionCache,
    q: float,
    g_range: tuple[int, int],
    problem: str = "A",
    *,
    k_stride: int | str = 1,
) -> tuple[list[GroupPlan], GroupPlan]:
    """Sweep group counts and return (the feasible plans, the plan minimizing
    total time).

    Problem "A" sizes each group's slot so an arbitrary active station in the
    group delivers with probability >= q; problem "B" so all the group's
    active stations finish with probability >= q.  Groups are split as evenly
    as possible and per-group active counts are binomial in the group size.
    A group count is feasible when every one of its groups can reach q; with
    none feasible, ``UnsatisfiableQuantileError`` names the best group's mass.
    Ties in total reserved time resolve toward fewer groups.
    """
    if problem not in ("A", "B"):
        raise ConfigurationError(f"problem must be 'A' or 'B', got {problem!r}")
    g_min, g_max = g_range
    if not 1 <= g_min <= g_max <= spec.n_total:
        raise ConfigurationError(
            f"group range [{g_min}, {g_max}] must lie within [1, {spec.n_total}]"
        )
    counts = range(g_min, g_max + 1)
    sizes = sorted({size for g in counts for size in _even_split(spec.n_total, g)})
    specs = [MixtureSpec(size, spec.p_active, spec.conditioning) for size in sizes]
    slot_by_size, best_mass = {}, 0.0
    for size, dist in zip(sizes, _mixtures(specs, cache, problem == "B", k_stride)):
        best_mass = max(best_mass, dist.total_mass)
        with suppress(UnsatisfiableQuantileError):
            slot_by_size[size] = dist.quantile(q)

    plans = []
    for g in counts:
        group_sizes = _even_split(spec.n_total, g)
        if all(size in slot_by_size for size in group_sizes):
            slots = [slot_by_size[size] for size in group_sizes]
            plans.append(GroupPlan(g, group_sizes, slots[0], sum(slots), q,
                                   slots[0] <= MAX_RAW_SLOT_US))
    if not plans:
        raise UnsatisfiableQuantileError(q, best_mass)
    best = min(plans, key=lambda plan: (plan.total_reserved, plan.group_count))
    return plans, best
