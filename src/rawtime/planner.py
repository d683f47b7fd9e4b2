"""Slot sizing and station grouping on top of the delivery-time model.

Given a population in which each station independently holds a frame with
probability ``p_active``, the delivery-time distribution for a tagged station
is a binomial mixture of fixed-population distributions.  The planner turns
mixture quantiles into minimal RAW slot durations and sweeps group counts to
minimize total reserved channel time.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .chains import run_chains
from .distribution import TimeDistribution, UnsatisfiableQuantileError, merge_weighted
from .params import ConfigurationError, ModelParams, SlotDurations

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` start method where it is safe, else None (run serially).

    Forked workers inherit the loaded modules, so a pool starts in
    milliseconds and never re-runs the caller's main script, as ``spawn`` and
    ``forkserver`` children do; a script without an ``if __name__ ==
    "__main__":`` guard therefore works.  ``fork`` is not safe on macOS, and
    not in a caller running threads of its own, which might hold a lock the
    child then waits on for ever.
    """
    import multiprocessing
    import threading

    if (sys.platform == "darwin" or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return multiprocessing.get_context("fork")


def _chain_run(params: ModelParams, durations: SlotDurations, compute_b: bool):
    """One cold chain run: (P_A, P_B or None, seconds the run took where it ran).

    Module-level so a process pool can send it by name; it looks up
    ``run_chains`` in this module at call time.
    """
    started = time.perf_counter()
    result = run_chains(params, durations, compute_b=compute_b)
    return result.p_a, result.p_b, time.perf_counter() - started


class DistributionCache:
    """Memoizes per-population chain runs across planner sweeps.

    ``params.n_stations`` is ignored; the population comes from the lookup key.
    ``chain_runs`` counts cold runs, ``cache_hits`` the ``pa``/``pb`` lookups
    served without one and ``chain_run_s`` sums the runs' own durations.
    """

    def __init__(self, params: ModelParams, durations: SlotDurations):
        self.params = params
        self.durations = durations
        self._pa: dict[int, TimeDistribution] = {}
        # zero active stations complete instantly
        self._pb: dict[int, TimeDistribution] = {0: TimeDistribution.from_atoms({0: 1.0})}
        self.chain_runs = 0
        self.cache_hits = 0
        self.chain_run_s = 0.0

    def counters(self) -> dict:
        return {"chain_runs": self.chain_runs, "cache_hits": self.cache_hits,
                "chain_run_s": self.chain_run_s}

    def fill(self, ks, compute_b: bool) -> None:
        """Run every population in ``ks`` that ``pa`` (or ``pb`` when
        ``compute_b``) would miss, in one batch.

        The runs are independent, so with more than one usable CPU and a
        forking platform they go to a process pool of at most one worker per
        CPU, largest population (the longest run) first.  Results are stored
        exactly as serial lookups would store them.
        """
        have = self._pb if compute_b else self._pa
        missing = sorted({int(k) for k in ks} - have.keys(), reverse=True)
        jobs = (map(self.params.with_stations, missing), repeat(self.durations),
                repeat(compute_b))
        workers = min(_usable_cpus(), len(missing))
        context = _fork_context() if workers > 1 else None
        if context is not None:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = list(pool.map(_chain_run, *jobs))
        else:
            results = list(map(_chain_run, *jobs))
        for k, (p_a, p_b, seconds) in zip(missing, results):
            if compute_b:
                self._pa.setdefault(k, p_a)
                self._pb[k] = p_b
            else:
                self._pa[k] = p_a
            self.chain_runs += 1
            self.chain_run_s += seconds

    def pa(self, k: int) -> TimeDistribution:
        if k in self._pa:
            self.cache_hits += 1
        else:
            self.fill([k], compute_b=False)
        return self._pa[k]

    def pb(self, k: int) -> TimeDistribution:
        if k in self._pb:
            self.cache_hits += 1
        else:
            self.fill([k], compute_b=True)
        return self._pb[k]


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
    out = np.zeros(grid.size)
    pos = np.searchsorted(grid, ks)
    exact = grid[np.minimum(pos, grid.size - 1)] == ks
    np.add.at(out, pos[exact], weights[exact])
    rest = ~exact
    hi_idx = pos[rest]
    lo_idx = hi_idx - 1
    span = (grid[hi_idx] - grid[lo_idx]).astype(float)
    frac_hi = (ks[rest] - grid[lo_idx]) / span
    np.add.at(out, lo_idx, weights[rest] * (1.0 - frac_hi))
    np.add.at(out, hi_idx, weights[rest] * frac_hi)
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


def _merge(
    lattice: tuple[np.ndarray, np.ndarray], cache: DistributionCache, problem_b: bool
) -> TimeDistribution:
    """The mixture over a lattice whose populations are all in ``cache``."""
    component = cache.pb if problem_b else cache.pa
    return merge_weighted((float(w), component(int(k))) for k, w in zip(*lattice))


def _mixture(
    spec: MixtureSpec, cache: DistributionCache, k_stride: int | str, problem_b: bool
) -> TimeDistribution:
    lattice = _spec_lattice(spec, problem_b, k_stride)
    cache.fill(lattice[0], compute_b=problem_b)
    return _merge(lattice, cache, problem_b)


def mixture_pa(
    spec: MixtureSpec,
    params: ModelParams,
    durations: SlotDurations,
    *,
    cache: DistributionCache | None = None,
    k_stride: int | str = 1,
) -> TimeDistribution:
    """Tagged-station delivery-time distribution under a random active count.

    ``k_stride > 1`` (or ``"auto"``) evaluates the chain only on a lattice of
    population sizes and reassigns the skipped binomial weights linearly onto
    the neighbouring lattice points; the lattice is anchored on absolute
    multiples of the stride so sweeps share runs.  ``params.n_stations`` is
    overridden by each component's population.
    """
    return _mixture(spec, cache or DistributionCache(params, durations), k_stride, False)


def mixture_pb(
    spec: MixtureSpec,
    params: ModelParams,
    durations: SlotDurations,
    *,
    cache: DistributionCache | None = None,
    k_stride: int | str = 1,
) -> TimeDistribution:
    """All-actives completion-time distribution under a Binomial(n_total,
    p_active) active count; zero active stations complete instantly (atom at
    duration 0).  Every station of the group is counted, so
    ``spec.conditioning`` plays no part."""
    return _mixture(spec, cache or DistributionCache(params, durations), k_stride, True)


@dataclass(frozen=True)
class GroupPlan:
    """One grouping decision: ``per_group_slot`` is the slot duration of the
    largest group (groups differ in size by at most one station);
    ``total_reserved`` sums the per-group slots of all groups."""

    group_count: int
    group_sizes: tuple[int, ...]
    per_group_slot: int
    total_reserved: int
    quantile_target: float
    standard_compliant: bool
    feasible: bool = True

    @classmethod
    def infeasible(cls, g: int, sizes: tuple[int, ...], q: float) -> "GroupPlan":
        return cls(
            group_count=g,
            group_sizes=sizes,
            per_group_slot=0,
            total_reserved=0,
            quantile_target=q,
            standard_compliant=False,
            feasible=False,
        )


def _even_split(n: int, g: int) -> tuple[int, ...]:
    base, rem = divmod(n, g)
    return (base + 1,) * rem + (base,) * (g - rem)


def optimize_groups(
    spec: MixtureSpec,
    params: ModelParams,
    durations: SlotDurations,
    q: float,
    g_range: tuple[int, int],
    problem: str = "A",
    *,
    cache: DistributionCache | None = None,
    k_stride: int | str = 1,
) -> tuple[list[GroupPlan], GroupPlan]:
    """Sweep group counts and return (all plans, plan minimizing total time).

    Problem "A" sizes each group's slot so an arbitrary active station in the
    group delivers with probability >= q; problem "B" so all the group's
    active stations finish with probability >= q.  Groups are split as evenly
    as possible and per-group active counts are binomial in the group size.
    Ties in total reserved time resolve toward fewer groups.
    """
    if problem not in ("A", "B"):
        raise ConfigurationError(f"problem must be 'A' or 'B', got {problem!r}")
    g_min, g_max = g_range
    if not 1 <= g_min <= g_max <= spec.n_total:
        raise ConfigurationError(
            f"group range [{g_min}, {g_max}] must lie within [1, {spec.n_total}]"
        )
    cache = cache or DistributionCache(params, durations)
    problem_b = problem == "B"

    # Every population any group size needs, run in one batch before the sweep.
    sizes = {size for g in range(g_min, g_max + 1) for size in _even_split(spec.n_total, g)}
    lattices = {
        size: _spec_lattice(MixtureSpec(size, spec.p_active, spec.conditioning),
                            problem_b, k_stride)
        for size in sorted(sizes)
    }
    cache.fill(np.concatenate([ks for ks, _ in lattices.values()]), compute_b=problem_b)

    slot_by_size: dict[int, int | None] = {}
    best_achievable = 0.0
    for size, lattice in lattices.items():
        dist = _merge(lattice, cache, problem_b)
        best_achievable = max(best_achievable, dist.total_mass)
        try:
            slot_by_size[size] = dist.quantile(q)
        except UnsatisfiableQuantileError:
            slot_by_size[size] = None

    plans: list[GroupPlan] = []
    for g in range(g_min, g_max + 1):
        sizes = _even_split(spec.n_total, g)
        slots = [slot_by_size[size] for size in sizes]
        if None in slots:
            plans.append(GroupPlan.infeasible(g, sizes, q))
            continue
        total = sum(slots)
        largest = slots[0]
        plans.append(
            GroupPlan(
                group_count=g,
                group_sizes=sizes,
                per_group_slot=largest,
                total_reserved=total,
                quantile_target=q,
                standard_compliant=largest <= MAX_RAW_SLOT_US,
            )
        )

    feasible = [plan for plan in plans if plan.feasible]
    if not feasible:
        raise UnsatisfiableQuantileError(q, best_achievable)
    best = min(feasible, key=lambda plan: (plan.total_reserved, plan.group_count))
    return plans, best
