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
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterator

import numpy as np

from .chains import StackRun, run_chains, run_stack
from .distribution import (
    TimeDistribution,
    UnsatisfiableQuantileError,
    check_level,
    merge_weighted,
)
from .params import ConfigurationError, ModelParams, SlotDurations
from .pool import ResidentJobs, map_jobs

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


#: Steps of the first round of an early-stopping sweep; each later round doubles it.
_FIRST_ROUND = 64


def _chain_run(stack: list[ModelParams], durations: SlotDurations, compute_b: bool):
    """Cold chain runs of one job: (P_B of its one population if ``compute_b``,
    else P_A of each population of the stack; seconds the job took where it
    ran; its population-steps).

    Module-level so a process pool can send it by name; it looks up
    ``run_chains`` and ``run_stack`` in this module at call time.
    """
    started = time.perf_counter()
    if compute_b:
        (params,) = stack
        results = [run_chains(params, durations)]
    else:
        results = run_stack(stack, durations)
    dists = [result.p_b if compute_b else result.p_a for result in results]
    steps = sum(result.diagnostics.t_stop for result in results)
    return dists, time.perf_counter() - started, steps


def _stacks(ks: list[int], compute_b: bool) -> list[list[int]]:
    """The jobs that run the populations ``ks`` (largest first): process A alone steps
    neighbouring populations of at most ``_STACK_MAX_K`` stations as one stack, cut into
    contiguous stacks of at most ``_STACK``, as even as possible; a larger population, or
    a run of process B, is a job of its own."""
    alone = [[k] for k in ks if compute_b or k > _STACK_MAX_K]
    small = ks[len(alone):]
    n, count = len(small), -(-len(small) // _STACK)
    return alone + [small[n * i // count : n * (i + 1) // count] for i in range(count)]


class _Rounds:
    """One stack's early-stopping run where it is kept (``ResidentJobs`` state): the
    run, and the indices of the populations it still reports on."""

    def __init__(self, stack: list[ModelParams], durations: SlotDurations):
        self.run = StackRun(stack, durations)
        self.ks = [params.n_stations for params in stack]
        self.reporting = set(range(len(stack)))


def _round(state: _Rounds, budget: int, drop: set[int]):
    """Drop the populations in ``drop``, advance the stack ``budget`` steps and report
    (its populations' news, seconds the round took where it ran, population-steps).

    A population's news is ``(k, None, P_A)`` once it has stopped, else ``(k, bound,
    atoms)``: its ``StackRun.bounds`` entry and the atoms it has absorbed so far.  Each
    population is reported until it stops or is dropped."""
    run, started, steps = state.run, time.perf_counter(), state.run.steps
    dropped = {j for j in state.reporting if state.ks[j] in drop}
    run.drop(dropped)
    state.reporting -= dropped
    run.advance(budget)
    bounds, news = run.bounds(), []
    for j in sorted(state.reporting):
        result = run.results[j]
        if result is None:
            news.append((state.ks[j], float(bounds[j]), run.atoms(j)))
        else:
            news.append((state.ks[j], None, result.p_a))
            state.reporting.remove(j)
    return news, time.perf_counter() - started, run.steps - steps


class DistributionCache:
    """The planner's model and its store of per-population chain runs.

    A run is keyed by its population ``k`` and its process: ``pa(k)`` is P_A
    of an A-only run, ``pb(k)`` P_B of a run of both processes, so which of
    the two was asked for first never changes the other.
    ``params.n_stations`` is ignored; the population comes from the lookup
    key.  It stores complete runs only: a problem-A ``optimize_groups`` stops
    the runs its quantiles no longer need and stores the runs that complete, so
    a later ``pa(k)`` of a population it stopped runs it in full.

    ``chain_runs`` counts cold runs, one per population also where several
    were stepped as one stack, complete or stopped early; ``chain_steps``
    counts their population-steps, a stack step once per population it
    carried; ``cache_hits`` counts the lookups served without a cold run: the
    ``pa``/``pb`` calls and ``optimize_groups``' reads of its components;
    ``chain_run_s`` sums the seconds of the jobs where they ran, a stack's
    once.  The first lookup a run was made for is its miss, whether ``fill``
    ran it ahead of the lookup, a sweep ran it or the lookup itself did.
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
        self.chain_steps = 0
        self.cache_hits = 0
        self.chain_run_s = 0.0

    def counters(self) -> dict:
        return {"chain_runs": self.chain_runs, "chain_steps": self.chain_steps,
                "cache_hits": self.cache_hits, "chain_run_s": self.chain_run_s}

    def fill(self, ks, compute_b: bool) -> None:
        """Run every population in ``ks`` that ``pa`` (or ``pb`` when
        ``compute_b``) would miss, in one batch of ``_stacks`` jobs
        (``run_stack`` for each stack).  The jobs are independent, so with more
        than one usable CPU and a forking platform they go to a process pool of
        at most one worker per CPU, largest populations (the longest runs)
        first.  Results are stored exactly as serial lookups would store them,
        bit for bit.
        """
        stacks = _stacks(self._missing(ks, compute_b), compute_b)
        results = map_jobs(_chain_run, ([self.params.with_stations(k) for k in stack]
                                        for stack in stacks),
                           repeat(self.durations), repeat(compute_b))
        for stack, (dists, seconds, steps) in zip(stacks, results):
            for k, dist in zip(stack, dists):
                self._runs[k, compute_b] = dist
                self._unread.add((k, compute_b))
            self.chain_runs += len(stack)
            self.chain_run_s += seconds
            self.chain_steps += steps

    def _missing(self, ks, compute_b: bool) -> list[int]:
        """The distinct populations of ``ks`` with no stored run, largest first."""
        return [k for k in sorted({int(k) for k in ks}, reverse=True)
                if (k, compute_b) not in self._runs]

    def pa(self, k: int) -> TimeDistribution:
        return self._lookup(k, compute_b=False)

    def pb(self, k: int) -> TimeDistribution:
        return self._lookup(k, compute_b=True)

    def _lookup(self, k: int, compute_b: bool) -> TimeDistribution:
        key = (k, compute_b)
        if key not in self._runs:
            self.fill([k], compute_b)
        self._count_read(key)
        return self._runs[key]

    def _count_read(self, key: tuple[int, bool]) -> None:
        if key in self._unread:
            self._unread.remove(key)
        else:
            self.cache_hits += 1


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
    lattices: list[tuple[np.ndarray, np.ndarray]], cache: DistributionCache, problem_b: bool
) -> Iterator[TimeDistribution]:
    """Each lattice's P_A (or, with ``problem_b``, P_B) mixture in turn, after
    one batch that runs every population the lattices need.  A mixture is
    built only when asked for, so a sweep holds one at a time."""
    cache.fill(np.concatenate([ks for ks, _ in lattices]), compute_b=problem_b)
    component = cache.pb if problem_b else cache.pa
    for ks, weights in lattices:
        yield _merge(ks, weights, component)


def _merge(ks: np.ndarray, weights: np.ndarray, component) -> TimeDistribution:
    """The mixture of the distributions ``component(k)`` with the weights ``weights``."""
    return merge_weighted((float(w), component(int(k))) for k, w in zip(ks, weights))


_NO_ATOMS = TimeDistribution([], [])


def _early_quantiles(
    lattices: list[tuple[np.ndarray, np.ndarray]], cache: DistributionCache, q: float
) -> list[int | None]:
    """Each lattice's P_A mixture q-quantile, or None where its mass falls short of
    ``q``, bit for bit what ``_mixtures`` gives, with each population run only as long
    as some quantile may still depend on it.

    The runs the cache lacks are cut into ``_stacks`` and kept on ``ResidentJobs``;
    each round advances them (``_FIRST_ROUND`` steps, twice as many each round after)
    and reports each population's atoms so far and its ``StackRun.bounds`` entry,
    below which its atoms are final.  A mixture built from the atoms so far, in
    ``_mixtures``' order and weights, has ``U``, its least duration whose cumulative
    mass reaches ``q`` (none if the mass is short of ``q`` or the sums never reach
    it).  The mass still to come is non-negative and float addition is monotone, so
    every bin, every cumulative sum and the ``math.fsum`` mass of the full mixture is
    at least the partial one's: ``U`` is an upper bound on the final quantile, and it
    can only fall from round to round.  Once ``U`` lies below the bound of every
    component, the atoms at or below ``U``, their concatenation order and the
    ``bincount`` that sums them are those of the full mixture, so ``U`` is its
    quantile to the bit, and the mixture is settled.  A population whose bound lies
    above the ``U`` of every unsettled mixture it is a component of is dropped for
    good, and keeps its atoms and bound: its bound stays above those ``U``, so it
    never holds a mixture back.  A mixture whose components all completed is
    ``_mixtures``' own, and gives its quantile as ``TimeDistribution.quantile`` does.
    The runs that complete are stored in the cache; the dropped ones are not.
    """
    check_level(q)
    missing = cache._missing(np.concatenate([ks for ks, _ in lattices]), False)
    cache.chain_runs += len(missing)
    cache._unread.update((k, False) for k in missing)  # each is read by a mixture below
    # each population's atoms so far, and the bound below which they are final
    parts = {k: cache._runs.get((k, False), _NO_ATOMS)
             for ks, _ in lattices for k in ks.tolist()}
    bounds = {k: 0.0 if k in missing else math.inf for k in parts}
    slots: dict[int, int | None] = {}

    def unsettled() -> dict[int, float]:
        """Settle what the atoms so far settle; the U of each mixture left, inf where
        it has none."""
        uppers = {}
        for i, (ks, weights) in enumerate(lattices):
            if i not in slots:
                settled, slot = _settle(_merge(ks, weights, parts.__getitem__),
                                        min(bounds[k] for k in ks.tolist()), q)
                if not settled:
                    uppers[i] = slot
                    continue
                slots[i] = slot
                for k in ks.tolist():
                    cache._count_read((k, False))
        return uppers

    uppers = unsettled()
    stacks = [([cache.params.with_stations(k) for k in stack], cache.durations)
              for stack in _stacks(missing, False)]
    with ResidentJobs(_Rounds, _round, stacks) as jobs:
        budgets = [_FIRST_ROUND] * jobs.groups
        for group in range(jobs.groups):
            jobs.send(group, _FIRST_ROUND, set())
        while uppers:
            # A group answers with the news of its populations; it runs on, dropping
            # those no mixture needs, while it holds one that some mixture needs.
            group, replies = jobs.receive()
            held = set()
            for news, seconds, steps in replies:
                cache.chain_run_s += seconds
                cache.chain_steps += steps
                for k, bound, atoms in news:
                    parts[k] = atoms
                    if bound is None:  # the run is complete
                        cache._runs[k, False], bound = atoms, math.inf
                    else:
                        held.add(k)
                    bounds[k] = bound
            uppers = unsettled()
            needed = {k for i, upper in uppers.items() for k in lattices[i][0].tolist()
                      if bounds[k] <= upper}
            if held & needed:
                budgets[group] *= 2
                jobs.send(group, budgets[group], held - needed)
    return [slots[i] for i in range(len(lattices))]


def _settle(mixture: TimeDistribution, limit: float, q: float) -> tuple[bool, float | None]:
    """Whether ``mixture``, whose atoms below ``limit`` are final (``_early_quantiles``),
    is settled, and then its q-quantile, or None where its mass falls short of ``q``;
    else its ``U``, or inf where it has none."""
    if limit == math.inf:
        try:
            return True, mixture.quantile(q)
        except UnsatisfiableQuantileError:
            return True, None
    if q > mixture.total_mass:
        return False, math.inf
    idx = int(np.searchsorted(mixture.cumulative(), q, side="left"))
    if idx == mixture.durations.size:
        return False, math.inf
    upper = int(mixture.durations[idx])
    return upper < limit, upper


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
    return next(_mixtures([_spec_lattice(spec, False, k_stride)], cache, False))


def mixture_pb(
    spec: MixtureSpec, cache: DistributionCache, *, k_stride: int | str = 1
) -> TimeDistribution:
    """All-actives completion-time distribution under a Binomial(n_total,
    p_active) active count; zero active stations complete instantly (atom at
    duration 0).  Every station of the group is counted, so
    ``spec.conditioning`` plays no part."""
    return next(_mixtures([_spec_lattice(spec, True, k_stride)], cache, True))


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
    Ties in total reserved time resolve toward fewer groups.  Problem "A" runs
    each population only as long as some group size's quantile may still
    depend on it (``_early_quantiles``); its plans are those of full runs.
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
    problem_b = problem == "B"
    lattices = [_spec_lattice(MixtureSpec(size, spec.p_active, spec.conditioning),
                              problem_b, k_stride) for size in sizes]
    if problem_b:
        quantiles = [_settle(dist, math.inf, q)[1] for dist in _mixtures(lattices, cache, True)]
    else:
        quantiles = _early_quantiles(lattices, cache, q)
    slot_by_size = {size: slot for size, slot in zip(sizes, quantiles) if slot is not None}

    plans = []
    for g in counts:
        group_sizes = _even_split(spec.n_total, g)
        if all(size in slot_by_size for size in group_sizes):
            slots = [slot_by_size[size] for size in group_sizes]
            plans.append(GroupPlan(g, group_sizes, slots[0], sum(slots), q,
                                   slots[0] <= MAX_RAW_SLOT_US))
    if not plans:  # the best mass needs every run complete
        raise UnsatisfiableQuantileError(q, max(
            dist.total_mass for dist in _mixtures(lattices, cache, problem_b)))
    best = min(plans, key=lambda plan: (plan.total_reserved, plan.group_count))
    return plans, best
