import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from itertools import accumulate, repeat
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawtime import (
    AH_SLOT_DURATIONS,
    ConfigurationError,
    Conditioning,
    DistributionCache,
    MixtureSpec,
    ModelParams,
    SimConfig,
    SlotDurations,
    UnsatisfiableQuantileError,
    ah_params,
    mixture_pa,
    mixture_pb,
    mixture_weights,
    optimize_groups,
    run_chains,
    simulate,
)
from rawtime import planner, pool
from rawtime.planner import _binom_pmf, _stride_from_weights

from reference import atoms, full_run_sweep

PARAMS = ah_params(1)
DUR = AH_SLOT_DURATIONS


class TestWeights:
    def test_sum_to_one_tagged(self):
        for n, p in [(1, 0.3), (7, 0.5), (200, 0.3), (1000, 0.05)]:
            w = mixture_weights(MixtureSpec(n, p))
            assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12

    def test_sum_to_one_population_wide(self):
        w = mixture_weights(MixtureSpec(50, 0.2, Conditioning.POPULATION_WIDE))
        assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-12

    def test_two_station_half_active(self):
        w = mixture_weights(MixtureSpec(2, 0.5))
        assert w == pytest.approx([0.5, 0.5])

    def test_p_zero_tagged_degenerates_to_single_station(self):
        w = mixture_weights(MixtureSpec(5, 0.0))
        assert w[0] == 1.0 and np.all(w[1:] == 0.0)

    def test_p_zero_population_wide_is_empty_support(self):
        with pytest.raises(ConfigurationError):
            mixture_weights(MixtureSpec(5, 0.0, Conditioning.POPULATION_WIDE))

    @pytest.mark.parametrize("n, p", [(7, 0.5), (40, 0.29), (120, 0.3), (1000, 0.3)])
    def test_weights_match_exact_binomial(self, n, p):
        # p is a binary fraction num/den, so each weight is a ratio of integers,
        # rounded once by the division
        num, den = p.as_integer_ratio()

        def numerators(m):
            up = list(accumulate(repeat(num, m), mul, initial=1))  # num**k
            down = list(accumulate(repeat(den - num, m), mul, initial=1))
            return [math.comb(m, k) * up[k] * down[m - k] for k in range(m + 1)]

        def check(weights, numers, denominator):
            expected = np.array([x / denominator for x in numers])
            big = expected >= 1e-10 * expected.max()
            assert np.all(np.abs(weights[big] - expected[big]) <= 2e-13 * expected[big])

        check(mixture_weights(MixtureSpec(n, p)), numerators(n - 1), den ** (n - 1))
        whole = numerators(n)
        check(mixture_weights(MixtureSpec(n, p, Conditioning.POPULATION_WIDE)),
              whole[1:], den**n - (den - num) ** n)
        check(_binom_pmf(n, p), whole, den**n)  # the weights of mixture_pb

    def test_certain_activity_weights_exact(self):
        assert _binom_pmf(4, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert _binom_pmf(4, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        for conditioning in Conditioning:
            w = mixture_weights(MixtureSpec(4, 1.0, conditioning))
            assert w.tolist() == [0.0, 0.0, 0.0, 1.0]


class TestMixturePa:
    def test_p_one_collapses_to_fixed_population(self, ah_cache):
        for conditioning in Conditioning:
            mix = mixture_pa(MixtureSpec(5, 1.0, conditioning), ah_cache)
            fixed = ah_cache.pa(5)
            assert np.array_equal(mix.durations, fixed.durations)
            assert mix.probabilities == pytest.approx(fixed.probabilities, abs=1e-15)

    def test_two_station_mixture_is_plain_average(self, ah_cache):
        mix = mixture_pa(MixtureSpec(2, 0.5), ah_cache)
        p1, p2 = ah_cache.pa(1), ah_cache.pa(2)
        expected = {}
        for dist in (p1, p2):
            for tau, prob in atoms(dist).items():
                expected[tau] = expected.get(tau, 0.0) + 0.5 * prob
        assert atoms(mix) == pytest.approx(expected, abs=1e-15)

    def test_mixture_mass_is_weighted_component_mass(self, ah_cache):
        spec = MixtureSpec(6, 0.4)
        mix = mixture_pa(spec, ah_cache)
        w = mixture_weights(spec)
        expected = math.fsum(
            float(w[k - 1]) * ah_cache.pa(k).total_mass for k in range(1, 7)
        )
        assert mix.total_mass == pytest.approx(expected, abs=1e-9)

    def test_subsampled_grid_close_to_exact(self, ah_cache):
        spec = MixtureSpec(40, 0.3)
        exact = mixture_pa(spec, ah_cache)
        coarse = mixture_pa(spec, ah_cache, k_stride=3)
        assert coarse.total_mass == pytest.approx(exact.total_mass, abs=1e-6)
        for q in (0.5, 0.9, 0.99):
            assert abs(coarse.quantile(q) - exact.quantile(q)) <= 2 * 2184

    def test_auto_stride_scales_with_spread(self):
        for n, stride in [(10, 1), (1000, 7)]:
            weights = mixture_weights(MixtureSpec(n, 0.3))
            assert _stride_from_weights(np.arange(1, n + 1), weights) == stride


class TestMixturePb:
    def test_no_active_stations_complete_instantly(self, ah_cache):
        mix = mixture_pb(MixtureSpec(3, 0.0), ah_cache)
        assert atoms(mix) == pytest.approx({0: 1.0})

    def test_all_active_matches_fixed_population(self, ah_cache):
        mix = mixture_pb(MixtureSpec(3, 1.0), ah_cache)
        fixed = ah_cache.pb(3)
        assert atoms(mix) == pytest.approx(atoms(fixed), abs=1e-15)

    def test_intermediate_mixes_in_instant_atom(self, ah_cache):
        mix = mixture_pb(MixtureSpec(2, 0.5), ah_cache)
        assert atoms(mix)[0] == pytest.approx(0.25, abs=1e-12)


class TestPlanSlotDuration:
    def test_single_station_worst_case(self):
        dist = run_chains(ah_params(1), DUR).p_a
        assert dist.quantile(1 - 1e-9) == 15 * 52 + 2184

    def test_median_matches_simulation(self, ah_cache):
        model_median = ah_cache.pa(7).quantile(0.5)
        emp = simulate(SimConfig(params=ah_params(7), durations=DUR, runs=10**5, seed=42))[0]
        sim_median = emp.to_time_distribution().quantile(0.5)
        assert abs(model_median - sim_median) <= 2184

    def test_unsatisfiable_reports_achievable(self, ah_cache):
        dist = mixture_pb(MixtureSpec(2, 0.5), ah_cache)
        with pytest.raises(UnsatisfiableQuantileError) as err:
            dist.quantile(1.0 - 1e-12)
        assert err.value.total_mass < 1.0


class TestOptimizeGroups:
    def test_one_group_equals_ungrouped_plan(self, ah_cache):
        spec = MixtureSpec(12, 0.5)
        plans, _ = optimize_groups(spec, ah_cache, 0.9, (1, 4), "A")
        ungrouped = mixture_pa(spec, ah_cache).quantile(0.9)
        assert plans[0].group_count == 1
        assert plans[0].per_group_slot == plans[0].total_reserved == ungrouped

    def test_sizes_partition_evenly(self, ah_cache):
        plans, _ = optimize_groups(MixtureSpec(10, 0.5), ah_cache, 0.5, (3, 3), "A")
        sizes = plans[0].group_sizes
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_fully_split_total_grows_linearly(self, ah_cache):
        # one station per group: every group needs the single-station slot
        n = 6
        plans, _ = optimize_groups(MixtureSpec(n, 0.5), ah_cache, 0.9, (n, n), "A")
        plan = plans[0]
        single = mixture_pa(MixtureSpec(1, 0.5), ah_cache).quantile(0.9)
        assert plan.per_group_slot == single
        assert plan.total_reserved == n * single

    def test_best_breaks_ties_toward_fewer_groups(self, ah_cache):
        plans, best = optimize_groups(MixtureSpec(4, 0.0), ah_cache, 0.9, (1, 4), "A")
        # p=0: every group is effectively a single active station, so all
        # per-group slots are equal and g=1 minimizes the total
        assert best.group_count == 1

    def test_problem_b_uses_group_completion(self, ah_cache):
        plans, best = optimize_groups(MixtureSpec(4, 1.0), ah_cache, 0.9, (1, 2), "B")
        expected = ah_cache.pb(4).quantile(0.9)
        assert plans[0].per_group_slot == expected

    def test_infeasible_group_counts_excluded(self, ah_cache):
        # a target above the achievable completion probability for every g
        with pytest.raises(UnsatisfiableQuantileError):
            optimize_groups(MixtureSpec(4, 1.0), ah_cache, 1.0 - 1e-13, (1, 2), "B")

    def test_bad_range_rejected(self, ah_cache):
        with pytest.raises(ConfigurationError):
            optimize_groups(MixtureSpec(4, 0.5), ah_cache, 0.9, (0, 2))
        with pytest.raises(ConfigurationError):
            optimize_groups(MixtureSpec(4, 0.5), ah_cache, 0.9, (1, 9))

    def test_reduced_scale_sweep_has_interior_minimum(self, ah_cache):
        """Medium population: grouping pays until per-group overhead dominates."""
        spec = MixtureSpec(60, 0.3)
        plans, best = optimize_groups(spec, ah_cache, 0.9, (1, 12), "A")
        totals = [p.total_reserved for p in plans]
        assert 1 < best.group_count < 12
        assert totals[0] > best.total_reserved

    def test_compliance_flag_definition(self, ah_cache):
        plans, _ = optimize_groups(MixtureSpec(8, 0.5), ah_cache, 0.9, (1, 2), "A")
        for plan in plans:
            assert plan.standard_compliant == (plan.per_group_slot <= 246_140)


# Small enough that a whole batch of cold runs takes well under a second.
SMALL = ModelParams(n_stations=1, cw_min=4, cw_max=8, retry_limit=3)
SMALL_DUR = SlotDurations(t_empty=1, t_success=5, t_collision=4)
SMALL_SPEC = MixtureSpec(12, 0.4)


def _assert_same_bits(dist, expected):
    assert np.array_equal(dist.durations, expected.durations)
    assert np.array_equal(dist.probabilities, expected.probabilities)


class TestBatchedRuns:
    def test_mixture_pa_components_equal_direct_runs(self):
        cache = DistributionCache(SMALL, SMALL_DUR)
        mixture_pa(SMALL_SPEC, cache)
        assert cache.chain_runs == 12
        for k in range(1, 13):
            direct = run_chains(SMALL.with_stations(k), SMALL_DUR, compute_b=False)
            _assert_same_bits(cache.pa(k), direct.p_a)

    def test_problem_b_sweep_components_equal_direct_runs(self):
        cache = DistributionCache(SMALL, SMALL_DUR)
        optimize_groups(SMALL_SPEC, cache, 0.9, (1, 6), "B")
        assert cache.chain_runs == 12
        for k in range(1, 13):
            _assert_same_bits(cache.pb(k), run_chains(SMALL.with_stations(k), SMALL_DUR).p_b)
        assert cache.chain_runs == 12
        # a run of both processes steps A on until B stops, so its P_A is not
        # the A-only P_A that pa(k) serves: each k costs one more run
        for k in range(1, 13):
            direct = run_chains(SMALL.with_stations(k), SMALL_DUR, compute_b=False)
            _assert_same_bits(cache.pa(k), direct.p_a)
            assert cache.chain_runs == 12 + k

    def test_mixture_pa_independent_of_earlier_pb_lookups(self):
        spec = MixtureSpec(3, 0.5)
        fresh = mixture_pa(spec, DistributionCache(PARAMS, DUR))
        shared = DistributionCache(PARAMS, DUR)
        mixture_pb(spec, shared)
        _assert_same_bits(mixture_pa(spec, shared), fresh)

    def test_first_lookup_of_a_fresh_run_is_a_miss(self):
        cache = DistributionCache(SMALL, SMALL_DUR)
        mixture_pa(MixtureSpec(7, 0.5), cache)
        assert (cache.chain_runs, cache.cache_hits) == (7, 0)
        mixture_pa(MixtureSpec(7, 0.5), cache)
        assert (cache.chain_runs, cache.cache_hits) == (7, 7)
        # a run made by the lookup itself is that lookup's miss too
        cache.pb(3)
        assert (cache.chain_runs, cache.cache_hits) == (8, 7)
        cache.pb(3)
        assert (cache.chain_runs, cache.cache_hits) == (8, 8)

    def test_filled_sweep_makes_no_further_runs(self, monkeypatch):
        cache = DistributionCache(SMALL, SMALL_DUR)
        runs_after_fill = []
        fill = cache.fill

        def recording_fill(ks, compute_b):
            fill(ks, compute_b)
            runs_after_fill.append(cache.chain_runs)

        monkeypatch.setattr(cache, "fill", recording_fill)
        first = optimize_groups(SMALL_SPEC, cache, 0.9, (1, 6), "A")
        assert runs_after_fill == []  # problem A runs its sweep in rounds, not through fill
        assert cache.chain_runs == 12 and cache.cache_hits > 0
        assert cache.chain_run_s > 0.0
        # every run completes within the first round, so the cache holds them all
        assert cache.chain_steps == sum(
            run_chains(SMALL.with_stations(k), SMALL_DUR, compute_b=False).diagnostics.t_stop
            for k in range(1, 13))
        again = optimize_groups(SMALL_SPEC, cache, 0.9, (1, 6), "A")
        assert again == first and cache.chain_runs == 12

    @pytest.mark.parametrize("serial_because", ["one usable CPU", "macOS", "caller thread"])
    def test_runs_serially_with_same_bits(self, monkeypatch, serial_because):
        pooled = DistributionCache(SMALL, SMALL_DUR)
        expected = mixture_pa(SMALL_SPEC, pooled)

        def no_executor(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_executor)
        if serial_because == "one usable CPU":
            monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        if serial_because == "macOS":
            monkeypatch.setattr(sys, "platform", "darwin")
        stop = threading.Event()
        if serial_because == "caller thread":
            threading.Thread(target=stop.wait, daemon=True).start()
        serial = DistributionCache(SMALL, SMALL_DUR)
        try:
            _assert_same_bits(mixture_pa(SMALL_SPEC, serial), expected)
        finally:
            stop.set()
        for k in range(1, 13):
            _assert_same_bits(serial.pa(k), pooled.pa(k))
        assert serial.chain_runs == pooled.chain_runs == 12

    def test_library_call_from_unguarded_script(self, tmp_path):
        # a script without an ``if __name__ == "__main__":`` guard, like the
        # README's planning example; workers must not run it again
        script = tmp_path / "plan_script.py"
        script.write_text(
            "from rawtime import DistributionCache, MixtureSpec, ModelParams, SlotDurations\n"
            "from rawtime import mixture_pa, optimize_groups\n"
            "params = ModelParams(n_stations=1, cw_min=4, cw_max=8, retry_limit=3)\n"
            "dur = SlotDurations(t_empty=1, t_success=5, t_collision=4)\n"
            "cache = DistributionCache(params, dur)\n"
            "spec = MixtureSpec(12, 0.4)\n"
            "slot = mixture_pa(spec, cache).quantile(0.5)\n"
            "plans, best = optimize_groups(spec, cache, 0.9, (1, 6), 'B')\n"
            "print(slot, best.group_count, cache.chain_runs)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(planner.__file__).parents[1]))
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        slot = mixture_pa(SMALL_SPEC, DistributionCache(SMALL, SMALL_DUR)).quantile(0.5)
        assert proc.stdout.split()[0] == str(slot)
        assert proc.stdout.split()[2] == "24"  # 12 runs for P_A, 12 for P_B

    def test_small_populations_share_stacks(self, monkeypatch):
        jobs = []

        def recording_map_jobs(fn, stacks, *rest):
            stacks = list(stacks)
            jobs.append([[params.n_stations for params in stack] for stack in stacks])
            return pool.map_jobs(fn, stacks, *rest)

        monkeypatch.setattr(planner, "map_jobs", recording_map_jobs)
        cache = DistributionCache(SMALL, SMALL_DUR)
        cache.fill([*range(1, 21), 95, 120], compute_b=False)
        cache.fill([2, 5, 7], compute_b=True)
        # largest first: populations above _STACK_MAX_K alone, then contiguous
        # stacks of at most _STACK neighbours, as even as possible
        assert jobs == [[[120], [95], list(range(20, 14, -1)), list(range(14, 7, -1)),
                         list(range(7, 0, -1))], [[7], [5], [2]]]
        assert cache.chain_runs == 25

    def test_worker_exception_reaches_caller(self):
        cache = DistributionCache(SMALL, SimpleNamespace())  # no slot durations
        with pytest.raises(AttributeError, match="has no attribute"):
            cache.fill([1, 2, 3], compute_b=False)
        assert cache.chain_runs == 0


def _sweep_or_mass(sweep):
    """``sweep()``'s plans, or the mass its ``UnsatisfiableQuantileError`` names."""
    try:
        return sweep()
    except UnsatisfiableQuantileError as exc:
        return exc.total_mass


@st.composite
def sweep_configs(draw):
    cw_min = draw(st.sampled_from([2, 4, 8, 16]))
    params = ModelParams(
        n_stations=1, cw_min=cw_min,
        cw_max=draw(st.sampled_from([w for w in (2, 4, 8, 16) if w >= cw_min])),
        retry_limit=draw(st.integers(1, 5)))
    t_empty = draw(st.integers(1, 60))
    durations = SlotDurations(t_empty=t_empty, t_success=draw(st.integers(t_empty, 3000)),
                              t_collision=draw(st.integers(t_empty, 3000)))
    # several group sizes share most of their populations
    n = draw(st.integers(4, 40))
    spec = MixtureSpec(n, draw(st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0])))
    g_range = (draw(st.integers(1, 2)), draw(st.integers(2, min(n, 8))))
    return params, durations, spec, g_range, draw(st.sampled_from([1, "auto"]))


class TestEarlyStoppingSweep:
    """Problem A's sweep stops runs early; its plans must be those of full runs."""

    @settings(max_examples=25, deadline=None)
    @given(sweep_configs(), st.data())
    def test_equals_full_run_sweep(self, config, data):
        params, durations, spec, g_range, k_stride = config
        q = data.draw(st.floats(0.5, 0.999))
        if data.draw(st.booleans()):
            # next to a size's mixture mass, where the cumulative sums may fall short of
            # a q the mass reaches
            size = data.draw(st.sampled_from(sorted({
                max(planner._even_split(spec.n_total, g))
                for g in range(g_range[0], g_range[1] + 1)})))
            mass = mixture_pa(MixtureSpec(size, spec.p_active),
                              DistributionCache(params, durations), k_stride=k_stride).total_mass
            nearby = [mass, np.nextafter(mass, 0.0), np.nextafter(mass, 1.0)]
            q = data.draw(st.sampled_from(nearby).filter(lambda q: 0.0 < q < 1.0))
        expected = _sweep_or_mass(lambda: full_run_sweep(spec, params, durations, q, g_range,
                                                         k_stride))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "_FIRST_ROUND", data.draw(st.sampled_from([1, 3, 64])))
            patch.setattr(pool, "_usable_cpus", lambda: 1)
            cache = DistributionCache(params, durations)
            cache.fill(data.draw(st.lists(st.integers(1, spec.n_total), max_size=6)), False)
            usable = data.draw(st.sampled_from([1, 2]))
            patch.setattr(pool, "_usable_cpus", lambda: usable)
            got = _sweep_or_mass(lambda: optimize_groups(spec, cache, q, g_range, "A",
                                                         k_stride=k_stride))
        assert got == expected
        for k in range(1, spec.n_total + 1):  # the cache keeps complete runs only
            if (k, False) in cache._runs:
                full = run_chains(params.with_stations(k), durations, compute_b=False).p_a
                _assert_same_bits(cache._runs[k, False], full)

    @pytest.mark.parametrize("first_round, windows, slots, n, p, g_max, q", [
        (1, (2, 16, 5), (12, 2580, 2057), 14, 0.3, 2, 0.72),
        (3, (8, 16, 3), (48, 1721, 1481), 30, 0.3, 4, 0.7),
    ])
    @pytest.mark.parametrize("usable", [1, 2])
    def test_population_shared_by_unsettled_sizes(self, monkeypatch, usable, first_round,
                                                  windows, slots, n, p, g_max, q):
        # a population some unsettled size still needs, while another size's U already
        # lies below its bound, must run on
        monkeypatch.setattr(planner, "_FIRST_ROUND", first_round)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: usable)
        params = ModelParams(1, *windows)
        durations = SlotDurations(*slots)
        cache = DistributionCache(params, durations)
        got = optimize_groups(MixtureSpec(n, p), cache, q, (1, g_max), "A")
        assert got == full_run_sweep(MixtureSpec(n, p), params, durations, q, (1, g_max), 1)

    def test_stops_runs_early_with_the_same_plans(self, monkeypatch):
        spec = MixtureSpec(30, 0.3)
        expected = full_run_sweep(spec, PARAMS, DUR, 0.9, (1, 3), "auto")
        full = DistributionCache(PARAMS, DUR)
        for size in (10, 15, 30):  # the sweep's group sizes, one at a time
            mixture_pa(MixtureSpec(size, 0.3), full, k_stride="auto")
        for usable in (1, 2):
            monkeypatch.setattr(pool, "_usable_cpus", lambda: usable)
            cache = DistributionCache(PARAMS, DUR)
            assert optimize_groups(spec, cache, 0.9, (1, 3), "A", k_stride="auto") == expected
            assert (cache.chain_runs, cache.cache_hits) == (full.chain_runs, full.cache_hits)
            assert cache.chain_steps < full.chain_steps / 2
            # the cache keeps only the runs that completed; a later lookup of a stopped
            # population runs it in full
            stopped = [k for k, b in full._runs if not b and (k, False) not in cache._runs]
            assert stopped
            _assert_same_bits(cache.pa(stopped[0]), full._runs[stopped[0], False])
            assert cache.chain_runs == full.chain_runs + 1

    def test_cached_runs_are_reused(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)  # the same runs stop each time
        spec = MixtureSpec(12, 0.4)
        expected = full_run_sweep(spec, PARAMS, DUR, 0.9, (1, 6), 1)
        cache = DistributionCache(PARAMS, DUR)
        assert optimize_groups(spec, cache, 0.9, (1, 6), "A") == expected
        runs, complete = cache.chain_runs, sum(1 for key in cache._runs if not key[1])
        assert 0 < complete < runs == 12  # the sweep stopped some runs
        # a second sweep runs again only the populations the first one stopped
        assert optimize_groups(spec, cache, 0.9, (1, 6), "A") == expected
        assert cache.chain_runs == runs + runs - complete
        cache.fill(range(1, 13), compute_b=False)
        runs = cache.chain_runs
        assert optimize_groups(spec, cache, 0.9, (1, 6), "A") == expected
        assert cache.chain_runs == runs

    def test_unsatisfiable_sweep_names_the_full_runs_mass(self, monkeypatch):
        monkeypatch.setattr(planner, "_FIRST_ROUND", 3)
        # every g has a size that falls short of q, and the sweep stops one population
        # of a size that reaches it: naming the best mass runs that one again in full
        params = ModelParams(n_stations=1, cw_min=2, cw_max=2, retry_limit=5)
        durations = SlotDurations(t_empty=40, t_success=2004, t_collision=2378)
        spec = MixtureSpec(11, 1.0)  # sizes 11, 6, 5, 4, 3 and 2, one population each
        with pytest.raises(UnsatisfiableQuantileError) as expected:
            full_run_sweep(spec, params, durations, 0.9, (1, 4), 1)
        cache = DistributionCache(params, durations)
        with pytest.raises(UnsatisfiableQuantileError) as got:
            optimize_groups(spec, cache, 0.9, (1, 4), "A")
        assert got.value.total_mass == expected.value.total_mass
        assert cache.chain_runs == 7

    def test_bad_level_rejected_before_any_run(self):
        cache = DistributionCache(SMALL, SMALL_DUR)
        for q in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="quantile level"):
                optimize_groups(SMALL_SPEC, cache, q, (1, 6), "A")
        assert cache.chain_runs == 0

    @pytest.mark.parametrize("usable", [1, 2])
    def test_worker_exception_reaches_caller(self, monkeypatch, usable):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: usable)
        cache = DistributionCache(SMALL, SimpleNamespace())  # no slot durations
        with pytest.raises(AttributeError, match="has no attribute"):
            optimize_groups(SMALL_SPEC, cache, 0.9, (1, 6), "A")
        assert multiprocessing.active_children() == []


def _start(values):
    return list(values)


def _step(state, extra):
    if extra == "fail" and state[0] == 3:
        raise ValueError(f"state {state} failed")
    state.append(extra)
    return list(state)


class TestResidentJobs:
    JOBS = [([1],), ([2],), ([3],)]

    def test_workers_keep_their_states(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        with pool.ResidentJobs(_start, _step, self.JOBS) as jobs:
            assert jobs.groups == 2
            for round_ in ("a", "b"):
                for group in range(2):
                    jobs.send(group, round_)
                answers = dict(jobs.receive() for _ in range(2))
            # the jobs are dealt out in turn
            assert answers == {0: [[1, "a", "b"], [3, "a", "b"]], 1: [[2, "a", "b"]]}
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("serial_because", ["one usable CPU", "one job", "macOS",
                                                "caller thread"])
    def test_serially_in_one_group(self, monkeypatch, serial_because):
        monkeypatch.setattr(pool, "_usable_cpus",
                            lambda: 1 if serial_because == "one usable CPU" else 2)
        if serial_because == "macOS":
            monkeypatch.setattr(sys, "platform", "darwin")
        stop = threading.Event()
        if serial_because == "caller thread":
            threading.Thread(target=stop.wait, daemon=True).start()
        jobs_ = self.JOBS[:1] if serial_because == "one job" else self.JOBS
        try:
            with pool.ResidentJobs(_start, _step, jobs_) as jobs:
                assert jobs.groups == 1 and multiprocessing.active_children() == []
                jobs.send(0, "a")
                jobs.send(0, "b")
                assert jobs.receive() == (0, [[*job[0], "a"] for job in jobs_])
                assert jobs.receive() == (0, [[*job[0], "a", "b"] for job in jobs_])
        finally:
            stop.set()

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match=r"state \[3\] failed"):
            with pool.ResidentJobs(_start, _step, self.JOBS) as jobs:
                for group in range(2):
                    jobs.send(group, "fail")
                for _ in range(2):
                    jobs.receive()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("usable", [1, 2])
    def test_receive_without_a_call_raises(self, monkeypatch, usable):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: usable)
        with pool.ResidentJobs(_start, _step, self.JOBS) as jobs:
            jobs.send(0, "a")
            jobs.receive()
            with pytest.raises(RuntimeError, match="no group has a call"):
                jobs.receive()

    def test_leaving_stops_a_busy_worker(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        with pool.ResidentJobs(_start, _step, self.JOBS) as jobs:
            jobs.send(0, "never read")
        assert multiprocessing.active_children() == []


def test_group_optimum_cross_checked_by_simulation(ah_cache):
    """At the sweep's optimal group count, the planned per-group slot matches
    the empirical mixture quantile of a direct simulation of one group."""
    from reference import simulate_group_mixture

    spec = MixtureSpec(200, 0.3)
    plans, best = optimize_groups(spec, ah_cache, 0.9, (4, 12), "A", k_stride="auto")
    assert best.group_count > 1
    size = max(best.group_sizes)
    times, failures = simulate_group_mixture(size, 0.3, PARAMS, DUR,
                                             runs=40_000, seed=77)
    # empirical 0.9-quantile over all runs (failures count as never-delivered)
    idx = int(math.ceil(0.9 * (len(times) + failures))) - 1
    empirical = int(times[idx])
    assert abs(best.per_group_slot - empirical) <= 2 * 2184
