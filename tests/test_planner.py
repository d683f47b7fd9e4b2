import concurrent.futures
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
from rawtime import planner
from rawtime.planner import _binom_pmf, _stride_from_weights

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
        def exact(m):
            f = Fraction(p)
            return [math.comb(m, k) * f**k * (1 - f) ** (m - k) for k in range(m + 1)]

        def check(weights, expected):
            expected = np.array([float(x) for x in expected])
            big = expected >= 1e-10 * expected.max()
            assert np.all(np.abs(weights[big] - expected[big]) <= 2e-13 * expected[big])

        check(mixture_weights(MixtureSpec(n, p)), exact(n - 1))
        norm = 1 - (1 - Fraction(p)) ** n
        check(mixture_weights(MixtureSpec(n, p, Conditioning.POPULATION_WIDE)),
              [x / norm for x in exact(n)[1:]])
        check(_binom_pmf(n, p), exact(n))  # the weights of mixture_pb

    def test_certain_activity_weights_exact(self):
        assert _binom_pmf(4, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert _binom_pmf(4, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        for conditioning in Conditioning:
            w = mixture_weights(MixtureSpec(4, 1.0, conditioning))
            assert w.tolist() == [0.0, 0.0, 0.0, 1.0]


class TestMixturePa:
    def test_p_one_collapses_to_fixed_population(self, ah_cache):
        for conditioning in Conditioning:
            mix = mixture_pa(
                MixtureSpec(5, 1.0, conditioning), PARAMS, DUR, cache=ah_cache
            )
            fixed = ah_cache.pa(5)
            assert np.array_equal(mix.durations, fixed.durations)
            assert mix.probabilities == pytest.approx(fixed.probabilities, abs=1e-15)

    def test_two_station_mixture_is_plain_average(self, ah_cache):
        mix = mixture_pa(MixtureSpec(2, 0.5), PARAMS, DUR, cache=ah_cache)
        p1, p2 = ah_cache.pa(1), ah_cache.pa(2)
        expected = {}
        for dist in (p1, p2):
            for tau, prob in dist.atoms.items():
                expected[tau] = expected.get(tau, 0.0) + 0.5 * prob
        assert mix.atoms == pytest.approx(expected, abs=1e-15)

    def test_mixture_mass_is_weighted_component_mass(self, ah_cache):
        spec = MixtureSpec(6, 0.4)
        mix = mixture_pa(spec, PARAMS, DUR, cache=ah_cache)
        w = mixture_weights(spec)
        expected = math.fsum(
            float(w[k - 1]) * ah_cache.pa(k).total_mass for k in range(1, 7)
        )
        assert mix.total_mass == pytest.approx(expected, abs=1e-9)

    def test_subsampled_grid_close_to_exact(self, ah_cache):
        spec = MixtureSpec(40, 0.3)
        exact = mixture_pa(spec, PARAMS, DUR, cache=ah_cache)
        coarse = mixture_pa(spec, PARAMS, DUR, cache=ah_cache, k_stride=3)
        assert coarse.total_mass == pytest.approx(exact.total_mass, abs=1e-6)
        for q in (0.5, 0.9, 0.99):
            assert abs(coarse.quantile(q) - exact.quantile(q)) <= 2 * 2184

    def test_auto_stride_scales_with_spread(self):
        for n, stride in [(10, 1), (1000, 7)]:
            weights = mixture_weights(MixtureSpec(n, 0.3))
            assert _stride_from_weights(np.arange(1, n + 1), weights) == stride


class TestMixturePb:
    def test_no_active_stations_complete_instantly(self, ah_cache):
        mix = mixture_pb(MixtureSpec(3, 0.0), PARAMS, DUR, cache=ah_cache)
        assert mix.atoms == pytest.approx({0: 1.0})

    def test_all_active_matches_fixed_population(self, ah_cache):
        mix = mixture_pb(MixtureSpec(3, 1.0), PARAMS, DUR, cache=ah_cache)
        fixed = ah_cache.pb(3)
        assert mix.atoms == pytest.approx(fixed.atoms, abs=1e-15)

    def test_intermediate_mixes_in_instant_atom(self, ah_cache):
        mix = mixture_pb(MixtureSpec(2, 0.5), PARAMS, DUR, cache=ah_cache)
        assert mix.atoms[0] == pytest.approx(0.25, abs=1e-12)


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
        dist = mixture_pb(MixtureSpec(2, 0.5), PARAMS, DUR, cache=ah_cache)
        with pytest.raises(UnsatisfiableQuantileError) as err:
            dist.quantile(1.0 - 1e-12)
        assert err.value.total_mass < 1.0


class TestOptimizeGroups:
    def test_one_group_equals_ungrouped_plan(self, ah_cache):
        spec = MixtureSpec(12, 0.5)
        plans, _ = optimize_groups(spec, PARAMS, DUR, 0.9, (1, 4), "A", cache=ah_cache)
        ungrouped = mixture_pa(spec, PARAMS, DUR, cache=ah_cache).quantile(0.9)
        assert plans[0].group_count == 1
        assert plans[0].per_group_slot == plans[0].total_reserved == ungrouped

    def test_sizes_partition_evenly(self, ah_cache):
        plans, _ = optimize_groups(
            MixtureSpec(10, 0.5), PARAMS, DUR, 0.5, (3, 3), "A", cache=ah_cache
        )
        sizes = plans[0].group_sizes
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_fully_split_total_grows_linearly(self, ah_cache):
        # one station per group: every group needs the single-station slot
        n = 6
        plans, _ = optimize_groups(
            MixtureSpec(n, 0.5), PARAMS, DUR, 0.9, (n, n), "A", cache=ah_cache
        )
        plan = plans[0]
        single = mixture_pa(MixtureSpec(1, 0.5), PARAMS, DUR, cache=ah_cache).quantile(0.9)
        assert plan.per_group_slot == single
        assert plan.total_reserved == n * single

    def test_best_breaks_ties_toward_fewer_groups(self, ah_cache):
        plans, best = optimize_groups(
            MixtureSpec(4, 0.0), PARAMS, DUR, 0.9, (1, 4), "A", cache=ah_cache
        )
        # p=0: every group is effectively a single active station, so all
        # per-group slots are equal and g=1 minimizes the total
        assert best.group_count == 1

    def test_problem_b_uses_group_completion(self, ah_cache):
        plans, best = optimize_groups(
            MixtureSpec(4, 1.0), PARAMS, DUR, 0.9, (1, 2), "B", cache=ah_cache
        )
        expected = ah_cache.pb(4).quantile(0.9)
        assert plans[0].per_group_slot == expected

    def test_infeasible_group_counts_excluded(self, ah_cache):
        # a target above the achievable completion probability for every g
        with pytest.raises(UnsatisfiableQuantileError):
            optimize_groups(
                MixtureSpec(4, 1.0), PARAMS, DUR, 1.0 - 1e-13, (1, 2), "B", cache=ah_cache
            )

    def test_bad_range_rejected(self, ah_cache):
        with pytest.raises(ConfigurationError):
            optimize_groups(MixtureSpec(4, 0.5), PARAMS, DUR, 0.9, (0, 2), cache=ah_cache)
        with pytest.raises(ConfigurationError):
            optimize_groups(MixtureSpec(4, 0.5), PARAMS, DUR, 0.9, (1, 9), cache=ah_cache)

    def test_reduced_scale_sweep_has_interior_minimum(self, ah_cache):
        """Medium population: grouping pays until per-group overhead dominates."""
        spec = MixtureSpec(60, 0.3)
        plans, best = optimize_groups(
            spec, PARAMS, DUR, 0.9, (1, 12), "A", cache=ah_cache
        )
        totals = [p.total_reserved for p in plans]
        assert 1 < best.group_count < 12
        assert totals[0] > best.total_reserved

    def test_compliance_flag_definition(self, ah_cache):
        plans, _ = optimize_groups(
            MixtureSpec(8, 0.5), PARAMS, DUR, 0.9, (1, 2), "A", cache=ah_cache
        )
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
        mixture_pa(SMALL_SPEC, SMALL, SMALL_DUR, cache=cache)
        assert cache.chain_runs == 12
        for k in range(1, 13):
            direct = run_chains(SMALL.with_stations(k), SMALL_DUR, compute_b=False)
            _assert_same_bits(cache.pa(k), direct.p_a)

    def test_problem_b_sweep_components_equal_direct_runs(self):
        cache = DistributionCache(SMALL, SMALL_DUR)
        optimize_groups(SMALL_SPEC, SMALL, SMALL_DUR, 0.9, (1, 6), "B", cache=cache)
        assert cache.chain_runs == 12
        for k in range(1, 13):
            direct = run_chains(SMALL.with_stations(k), SMALL_DUR)
            _assert_same_bits(cache.pb(k), direct.p_b)
            _assert_same_bits(cache.pa(k), direct.p_a)
        assert cache.chain_runs == 12

    def test_filled_sweep_makes_no_further_runs(self, monkeypatch):
        cache = DistributionCache(SMALL, SMALL_DUR)
        runs_after_fill = []
        fill = cache.fill

        def recording_fill(ks, compute_b):
            fill(ks, compute_b)
            runs_after_fill.append(cache.chain_runs)

        monkeypatch.setattr(cache, "fill", recording_fill)
        first = optimize_groups(SMALL_SPEC, SMALL, SMALL_DUR, 0.9, (1, 6), "A", cache=cache)
        assert runs_after_fill == [12]
        assert cache.chain_runs == 12 and cache.cache_hits > 0
        assert cache.chain_run_s > 0.0
        again = optimize_groups(SMALL_SPEC, SMALL, SMALL_DUR, 0.9, (1, 6), "A", cache=cache)
        assert again == first and cache.chain_runs == 12

    @pytest.mark.parametrize("serial_because", ["one usable CPU", "macOS", "caller thread"])
    def test_runs_serially_with_same_bits(self, monkeypatch, serial_because):
        pooled = DistributionCache(SMALL, SMALL_DUR)
        expected = mixture_pa(SMALL_SPEC, SMALL, SMALL_DUR, cache=pooled)

        def no_executor(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_executor)
        if serial_because == "one usable CPU":
            monkeypatch.setattr(planner, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(planner, "_usable_cpus", lambda: 2)
        if serial_because == "macOS":
            monkeypatch.setattr(sys, "platform", "darwin")
        stop = threading.Event()
        if serial_because == "caller thread":
            threading.Thread(target=stop.wait, daemon=True).start()
        serial = DistributionCache(SMALL, SMALL_DUR)
        try:
            _assert_same_bits(mixture_pa(SMALL_SPEC, SMALL, SMALL_DUR, cache=serial), expected)
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
            "slot = mixture_pa(spec, params, dur, cache=cache).quantile(0.5)\n"
            "plans, best = optimize_groups(spec, params, dur, 0.9, (1, 6), 'B', cache=cache)\n"
            "print(slot, best.group_count, cache.chain_runs)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(planner.__file__).parents[1]))
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        slot = mixture_pa(SMALL_SPEC, SMALL, SMALL_DUR).quantile(0.5)
        assert proc.stdout.split()[0] == str(slot)
        assert proc.stdout.split()[2] == "24"  # 12 runs for P_A, 12 for P_B

    def test_worker_exception_reaches_caller(self):
        cache = DistributionCache(SMALL, SimpleNamespace())  # no slot durations
        with pytest.raises(AttributeError, match="has no attribute"):
            cache.fill([1, 2, 3], compute_b=False)
        assert cache.chain_runs == 0


def test_group_optimum_cross_checked_by_simulation(ah_cache):
    """At the sweep's optimal group count, the planned per-group slot matches
    the empirical mixture quantile of a direct simulation of one group."""
    from reference import simulate_group_mixture

    spec = MixtureSpec(200, 0.3)
    plans, best = optimize_groups(spec, PARAMS, DUR, 0.9, (4, 12), "A",
                                  cache=ah_cache, k_stride="auto")
    assert best.group_count > 1
    size = max(best.group_sizes)
    times, failures = simulate_group_mixture(size, 0.3, PARAMS, DUR,
                                             runs=40_000, seed=77)
    # empirical 0.9-quantile over all runs (failures count as never-delivered)
    idx = int(math.ceil(0.9 * (len(times) + failures))) - 1
    empirical = int(times[idx])
    assert abs(best.per_group_slot - empirical) <= 2 * 2184
