"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured wall-clock time (run with ``pytest tests/test_acceptance.py -v -s``).

The two large-population planning criteria share the session-wide distribution
cache, so the expensive per-population chain runs are computed once.
"""

import math
import time

import numpy as np

from rawtime import (
    AH_SLOT_DURATIONS,
    MAX_RAW_SLOT_US,
    Conditioning,
    MixtureSpec,
    ModelParams,
    SimConfig,
    SlotDurations,
    ah_params,
    kolmogorov_distance,
    mixture_pa,
    mixture_weights,
    optimize_groups,
    run_chains,
    simulate,
)
from rawtime.txprob import _attempts, build_tx_prob_table

from reference import DenseChainReference, atoms

SIGMA = 52
TS = 42 * SIGMA
SMALL = SlotDurations(t_empty=SIGMA, t_success=TS, t_collision=TS)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(criterion: str, ok: bool, timer: _Timer, budget_s: float, detail: str) -> None:
    status = "PASS" if ok and timer.elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({timer.elapsed:.2f}s / budget {budget_s:g}s) {detail}")
    assert ok, detail
    assert timer.elapsed < budget_s, f"{criterion} exceeded runtime budget"


def _window_peaks(dist, first: int, last: int) -> list[int]:
    """Mode of the probability comb in each one-non-empty-slot window."""
    d, p = dist.durations, dist.probabilities
    peaks = []
    for m in range(first, last + 1):
        sel = (d >= m * TS) & (d < (m + 1) * TS)
        peaks.append(int(d[sel][np.argmax(p[sel])]))
    return peaks


def test_criterion_1_single_station_closed_form():
    with _Timer() as timer:
        result = run_chains(ah_params(1), AH_SLOT_DURATIONS)
        expected = {k * SIGMA + TS: 1 / 16 for k in range(16)}
        ok = (
            set(atoms(result.p_a)) == set(expected)
            and set(atoms(result.p_b)) == set(expected)
            and all(abs(atoms(result.p_a)[tau] - 1 / 16) <= 1e-12 for tau in expected)
            and all(abs(atoms(result.p_b)[tau] - 1 / 16) <= 1e-12 for tau in expected)
            and result.p_fail_a == 0.0
        )
    _report("1 (N=1 closed form)", ok, timer, 1.0,
            f"16 atoms, mass_a={result.p_a.total_mass:.12f}")


def test_criterion_2_transmission_probability_spot_checks():
    with _Timer() as timer:
        p_tx = build_tx_prob_table(ah_params(7), 64).split[..., 2]
        a, b = _attempts(ah_params(7), 64)
        exact = all(p_tx[t, 0] == 1.0 / (16 - t) for t in range(16))
        forced = p_tx[15, 0] == 1.0
        no_mass_past_window = (
            np.all(a[16:, 0] == 0.0)
            and np.all(b[16:, 0] == 0.0)
            and np.all(p_tx[16:, 0] == 0.0)
        )
        ok = exact and forced and no_mass_past_window
    _report("2 (first-window transmission probabilities)", ok, timer, 5.0,
            "p_tx(t,0)=1/(16-t) exact, no mass at t>=16")


def test_criterion_3_chain_equals_exhaustive_enumeration():
    with _Timer() as timer:
        worst = 0.0
        for n in (1, 2, 3):
            params = ModelParams(n_stations=n, cw_min=4, cw_max=4, retry_limit=2,
                                 prune_floor=0.0)
            ref = DenseChainReference(n, 4, 4, 2, SMALL)
            ref.run(params.max_backoff_slots() + 1)
            result = run_chains(params, SMALL)
            got_a, got_b = atoms(result.p_a), atoms(result.p_b)
            for tau in set(got_a) | set(ref.pa_atoms):
                worst = max(worst, abs(got_a.get(tau, 0.0) - ref.pa_atoms.get(tau, 0.0)))
            for tau in set(got_b) | set(ref.pb_atoms):
                worst = max(worst, abs(got_b.get(tau, 0.0) - ref.pb_atoms.get(tau, 0.0)))
            worst = max(worst, abs(result.p_fail_a - ref.fail_a))
        ok = worst <= 1e-9
    _report("3 (chain mechanics vs enumeration)", ok, timer, 10.0,
            f"N in {{1,2,3}}, worst atom difference {worst:.2e}")


def test_criterion_4_model_vs_simulation_seven_stations(ah_cache):
    with _Timer() as timer:
        model = ah_cache.pa(7)
        emp = simulate(SimConfig(params=ah_params(7), durations=AH_SLOT_DURATIONS,
                                 runs=100_000, seed=7))[0]
        empirical = emp.to_time_distribution()
        distance = kolmogorov_distance(model, empirical)

        # Peak comb: within each one-non-empty-slot window the mode advances by
        # exactly one such slot (42 sigma), up to a sub-slot phase shift of a
        # few backoff slots; the first peak sits at exactly 42 sigma.
        model_peaks = _window_peaks(model, 1, 6)
        emp_peaks = _window_peaks(empirical, 1, 6)
        anchors = model_peaks[0] == TS and emp_peaks[0] == TS
        spacing_ok = all(
            abs(spacing - TS) <= 4 * SIGMA
            for peaks in (model_peaks, emp_peaks)
            for spacing in np.diff(peaks)
        )
        ok = distance <= 0.03 and anchors and spacing_ok
    _report("4 (model vs simulation, N=7)", ok, timer, 120.0,
            f"KS={distance:.4f} <= 0.03, peaks {model_peaks} vs {emp_peaks}")


def test_criterion_5_group_completion_support_and_mode(ah_cache):
    with _Timer() as timer:
        dist = ah_cache.pb(7)
        first_atom = int(dist.durations[0])
        mode = int(dist.durations[np.argmax(dist.probabilities)])
        ok = first_atom >= 7 * TS and 7 * TS <= mode < 8 * TS
    _report("5 (all-stations completion structure)", ok, timer, 30.0,
            f"first atom {first_atom} >= {7 * TS}, mode {mode} in [7Ts, 8Ts)")


def test_criterion_6_quantile_monotone_in_population_and_level(ah_cache):
    with _Timer() as timer:
        populations = (2, 4, 8, 16, 32)
        levels = (0.5, 0.95, 0.99, 0.999)
        table = {
            n: [ah_cache.pa(n).quantile(q) for q in levels] for n in populations
        }
        rows_monotone = all(row == sorted(row) for row in table.values())
        cols_monotone = all(
            table[a][j] <= table[b][j]
            for a, b in zip(populations, populations[1:])
            for j in range(len(levels))
        )
        ok = rows_monotone and cols_monotone
    _report("6 (quantile curves monotone)", ok, timer, 300.0,
            f"quantiles for N=32: {table[32]}")


def test_criterion_7_thousand_station_slot_exceeds_standard(ah_cache):
    # The exact mixture would need one chain run per possible active count;
    # the documented coarse grid ("auto" stride, two points per binomial
    # standard deviation, linear weight reassignment) stands in for it.
    with _Timer() as timer:
        mixture = mixture_pa(MixtureSpec(1000, 0.3), ah_cache, k_stride="auto")
        slot = mixture.quantile(0.9)
        compliant = slot <= MAX_RAW_SLOT_US
        ok = slot > MAX_RAW_SLOT_US and not compliant
    _report("7 (N=1000 slot exceeds standard maximum)", ok, timer, 600.0,
            f"slot {slot} us > {MAX_RAW_SLOT_US} us, compliant={compliant}")


def test_criterion_8_grouping_saves_channel_time(ah_cache):
    with _Timer() as timer:
        spec = MixtureSpec(1000, 0.3)
        plans, best = optimize_groups(spec, ah_cache, 0.9, (1, 100), "A", k_stride="auto")
        single = plans[0]
        ratio = single.total_reserved / best.total_reserved
        large_ok = single.group_count == 1 and ratio >= 1.25

        plans200, best200 = optimize_groups(MixtureSpec(200, 0.3), ah_cache, 0.9, (1, 40),
                                            "A", k_stride="auto")
        reduced_ok = (
            1 < best200.group_count < 40
            and plans200[0].total_reserved > best200.total_reserved
        )
        ok = large_ok and reduced_ok
    _report("8 (grouping minimizes reserved time)", ok, timer, 900.0,
            f"N=1000: g=1 needs {ratio:.3f}x the optimum (g*={best.group_count}); "
            f"N=200: g*={best200.group_count}")


def test_criterion_9_bookkeeping_invariants():
    with _Timer() as timer:
        result = run_chains(ah_params(7), AH_SLOT_DURATIONS)
        diag = result.diagnostics
        conservation_ok = (
            abs(result.p_a.total_mass + result.p_fail_a + diag.unresolved_a - 1.0) <= 1e-9
            and abs(result.p_b.total_mass + diag.unresolved_b - 1.0) <= 1e-9
            and diag.mass_error_a <= 1e-9
            and diag.mass_error_b <= 1e-9
        )

        weights_ok = all(
            abs(math.fsum(mixture_weights(MixtureSpec(n, p, c)).tolist()) - 1.0) <= 1e-12
            for n, p in ((7, 0.5), (200, 0.3), (1000, 0.3))
            for c in Conditioning
        )

        config = SimConfig(params=ah_params(5), durations=AH_SLOT_DURATIONS,
                           runs=20_000, seed=123)
        first = simulate(config)
        second = simulate(config)
        determinism_ok = (
            atoms(first[0]) == atoms(second[0])
            and atoms(first[1]) == atoms(second[1])
            and first[0].failure_count == second[0].failure_count
            and first[1].failure_count == second[1].failure_count
        )
        ok = conservation_ok and weights_ok and determinism_ok
    _report("9 (bookkeeping invariants)", ok, timer, 60.0,
            f"conservation={conservation_ok}, weights={weights_ok}, "
            f"determinism={determinism_ok}")
