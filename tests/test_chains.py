import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawtime import (
    AH_SLOT_DURATIONS,
    ModelParams,
    SlotDurations,
    StateLayerA,
    StateLayerB,
    ah_params,
    build_tx_prob_table,
    run_chains,
    step_process_a,
    step_process_b,
)
from rawtime.chains import _state_time
from rawtime.layers import _cell_prob

from reference import DenseChainReference

SMALL = SlotDurations(t_empty=52, t_success=2184, t_collision=2184)


def layer_a(t, mass):
    """Process-A layer at time ``t`` holding ``mass``, keyed (c, s, r)."""
    c0 = min(c for c, _, _ in mass)
    s0 = min(s for _, s, _ in mass)
    shape = [max(key[i] for key in mass) + 1 - lo for i, lo in ((2, 0), (0, c0), (1, s0))]
    p = np.zeros(shape)
    for (c, s, r), m in mass.items():
        p[r, c - c0, s - s0] = m
    return StateLayerA(t=t, p=p, c0=c0, s0=s0)


def mass_a(layer):
    """Carried mass of a process-A layer, keyed (c, s, r)."""
    return {
        (layer.c0 + int(c), layer.s0 + int(s), int(r)): float(layer.p[r, c, s])
        for r, c, s in zip(*np.nonzero(layer.p))
    }


def success_records(layer):
    """Success absorptions of the step that produced ``layer``, keyed by the
    origin state (t, c, s)."""
    return {
        (layer.t - 1, int(c), int(s)): float(p)
        for c, s, p in zip(layer.new_success_c, layer.new_success_s, layer.new_success_p)
    }


def absorbed_records(layer):
    """Process-B absorptions of the step that produced ``layer``, keyed (t, c)."""
    pairs = zip(layer.new_absorbed_c, layer.new_absorbed_p)
    return {(layer.t - 1, int(c)): float(p) for c, p in pairs}


def cond_tx(layer, table, c, s):
    """Transmission probability the layer's (c, s) cell mixture gives a
    contending station; 0 outside the layer's box."""
    prob = _cell_prob(layer, table)
    i, j = c - layer.c0, s - layer.s0
    inside = 0 <= i < prob.shape[0] and 0 <= j < prob.shape[1]
    return float(prob[i, j]) if inside else 0.0


def harsh_params(n):
    # tiny windows and retry limit: failures and collisions are common
    return ModelParams(n_stations=n, cw_min=4, cw_max=4, retry_limit=2, prune_floor=0.0)


class TestStateTime:
    def test_origin(self):
        assert _state_time(0, 0, 0, SMALL) == 0

    def test_reference_values(self):
        assert _state_time(1, 2, 5, SMALL) == 1 * 2184 + 2 * 2184 + 2 * 52 == 6656
        c, s = np.array([0, 1, 3]), np.array([0, 2, 1])
        assert _state_time(c, s, 5, SMALL).tolist() == [5 * 52, 6656, 4 * 2184 + 52]

    def test_swapping_empty_for_busy_never_decreases(self):
        for c, s in [(0, 0), (1, 2), (3, 1)]:
            base = _state_time(c, s, 8, SMALL)
            assert _state_time(c + 1, s, 8, SMALL) >= base
            assert _state_time(c, s + 1, 8, SMALL) >= base

    def test_contract_violation(self):
        with pytest.raises(ValueError):
            _state_time(3, 3, 5, SMALL)
        with pytest.raises(ValueError):
            _state_time(np.array([0, 3]), np.array([0, 3]), 5, SMALL)


class TestCondTxProb:
    def test_initial_state_single_term(self):
        params = ah_params(7)
        table = build_tx_prob_table(params, 10)
        layer = StateLayerA.initial()
        assert cond_tx(layer, table, 0, 0) == 1 / 16

    def test_unreachable_state_is_zero(self):
        params = ah_params(7)
        table = build_tx_prob_table(params, 10)
        layer = StateLayerA.initial()
        assert cond_tx(layer, table, 3, 2) == 0.0
        # a cell inside the box that holds no mass
        layer = layer_a(0, {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
        assert cond_tx(layer, table, 0, 1) == 0.0

    def test_against_dense_reference_at_t20(self):
        params = ah_params(7, prune_floor=0.0)
        table = build_tx_prob_table(params, 25)
        ref = DenseChainReference(7, 16, 1024, 7, AH_SLOT_DURATIONS)
        layer = StateLayerA.initial()
        for _ in range(20):
            layer = step_process_a(layer, table, params)
            ref.step()
        assert layer.t == ref.t == 20
        cells = {(c, s) for (c, s, _r) in ref.layer_a}
        assert cells
        box = {
            (layer.c0 + i, layer.s0 + j)
            for i in range(layer.p.shape[1]) for j in range(layer.p.shape[2])
        }
        assert cells <= box
        for c, s in sorted(box | {(max(c for c, _ in box) + 1, 0)}):
            got = cond_tx(layer, table, c, s)
            want = ref.cond_tx(c, s)
            assert got == pytest.approx(want, abs=1e-12)


class TestStepProcessA:
    def test_single_station_success_mass_is_uniform(self):
        params = ah_params(1)
        table = build_tx_prob_table(params, 20)
        layer = StateLayerA.initial()
        for t in range(16):
            layer = step_process_a(layer, table, params)
            # only absorption record: origin (t, 0, 0) with mass 1/CW0
            assert success_records(layer) == pytest.approx({(t, 0, 0): 1 / 16}, abs=1e-15)
        assert layer.p.size == 0
        assert layer.absorbed_success_total == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_each_step(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=0.0)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        layer = StateLayerA.initial()
        for _ in range(params.max_backoff_slots()):
            before = layer.carried_mass()
            nxt = step_process_a(layer, table, params)
            newly_absorbed = (
                (nxt.absorbed_success_total - layer.absorbed_success_total)
                + (nxt.absorbed_failure - layer.absorbed_failure)
                + (nxt.dropped_mass - layer.dropped_mass)
            )
            assert nxt.carried_mass() + newly_absorbed == pytest.approx(before, abs=1e-12)
            layer = nxt

    def test_absorption_matches_exhaustive_bernoulli_enumeration(self):
        params = harsh_params(2)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        ref = DenseChainReference(2, 4, 4, 2, SMALL)
        layer = StateLayerA.initial()
        records = {}
        for _ in range(params.max_backoff_slots()):
            layer = step_process_a(layer, table, params)
            for key, mass in success_records(layer).items():
                records[key] = records.get(key, 0.0) + mass
            ref.step()
        assert set(records) == set(ref.success_records)
        for key, mass in ref.success_records.items():
            assert records[key] == pytest.approx(mass, abs=1e-12)
        assert layer.absorbed_failure == pytest.approx(ref.fail_a, abs=1e-12)

    def test_no_peers_left_forces_empty_or_own_success(self):
        # state with all six peers already done: peer activity impossible
        params = ah_params(7)
        table = build_tx_prob_table(params, 10)
        layer = layer_a(3, {(0, 6, 0): 1.0})
        nxt = step_process_a(layer, table, params)
        q = float(table.p_tx[3, 0])
        assert success_records(nxt) == pytest.approx({(3, 0, 6): q}, abs=1e-15)
        assert mass_a(nxt) == pytest.approx({(0, 6, 0): 1.0 - q}, abs=1e-15)


class TestStepProcessB:
    def test_single_station_matches_process_a(self):
        params = ah_params(1)
        table = build_tx_prob_table(params, 20)
        la, lb = StateLayerA.initial(), StateLayerB.initial()
        for t in range(16):
            lb = step_process_b(lb, table, la, params)
            la = step_process_a(la, table, params)
            assert absorbed_records(lb) == pytest.approx({(t, 0): 1 / 16}, abs=1e-15)
        assert lb.absorbed_total == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_each_step(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=0.0)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        la, lb = StateLayerA.initial(), StateLayerB.initial()
        for _ in range(params.max_backoff_slots()):
            before = lb.carried_mass()
            nxt = step_process_b(lb, table, la, params)
            newly = (nxt.absorbed_total - lb.absorbed_total) + (nxt.dropped_mass - lb.dropped_mass)
            assert nxt.carried_mass() + newly == pytest.approx(before, abs=1e-12)
            lb = nxt
            la = step_process_a(la, table, params)

    def test_time_mismatch_rejected(self):
        params = ah_params(2)
        table = build_tx_prob_table(params, 10)
        la = layer_a(1, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            step_process_b(StateLayerB.initial(), table, la, params)


class TestRunChains:
    def test_single_station_closed_form(self):
        result = run_chains(ah_params(1), AH_SLOT_DURATIONS)
        expected = {k * 52 + 2184: 1 / 16 for k in range(16)}
        assert result.p_a.atoms == pytest.approx(expected, abs=1e-14)
        assert result.p_b.atoms == pytest.approx(expected, abs=1e-14)
        assert result.p_fail_a == 0.0
        assert not result.diagnostics.truncated

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_dense_reference_on_harsh_params(self, n):
        params = harsh_params(n)
        ref = DenseChainReference(n, 4, 4, 2, SMALL)
        ref.run(params.max_backoff_slots() + 1)
        result = run_chains(params, SMALL)
        got_a, got_b = result.p_a.atoms, result.p_b.atoms
        for tau in set(got_a) | set(ref.pa_atoms):
            assert got_a.get(tau, 0.0) == pytest.approx(ref.pa_atoms.get(tau, 0.0), abs=1e-9)
        for tau in set(got_b) | set(ref.pb_atoms):
            assert got_b.get(tau, 0.0) == pytest.approx(ref.pb_atoms.get(tau, 0.0), abs=1e-9)
        assert result.p_fail_a == pytest.approx(ref.fail_a, abs=1e-9)

    def test_bookkeeping_sums_to_one(self):
        result = run_chains(ah_params(7), AH_SLOT_DURATIONS)
        diag = result.diagnostics
        assert result.p_a.total_mass + result.p_fail_a + diag.unresolved_a == pytest.approx(
            1.0, abs=1e-9
        )
        assert result.p_b.total_mass + diag.unresolved_b == pytest.approx(1.0, abs=1e-9)
        assert diag.mass_error_a < 1e-9
        assert diag.mass_error_b < 1e-9

    def test_aggregate_needs_every_station_to_succeed(self):
        result = run_chains(ah_params(7), AH_SLOT_DURATIONS)
        assert int(result.p_b.durations[0]) >= 7 * 2184

    def test_failure_tail_reported_as_deficit_not_truncation(self):
        # harsh parameters leave a real probability that some station fails;
        # the run converges with that tail as deficit
        result = run_chains(harsh_params(3), SMALL)
        diag = result.diagnostics
        assert diag.b_stalled
        assert not diag.truncated
        assert result.p_b.deficit > 0.05
        assert result.p_b.total_mass + diag.unresolved_b == pytest.approx(1.0, abs=1e-9)

    def test_cap_truncation_reported(self):
        params = ModelParams(n_stations=2, cw_min=16, cw_max=16, retry_limit=2, t_max_cap=4)
        result = run_chains(params, SMALL)
        assert result.diagnostics.truncated
        assert result.diagnostics.t_stop == 4
        assert result.p_a.total_mass < 1.0

    def test_skipping_process_b(self):
        result = run_chains(ah_params(2), AH_SLOT_DURATIONS, compute_b=False)
        assert result.p_b is None
        assert result.p_a.total_mass == pytest.approx(1.0, abs=1e-6)

    def test_quantile_curves_monotone_in_population(self):
        quantiles = []
        for n in (1, 2, 4):
            dist = run_chains(ah_params(n), AH_SLOT_DURATIONS, compute_b=False).p_a
            quantiles.append([dist.quantile(q) for q in (0.5, 0.95)])
        assert quantiles == sorted(quantiles)


@st.composite
def small_configs(draw):
    cw_min = draw(st.sampled_from([2, 4]))
    params = ModelParams(
        n_stations=draw(st.integers(1, 4)),
        cw_min=cw_min,
        cw_max=draw(st.sampled_from([w for w in (2, 4, 8) if w >= cw_min])),
        retry_limit=draw(st.integers(1, 3)),
        epsilon=1e-15,
        prune_floor=0.0,
    )
    t_empty = draw(st.integers(1, 60))
    durations = SlotDurations(
        t_empty=t_empty,
        t_success=draw(st.integers(t_empty, 3000)),
        t_collision=draw(st.integers(t_empty, 3000)),
    )
    return params, durations


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_random_small_configs_equal_dense_reference(config):
    params, durations = config
    support = params.max_backoff_slots()
    table = build_tx_prob_table(params, support + 1)
    la, lb = StateLayerA.initial(), StateLayerB.initial()
    for _ in range(support):
        na = step_process_a(la, table, params)
        nb = step_process_b(lb, table, la, params)
        resolved_a = sum(
            getattr(na, f) - getattr(la, f)
            for f in ("absorbed_success_total", "absorbed_failure", "dropped_mass")
        )
        assert na.carried_mass() + resolved_a == pytest.approx(la.carried_mass(), abs=1e-12)
        resolved_b = (nb.absorbed_total - lb.absorbed_total) + (nb.dropped_mass - lb.dropped_mass)
        assert nb.carried_mass() + resolved_b == pytest.approx(lb.carried_mass(), abs=1e-12)
        la, lb = na, nb

    ref = DenseChainReference(
        params.n_stations, params.cw_min, params.cw_max, params.retry_limit, durations
    )
    ref.run(support)
    result = run_chains(params, durations)
    for got, want in ((result.p_a.atoms, ref.pa_atoms), (result.p_b.atoms, ref.pb_atoms)):
        for tau in set(got) | set(want):
            assert got.get(tau, 0.0) == pytest.approx(want.get(tau, 0.0), abs=1e-12)
    assert result.p_fail_a == pytest.approx(ref.fail_a, abs=1e-12)
    assert result.diagnostics.mass_error_a < 1e-12
    assert result.diagnostics.mass_error_b < 1e-12
