import hashlib
import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rawtime import (
    AH_SLOT_DURATIONS,
    DistributionCache,
    ModelParams,
    SlotDurations,
    ah_params,
    TimeDistribution,
    run_chains,
)
from rawtime import pool
from rawtime.chains import StackRun, _AtomAccumulator, _state_time, run_stack
from rawtime.layers import (
    StateLayer,
    _cell_prob,
    _compensated_add,
    _peer_slot_probs,
    _slot_probs,
    step_process_a,
    step_process_b,
)
from rawtime.txprob import build_tx_prob_table

from reference import DenseChainReference, atoms, kahan

SMALL = SlotDurations(t_empty=52, t_success=2184, t_collision=2184)
# the rows of StateLayer.totals
ABSORBED, FAILED, DROPPED = range(3)


def layer_a(t, mass, n):
    """Process-A layer of one population of ``n`` stations at time ``t`` holding ``mass``, keyed
    (c, s, r); its box starts at r = 0."""
    c0 = min(c for c, _, _ in mass)
    s0 = min(s for _, s, _ in mass)
    shape = [max(key[i] for key in mass) + 1 - lo for i, lo in ((2, 0), (0, c0), (1, s0))]
    p = np.zeros(shape)
    for (c, s, r), m in mass.items():
        p[r, c - c0, s - s0] = m
    return replace(StateLayer.initial([n]), t=t, p=p[:, None], c0=np.array([c0]),
                   s0=np.array([s0]))


def mass_a(layer):
    """Carried mass of a one-population process-A layer, keyed (c, s, r)."""
    return {
        (int(layer.c0[0] + c), int(layer.s0[0] + s), layer.r0 + int(r)):
            float(layer.p[r, 0, c, s])
        for r, c, s in zip(*np.nonzero(layer.p[:, 0]))
    }


def absorbed_records(layer):
    """Absorptions of the step that produced ``layer``, keyed by the origin state (t, c, s)."""
    return {
        (layer.t - 1, int(c), int(s)): float(p)
        for c, s, p in zip(layer.new_c, layer.new_s, layer.new_p)
    }


def newly_resolved(before, after, j=0):
    """Mass of population ``j`` the step from ``before`` to ``after`` absorbed, failed and
    pruned."""
    return sum((after.totals[:, j] - before.totals[:, j]).tolist())


def assert_conserved(before, after):
    """Each population's carried mass before a step equals its carried mass after it plus
    what the step absorbed, failed and pruned of it."""
    for j in range(len(before.stations)):
        assert after.carried_mass(j) + newly_resolved(before, after, j) == pytest.approx(
            before.carried_mass(j), abs=1e-12)


def cells(layer, j):
    """Carried mass of population ``j`` of a process-A layer, keyed (r, c, s)."""
    r, c, s = np.nonzero(layer.p[:, j])
    keys = zip((r + layer.r0).tolist(), (c + layer.c0[j]).tolist(), (s + layer.s0[j]).tolist())
    return dict(zip(keys, layer.p[:, j][r, c, s].tolist()))


def cond_tx(layer, table, c, s):
    """Transmission probability the layer's (c, s) cell mixture gives a
    contending station; 0 outside the layer's box."""
    prob = _cell_prob(layer, table)[0]
    i, j = c - layer.c0[0], s - layer.s0[0]
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
        layer = StateLayer.initial([7])
        assert cond_tx(layer, table, 0, 0) == 1 / 16

    def test_unreachable_state_is_zero(self):
        params = ah_params(7)
        table = build_tx_prob_table(params, 10)
        layer = StateLayer.initial([7])
        assert cond_tx(layer, table, 3, 2) == 0.0
        # a cell inside the box that holds no mass
        layer = layer_a(0, {(0, 0, 0): 0.5, (1, 1, 0): 0.5}, 7)
        assert cond_tx(layer, table, 0, 1) == 0.0

    def test_against_dense_reference_at_t20(self):
        params = ah_params(7, prune_floor=0.0)
        table = build_tx_prob_table(params, 25)
        ref = DenseChainReference(7, 16, 1024, 7, AH_SLOT_DURATIONS)
        layer = StateLayer.initial([7])
        for _ in range(20):
            layer = step_process_a(layer, table, params)
            ref.step()
        assert layer.t == ref.t == 20
        cells = {(c, s) for (c, s, _r) in ref.layer_a}
        assert cells
        box = {
            (int(layer.c0[0]) + i, int(layer.s0[0]) + j)
            for i in range(layer.p.shape[2]) for j in range(layer.p.shape[3])
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
        layer = StateLayer.initial([1])
        for t in range(16):
            layer = step_process_a(layer, table, params)
            # only absorption record: origin (t, 0, 0) with mass 1/CW0
            assert absorbed_records(layer) == pytest.approx({(t, 0, 0): 1 / 16}, abs=1e-15)
        assert layer.p.size == 0
        assert layer.totals[ABSORBED, 0] == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_each_step(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=0.0)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        layer = StateLayer.initial([3])
        for _ in range(params.max_backoff_slots()):
            before = layer.carried_mass(0)
            nxt = step_process_a(layer, table, params)
            assert nxt.carried_mass(0) + newly_resolved(layer, nxt) == pytest.approx(
                before, abs=1e-12)
            layer = nxt

    def test_absorption_matches_exhaustive_bernoulli_enumeration(self):
        params = harsh_params(2)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        ref = DenseChainReference(2, 4, 4, 2, SMALL)
        layer = StateLayer.initial([2])
        records = {}
        for _ in range(params.max_backoff_slots()):
            layer = step_process_a(layer, table, params)
            for key, mass in absorbed_records(layer).items():
                records[key] = records.get(key, 0.0) + mass
            ref.step()
        assert set(records) == set(ref.success_records)
        for key, mass in ref.success_records.items():
            assert records[key] == pytest.approx(mass, abs=1e-12)
        assert layer.totals[FAILED, 0] == pytest.approx(ref.fail_a, abs=1e-12)

    def test_no_peers_left_forces_empty_or_own_success(self):
        # state with all six peers already done: peer activity impossible
        params = ah_params(7)
        table = build_tx_prob_table(params, 10)
        layer = layer_a(3, {(0, 6, 0): 1.0}, 7)
        nxt = step_process_a(layer, table, params)
        q = float(table.split[3, 0, 2])
        assert absorbed_records(nxt) == pytest.approx({(3, 0, 6): q}, abs=1e-15)
        assert mass_a(nxt) == pytest.approx({(0, 6, 0): 1.0 - q}, abs=1e-15)

    def test_emptied_retry_rows_are_trimmed(self):
        # every fresh backoff ends within the first window, so row r = 0 empties
        params = ah_params(7)
        table = build_tx_prob_table(params, 40)
        layer = StateLayer.initial([7])
        for _ in range(params.cw_min):
            assert layer.r0 == 0
            layer = step_process_a(layer, table, params)
        assert layer.r0 >= 1
        assert min(r for _, _, r in mass_a(layer)) == layer.r0
        assert np.any(layer.p[0])

    def test_box_of_dead_rows_trims_to_nothing(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=1e-9)
        table = build_tx_prob_table(params, 10)
        layer = layer_a(2, {(0, 0, 0): 1e-12, (1, 0, 1): 1e-12, (2, 1, 2): 1e-12}, 3)
        nxt = step_process_a(layer, table, params)
        assert nxt.p.shape == (0, 1, 0, 0)
        assert nxt.resolved()[0] == pytest.approx(3e-12, rel=1e-12)

    def test_pruned_mass_sums_in_c_s_r_order(self):
        # sub-floor cells over several c, s and r, of magnitudes for which the
        # summation order changes the last bit
        floor = 1e-6
        params = ModelParams(n_stations=6, cw_min=4, cw_max=8, retry_limit=3, prune_floor=floor)
        table = build_tx_prob_table(params, 10)
        mass = {
            (c, s, r): (1 + 0.41 * c + 0.11 * s + 0.53 * r) * 10.0 ** -(6 + (c + 2 * s + r) % 5)
            for c in range(3) for s in range(3) for r in range(3)
        }
        mass[(0, 0, 0)] = 1.0
        layer = layer_a(2, mass, 6)
        routed = mass_a(step_process_a(layer, table, replace(params, prune_floor=0.0)))
        low = sorted((key, m) for key, m in routed.items() if m < floor)
        assert all(len({key[i] for key, _ in low}) >= 3 for i in range(3))
        by_csr = np.sum([m for _, m in low])
        by_rcs = np.sum([m for _, m in sorted(low, key=lambda km: km[0][2:] + km[0][:2])])
        assert by_csr != by_rcs
        nxt = step_process_a(layer, table, params)
        assert nxt.totals[DROPPED, 0] == by_csr
        assert all(m >= floor for m in mass_a(nxt).values())

    def test_failure_booked_only_from_last_retry_row(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=1e-6)
        table = build_tx_prob_table(params, 10)
        # the top row's mass is too small to outlive one step
        layer = layer_a(2, {(0, 0, 0): 1.0, (2, 0, 2): 1e-9}, 3)
        nxt = step_process_a(layer, table, params)
        assert 0.0 < nxt.totals[FAILED, 0] < 1e-9
        assert (nxt.r0, nxt.p.shape[0]) == (0, 2)
        # row 1's tagged collisions move up into row rl - 1 and fail nothing yet
        after = step_process_a(nxt, table, params)
        assert after.totals[FAILED, 0] == nxt.totals[FAILED, 0]
        assert any(r == 2 for _, _, r in mass_a(after))
        last = step_process_a(after, table, params)
        assert last.totals[FAILED, 0] > after.totals[FAILED, 0]


class TestStepProcessB:
    def test_single_station_matches_process_a(self):
        params = ah_params(1)
        table = build_tx_prob_table(params, 20)
        la, lb = StateLayer.initial([1]), StateLayer.initial([1])
        for t in range(16):
            lb = step_process_b(lb, table, la, params)
            la = step_process_a(la, table, params)
            assert absorbed_records(lb) == pytest.approx({(t, 0, 0): 1 / 16}, abs=1e-15)
        assert lb.totals[ABSORBED, 0] == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_each_step(self):
        params = ModelParams(n_stations=3, cw_min=4, cw_max=8, retry_limit=3, prune_floor=0.0)
        table = build_tx_prob_table(params, params.max_backoff_slots() + 1)
        la, lb = StateLayer.initial([3]), StateLayer.initial([3])
        for _ in range(params.max_backoff_slots()):
            before = lb.carried_mass(0)
            nxt = step_process_b(lb, table, la, params)
            assert nxt.carried_mass(0) + newly_resolved(lb, nxt) == pytest.approx(
                before, abs=1e-12)
            lb = nxt
            la = step_process_a(la, table, params)

    def test_time_mismatch_rejected(self):
        params = ah_params(2)
        table = build_tx_prob_table(params, 10)
        la = layer_a(1, {(0, 0, 0): 1.0}, 2)
        with pytest.raises(ValueError):
            step_process_b(StateLayer.initial([2]), table, la, params)

    def test_cells_below_process_a_origin_retire(self):
        params = ah_params(3)
        table = build_tx_prob_table(params, 10)
        lb = replace(StateLayer.initial([3]), t=2, p=np.array([[[[0.25, 0.0], [0.25, 0.5]]]]))
        nxt = step_process_b(lb, table, layer_a(2, {(1, 1, 0): 1.0}, 3), params)
        # (0, 0) lies below A's c0 and (1, 0) below its s0: both stall, unmoved
        assert sorted(np.concatenate(nxt.stalled).tolist()) == [0.25, 0.25]
        assert (nxt.c0.tolist(), nxt.s0.tolist()) == ([1], [1])
        assert nxt.carried_mass(0) + nxt.resolved()[0] == pytest.approx(1.0, abs=1e-15)
        # retirement assumes A's origin never falls, so a layer whose does is refused
        for c, s in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="fell below"):
                step_process_b(nxt, table, layer_a(3, {(c, s, 0): 1.0}, 3), params)

    def test_slot_probs_with_process_a_power_keep_their_bits(self):
        # B passes A's P(empty) for the N - 1 - s peers of a cell as the (1 - q)^(k - 1)
        # of its k = N - s stations: the very bits _slot_probs would compute itself
        params = ah_params(30)
        table = build_tx_prob_table(params, 200)
        layer, checked = StateLayer.initial([30]), 0
        for t in range(1, 121):
            layer = step_process_a(layer, table, params)
            if t % 20:
                continue
            prob = _cell_prob(layer, table)[0]
            empty_a = _peer_slot_probs(layer, table)[2, 0]

            def counts():
                return 30.0 - layer.s0[0] - np.arange(prob.shape[-1] + 1.0)

            given = _slot_probs(prob, counts(), empty_a)
            assert given.tobytes() == _slot_probs(prob, counts()).tobytes()
            checked += np.count_nonzero((prob > 0.0) & (prob < 1.0))
        assert checked > 1000

    def test_box_above_process_a_origin(self):
        # B's box may start above A's; each cell still reads A's mixture at its own (c, s)
        params = ah_params(3)
        table = build_tx_prob_table(params, 10)
        la = layer_a(2, {(0, 1, 1): 0.5, (1, 1, 0): 0.5}, 3)
        lb = replace(StateLayer.initial([3]), t=2, c0=np.array([1]), s0=np.array([1]))
        nxt = step_process_b(lb, table, la, params)
        q = float(table.split[2, 0, 2])
        assert float(table.split[2, 1, 2]) != q  # A's (0, 1) cell would give other routes
        assert nxt.p.shape[:2] == (1, 1)
        cells = nxt.p[0, 0]
        got = {(int(nxt.c0[0] + c), int(nxt.s0[0] + s)): float(cells[c, s])
               for c, s in zip(*np.nonzero(cells))}
        stay, one = (1 - q) ** 2, 2 * q * (1 - q)
        assert got == pytest.approx({(1, 1): stay, (1, 2): one, (2, 1): 1 - stay - one}, abs=1e-15)


class TestRunChains:
    def test_single_station_closed_form(self):
        result = run_chains(ah_params(1), AH_SLOT_DURATIONS)
        expected = {k * 52 + 2184: 1 / 16 for k in range(16)}
        assert atoms(result.p_a) == pytest.approx(expected, abs=1e-14)
        assert atoms(result.p_b) == pytest.approx(expected, abs=1e-14)
        assert result.p_fail_a == 0.0
        assert not result.diagnostics.truncated

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_dense_reference_on_harsh_params(self, n):
        params = harsh_params(n)
        ref = DenseChainReference(n, 4, 4, 2, SMALL)
        ref.run(params.max_backoff_slots() + 1)
        result = run_chains(params, SMALL)
        got_a, got_b = atoms(result.p_a), atoms(result.p_b)
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


def chain_digest(result):
    """SHA-256 of a run's P_A and P_B atoms (P_B where it was computed) and its diagnostics."""
    h = hashlib.sha256()
    for dist in filter(None, (result.p_a, result.p_b)):
        h.update(dist.durations.astype("<i8").tobytes())
        h.update(dist.probabilities.astype("<f8").tobytes())
    h.update(repr(result.diagnostics).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "params, compute_b, digest",
    [
        (ah_params(7), True, "a757de198053aa1ca51fd13e82f7941905cd176af599fffc233ed8b4cbbea7a0"),
        (
            ModelParams(3, cw_min=4, cw_max=8, retry_limit=3),
            True,
            "08875168f112e1146bec1560b490f250d3b7c746ce3ded77ac1e42d16ed02c44",
        ),
        (
            ModelParams(20, cw_min=4, cw_max=8, retry_limit=3),
            True,
            "dc473fc0443a01bcd64872836768d100b90b1793e8f38e41da0f2be6b2b34282",
        ),
        # several live retry rows; process A prunes on 1300 of its 1813 steps
        (ah_params(30), True, "d0d72515f78fecaf7122927430dc2a56933050f9e8c79e19529fc6aeb92695d1"),
        # process B's mass ends fully stalled: unresolved_b = 1.0, b_stalled
        (
            ModelParams(50, cw_min=4, cw_max=8, retry_limit=3),
            True,
            "52691d3fa5846e915cedbe6644d2e6b503f930f86dce237c5d518d84522dddcc",
        ),
        (ah_params(100), True, "c8c56f42ea969f8be58f1cd04205be41f4f75129e043115b6a0c53a189f44484"),
        (ah_params(200), True, "3de8c8fbfcec313d62f5a721a0b6777c8efdbe67f8c424a49fcc55a4cf789a98"),
        # process A alone, as the planner runs it
        (ah_params(60), False, "cba725709e0e10ec602d75f13a545bad5b410f9252af5df1c1540c7a6d58a207"),
        (ah_params(300), False, "da2ec4ac876c45185bb9f8035c6b1ac9385c5b51e5bc5d88d0d1d5349b336ada"),
    ],
    ids=["ah7", "cw4-8-rl3-n3", "cw4-8-rl3", "ah30", "cw4-8-rl3-n50", "ah100", "ah200",
         "ah60-a-only", "ah300-a-only"],
)
def test_chain_output_pinned(params, compute_b, digest):
    # a change to the layer storage or the atom bookkeeping must keep every bit
    assert chain_digest(run_chains(params, AH_SLOT_DURATIONS, compute_b=compute_b)) == digest


class TestAtomAccumulator:
    @pytest.mark.parametrize("durations", [AH_SLOT_DURATIONS, SlotDurations(3, 7, 10)])
    def test_equals_from_arrays_over_all_batches(self, durations):
        rng = np.random.default_rng(3)
        acc, taus, masses = _AtomAccumulator(durations), [], []
        for t in range(1, 40):
            c = rng.integers(0, t // 2 + 1, size=rng.integers(0, 30))
            s = rng.integers(0, t - c + 1)
            batch_taus = _state_time(c, s, t, durations)
            batch_masses = rng.random(c.size) * 1e-3
            acc.add(batch_taus, batch_masses, [0], [batch_taus.size])
            taus.append(batch_taus)
            masses.append(batch_masses)
        got = acc.finish()
        want = TimeDistribution.from_arrays(np.concatenate(taus), np.concatenate(masses))
        assert np.unique(np.concatenate(taus)).size < sum(map(len, taus))  # durations repeat
        assert np.array_equal(got.durations, want.durations)
        assert got.probabilities.tobytes() == want.probabilities.tobytes()

    def test_empty_run_gives_empty_distribution(self):
        dist = _AtomAccumulator(AH_SLOT_DURATIONS).finish()
        assert dist.durations.size == 0
        assert dist.total_mass == 0.0


class TestTotals:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 40), st.data())
    def test_equal_scalar_kahan_sums(self, k, steps, data):
        # each (total, population) entry gets the bits of its own scalar compensated sum
        values = data.draw(hnp.arrays(np.float64, (steps, 3, k), elements=st.floats(0.0, 1.0)))
        totals = comps = np.zeros((3, k))
        for step in values:
            totals, comps = _compensated_add(totals, comps, step.tolist())
        want = [[kahan(values[:, i, j].tolist()) for j in range(k)] for i in range(3)]
        assert np.stack((totals, comps), axis=-1).tobytes() == np.array(want).tobytes()

    def test_compensation_is_on(self):
        # each 1e-16 is below half an ulp of 1.0: plain += drops every one of them
        totals, comps = _compensated_add(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 2)))
        plain = 1.0
        for _ in range(10):
            totals, comps = _compensated_add(totals, comps, np.full((3, 2), 1e-16))
            plain += 1e-16
        assert plain == 1.0
        assert np.all(totals > 1.0)


@st.composite
def small_configs(draw, prune_floors=(0.0,)):
    cw_min = draw(st.sampled_from([2, 4]))
    params = ModelParams(
        n_stations=draw(st.integers(1, 4)),
        cw_min=cw_min,
        cw_max=draw(st.sampled_from([w for w in (2, 4, 8) if w >= cw_min])),
        retry_limit=draw(st.integers(1, 3)),
        epsilon=1e-15,
        prune_floor=draw(st.sampled_from(prune_floors)),
    )
    t_empty = draw(st.integers(1, 60))
    durations = SlotDurations(
        t_empty=t_empty,
        t_success=draw(st.integers(t_empty, 3000)),
        t_collision=draw(st.integers(t_empty, 3000)),
    )
    return params, durations


def conserving_steps(params):
    """Step both processes over the backoff support, checking at every step that the
    carried mass equals the next layer's plus what it absorbed, failed and pruned;
    yields each pair of new layers after the process-A layer both were stepped from."""
    support = params.max_backoff_slots()
    table = build_tx_prob_table(params, support + 1)
    la, lb = StateLayer.initial([params.n_stations]), StateLayer.initial([params.n_stations])
    for _ in range(support):
        na = step_process_a(la, table, params)
        nb = step_process_b(lb, table, la, params)
        assert_conserved(la, na)
        assert_conserved(lb, nb)
        yield la, na, nb
        la, lb = na, nb


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_random_small_configs_equal_dense_reference(config):
    params, durations = config
    for _ in conserving_steps(params):
        pass

    ref = DenseChainReference(
        params.n_stations, params.cw_min, params.cw_max, params.retry_limit, durations
    )
    ref.run(params.max_backoff_slots())
    result = run_chains(params, durations)
    for got, want in ((atoms(result.p_a), ref.pa_atoms), (atoms(result.p_b), ref.pb_atoms)):
        for tau in set(got) | set(want):
            assert got.get(tau, 0.0) == pytest.approx(want.get(tau, 0.0), abs=1e-12)
    assert result.p_fail_a == pytest.approx(ref.fail_a, abs=1e-12)
    assert result.diagnostics.mass_error_a < 1e-12
    assert result.diagnostics.mass_error_b < 1e-12


def assert_tight_box(p, floor):
    """No cell of ``p[r, j, c, s]`` lies in (0, floor); the shared r axis holds a live cell on
    both faces; each population with a live cell holds one on the low c and the low s face
    of its own slab, which starts at its own origin; and some population reaches the box's
    high c and high s faces.  The population axis ``j`` is never trimmed."""
    assert not np.any((p > 0.0) & (p < floor))
    if p.size:
        assert np.any(p[0]) and np.any(p[-1])
        for j in range(p.shape[1]):
            slab = p[:, j]
            assert not np.any(slab) or (np.any(slab[:, 0]) and np.any(slab[:, :, 0]))
        assert np.any(p[:, :, -1]) and np.any(p[:, :, :, -1])


@settings(max_examples=40, deadline=None)
@given(small_configs(prune_floors=(1e-6, 1e-3)))
def test_random_small_configs_prune_conserving_tight_boxes(config):
    # the pruning path, which the dense reference does not model
    params, durations = config
    for la, na, nb in conserving_steps(params):
        assert_tight_box(na.p, params.prune_floor)
        assert_tight_box(nb.p, params.prune_floor)
        # process B retires the cells below A's origin, which must never fall
        assert np.all(na.c0 >= la.c0) and np.all(na.s0 >= la.s0)
        assert nb.p.size == 0 or (np.all(nb.c0 >= la.c0) and np.all(nb.s0 >= la.s0))
    result = run_chains(params, durations)
    assert result.diagnostics.mass_error_a < 1e-12
    assert result.diagnostics.mass_error_b < 1e-12


def assert_stack_equals_single_runs(stack, durations):
    """Each population of ``stack``, stepped as one stack by ``run_stack`` and by a serial
    ``DistributionCache.fill``, has the P_A bytes and ChainDiagnostics of its own run;
    returns the single runs."""
    singles = [run_chains(params, durations, compute_b=False) for params in stack]
    for result, single in zip(run_stack(stack, durations), singles):
        assert result.p_b is None
        assert chain_digest(result) == chain_digest(single)
        assert repr(result.diagnostics) == repr(single.diagnostics)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "_usable_cpus", lambda: 1)
        cache = DistributionCache(stack[0], durations)
        cache.fill([params.n_stations for params in stack], compute_b=False)
    for params, single in zip(stack, singles):
        stored = cache.pa(params.n_stations)
        assert stored.durations.tobytes() == single.p_a.durations.tobytes()
        assert stored.probabilities.tobytes() == single.p_a.probabilities.tobytes()
    assert cache.chain_runs == len(stack)
    return singles


class TestRunStack:
    def test_populations_leave_at_their_own_step(self):
        singles = assert_stack_equals_single_runs([ah_params(k) for k in range(1, 13)],
                                                  AH_SLOT_DURATIONS)
        assert singles[0].diagnostics.t_stop == 16
        assert singles[-1].diagnostics.t_stop == 654

    def test_pruning_stack(self):
        stack = [ModelParams(n, cw_min=4, cw_max=8, retry_limit=3, prune_floor=1e-6)
                 for n in (3, 7, 12, 20, 33, 50)]
        singles = assert_stack_equals_single_runs(stack, AH_SLOT_DURATIONS)
        assert all(single.diagnostics.unresolved_a > 0.0 for single in singles)
        assert singles[-1].p_fail_a > 0.0

    def test_distant_populations_keep_their_own_origins(self):
        # k = 2, 30 and 60 soon live far apart in (c, s): each slab starts at its own
        # origin, and the stack still gives every population its own run's bits
        stack = [ah_params(k) for k in (2, 30, 60)]
        table = build_tx_prob_table(stack[0], 200)
        layer, apart = StateLayer.initial([2, 30, 60]), False
        for _ in range(120):
            layer = step_process_a(layer, table, stack[0])
            assert_tight_box(layer.p, stack[0].prune_floor)
            apart |= len(set(layer.c0.tolist())) == len(set(layer.s0.tolist())) == 3
        assert apart
        assert_stack_equals_single_runs(stack, AH_SLOT_DURATIONS)

    def test_members_keep_their_columns_and_bits(self):
        params, keep = ah_params(2), [0, 2]
        table = build_tx_prob_table(params, 200)
        layer = StateLayer.initial([2, 9, 30, 60])
        for _ in range(60):  # until k = 60 spans the widest c and s extents
            layer = step_process_a(layer, table, params)
        assert np.all(layer.resolved() < 1.0) and np.all(layer.totals[ABSORBED] > 0.0)
        kept = layer.members(keep)
        assert (kept.t, kept.r0) == (layer.t, layer.r0)
        for name in ("totals", "comps"):
            assert getattr(kept, name).tobytes() == getattr(layer, name)[:, keep].tobytes()
        for name in ("c0", "s0", "stations"):
            assert getattr(kept, name).tolist() == getattr(layer, name)[keep].tolist()
        assert kept.p.tobytes() == layer.p[:, keep].tobytes()
        # a population's values do not depend on the extent of its box
        nxt_kept, nxt = step_process_a(kept, table, params), step_process_a(layer, table, params)
        assert nxt_kept.p.shape[2:] != nxt.p.shape[2:]  # the kept box trims to its own
        for name in ("totals", "comps"):
            assert getattr(nxt_kept, name).tobytes() == getattr(nxt, name)[:, keep].tobytes()
        for i, j in enumerate(keep):
            assert cells(nxt_kept, i) == cells(nxt, j)

    def test_populations_must_share_the_model(self):
        with pytest.raises(ValueError, match="only in n_stations"):
            run_stack([ah_params(2), ah_params(3, retry_limit=3)], AH_SLOT_DURATIONS)

    def test_process_b_runs_one_population_at_a_time(self):
        with pytest.raises(ValueError, match="one population at a time"):
            run_stack([ah_params(2), ah_params(3)], AH_SLOT_DURATIONS, compute_b=True)


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=2, max_size=4, unique=True))
def test_random_small_stacks_equal_single_runs(config, stations):
    params, durations = config
    assert_stack_equals_single_runs([params.with_stations(n) for n in stations], durations)


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=2, max_size=4, unique=True))
def test_random_small_stacks_conserve_each_population(config, stations):
    # every population of a stack keeps its own books at every step, and each population's
    # slab stays tight at its own origin
    params, _ = config
    support = params.max_backoff_slots()
    table = build_tx_prob_table(params, support + 1)
    layer = StateLayer.initial(stations)
    for _ in range(support):
        nxt = step_process_a(layer, table, params)
        assert_conserved(layer, nxt)
        assert_tight_box(nxt.p, params.prune_floor)
        layer = nxt


def assert_results_equal(results, expected):
    for got, want in zip(results, expected, strict=True):
        assert chain_digest(got) == chain_digest(want)
        assert repr(got.diagnostics) == repr(want.diagnostics)


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(0, 12), max_size=8), st.integers(0, 8))
def test_stack_run_in_random_budgets_equals_run_stack(config, stations, budgets, trip):
    # a stack advanced in any split of budgets, and pickled and restored in between as
    # a worker's state would be, gives run_stack's results bit for bit
    params, durations = config
    stack = [params.with_stations(n) for n in stations]
    run = StackRun(stack, durations)
    for i, budget in enumerate(budgets):
        if i == trip:
            run = pickle.loads(pickle.dumps(run))
        run.advance(budget)
    assert run.advance()
    assert_results_equal(run.results, run_stack(stack, durations))
    assert run.steps == sum(result.diagnostics.t_stop for result in run.results)


def _advance(run, budget):
    run.advance(budget)
    return run.results


def test_stack_run_kept_on_a_worker_equals_run_stack(monkeypatch):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    stacks = [[ah_params(k) for k in (1, 4, 9)], [ah_params(k) for k in (2, 3)]]
    with pool.ResidentJobs(StackRun, _advance,
                           [(stack, AH_SLOT_DURATIONS) for stack in stacks]) as jobs:
        for budget in (5, 40, None):
            for group in range(2):
                jobs.send(group, budget)
            answers = dict(jobs.receive() for _ in range(2))
    assert multiprocessing.active_children() == []
    for group, stack in enumerate(stacks):
        (results,) = answers[group]
        assert_results_equal(results, run_stack(stack, AH_SLOT_DURATIONS))


def _bounds(run):
    """Each population's bound: its reach profile's first time, inf with no cells."""
    return np.array([times[0] if times.size else np.inf for times, _ in run.profiles()])


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
def test_atoms_below_the_bound_are_final(config, stations):
    # at every step, the atoms each population has absorbed below its bound are the
    # full run's atoms below that bound: none of them gains mass later
    params, durations = config
    stack = [params.with_stations(n) for n in stations]
    run, snapshots = StackRun(stack, durations), []
    while not run.advance(1):
        bounds = _bounds(run)
        assert np.all(bounds >= _state_time(0, 1, run._layer_a.t + 1, durations))
        snapshots.append([(bound, run.atoms(j)) for j, bound in enumerate(bounds)])
    for snapshot in snapshots:
        for (bound, partial), result in zip(snapshot, run.results):
            final = result.p_a
            below, partial_below = final.durations < bound, partial.durations < bound
            assert final.durations[below].tolist() == partial.durations[partial_below].tolist()
            assert (final.probabilities[below].tobytes()
                    == partial.probabilities[partial_below].tobytes())


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True),
       st.integers(0, 120))
def test_reach_bounds_the_mass_still_to_come(config, stations, t):
    # the atoms a population absorbs after t below any duration d sum to at most the
    # mass its profile at t holds below d
    params, durations = config
    stack = [params.with_stations(n) for n in stations]
    run = StackRun(stack, durations)
    run.advance(t)
    profiles, left = run.profiles(), [result is not None for result in run.results]
    for (times, cumulative), gone in zip(profiles, left):
        assert times.size == cumulative.size
        assert gone <= (times.size == 0)  # one that has left the stack reports no cells
        assert np.all(np.diff(times) > 0) and np.all(np.diff(cumulative) >= 0)
    run._atoms_a = _AtomAccumulator(durations, len(stack))  # from now on only
    run.advance()
    for (times, cumulative), gone, result in zip(profiles, left, run.results):
        if gone:
            continue
        later = result.p_a
        # each d just above an atom: the atoms up to it against the cells below d
        below = np.searchsorted(times, later.durations, side="right")
        reach = np.concatenate(([0.0], cumulative))[below]
        assert np.all(np.cumsum(later.probabilities) <= reach * (1 + 1e-12))


@settings(max_examples=25, deadline=None)
@given(small_configs(prune_floors=(0.0, 1e-6, 1e-3)),
       st.lists(st.integers(1, 30), min_size=2, max_size=4, unique=True),
       st.integers(0, 20_000))
def test_dropped_population_keeps_the_full_runs_atoms_up_to_h(config, stations, h):
    # each population is dropped at the first step its bound passes h: it keeps the
    # full run's atoms at or below h, and the populations left keep their bits
    params, durations = config
    stack = [params.with_stations(n) for n in stations]
    run, dropped = StackRun(stack, durations), {}
    while not run.advance(1):
        gone = [j for j, bound in enumerate(_bounds(run)) if h < bound < np.inf]
        run.drop(gone)
        dropped.update((j, run.atoms(j)) for j in gone)
    for j, (result, full) in enumerate(zip(run.results, run_stack(stack, durations))):
        if j not in dropped:
            assert_results_equal([result], [full])
            continue
        assert result is None
        kept, final = dropped[j], full.p_a
        assert kept.durations[kept.durations <= h].tolist() == final.durations[
            final.durations <= h].tolist()
        assert kept.probabilities[kept.durations <= h].tobytes() == final.probabilities[
            final.durations <= h].tobytes()
