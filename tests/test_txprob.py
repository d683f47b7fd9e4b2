import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawtime import ConfigurationError, ModelParams, ah_params
from rawtime.txprob import build_tx_prob_table

from reference import make_ref_tx_prob


def test_first_slot_fresh_backoff():
    table = build_tx_prob_table(ah_params(7), 20)
    assert table.a[0, 0] == 1 / 16
    assert table.b[0, 0] == 1.0
    assert table.p_tx[0, 0] == 1 / 16


def test_forced_transmission_at_window_end():
    table = build_tx_prob_table(ah_params(7), 20)
    assert table.p_tx[15, 0] == 1.0


def test_initial_window_closed_form_is_exact():
    table = build_tx_prob_table(ah_params(3), 40)
    for t in range(16):
        assert table.p_tx[t, 0] == 1.0 / (16 - t)
    # no first-attempt mass at or past the window end
    assert np.all(table.a[16:, 0] == 0.0)
    assert np.all(table.b[16:, 0] == 0.0)
    assert np.all(table.p_tx[16:, 0] == 0.0)


def test_matches_direct_summation_oracle():
    params = ModelParams(n_stations=5, cw_min=4, cw_max=8, retry_limit=3)
    table = build_tx_prob_table(params, 41)
    a_ref, b_ref, p_ref = make_ref_tx_prob(4, 8, 3)
    for t in range(41):
        for r in range(3):
            assert table.a[t, r] == pytest.approx(a_ref(t, r), abs=1e-12)
            assert table.b[t, r] == pytest.approx(b_ref(t, r), abs=1e-12)
            assert table.p_tx[t, r] == pytest.approx(p_ref(t, r), abs=1e-12)


def test_unreachable_states_have_zero_tx_prob():
    table = build_tx_prob_table(ModelParams(n_stations=2, cw_min=4, cw_max=4, retry_limit=2), 30)
    zero_b = table.b == 0.0
    assert zero_b.any()
    assert np.all(table.p_tx[zero_b] == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    cw_min=st.integers(min_value=1, max_value=32),
    doublings=st.integers(min_value=0, max_value=4),
    retry_limit=st.integers(min_value=1, max_value=4),
    t_extent=st.integers(min_value=1, max_value=120),
)
def test_table_bounds_hold_everywhere(cw_min, doublings, retry_limit, t_extent):
    params = ModelParams(
        n_stations=3, cw_min=cw_min, cw_max=cw_min * 2**doublings, retry_limit=retry_limit
    )
    table = build_tx_prob_table(params, t_extent)
    assert np.all(table.a >= 0.0)
    assert np.all(table.a <= table.b + 1e-12)
    assert np.all(table.b <= 1.0 + 1e-12)
    assert np.all((table.p_tx >= 0.0) & (table.p_tx <= 1.0))


def test_contention_window_sequence_capped():
    params = ModelParams(n_stations=1, cw_min=16, cw_max=256, retry_limit=7)
    assert params.contention_windows() == (16, 32, 64, 128, 256, 256, 256)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_stations=0, cw_min=16, cw_max=1024, retry_limit=7),
        dict(n_stations=1, cw_min=0, cw_max=1024, retry_limit=7),
        dict(n_stations=1, cw_min=16, cw_max=8, retry_limit=7),
        dict(n_stations=1, cw_min=16, cw_max=1024, retry_limit=0),
        dict(n_stations=1, cw_min=16, cw_max=1024, retry_limit=7, epsilon=0.0),
        dict(n_stations=1, cw_min=16, cw_max=1024, retry_limit=7, prune_floor=1.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        ModelParams(**kwargs)


def test_invalid_extent_rejected():
    with pytest.raises(ConfigurationError):
        build_tx_prob_table(ah_params(1), 0)
