import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawtime import ConfigurationError, ModelParams, ah_params
from rawtime.txprob import _attempts, build_tx_prob_table

from reference import make_ref_tx_prob


def _p_tx(table):
    return table.split[..., 2]


def test_first_slot_fresh_backoff():
    a, b = _attempts(ah_params(7), 20)
    assert a[0, 0] == 1 / 16
    assert b[0, 0] == 1.0
    assert _p_tx(build_tx_prob_table(ah_params(7), 20))[0, 0] == 1 / 16


def test_forced_transmission_at_window_end():
    assert _p_tx(build_tx_prob_table(ah_params(7), 20))[15, 0] == 1.0


def test_initial_window_closed_form_is_exact():
    p_tx = _p_tx(build_tx_prob_table(ah_params(3), 40))
    a, b = _attempts(ah_params(3), 40)
    for t in range(16):
        assert p_tx[t, 0] == 1.0 / (16 - t)
    # no first-attempt mass at or past the window end
    assert np.all(a[16:, 0] == 0.0)
    assert np.all(b[16:, 0] == 0.0)
    assert np.all(p_tx[16:, 0] == 0.0)


def test_matches_direct_summation_oracle():
    params = ModelParams(n_stations=5, cw_min=4, cw_max=8, retry_limit=3)
    p_tx = _p_tx(build_tx_prob_table(params, 41))
    a, b = _attempts(params, 41)
    a_ref, b_ref, p_ref = make_ref_tx_prob(4, 8, 3)
    for t in range(41):
        for r in range(3):
            assert a[t, r] == pytest.approx(a_ref(t, r), abs=1e-12)
            assert b[t, r] == pytest.approx(b_ref(t, r), abs=1e-12)
            assert p_tx[t, r] == pytest.approx(p_ref(t, r), abs=1e-12)


def test_unreachable_states_have_zero_tx_prob():
    params = ModelParams(n_stations=2, cw_min=4, cw_max=4, retry_limit=2)
    zero_b = _attempts(params, 30)[1] == 0.0
    assert zero_b.any()
    assert np.all(_p_tx(build_tx_prob_table(params, 30))[zero_b] == 0.0)


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
    a, b = _attempts(params, t_extent)
    p_tx = _p_tx(build_tx_prob_table(params, t_extent))
    assert np.all(a >= 0.0)
    assert np.all(a <= b + 1e-12)
    assert np.all(b <= 1.0 + 1e-12)
    assert np.all((p_tx >= 0.0) & (p_tx <= 1.0))


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
