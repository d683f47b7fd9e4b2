import math

import numpy as np
import pytest
from scipy.stats import chisquare

from rawtime import (
    AH_SLOT_DURATIONS,
    ConfigurationError,
    ModelParams,
    SimConfig,
    SlotDurations,
    ah_params,
    simulate,
)
from rawtime.simulate import _batch_runs

from reference import enumerate_protocol

SMALL = SlotDurations(t_empty=52, t_success=2184, t_collision=2184)


def test_single_station_uniform_within_three_sigma():
    cfg = SimConfig(params=ah_params(1), durations=AH_SLOT_DURATIONS, runs=10**6, seed=1)
    emp_a, emp_b = simulate(cfg)
    assert emp_a.failure_count == 0
    assert set(emp_a.atoms) == {k * 52 + 2184 for k in range(16)}
    expected = cfg.runs / 16
    sigma = math.sqrt(cfg.runs * (1 / 16) * (15 / 16))
    assert all(abs(c - expected) <= 3 * sigma for c in emp_a.atoms.values())
    # a single station's delivery is also everyone's completion
    assert emp_b.atoms == emp_a.atoms


def test_single_station_chi_square_agreement():
    cfg = SimConfig(params=ah_params(1), durations=AH_SLOT_DURATIONS, runs=200_000, seed=3)
    emp_a, _ = simulate(cfg)
    counts = [emp_a.atoms[k * 52 + 2184] for k in range(16)]
    result = chisquare(counts)
    assert result.pvalue >= 0.01


def test_deterministic_for_fixed_seed():
    cfg = SimConfig(params=ah_params(5), durations=AH_SLOT_DURATIONS, runs=20_000, seed=99)
    first = simulate(cfg)
    second = simulate(cfg)
    assert first[0].atoms == second[0].atoms
    assert first[1].atoms == second[1].atoms
    assert first[0].failure_count == second[0].failure_count
    assert first[1].failure_count == second[1].failure_count


def test_seed_changes_sample():
    base = dict(params=ah_params(5), durations=AH_SLOT_DURATIONS, runs=20_000)
    a = simulate(SimConfig(seed=1, **base))[0]
    b = simulate(SimConfig(seed=2, **base))[0]
    assert a.atoms != b.atoms


def test_matches_exhaustive_protocol_enumeration():
    # small enough to enumerate every joint draw and redraw exactly
    params = ModelParams(n_stations=2, cw_min=4, cw_max=4, retry_limit=2)
    tagged_atoms, tagged_fail, all_atoms, any_fail, all_fail = enumerate_protocol(
        2, 4, 4, 2, SMALL
    )
    runs = 400_000
    emp_a, emp_b = simulate(SimConfig(params=params, durations=SMALL, runs=runs, seed=11))

    assert set(emp_a.atoms) <= set(tagged_atoms)
    for tau, prob in tagged_atoms.items():
        count = emp_a.atoms.get(tau, 0)
        noise = math.sqrt(runs * prob * (1 - prob))
        assert abs(count - runs * prob) <= 5 * noise, (tau, prob, count)
    fail_noise = math.sqrt(runs * tagged_fail * (1 - tagged_fail))
    assert abs(emp_a.failure_count - runs * tagged_fail) <= 5 * fail_noise

    assert set(emp_b.atoms) <= set(all_atoms)
    for tau, prob in all_atoms.items():
        count = emp_b.atoms.get(tau, 0)
        noise = math.sqrt(runs * prob * (1 - prob))
        assert abs(count - runs * prob) <= 5 * noise, (tau, prob, count)
    assert abs(emp_b.failure_count - runs * any_fail) <= 5 * fail_noise
    # runs in which every station failed contribute no completion atom
    all_failed_runs = runs - sum(emp_b.atoms.values())
    assert abs(all_failed_runs - runs * all_fail) <= 5 * math.sqrt(runs * all_fail)


def test_counts_conserve_runs():
    params = ModelParams(n_stations=3, cw_min=4, cw_max=4, retry_limit=2)
    cfg = SimConfig(params=params, durations=SMALL, runs=50_000, seed=5)
    emp_a, emp_b = simulate(cfg)
    assert sum(emp_a.atoms.values()) + emp_a.failure_count == cfg.runs
    assert sum(emp_b.atoms.values()) <= cfg.runs
    assert emp_b.failure_count > 0  # harsh parameters do fail sometimes


def test_peak_comb_spacing_reference_setup():
    cfg = SimConfig(params=ah_params(7), durations=AH_SLOT_DURATIONS, runs=100_000, seed=7)
    emp_a, _ = simulate(cfg)
    dist = emp_a.to_time_distribution()
    # first atom: the tagged station's frame needs at least one successful slot
    assert int(dist.durations[0]) == 2184
    d, p = dist.durations, dist.probabilities
    peaks = []
    for m in range(1, 6):
        window = (d >= m * 2184) & (d < (m + 1) * 2184)
        peaks.append(int(d[window][np.argmax(p[window])]))
    spacings = np.diff(peaks)
    assert all(abs(s - 2184) <= 4 * 52 for s in spacings)


def test_batch_layout_is_part_of_config():
    # the batch size follows from the station count, so one run more than a
    # full batch replays that batch exactly and adds a single run
    base = dict(params=ah_params(2), durations=AH_SLOT_DURATIONS, seed=4)
    runs = _batch_runs(2)
    short = simulate(SimConfig(runs=runs, **base))[0]
    longer = simulate(SimConfig(runs=runs + 1, **base))[0]
    added = {d: longer.atoms.get(d, 0) - short.atoms.get(d, 0)
             for d in longer.atoms.keys() | short.atoms.keys()}
    assert all(count >= 0 for count in added.values())
    assert sum(added.values()) + longer.failure_count - short.failure_count == 1


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        SimConfig(params=ah_params(2), durations=AH_SLOT_DURATIONS, runs=0, seed=1)
