import hashlib
import json
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from rawtime import pool
from rawtime.simulate import _batch_runs, _simulate_batch

from reference import atoms, enumerate_protocol, slot_stepping_batch

SMALL = SlotDurations(t_empty=52, t_success=2184, t_collision=2184)


def test_single_station_uniform_within_three_sigma():
    cfg = SimConfig(params=ah_params(1), durations=AH_SLOT_DURATIONS, runs=10**6, seed=1)
    emp_a, emp_b = simulate(cfg)
    assert emp_a.failure_count == 0
    assert set(atoms(emp_a)) == {k * 52 + 2184 for k in range(16)}
    expected = cfg.runs / 16
    sigma = math.sqrt(cfg.runs * (1 / 16) * (15 / 16))
    assert all(abs(c - expected) <= 3 * sigma for c in atoms(emp_a).values())
    # a single station's delivery is also everyone's completion
    assert atoms(emp_b) == atoms(emp_a)


def test_single_station_chi_square_agreement():
    cfg = SimConfig(params=ah_params(1), durations=AH_SLOT_DURATIONS, runs=200_000, seed=3)
    emp_a, _ = simulate(cfg)
    counts = [atoms(emp_a)[k * 52 + 2184] for k in range(16)]
    result = chisquare(counts)
    assert result.pvalue >= 0.01


def test_deterministic_for_fixed_seed():
    cfg = SimConfig(params=ah_params(5), durations=AH_SLOT_DURATIONS, runs=20_000, seed=99)
    first = simulate(cfg)
    second = simulate(cfg)
    assert atoms(first[0]) == atoms(second[0])
    assert atoms(first[1]) == atoms(second[1])
    assert first[0].failure_count == second[0].failure_count
    assert first[1].failure_count == second[1].failure_count


# Three batches, so a pool runs it wherever fork is safe and two CPUs are usable.
PINNED = SimConfig(params=ah_params(5), durations=AH_SLOT_DURATIONS, runs=20_000, seed=99)


def _digest(emp):
    return hashlib.sha256(json.dumps(sorted(atoms(emp).items())).encode()).hexdigest()


def test_counts_pinned_for_fixed_seed():
    # recorded from the run-major simulator, before the (station, run)
    # layout; a reordered draw in the random stream changes them
    emp_a, emp_b = simulate(PINNED)
    assert _digest(emp_a) == "25b29266ddd7f787c1587b2c4286e7fbe6cc6925d00021b9ff339c85292608a4"
    assert _digest(emp_b) == "5b0ecbfc7d300ad5ea6690845205c3bd1882024aac401d0ec5361963080b4680"
    assert emp_a.failure_count == emp_b.failure_count == 0

    params = ModelParams(n_stations=3, cw_min=4, cw_max=4, retry_limit=2)
    emp_a, emp_b = simulate(SimConfig(params=params, durations=SMALL, runs=50_000, seed=5))
    assert atoms(emp_a) == {
        2184: 6781, 2236: 3116, 2288: 780, 4368: 4260, 4420: 4407, 4472: 893, 4524: 179,
        4576: 47, 4628: 17, 6552: 2573, 6604: 6849, 6656: 2542, 6708: 1285, 6760: 451,
        6812: 63, 8736: 475, 8788: 1610, 8840: 2070, 8892: 1879, 8944: 1176,
    }
    assert emp_a.failure_count == 8547
    assert atoms(emp_b) == {
        2184: 1762, 2236: 1107, 2288: 591, 4368: 499, 4420: 915, 4472: 1129, 4524: 209,
        4576: 120, 4628: 40, 6552: 4903, 6604: 14554, 6656: 436, 6708: 461, 6760: 380,
        6812: 217, 8736: 1425, 8788: 4725, 8840: 6120, 8892: 5641, 8944: 3515,
    }
    assert emp_b.failure_count == 14280

    # failures, compaction and two batches; recorded from the slot-stepping batch
    params = ModelParams(n_stations=40, cw_min=4, cw_max=16, retry_limit=3)
    emp_a, emp_b = simulate(SimConfig(params=params, durations=AH_SLOT_DURATIONS,
                                      runs=10_000, seed=99))
    assert emp_a.batches == 2
    assert _digest(emp_a) == "c72b838d3a89a3897dc7e8168e560762f1a30500c0e93529c30b3240719eef26"
    assert _digest(emp_b) == "28df18112cb3c17079283a5df6ae24404157cecd40245f798537ca5b58e52b62"
    assert emp_a.failure_count == 8965
    assert emp_b.failure_count == 10_000


@st.composite
def small_campaigns(draw):
    cw_min = draw(st.integers(1, 8))
    params = ModelParams(
        n_stations=draw(st.integers(1, 8)),
        cw_min=cw_min,
        cw_max=draw(st.integers(cw_min, 16)),
        retry_limit=draw(st.integers(1, 4)),
    )
    t_empty = draw(st.integers(1, 60))
    durations = SlotDurations(
        t_empty=t_empty,
        t_success=draw(st.integers(t_empty, 3000)),
        t_collision=draw(st.integers(t_empty, 3000)),
    )
    return SimConfig(params=params, durations=durations, runs=draw(st.integers(1, 500)),
                     seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=60, deadline=None)
@given(small_campaigns(), st.integers(0, 3))
def test_batch_equals_slot_stepping_oracle(config, batch_index):
    # the event-driven batch must take every draw the slot-by-slot form takes
    got = _simulate_batch(config, batch_index, config.runs)
    want = slot_stepping_batch(config, batch_index, config.runs)
    assert np.array_equal(np.sort(got.tagged_times), np.sort(want["tagged_times"]))
    assert got.tagged_failures == want["tagged_failures"]
    assert np.array_equal(np.sort(got.finish_times), np.sort(want["finish_times"]))
    assert got.any_failure == want["any_failure"]


@pytest.mark.parametrize("support", [1, 4])
def test_transmission_beyond_support_raises(monkeypatch, support):
    # 1 falls inside the initial window, 4 is reached only by redraws after
    # a collision; the true support of these parameters is 8 slots
    params = ModelParams(n_stations=3, cw_min=4, cw_max=4, retry_limit=2)
    monkeypatch.setattr(ModelParams, "max_backoff_slots", lambda self: support)
    with pytest.raises(RuntimeError, match="beyond the support"):
        simulate(SimConfig(params=params, durations=SMALL, runs=2000, seed=5))


@pytest.mark.parametrize("serial_because", ["one usable CPU", "macOS", "caller thread"])
def test_runs_serially_with_same_counts(monkeypatch, serial_because):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    pooled = simulate(PINNED)

    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    if serial_because == "one usable CPU":
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)
    if serial_because == "macOS":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    if serial_because == "caller thread":
        threading.Thread(target=stop.wait, daemon=True).start()
    try:
        serial = simulate(PINNED)
    finally:
        stop.set()
    for got, expected in zip(serial, pooled):
        assert atoms(got) == atoms(expected)
        assert got.failure_count == expected.failure_count
        assert got.batches == expected.batches == 3


def test_seed_changes_sample():
    base = dict(params=ah_params(5), durations=AH_SLOT_DURATIONS, runs=20_000)
    a = simulate(SimConfig(seed=1, **base))[0]
    b = simulate(SimConfig(seed=2, **base))[0]
    assert atoms(a) != atoms(b)


def test_matches_exhaustive_protocol_enumeration():
    # small enough to enumerate every joint draw and redraw exactly
    params = ModelParams(n_stations=2, cw_min=4, cw_max=4, retry_limit=2)
    tagged_atoms, tagged_fail, all_atoms, any_fail, all_fail = enumerate_protocol(
        2, 4, 4, 2, SMALL
    )
    runs = 400_000
    emp_a, emp_b = simulate(SimConfig(params=params, durations=SMALL, runs=runs, seed=11))
    counts_a, counts_b = atoms(emp_a), atoms(emp_b)

    assert set(counts_a) <= set(tagged_atoms)
    for tau, prob in tagged_atoms.items():
        count = counts_a.get(tau, 0)
        noise = math.sqrt(runs * prob * (1 - prob))
        assert abs(count - runs * prob) <= 5 * noise, (tau, prob, count)
    fail_noise = math.sqrt(runs * tagged_fail * (1 - tagged_fail))
    assert abs(emp_a.failure_count - runs * tagged_fail) <= 5 * fail_noise

    assert set(counts_b) <= set(all_atoms)
    for tau, prob in all_atoms.items():
        count = counts_b.get(tau, 0)
        noise = math.sqrt(runs * prob * (1 - prob))
        assert abs(count - runs * prob) <= 5 * noise, (tau, prob, count)
    assert abs(emp_b.failure_count - runs * any_fail) <= 5 * fail_noise
    # runs in which every station failed contribute no completion atom
    all_failed_runs = runs - sum(counts_b.values())
    assert abs(all_failed_runs - runs * all_fail) <= 5 * math.sqrt(runs * all_fail)


def test_counts_conserve_runs():
    params = ModelParams(n_stations=3, cw_min=4, cw_max=4, retry_limit=2)
    cfg = SimConfig(params=params, durations=SMALL, runs=50_000, seed=5)
    emp_a, emp_b = simulate(cfg)
    assert sum(atoms(emp_a).values()) + emp_a.failure_count == cfg.runs
    assert sum(atoms(emp_b).values()) <= cfg.runs
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
    longer_counts, short_counts = atoms(longer), atoms(short)
    added = {d: longer_counts.get(d, 0) - short_counts.get(d, 0)
             for d in longer_counts.keys() | short_counts.keys()}
    assert all(count >= 0 for count in added.values())
    assert sum(added.values()) + longer.failure_count - short.failure_count == 1


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        SimConfig(params=ah_params(2), durations=AH_SLOT_DURATIONS, runs=0, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        SimConfig(params=ah_params(2), durations=AH_SLOT_DURATIONS, runs=10, seed=seed)


@pytest.mark.parametrize(
    "field, value", [("seed", 1.5), ("seed", True), ("runs", 10.5), ("runs", True)]
)
def test_non_integer_seed_or_runs_rejected(field, value):
    kwargs = dict(runs=10, seed=1) | {field: value}
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        SimConfig(params=ah_params(2), durations=AH_SLOT_DURATIONS, **kwargs)


def test_numpy_integer_seed_runs_as_int():
    base = dict(params=ah_params(2), durations=AH_SLOT_DURATIONS, runs=10)
    counts = [
        [(atoms(emp), emp.failure_count) for emp in simulate(SimConfig(seed=seed, **base))]
        for seed in (np.uint64(7), 7)
    ]
    assert counts[0] == counts[1]


def test_seeds_at_both_ends_of_range_differ():
    base = dict(params=ah_params(3), durations=AH_SLOT_DURATIONS, runs=2000)
    low = simulate(SimConfig(seed=0, **base))[0]
    high = simulate(SimConfig(seed=2**64 - 1, **base))[0]
    assert sum(atoms(low).values()) == sum(atoms(high).values()) == 2000
    assert atoms(low) != atoms(high)
