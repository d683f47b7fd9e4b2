import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawtime import (
    AH_SLOT_DURATIONS,
    TimeDistribution,
    UnsatisfiableQuantileError,
    ah_params,
    kolmogorov_distance,
    load_distribution,
    merge_weighted,
    run_chains,
    write_distribution,
)
from rawtime.distribution import align

from reference import atoms, ref_compare

UNIFORM16 = TimeDistribution(np.arange(16) * 52 + 2184, np.full(16, 1 / 16))
EMPTY = TimeDistribution(np.zeros(0, dtype=np.int64), np.zeros(0))

# Empirical 0.999 quantile of the tagged-station delivery time, N=7 with the
# 802.11ah reference setup: simulate(SimConfig(ah_params(7), AH_SLOT_DURATIONS,
# runs=10**6, seed=2024)).  Recompute with tests/reference tooling if the
# simulator changes.
EMPIRICAL_Q999_N7 = 29016


class TestQuantile:
    def test_uniform_median_is_eighth_atom(self):
        # cumulative reaches 0.5 exactly at the 8th atom
        assert UNIFORM16.quantile(0.5) == 7 * 52 + 2184 == 2548

    def test_smallest_duration_reaching_mass(self):
        dist = TimeDistribution(np.array([10, 20, 30]), np.array([0.25, 0.25, 0.5]))
        assert dist.quantile(0.25) == 10
        assert dist.quantile(0.2500001) == 20
        assert dist.quantile(0.99) == 30

    def test_unsatisfiable_raises_with_achievable_mass(self):
        dist = TimeDistribution(np.array([10, 20]), np.array([0.5, 0.25]))
        with pytest.raises(UnsatisfiableQuantileError) as err:
            dist.quantile(0.9)
        assert err.value.total_mass == pytest.approx(0.75)

    def test_against_large_simulation_tail_quantile(self):
        model = run_chains(ah_params(7), AH_SLOT_DURATIONS, compute_b=False).p_a
        assert abs(model.quantile(0.999) - EMPIRICAL_Q999_N7) <= 2 * 2184

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6))
    def test_nondecreasing_in_q(self, levels):
        levels = sorted(levels)
        values = [UNIFORM16.quantile(q) for q in levels]
        assert values == sorted(values)


class TestBookkeeping:
    def test_totals(self):
        dist = TimeDistribution(np.array([1, 2]), np.array([0.25, 0.5]))
        assert dist.total_mass == pytest.approx(0.75, abs=1e-15)
        assert dist.deficit == pytest.approx(0.25, abs=1e-15)
        assert math.fsum(atoms(dist).values()) == pytest.approx(dist.total_mass, abs=1e-9)

    def test_zero_mass_atoms_dropped(self):
        dist = TimeDistribution.from_arrays(np.array([2, 1]), np.array([0.0, 0.5]))
        assert list(dist.durations) == [1]

    def test_from_arrays_merges_duplicates(self):
        dist = TimeDistribution.from_arrays(np.array([5, 3, 5]), np.array([0.1, 0.2, 0.3]))
        assert atoms(dist) == pytest.approx({3: 0.2, 5: 0.4})

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            TimeDistribution(np.array([2, 1]), np.array([0.1, 0.1]))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative and strictly increasing"):
            TimeDistribution(np.array([-1, 2]), np.array([0.1, 0.1]))

    def test_non_integer_durations_rejected(self):
        for build in (TimeDistribution, TimeDistribution.from_arrays):
            with pytest.raises(ValueError, match="whole microseconds"):
                build([1.7, 2.2], [0.5, 0.5])
            assert build([], []).durations.size == 0
            assert build([1.0, 2.0], [0.5, 0.5]).durations.tolist() == [1, 2]


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        write_distribution(UNIFORM16, path)
        again = load_distribution(path)
        assert atoms(again) == atoms(UNIFORM16)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "d.json"
        write_distribution(UNIFORM16, path, extra={"runs": 16})
        again = load_distribution(path)
        assert atoms(again) == atoms(UNIFORM16)
        payload = json.loads(path.read_text())
        assert list(payload) == ["atoms", "total_mass", "deficit", "runs"]

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_distribution(UNIFORM16, a)
        write_distribution(UNIFORM16, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_distribution(path)


class TestKolmogorov:
    def test_identical_distributions(self):
        assert kolmogorov_distance(UNIFORM16, UNIFORM16) == 0.0

    def test_known_distance(self):
        a = TimeDistribution(np.array([1, 2]), np.array([0.5, 0.5]))
        b = TimeDistribution(np.array([1, 2]), np.array([0.2, 0.8]))
        assert kolmogorov_distance(a, b) == pytest.approx(0.3)

    def test_mass_deficit_counts(self):
        a = TimeDistribution(np.array([1]), np.array([1.0]))
        b = TimeDistribution(np.array([1]), np.array([0.9]))
        assert kolmogorov_distance(a, b) == pytest.approx(0.1)


@st.composite
def small_distributions(draw):
    """Up to six atoms on a 52 us lattice, each of mass at most 1/6."""
    durations = sorted(draw(st.sets(st.integers(0, 40), max_size=6)))
    masses = draw(st.lists(st.floats(1e-9, 1 / 6), min_size=len(durations),
                           max_size=len(durations)))
    return TimeDistribution(np.array(durations, dtype=np.int64) * 52, np.array(masses))


def _needs_17_digits(value: float) -> bool:
    return len(repr(value).split("e")[0].replace(".", "").strip("0")) == 17


# below 1/8, so that six of them stay a sub-probability distribution
_HARD_PROBABILITIES = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda m: m * 2.0**-56).filter(_needs_17_digits),
    st.floats(5e-324, 2.2e-308, exclude_max=True),  # subnormal
)


@st.composite
def extreme_distributions(draw):
    """Up to six atoms on durations up to 2**62 with probabilities that need 17
    significant digits or are subnormal."""
    durations = sorted(draw(st.sets(st.integers(0, 2**62), max_size=6)))
    masses = draw(st.lists(_HARD_PROBABILITIES, min_size=len(durations),
                           max_size=len(durations)))
    return TimeDistribution(np.array(durations, dtype=np.int64), np.array(masses))


class TestWriteLoadRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_distributions(), extreme_distributions()),
           st.floats(0.0, 1.0), st.integers(0, 2**62))
    @example(EMPTY, 0.0, 0)
    @example(TimeDistribution([0, 2**62], [0.30000000000000004, 5e-324]), 0.1, 2**62)
    def test_every_written_file_loads_back(self, dist, p_fail, runs):
        # hypothesis refuses function-scoped fixtures such as tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            cases = [("d.csv", None), ("d.json", None), ("d.json", {"p_fail": p_fail}),
                     ("d.json", {"runs": runs, "failure_count": runs // 3})]
            for name, extra in cases:
                path = Path(tmp) / name
                write_distribution(dist, path, extra=extra)
                again = load_distribution(path)
                assert again.durations.dtype == np.int64
                assert again.durations.tolist() == dist.durations.tolist()
                assert again.probabilities.tobytes() == dist.probabilities.tobytes()


class TestAlign:
    @settings(max_examples=300, deadline=None)
    @given(small_distributions(), small_distributions())
    @example(EMPTY, EMPTY)
    @example(EMPTY, UNIFORM16)
    def test_equals_dict_oracle_to_the_bit(self, first, second):
        distance, diffs = ref_compare(atoms(first), atoms(second))
        support, mass_first, mass_second = align(first, second)
        assert kolmogorov_distance(first, second).hex() == distance.hex()
        assert support.tolist() == list(diffs)
        assert [d.hex() for d in (mass_first - mass_second).tolist()] == [
            d.hex() for d in diffs.values()]


class TestMergeWeighted:
    def test_weighted_superposition(self):
        a = TimeDistribution(np.array([1]), np.array([1.0]))
        b = TimeDistribution(np.array([1, 2]), np.array([0.5, 0.5]))
        merged = merge_weighted([(0.5, a), (0.5, b)])
        assert atoms(merged) == pytest.approx({1: 0.75, 2: 0.25})

    def test_zero_weight_skipped(self):
        merged = merge_weighted([(0.0, UNIFORM16), (1.0, UNIFORM16)])
        assert atoms(merged) == pytest.approx(atoms(UNIFORM16))

    def test_no_positive_weight_gives_empty(self):
        merged = merge_weighted([(0.0, UNIFORM16)])
        assert merged.durations.size == merged.probabilities.size == 0
        assert merged.total_mass == 0.0


class TestRejectCorruptInput:
    @pytest.mark.parametrize("probability", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, probability):
        with pytest.raises(ValueError):
            TimeDistribution(np.array([1, 2]), np.array([0.5, probability]))
        with pytest.raises(ValueError):
            TimeDistribution.from_arrays(np.array([2, 1]), np.array([probability, 0.5]))

    def test_total_mass_above_one_rejected(self):
        with pytest.raises(ValueError):
            TimeDistribution(np.array([1, 2]), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            TimeDistribution.from_arrays(np.array([1, 1]), np.array([0.7, 0.7]))

    def test_rounding_above_one_accepted(self):
        dist = TimeDistribution(np.array([1, 2]), np.array([0.5, 0.5 + 1e-13]))
        assert dist.total_mass > 1.0

    @pytest.mark.parametrize("rows", [
        ["10,0.5", "10,0.2"],
        ["10,0.5", "20,nan"],
        ["10,0.5", "20,inf"],
        ["10,0.5", "20,0.0"],
        ["10,0.5", "30,-0.1"],
        ["10,0.5", "10,0.2", "20,nan", "30,-0.1"],
        ["10,0.5", "20,0.2,junk"],
        ["duration_us,probability,extra", "10,0.5"],
        ["10,0.5", f"{2**63},0.2"],
    ])
    def test_corrupt_csv_rejected(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        if not rows[0].startswith("duration_us"):  # a case may bring its own header
            rows = ["duration_us,probability", *rows]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError):
            load_distribution(path)

    @pytest.mark.parametrize("atoms", [
        '{"10": 0.5, "10": 0.2}',
        '{"10": 0.5, "010": 0.2}',
        '{"10": 0.5, "20": NaN}',
        '{"10": 0.5, "20": Infinity}',
        '{"10": 0.5, "20": 0}',
        '{"10": 0.5, "20": -0.1}',
        '{"10": true}',
        '{"10": 0.5, "20": "0.2"}',
        '{"10": 0.5, "99999999999999999999": 0.2}',
    ])
    def test_corrupt_json_rejected(self, tmp_path, atoms):
        path = tmp_path / "d.json"
        path.write_text('{"atoms": ' + atoms + ', "total_mass": 0.7}')
        with pytest.raises(ValueError):
            load_distribution(path)
