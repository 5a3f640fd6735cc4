"""Tests for slice-grid construction and assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmote.data import TimeSeriesDataset
from tsmote.slicing import (
    MEDIAN_OF_OBSERVATIONS,
    MIDPOINT,
    SliceGrid,
    SliceGridError,
    assign_slices,
    build_slice_grid,
)


def dataset_from_times(times_per_sample, labels=()):
    return TimeSeriesDataset.from_segments(
        [f"s{i}" for i in range(len(times_per_sample))],
        times_per_sample,
        [np.reshape(ts, (-1, 1)) for ts in times_per_sample],
        labels=labels,
    )


class TestTimeBounds:
    def test_min_max(self):
        ds = dataset_from_times([[0, 5], [2, 9]])
        grid = build_slice_grid(ds, 2)
        assert (grid.t_min, grid.t_max) == (0.0, 9.0)

    def test_override_t_max(self):
        ds = dataset_from_times([[0, 5], [2, 9]])
        grid = build_slice_grid(ds, 2, bounds=(None, 7.0))
        assert (grid.t_min, grid.t_max) == (0.0, 7.0)

    def test_degenerate_bounds_rejected(self):
        ds = dataset_from_times([[3, 3, 3]])
        with pytest.raises(SliceGridError, match="must exceed"):
            build_slice_grid(ds, 1)

    def test_inverted_override_rejected(self):
        ds = dataset_from_times([[0, 5]])
        with pytest.raises(SliceGridError, match="must exceed"):
            build_slice_grid(ds, 1, bounds=(4.0, 1.0))


class TestBuildGrid:
    def test_hand_example_boundaries(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3, MIDPOINT)
        assert grid.boundaries == (0.0, 1.5, 3.5, 5.0)
        assert grid.grid_times == (0.75, 2.5, 4.25)
        assert grid.occupancy == (2, 2, 2)

    def test_single_slice(self):
        ds = dataset_from_times([[0, 1, 2, 4]])
        grid = build_slice_grid(ds, 1, MIDPOINT)
        assert grid.boundaries == (0.0, 4.0)
        assert grid.grid_times == (2.0,)

    def test_remainder_to_earliest_slices(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 10]])
        with pytest.raises(SliceGridError):
            build_slice_grid(ds, 4)  # 6 < 2*4 on average
        ds8 = dataset_from_times([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]])
        grid = build_slice_grid(ds8, 4)
        assert grid.occupancy == (3, 3, 2, 2)

    def test_median_grid_times(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3, MEDIAN_OF_OBSERVATIONS)
        assert grid.grid_times == (0.5, 2.5, 4.5)

    def test_median_grid_times_match_numpy_median(self):
        # each slice's median is read off the sorted times, with np.median as the reference
        rng = np.random.default_rng(3)
        ds = dataset_from_times([sorted(rng.uniform(-5, 1e3, int(rng.integers(3, 9)))) for _ in range(20)])
        for n_slices in (1, 4, 7, 13):
            grid = build_slice_grid(ds, n_slices, MEDIAN_OF_OBSERVATIONS)
            assert len(set(np.array(grid.occupancy) % 2)) == (1 if n_slices == 1 else 2)
            elapsed = np.sort(ds.times) - grid.t_min
            edges = np.cumsum((0, *grid.occupancy))
            assert grid.grid_times == tuple(float(np.median(elapsed[a:b])) for a, b in zip(edges, edges[1:]))

    def test_grid_times_inside_slices(self):
        rng = np.random.default_rng(0)
        ds = dataset_from_times([sorted(rng.uniform(0, 10, 7)) for _ in range(8)])
        for policy in (MIDPOINT, MEDIAN_OF_OBSERVATIONS):
            grid = build_slice_grid(ds, 5, policy)
            for i, gt in enumerate(grid.grid_times):
                assert grid.boundaries[i] <= gt <= grid.boundaries[i + 1]

    def test_all_times_equal_rejected(self):
        ds = dataset_from_times([[2, 2], [2, 2]])
        with pytest.raises(SliceGridError):
            build_slice_grid(ds, 1, bounds=(0.0, 2.0))

    def test_n_slices_below_one_rejected(self):
        ds = dataset_from_times([[0, 1, 2, 3]])
        with pytest.raises(SliceGridError, match="at least 1"):
            build_slice_grid(ds, 0)

    def test_duplicate_timestamps_shift_split(self):
        # nominal split of 8 values into 4 slices lands between the two 3.0s
        ds = dataset_from_times([[0, 1, 3, 3], [3, 5, 6, 7]])
        grid = build_slice_grid(ds, 4)
        assert all(b2 > b1 for b1, b2 in zip(grid.boundaries, grid.boundaries[1:]))
        assert grid.occupancy_spread >= 1  # imbalance reported, not hidden
        assert sum(grid.occupancy) == 8

    def test_deterministic(self):
        ds = dataset_from_times([[0, 0.7, 2.1], [3.3, 4.9, 5.5]])
        g1 = build_slice_grid(ds, 3)
        g2 = build_slice_grid(ds, 3)
        assert g1 == g2

    def test_json_round_trip(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3)
        assert SliceGrid.from_json(grid.to_json()) == grid


# a valid three-slice grid, and the one entry each invalid variant changes
VALID_GRID = dict(n_slices=3, boundaries=(0.0, 1.5, 3.5, 5.0), grid_times=(0.5, 2.5, 4.5),
                  grid_time_policy=MEDIAN_OF_OBSERVATIONS, t_min=10.0, t_max=15.0)


class TestGridInvariants:
    @pytest.mark.parametrize("change, error", [
        ({"grid_times": (np.nan, 2.5, 4.5)}, "must be finite"),
        ({"boundaries": (0.0, np.nan, 3.5, 5.0)}, "must be finite"),
        ({"t_max": np.inf}, "must be finite"),
        ({"n_slices": 0, "boundaries": (0.0,), "grid_times": ()}, "n_slices must be at least 1"),
        ({"grid_times": (0.5, 2.5)}, "n_slices grid times"),
        ({"boundaries": (0.5, 1.5, 3.5, 5.0)}, "from 0 to t_max - t_min"),
        ({"t_max": 16.0}, "from 0 to t_max - t_min"),
        ({"boundaries": (0.0, 3.5, 1.5, 5.0)}, "strictly increasing"),
        ({"grid_times": (0.5, 1.4, 4.5)}, "each grid time must lie in its slice"),
        ({"grid_times": (0.5, 2.5, 5.5)}, "each grid time must lie in its slice"),
        ({"grid_time_policy": "mean"}, "unknown grid_time_policy 'mean'"),
    ])
    def test_invalid_grid_rejected(self, change, error):
        with pytest.raises(ValueError, match=error):
            SliceGrid(**{**VALID_GRID, **change})

    def test_grid_time_may_sit_on_either_boundary(self):
        SliceGrid(**{**VALID_GRID, "grid_times": (0.0, 3.5, 5.0)})

    def test_midpoint_rounded_onto_upper_boundary_accepted(self):
        # slice 2 is [x, next float after x): their midpoint rounds up to the even upper boundary
        x = float(np.nextafter(1.0, 2.0))
        nx = float(np.nextafter(x, 2.0))
        grid = build_slice_grid(dataset_from_times([[0.0, 1.0, x, nx, 3.0], [0.5, 1.0, x, nx, 3.0]]), 5, MIDPOINT)
        assert grid.boundaries[2:4] == (x, nx) and grid.grid_times[2] == nx

    @pytest.mark.parametrize("doc, error", [
        ([0.0, 1.5], "a slice grid must be a JSON object, not list"),
        ({k: v for k, v in VALID_GRID.items() if k != "boundaries"}, "entry 'boundaries' is missing"),
        ({**VALID_GRID, "t_min": None}, "entry 't_min' is missing or malformed: None"),
        ({**VALID_GRID, "n_slices": "three"}, "entry 'n_slices' is missing or malformed: 'three'"),
        ({**VALID_GRID, "occupancy": None}, "entry 'occupancy' is missing or malformed: None"),
        # JSON's types only: what int() or float() would read is still malformed
        ({**VALID_GRID, "n_slices": 4.7}, "entry 'n_slices' is missing or malformed: 4.7"),
        ({**VALID_GRID, "n_slices": "3"}, "entry 'n_slices' is missing or malformed: '3'"),
        ({**VALID_GRID, "n_slices": True}, "entry 'n_slices' is missing or malformed: True"),
        ({**VALID_GRID, "boundaries": "0123"}, "entry 'boundaries' is missing or malformed: '0123'"),
        ({**VALID_GRID, "grid_times": [0.5, "2.5", 4.5]},
         r"entry 'grid_times' is missing or malformed: \[0.5, '2.5', 4.5\]"),
        ({**VALID_GRID, "t_min": True}, "entry 't_min' is missing or malformed: True"),
        ({**VALID_GRID, "t_max": "15"}, "entry 't_max' is missing or malformed: '15'"),
        ({**VALID_GRID, "occupancy": [2.9, 3, "4"]}, r"entry 'occupancy' is missing or malformed: \[2.9, 3, '4'\]"),
        ({**VALID_GRID, "occupancy": [2, False, 4]}, r"entry 'occupancy' is missing or malformed: \[2, False, 4\]"),
    ])
    def test_malformed_dict_names_the_entry(self, doc, error):
        with pytest.raises(ValueError, match=error):
            SliceGrid.from_dict(doc)


class TestAssign:
    def test_boundary_belongs_to_upper_slice(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3, MIDPOINT)
        probe = dataset_from_times([[1.5]])
        a = assign_slices(probe, grid)
        assert a.tolist() == [1]  # lower bound closed, upper open

    def test_max_time_in_last_slice(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3, MIDPOINT)
        a = assign_slices(dataset_from_times([[5.0]]), grid)
        assert a.tolist() == [2]

    def test_degenerate_observations_same_slice(self):
        ds = dataset_from_times([[0, 1, 2], [3, 4, 5]])
        grid = build_slice_grid(ds, 3, MIDPOINT)
        a = assign_slices(dataset_from_times([[2.0, 2.2]]), grid)
        assert a.tolist() == [1, 1]

    def test_clamped_beyond_override(self):
        ds = dataset_from_times([[0, 5], [2, 9]])
        grid = build_slice_grid(ds, 2, bounds=(None, 7.0))
        a = assign_slices(dataset_from_times([[9.0]]), grid)
        assert a.tolist() == [1]

    def test_earlier_than_t_min_rejected(self):
        ds = dataset_from_times([[1, 2, 3, 4]])
        grid = build_slice_grid(ds, 2)
        with pytest.raises(SliceGridError, match="earlier than t_min"):
            assign_slices(dataset_from_times([[0.5]]), grid)

    def test_monotone_indices(self):
        rng = np.random.default_rng(1)
        ds = dataset_from_times([sorted(rng.uniform(0, 1, 10)) for _ in range(10)])
        grid = build_slice_grid(ds, 5)
        a = assign_slices(ds, grid)
        for idx in np.split(a, ds.offsets[1:-1]):
            assert list(idx) == sorted(idx)

    def test_class_blind(self):
        rng = np.random.default_rng(2)
        times = [sorted(rng.uniform(0, 1, 6)) for _ in range(10)]
        plain = dataset_from_times(times)
        labeled = dataset_from_times(times, labels=["ab"[i % 2] for i in range(len(times))])
        grid_plain = build_slice_grid(plain, 4)
        grid_lab = build_slice_grid(labeled, 4)
        assert grid_plain == grid_lab
        np.testing.assert_array_equal(
            assign_slices(plain, grid_plain), assign_slices(labeled, grid_lab)
        )


def test_split_between_adjacent_floats():
    # the midpoint of 1.0 and the next float rounds down to 1.0
    above_one = float(np.nextafter(1.0, 2.0))
    ds = dataset_from_times([[0.0, 0.5, 1.0], [above_one, 3.0, 4.0]])
    grid = build_slice_grid(ds, 2)
    assert grid.boundaries[1] == above_one
    np.testing.assert_array_equal(np.bincount(assign_slices(ds, grid)), grid.occupancy)
    # a last group at t_max, just above its neighbour, leaves no width for the last slice
    below_100 = float(np.nextafter(100.0, 0.0))
    with pytest.raises(SliceGridError, match="t_max"):
        build_slice_grid(dataset_from_times([[0.0, 0.0], [1.0, below_100, 100.0, 100.0]]), 3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=15),
        min_size=2,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_equal_count_and_coverage_property(times_lists, n_slices):
    times_lists = [sorted(ts) for ts in times_lists]
    flat = sorted(t for ts in times_lists for t in ts)
    if len(flat) < 2 * n_slices or len(set(flat)) < n_slices + 1 or flat[0] == flat[-1]:
        return
    ds = dataset_from_times(times_lists)
    try:
        grid = build_slice_grid(ds, n_slices)
    except SliceGridError:
        return  # duplicate pile-ups can make n_slices unattainable
    a = assign_slices(ds, grid)
    counts = np.bincount(a, minlength=n_slices)
    # every observation lands in exactly one slice
    assert counts.sum() == len(flat)
    np.testing.assert_array_equal(counts, np.asarray(grid.occupancy))
    if len(set(flat)) == len(flat):  # no duplicate timestamps: balance is tight
        assert counts.max() - counts.min() <= 1
    # slices tile the span without gaps
    widths = np.diff(grid.boundaries)
    assert np.all(widths > 0)
    assert np.isclose(widths.sum(), grid.boundaries[-1])
