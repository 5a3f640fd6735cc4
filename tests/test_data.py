"""Tests for the core data model, validation, stats, and CSV round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmote.data import (
    Observation,
    Sample,
    TimeSeriesDataset,
    dataset_stats,
    read_long_csv,
    tensor_from_json,
    tensor_to_json,
    validate_dataset,
    write_long_csv,
)
from tsmote.data import ImputedTensor


def make_sample(sid, times, values, label=None, nfix=0):
    obs = tuple(Observation(t, tuple(v)) for t, v in zip(times, values))
    return Sample(id=sid, observations=obs, class_label=label, fixed_prefix_len=nfix)


class TestContainers:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            Sample(id="s", observations=())

    def test_dataset_default_feature_names(self):
        ds = TimeSeriesDataset((make_sample("a", [0.0], [(1.0, 2.0)]),), n_features=2)
        assert ds.feature_names == ("f_0", "f_1")

    def test_feature_name_mismatch(self):
        with pytest.raises(ValueError, match="feature_names"):
            TimeSeriesDataset(
                (make_sample("a", [0.0], [(1.0,)]),), n_features=1, feature_names=("x", "y")
            )

    def test_value_matrix_nan_for_nulls(self):
        s = make_sample("a", [0.0, 1.0], [(1.0, None), (None, 2.0)])
        m = s.value_matrix()
        assert np.isnan(m[0, 1]) and np.isnan(m[1, 0])
        assert m[0, 0] == 1.0 and m[1, 1] == 2.0

    def test_class_labels_sorted(self):
        ds = TimeSeriesDataset(
            (
                make_sample("a", [0.0], [(1.0,)], label="z"),
                make_sample("b", [0.0], [(1.0,)], label="a"),
            ),
            n_features=1,
        )
        assert ds.class_labels() == ["a", "z"]


class TestValidation:
    def test_minimal_valid_dataset(self):
        ds = TimeSeriesDataset((make_sample("a", [0.0], [(1.0,)]),), n_features=1)
        report = validate_dataset(ds)
        assert report.ok
        assert report.violations == ()

    def test_unsorted_times_flagged(self):
        ds = TimeSeriesDataset(
            (make_sample("bad", [3.0, 1.0], [(1.0,), (2.0,)]),), n_features=1
        )
        report = validate_dataset(ds)
        kinds = [v.kind for v in report.violations]
        assert "unsorted-times" in kinds
        assert report.violations[0].sample_id == "bad"

    def test_insufficient_observations_warning(self):
        # 10 samples x 2 obs = 20 < 2 * 50 slices
        samples = tuple(
            make_sample(f"s{i}", [0.0, 1.0], [(1.0,), (2.0,)]) for i in range(10)
        )
        ds = TimeSeriesDataset(samples, n_features=1)
        report = validate_dataset(ds, n_slices=50)
        assert report.ok  # warning, not violation
        assert any("insufficient observations for 50 slices" in w for w in report.warnings)

    def test_wrong_width_flagged(self):
        ds = TimeSeriesDataset(
            (make_sample("w", [0.0], [(1.0, 2.0)]),), n_features=1
        )
        assert any(v.kind == "wrong-width" for v in validate_dataset(ds).violations)

    def test_all_null_observation_flagged(self):
        ds = TimeSeriesDataset(
            (make_sample("n", [0.0], [(None, None)]),), n_features=2
        )
        assert any(v.kind == "all-null-observation" for v in validate_dataset(ds).violations)

    def test_duplicate_timestamp_warned_not_violated(self):
        ds = TimeSeriesDataset(
            (make_sample("d", [1.0, 1.0], [(0.0,), (1.0,)]),), n_features=1
        )
        report = validate_dataset(ds)
        assert report.ok
        assert any("duplicate timestamps" in w for w in report.warnings)

    def test_partial_labels_flagged(self):
        ds = TimeSeriesDataset(
            (
                make_sample("a", [0.0], [(1.0,)], label="x"),
                make_sample("b", [0.0], [(1.0,)]),
            ),
            n_features=1,
        )
        assert any(v.kind == "partial-labels" for v in validate_dataset(ds).violations)

    def test_inconsistent_fixed_feature(self):
        ds = TimeSeriesDataset(
            (make_sample("f", [0.0, 1.0], [(5.0, 1.0), (6.0, 2.0)], nfix=1),),
            n_features=2,
        )
        assert any(
            v.kind == "inconsistent-fixed-feature" for v in validate_dataset(ds).violations
        )

    def test_nonfinite_time_flagged(self):
        ds = TimeSeriesDataset(
            (make_sample("inf", [math.inf], [(1.0,)]),), n_features=1
        )
        assert any(v.kind == "nonfinite-time" for v in validate_dataset(ds).violations)

    def test_nonfinite_value_flagged(self):
        ds = TimeSeriesDataset(
            (make_sample("inf", [0.0, 1.0], [(1.0, math.inf), (math.nan, 2.0)]),), n_features=2
        )
        kinds = [v.kind for v in validate_dataset(ds).violations]
        assert kinds == ["nonfinite-value", "nonfinite-value"]

    def test_report_json(self):
        ds = TimeSeriesDataset((make_sample("a", [0.0], [(1.0,)]),), n_features=1)
        d = validate_dataset(ds).to_dict()
        assert d["ok"] is True and d["violations"] == []


class TestStats:
    def test_no_nulls(self):
        samples = tuple(
            make_sample(f"s{i}", [0.0, 1, 2, 3, 4], [(1.0,)] * 5) for i in range(3)
        )
        stats = dataset_stats(TimeSeriesDataset(samples, n_features=1))
        assert stats.n_samples == 3
        assert stats.total_observations == 15
        assert stats.null_fraction == (0.0,)

    def test_single_null_fraction(self):
        # 2 samples x 2 obs x 2 features, one null in feature 0
        samples = (
            make_sample("a", [0.0, 1.0], [(None, 1.0), (2.0, 3.0)]),
            make_sample("b", [0.0, 1.0], [(4.0, 5.0), (6.0, 7.0)]),
        )
        stats = dataset_stats(TimeSeriesDataset(samples, n_features=2))
        assert stats.null_fraction == (0.25, 0.0)

    def test_single_sample_time_range(self):
        s = make_sample("a", [2.0, 5.0, 9.0], [(1.0,)] * 3)
        stats = dataset_stats(TimeSeriesDataset((s,), n_features=1))
        assert stats.time_range == (2.0, 9.0)


class TestLongCsv:
    def test_round_trip_identity(self, tmp_path):
        samples = (
            make_sample("a", [0.0, 1.5], [(1.0, None), (2.5, 3.0)], label="c1"),
            make_sample("b", [0.25], [(None, -4.125)], label="c2"),
        )
        ds = TimeSeriesDataset(samples, n_features=2, feature_names=("u", "v"))
        path = tmp_path / "ds.csv"
        write_long_csv(ds, path)
        back = read_long_csv(path)
        assert back == ds

    def test_unlabeled_round_trip(self, tmp_path):
        ds = TimeSeriesDataset(
            (make_sample("a", [0.0], [(1.0,)]),), n_features=1, feature_names=("x",)
        )
        path = tmp_path / "ds.csv"
        write_long_csv(ds, path)
        back = read_long_csv(path)
        assert back == ds
        assert not back.has_labels

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="missing header"):
            read_long_csv(path)

    def test_rows_sorted_within_sample(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,x\na,2.0,5.0\na,1.0,4.0\n")
        ds = read_long_csv(path)
        assert [o.time for o in ds.samples[0].observations] == [1.0, 2.0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_cell_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "ds.csv"
        path.write_text(f"sample_id,time,x\na,1.0,4.0\na,2.0,{cell}\n")
        with pytest.raises(ValueError, match=f"ds.csv:3: non-finite value '{cell}'"):
            read_long_csv(path)

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,class,x\na,1.0,u,1.0\na,2.0,v,2.0\n")
        with pytest.raises(ValueError, match="conflicting class labels"):
            read_long_csv(path)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.one_of(st.none(), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, data):
        obs = tuple(Observation(t, (v1, v2)) for t, v1, v2 in sorted(data, key=lambda r: r[0]))
        ds = TimeSeriesDataset(
            (Sample(id="s0", observations=obs),), n_features=2, feature_names=("p", "q")
        )
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_long_csv(ds, path)
        assert read_long_csv(path) == ds


class TestImputedTensor:
    def test_invariants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ImputedTensor(("a",), np.array([1.0, 1.0]), np.zeros((1, 2, 1)))
        with pytest.raises(ValueError, match="must not contain nulls"):
            ImputedTensor(("a",), np.array([0.0, 1.0]), np.full((1, 2, 1), np.nan))
        with pytest.raises(ValueError, match="must not contain nulls or infinite values"):
            ImputedTensor(("a",), np.array([0.0, 1.0]), np.full((1, 2, 1), np.inf))

    def test_json_round_trip(self):
        t = ImputedTensor(
            sample_ids=("a", "b"),
            grid_times=np.array([0.0, 1.0, 2.5]),
            data=np.arange(12, dtype=float).reshape(2, 3, 2),
            class_labels=("u", "v"),
            feature_names=("x", "y"),
        )
        back = tensor_from_json(tensor_to_json(t))
        assert back.sample_ids == t.sample_ids
        assert back.class_labels == t.class_labels
        np.testing.assert_array_equal(back.data, t.data)
        np.testing.assert_array_equal(back.grid_times, t.grid_times)
