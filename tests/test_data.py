"""Tests for the core data model, validation, and CSV round-trips."""

import concurrent.futures
import functools
import csv
import io
import json
import math
import multiprocessing
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsmote.data
from tsmote.data import (
    TimeSeriesDataset,
    read_long_csv,
    validate_dataset,
    write_csv,
    write_long_csv,
    write_tensor_csv,
)
from tsmote.data import ImputedTensor
from tsmote.slicing import build_slice_grid


def make_sample(sid, times, values, label=None):
    return sid, times, values, label


def dataset_of(*samples, feature_names=(), fixed=0):
    """Dataset of ``make_sample`` tuples: (id, times, per-row values, label)."""
    ids, times, values, labels = zip(*samples)
    return TimeSeriesDataset.from_segments(
        ids, times, values, labels=labels, feature_names=feature_names, fixed_prefix_len=fixed
    )


class TestContainers:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="'s' has no observations"):
            TimeSeriesDataset(("a", "s"), [0, 1, 1], [0.0], [[1.0]])

    def test_dataset_default_feature_names(self):
        ds = dataset_of(make_sample("a", [0.0], [(1.0, 2.0)]))
        assert ds.feature_names == ("f_0", "f_1")

    def test_feature_name_mismatch(self):
        with pytest.raises(ValueError, match="feature_names"):
            dataset_of(make_sample("a", [0.0], [(1.0,)]), feature_names=("x", "y"))

    def test_value_matrix_nan_for_nulls(self):
        ds = dataset_of(make_sample("a", [0.0, 1.0], [(1.0, None), (None, 2.0)]))
        m = ds.values
        assert np.isnan(m[0, 1]) and np.isnan(m[1, 0])
        assert m[0, 0] == 1.0 and m[1, 1] == 2.0
        assert not m.flags.writeable

    def test_class_labels_sorted(self):
        ds = dataset_of(
            make_sample("a", [0.0], [(1.0,)], label="z"),
            make_sample("b", [0.0], [(1.0,)], label="a"),
        )
        assert ds.classes == ("a", "z")
        assert ds.class_codes.tolist() == [1, 0]
        unlabeled = dataset_of(make_sample("a", [0.0], [(1.0,)]), make_sample("b", [0.0], [(1.0,)]))
        assert unlabeled.classes == (None,)
        assert unlabeled.class_codes.tolist() == [0, 0]

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="sample id 'b' repeats"):
            dataset_of(*(make_sample(sid, [0.0], [(1.0,)]) for sid in ("a", "b", "c", "b", "a")))

    def test_fixed_prefix_beyond_features_rejected(self):
        with pytest.raises(ValueError, match="fixed_prefix_len 3 must lie between 0 and the 2 features"):
            dataset_of(make_sample("a", [0.0], [(1.0, 2.0)]), fixed=3)

    def test_fixed_values_are_first_non_null_entries(self):
        ds = dataset_of(
            make_sample("a", [0.0, 1.0, 2.0], [(None, 7.0, 1.0), (3.0, None, 2.0), (4.0, 8.0, 3.0)]),
            make_sample("b", [0.0], [(None, 5.0, 1.0)]),
            fixed=2,
        )
        np.testing.assert_array_equal(ds.fixed_values, [[3.0, 7.0], [np.nan, 5.0]])


class TestValidation:
    def test_minimal_valid_dataset(self):
        ds = dataset_of(make_sample("a", [0.0], [(1.0,)]))
        report = validate_dataset(ds)
        assert report.ok
        assert report.violations == ()

    # the constructor rejects what validate_dataset once reported, naming the sample
    def test_unsorted_times_flagged(self):
        with pytest.raises(ValueError, match="sample 'bad' has times that go down"):
            dataset_of(make_sample("ok", [5.0], [(1.0,)]), make_sample("bad", [3.0, 1.0], [(1.0,), (2.0,)]))
        # a later sample may start before an earlier one ends, and times may repeat
        assert validate_dataset(dataset_of(make_sample("a", [2.0, 2.0], [(1.0,), (2.0,)]),
                                           make_sample("b", [1.0], [(1.0,)]))).ok

    def test_insufficient_observations_warning(self):
        # 10 samples x 2 obs = 20 < 2 * 50 slices
        ds = dataset_of(*(make_sample(f"s{i}", [0.0, 1.0], [(1.0,), (2.0,)]) for i in range(10)))
        report = validate_dataset(ds, n_slices=50)
        assert report.ok  # warning, not violation
        assert any("insufficient observations for 50 slices" in w for w in report.warnings)

    def test_wrong_width_flagged(self):
        # a row of the wrong width cannot enter the (N, n_features) value array
        with pytest.raises(ValueError, match=r"values must be an \(N, n_features\) array"):
            TimeSeriesDataset(("w",), [0, 2], [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="must have the 2 rows the offsets cover"):
            TimeSeriesDataset(("w",), [0, 2], [0.0, 1.0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            dataset_of(make_sample("a", [0.0], [(1.0, 2.0)]), make_sample("w", [0.0], [(1.0,)]))

    def test_all_null_observation_flagged(self):
        ds = dataset_of(make_sample("n", [0.0], [(None, None)]))
        assert any(v.kind == "all-null-observation" for v in validate_dataset(ds).violations)

    def test_duplicate_timestamp_warned_not_violated(self):
        ds = dataset_of(make_sample("d", [1.0, 1.0], [(0.0,), (1.0,)]))
        report = validate_dataset(ds)
        assert report.ok
        assert any("duplicate timestamps" in w for w in report.warnings)

    def test_partial_labels_flagged(self):
        with pytest.raises(ValueError, match="sample 'b' has no class label, but other samples do"):
            dataset_of(
                make_sample("a", [0.0], [(1.0,)], label="x"),
                make_sample("b", [0.0], [(1.0,)]),
            )

    def test_inconsistent_fixed_feature(self):
        ds = dataset_of(
            make_sample("f", [0.0, 1.0, 2.0], [(5.0, 1.0), (6.0, 2.0), (7.0, 3.0)]),
            make_sample("g", [0.0, 1.0], [(None, 1.0), (4.0, 2.0)]),
            fixed=1,
        )
        violations = validate_dataset(ds).violations
        # one entry per (sample, feature), however many rows differ
        assert [(v.kind, v.sample_id) for v in violations] == [("inconsistent-fixed-feature", "f")]
        # a fixed feature recorded nowhere is consistent
        never = dataset_of(make_sample("n", [0.0, 1.0], [(None, 1.0), (None, 2.0)]), fixed=1)
        assert validate_dataset(never).ok

    def test_nonfinite_time_flagged(self):
        for time in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="sample 'inf' has a non-finite time"):
                dataset_of(make_sample("a", [0.0], [(1.0,)]), make_sample("inf", [0.0, time], [(1.0,), (2.0,)]))

    def test_nonfinite_value_flagged(self):
        # NaN is the null encoding, so only infinities are non-finite values
        with pytest.raises(ValueError, match="sample 'inf' has an infinite value"):
            dataset_of(make_sample("inf", [0.0, 1.0], [(1.0, math.inf), (math.nan, 2.0)]))
        assert validate_dataset(dataset_of(make_sample("nan", [0.0, 1.0], [(1.0, math.nan), (math.nan, 2.0)]))).ok

    def test_value_out_of_range_flagged(self):
        ds = dataset_of(
            make_sample("a", [0.0, 1.0], [(1e308, 0.5), (0.5, 1e307)]),
            make_sample("b", [0.0, 1.0], [(-1.5e308, 0.5), (0.5, 0.5)]),
            feature_names=("x", "y"),
        )
        violations = validate_dataset(ds).violations
        assert [(v.kind, v.sample_id) for v in violations] == [("value-out-of-range", "b")]
        assert "feature 'x'" in violations[0].message
        # 1e307 over 4 values sums to a finite number
        assert validate_dataset(dataset_of(make_sample("c", [0.0, 1.0], [(1e307,), (-1e307,)]))).ok
        # a slot may average all of a sample's rows once its nulls are replaced,
        # and nanmedian adds a lone value to itself
        for rows in ([(6e307, 1.0), (None, 1.0), (None, 1.0)], [(1e308, 1.0)]):
            ds = dataset_of(make_sample("d", [0.0, 1.0, 2.0][: len(rows)], rows))
            assert [v.kind for v in validate_dataset(ds).violations] == ["value-out-of-range"]

    def test_report_json(self):
        ds = dataset_of(make_sample("a", [0.0], [(1.0,)]))
        d = validate_dataset(ds).to_dict()
        assert d["ok"] is True and d["violations"] == []


def read_or_error(path):
    """The dataset ``read_long_csv`` reads from ``path``, or the message of its ``ValueError``."""
    try:
        return read_long_csv(path)
    except ValueError as e:
        return str(e)


def rows_of(sid, times, label="u"):
    return "".join(f"{sid},{t},{label},{t + 0.5},1.5\n" for t in times)


# long CSV records after the header (record k is line k + 2), and what reading them
# gives: an error after the file's path, or the (ids, times) of the dataset
BLOCK_CASES = {
    "bad value in a later block": (
        rows_of("a", range(9)) + "b,0.5,u,2,zz\nb,t,u,2,3\n", ":11: unparseable value 'zz'"),
    "width error in a later block": (
        rows_of("a", range(9)) + "b,0.5,u,2\nb,0.5,u,2,zz\n", ":11: expected 5 columns, got 4"),
    # records 12 and 13 share a block of 2, 3 and 7 records
    "value error before a width error in one block": (
        rows_of("a", range(12)) + "b,0.5,u,zz,1\nb,0.5,u\n", ":14: unparseable value 'zz'"),
    "width error before a value error in one block": (
        rows_of("a", range(12)) + "b,0.5,u\nb,0.5,u,zz,1\n", ":14: expected 5 columns, got 3"),
    "blank records at block edges": (
        "\n" + rows_of("a", [1]) + "\n\n" + rows_of("b", [2, 0]) + "\n\n" + rows_of("a", [0]) + "\n\n",
        (("a", "b"), [0.0, 1.0, 0.0, 2.0])),
    "blank records counted in the line": (
        "\n" + rows_of("a", [1]) + "\n\n" + rows_of("b", [2, 0]) + "\n\n" + "c,1,u,2,inf\n",
        ":10: non-finite value 'inf'"),
    "quoted multi-line id": (
        rows_of('"x\r\ny"', [2, 1, 0]) + rows_of('"x\ny"', [1]), (("x\r\ny", "x\ny"), [0.0, 1.0, 2.0, 1.0])),
    "quoted multi-line ids counted as one line each": (
        rows_of('"x\ny"', [2, 1, 0]) + "z,t,u,1,2\n", ":5: unparseable time 't'"),
    "sample split across blocks": (
        "".join(rows_of("a", [3 - k]) + rows_of(f"b{k}", [k, k]) for k in range(4)),
        (("a", "b0", "b1", "b2", "b3"), [0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])),
    "conflicting labels across blocks": (
        rows_of("a", [0]) + rows_of("b", range(8)) + rows_of("a", [1], label="v"),
        ": sample 'a' carries conflicting class labels ['u', 'v']"),
    "header only": ("", ": no data rows"),
    "blank records only": ("\n\n\n", ": no data rows"),
}


class TestLongCsv:
    def test_round_trip_identity(self, tmp_path):
        ds = dataset_of(
            make_sample("a", [0.0, 1.5], [(1.0, None), (2.5, 3.0)], label="c1"),
            make_sample("b", [0.25], [(None, -4.125)], label="c2"),
            feature_names=("u", "v"),
        )
        path = tmp_path / "ds.csv"
        write_long_csv(ds, path)
        back = read_long_csv(path)
        assert back == ds

    def test_round_trip_quoted_text(self, tmp_path):
        # ids, labels and feature names that need the csv module's quoting
        ds = dataset_of(
            make_sample('a,"b', [0.0, 1.0], [(1.0, None), (2.0, 3.0)], label="c,1"),
            make_sample("line\r\nbreak", [0.5], [(None, 4.0)], label=' "c2"'),
            feature_names=('u,"v"', "w\n"),
        )
        path = tmp_path / "ds.csv"
        write_long_csv(ds, path)
        assert read_long_csv(path) == ds

    def test_unlabeled_round_trip(self, tmp_path):
        ds = dataset_of(make_sample("a", [0.0], [(1.0,)]), feature_names=("x",))
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
        # ids keep first-appearance order; equal times keep file order
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,x\nb,2.0,5.0\na,1.0,4.0\nb,1.0,3.0\na,1.0,2.0\n")
        ds = read_long_csv(path)
        assert ds.ids == ("b", "a")
        assert ds.offsets.tolist() == [0, 2, 4]
        assert ds.times.tolist() == [1.0, 2.0, 1.0, 1.0]
        assert ds.values[:, 0].tolist() == [3.0, 5.0, 4.0, 2.0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_cell_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "ds.csv"
        path.write_text(f"sample_id,time,x\na,1.0,4.0\na,2.0,{cell}\n")
        with pytest.raises(ValueError, match=f"ds.csv:3: non-finite value '{cell}'"):
            read_long_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400"])
    def test_nonfinite_time_rejected_with_line(self, tmp_path, cell):
        # the README's library path: read_long_csv, then build_slice_grid
        path = tmp_path / "ds.csv"
        path.write_text(f"sample_id,time,x\na,0.0,4.0\na,1.0,5.0\nb,0.5,6.0\nb,{cell},7.0\n")
        with pytest.raises(ValueError, match=f"ds.csv:5: non-finite time '{cell}'"):
            build_slice_grid(read_long_csv(path), n_slices=2)

    @pytest.mark.parametrize("rows, error", [
        ("a,1,2,x\na,1,2,3,4\n", "ds.csv:2: unparseable value 'x'"),
        ("a,1,2,3\na,1,2\na,t,2,3\n", "ds.csv:3: expected 4 columns, got 3"),
        ("a,t,nan,3\n", "ds.csv:2: unparseable time 't'"),
        ("a,1,inf,3\na,1,2,y\n", "ds.csv:2: non-finite value 'inf'"),
        ("a,1,2,3\na,1,2,y\na,t,2,3\n", "ds.csv:3: unparseable value 'y'"),
    ])
    def test_first_bad_line_reported(self, tmp_path, rows, error):
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,x,y\n" + rows)
        with pytest.raises(ValueError, match=error):
            read_long_csv(path)

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,class,x\na,1.0,u,1.0\na,2.0,v,2.0\n")
        with pytest.raises(ValueError, match="conflicting class labels"):
            read_long_csv(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_change_nothing(self, tmp_path, monkeypatch, case, chunk):
        # records are read _CHUNK_ROWS at a time; the dataset or the error must not depend on it
        text, expected = BLOCK_CASES[case]
        path = tmp_path / "ds.csv"
        path.write_text("sample_id,time,class,x,y\n" + text, newline="")
        want = read_or_error(path)
        if isinstance(expected, str):
            assert want == f"{path}{expected}"
        else:
            assert (want.ids, want.times.tolist()) == expected
        monkeypatch.setattr(tsmote.data, "_CHUNK_ROWS", chunk)
        assert read_or_error(path) == want

    def test_read_holds_one_block_of_strings(self, tmp_path):
        # 24 576 rows of 5 cells: holding every row's strings at once peaked at 14.0 MB
        # under tracemalloc, reading a block at a time at 5.6 MB
        path = tmp_path / "ds.csv"
        with open(path, "w") as fh:
            fh.write("sample_id,time,class,x,y\n")
            for r in range(24_576):
                fh.write(f"s{r // 12},{r % 12 * 0.5137},{'ab'[r // 12 % 2]},{r * 0.731 % 1},{r * 0.377 % 1}\n")
        tracemalloc.start()
        try:
            dataset = read_long_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.total_observations() == 24_576
        assert peak < 9 * 2**20, peak

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
        rows = sorted(data, key=lambda r: r[0])
        ds = dataset_of(
            make_sample("s0", [r[0] for r in rows], [r[1:] for r in rows]), feature_names=("p", "q")
        )
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_long_csv(ds, path)
        assert read_long_csv(path) == ds


# text cells lean on the characters that decide quoting; floats include NaN,
# -0.0, subnormals and values near the float64 limit
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "7", ".", "é", "日"]), max_size=6)
FLOAT = st.floats() | st.sampled_from([math.nan, -0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308])
COLUMN_KINDS = {
    "float": (FLOAT, float),
    "text": (st.none() | TEXT, object),
    "int": (st.integers(-(2**40), 2**40), np.intp),
}


@st.composite
def tables(draw):
    """(header, columns, rows) with 2 to 5 columns of one kind each and 0 to 12 rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=2, max_size=5))
    n_rows = draw(st.integers(0, 12))
    lists = [draw(st.lists(COLUMN_KINDS[k][0], min_size=n_rows, max_size=n_rows)) for k in kinds]
    columns = [np.array(values, dtype=COLUMN_KINDS[k][1]) for values, k in zip(lists, kinds)]
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, columns, list(zip(*lists))


class TestWriteCsv:
    # every file has at least two columns: the csv module writes a row made of
    # one empty field as '""' so that it is not read back as a blank line
    @settings(max_examples=300, deadline=None)
    @given(table=tables())
    def test_bytes_match_csv_module(self, tmp_path_factory, table):
        header, columns, rows = table
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(["" if isinstance(v, float) and math.isnan(v) else v for v in row] for row in rows)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with mock.patch.object(tsmote.data, "_CHUNK_ROWS", 5):  # rows cross chunk boundaries
            write_csv(path, header, columns)
        with open(path, newline="") as fh:
            assert fh.read() == expected.getvalue()


class TestImputedTensor:
    def test_invariants(self):
        with pytest.raises(ValueError, match="at least one slice"):
            ImputedTensor(("a",), np.array([]), np.zeros((1, 0, 1)))
        with pytest.raises(ValueError, match="strictly increasing"):
            ImputedTensor(("a",), np.array([1.0, 1.0]), np.zeros((1, 2, 1)))
        with pytest.raises(ValueError, match="must not contain nulls"):
            ImputedTensor(("a",), np.array([0.0, 1.0]), np.full((1, 2, 1), np.nan))
        with pytest.raises(ValueError, match="must not contain nulls or infinite values"):
            ImputedTensor(("a",), np.array([0.0, 1.0]), np.full((1, 2, 1), np.inf))
        with pytest.raises(ValueError, match="fixed_prefix_len 2 must lie between 0 and the 1 features"):
            ImputedTensor(("a",), np.array([0.0, 1.0]), np.zeros((1, 2, 1)), fixed_prefix_len=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 7, 23])
    def test_one_nonfinite_value_is_rejected(self, bad, at):
        # the check reads only the extremes, through which NaN propagates
        data = np.linspace(-5.0, 5.0, 24)
        data[at] = bad
        with pytest.raises(ValueError, match="must not contain nulls or infinite values"):
            ImputedTensor(("a", "b"), np.arange(3.0), data.reshape(2, 3, 4))

    def test_empty_tensor_accepted(self):
        assert ImputedTensor((), np.array([0.0, 1.0]), np.zeros((0, 2, 3))).shape == (0, 2, 3)

    def test_names_and_labels_match_the_data(self):
        # a short header over wider rows, or labels for other samples, would reach the writers
        data = np.zeros((2, 1, 2))
        with pytest.raises(ValueError, match="feature_names length must equal n_features"):
            ImputedTensor(("a", "b"), np.array([0.0]), data, feature_names=("x",))
        for labels in (("u",), ("u", "v", "w")):
            with pytest.raises(ValueError, match="class_labels must hold one entry per sample"):
                ImputedTensor(("a", "b"), np.array([0.0]), data, class_labels=labels)
        tensor = ImputedTensor(("a", "b"), np.array([0.0]), data, class_labels=("u", None),
                               feature_names=("x", "y"))
        assert tensor.feature_names == ("x", "y")

    def test_json_round_trip(self, tmp_path, tensor_from_json):
        t = ImputedTensor(
            sample_ids=("a", "b"),
            grid_times=np.array([0.0, 1.0, 2.5]),
            data=np.arange(12, dtype=float).reshape(2, 3, 2),
            class_labels=("u", "v"),
            feature_names=("x", "y"),
        )
        write_tensor_csv(t, tmp_path / "t.csv", tmp_path / "t.json", {"n_slices": 3})
        back = tensor_from_json((tmp_path / "t.json").read_text())
        assert back.sample_ids == t.sample_ids
        assert back.class_labels == t.class_labels
        assert back.feature_names == t.feature_names
        np.testing.assert_array_equal(back.data, t.data)
        np.testing.assert_array_equal(back.grid_times, t.grid_times)


_WRITE_CHUNKS = tsmote.data._write_chunks
PROCESS_POOL = concurrent.futures.ProcessPoolExecutor


def write_chunks_but_fail_in_worker(*args):
    """``_write_chunks`` in this process, an error in the writer's worker process.

    Module-level, so the writer can send it to its worker by name."""
    if multiprocessing.parent_process() is not None:
        raise OSError("planted failure in the worker")
    _WRITE_CHUNKS(*args)


def old_tensor_writers(tensor, csv_path, grid_meta) -> str:
    """The two writers that write_tensor_csv replaced, as the oracle of its bytes:
    write_csv on the per-slot columns, and the text of json.dumps on the whole payload."""
    n_d, n_t, n_f = tensor.shape
    per_slot = [np.repeat(np.array(t, dtype=object), n_t)
                for t in (tensor.sample_ids, tensor.class_labels or (None,) * n_d)]
    write_csv(csv_path, ["sample_id", "class", "slice_index", "grid_time", *tensor.feature_names],
              [*per_slot, np.tile(np.arange(n_t), n_d), np.tile(np.asarray(tensor.grid_times, float), n_d),
               *np.asarray(tensor.data, float).reshape(-1, n_f).T])
    payload = {
        "sample_ids": list(tensor.sample_ids),
        "class_labels": list(tensor.class_labels) if tensor.class_labels else None,
        "feature_names": list(tensor.feature_names),
        "grid_times": [float(t) for t in tensor.grid_times],
        "data": tensor.data.tolist(),
        "grid": grid_meta,
    }
    return json.dumps(payload)


# user text adds the template and JSON escapes to the CSV quoting characters;
# one id reads like the member that follows the ids in the JSON document
USER_TEXT = st.text(st.sampled_from([",", '"', "%", "s", "(", ")", "\\", "\r", "\n", " ", "a", "é", "日"]),
                    max_size=6) | st.just('"data": null')
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308])


@st.composite
def tensors(draw):
    """Tensors of 0 to 7 samples, 1 to 4 slices and 1 to 3 features, labeled or not."""
    n_d, n_t, n_f = draw(st.integers(0, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid_times = draw(st.lists(st.floats(-1e6, 1e6), min_size=n_t, max_size=n_t, unique=True))
    return ImputedTensor(
        sample_ids=tuple(draw(st.lists(USER_TEXT, min_size=n_d, max_size=n_d))),
        grid_times=np.array(sorted(grid_times)),
        data=np.array(draw(st.lists(FINITE, min_size=n_d * n_t * n_f, max_size=n_d * n_t * n_f)),
                      dtype=float).reshape(n_d, n_t, n_f),
        class_labels=draw(st.none() | st.lists(st.none() | USER_TEXT, min_size=n_d, max_size=n_d).map(tuple)),
        feature_names=tuple(draw(st.lists(USER_TEXT, min_size=n_f, max_size=n_f))),
    )


class TestWriteTensor:
    @settings(max_examples=300, deadline=None)
    @given(tensor=tensors(), grid_meta=st.dictionaries(USER_TEXT, st.integers() | FINITE | USER_TEXT, max_size=3))
    def test_bytes_match_old_writers(self, tmp_path_factory, tensor, grid_meta):
        root = tmp_path_factory.mktemp("tensor")
        # 5 rows per chunk: 1 to 5 samples each, so samples cross chunk seams
        with mock.patch.object(tsmote.data, "_CHUNK_ROWS", 5), mock.patch.object(tsmote.data, "_WRITE_ROWS", 5):
            expected_json = old_tensor_writers(tensor, root / "old.csv", grid_meta)
            write_tensor_csv(tensor, root / "new.csv", root / "new.json", grid_meta)
        assert (root / "new.json").read_bytes() == expected_json.encode()
        assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()

    def test_split_write_matches_old_writers(self, tmp_path):
        # 8 chunks of 64 samples at the real chunk size; ids and labels need quoting
        n_d, n_t, n_f = 500, 64, 2
        assert -(-n_d // (tsmote.data._WRITE_ROWS // n_t)) == 8
        tensor = ImputedTensor(
            sample_ids=tuple(f'id,{i}"' for i in range(n_d)),
            grid_times=np.linspace(0.0, 6.0, n_t),
            data=np.sin(np.arange(n_d * n_t * n_f)).reshape(n_d, n_t, n_f) * 1e3,
            class_labels=tuple(("a,1", 'b"2')[i % 2] for i in range(n_d)),
            feature_names=("x", "y"),
        )
        out = tmp_path / "out"
        out.mkdir()
        write_tensor_csv(tensor, out / "imputed.csv", out / "imputed.json", {"n_slices": n_t})
        expected_json = old_tensor_writers(tensor, tmp_path / "old.csv", {"n_slices": n_t})
        assert (out / "imputed.json").read_bytes() == expected_json.encode()
        assert (out / "imputed.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        # the worker's temporary files are gone, and so is the worker
        assert sorted(p.name for p in out.iterdir()) == ["imputed.csv", "imputed.json"]
        assert multiprocessing.active_children() == []

    def test_worker_is_sent_no_array(self, tmp_path, monkeypatch, tensor_from_json):
        submitted = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                # run_beside sends a partial: its own arguments are sent too
                parts = (fn.func, *fn.args, *fn.keywords.values()) if isinstance(fn, functools.partial) else (fn,)
                submitted.append((*parts, *args, *kwargs.values()))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(tsmote.data, "_WRITE_ROWS", 2)  # one sample per chunk: 3 chunks
        tensor = ImputedTensor(("a", "b", "c"), np.array([0.0, 1.0]), np.arange(6.0).reshape(3, 2, 1))
        write_tensor_csv(tensor, tmp_path / "imputed.csv", tmp_path / "imputed.json", {})
        (call,) = submitted
        sent = [x for arg in call for x in (arg if isinstance(arg, (list, tuple)) else [arg])]
        assert not any(isinstance(x, np.ndarray) for x in sent), call
        assert tensor_from_json((tmp_path / "imputed.json").read_text()).data.tolist() == tensor.data.tolist()

    def test_split_write_under_spawn(self, tmp_path, monkeypatch):
        # a spawned worker shares no memory with this process: everything it formats is sent or saved
        started = []

        def spawning(*args, **kwargs):
            started.append(multiprocessing.get_context("spawn"))
            return PROCESS_POOL(*args, mp_context=started[-1], **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)
        monkeypatch.setattr(tsmote.data, "_WRITE_ROWS", 12)  # 3 samples of 4 slices per chunk: 4 chunks
        n_d, n_t, n_f = 10, 4, 3
        tensor = ImputedTensor(
            sample_ids=tuple(f'id,{i}"' for i in range(n_d)),
            grid_times=np.linspace(0.0, 6.0, n_t),
            data=np.tan(np.arange(n_d * n_t * n_f)).reshape(n_d, n_t, n_f),
            class_labels=tuple(("a,1", None)[i % 2] for i in range(n_d)),
            feature_names=("x", "y", "%s"),
        )
        write_tensor_csv(tensor, tmp_path / "imputed.csv", tmp_path / "imputed.json", {"n_slices": n_t})
        expected_json = old_tensor_writers(tensor, tmp_path / "old.csv", {"n_slices": n_t})
        assert len(started) == 1
        assert (tmp_path / "imputed.json").read_bytes() == expected_json.encode()
        assert (tmp_path / "imputed.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imputed.csv", "imputed.json", "old.csv"]

    def test_worker_failure_raises_and_cleans_up(self, tmp_path, monkeypatch):
        tensor = ImputedTensor(("a", "b", "c"), np.array([0.0, 1.0]), np.zeros((3, 2, 1)))
        monkeypatch.setattr(tsmote.data, "_WRITE_ROWS", 2)  # one sample per chunk: 3 chunks
        monkeypatch.setattr(tsmote.data, "_write_chunks", write_chunks_but_fail_in_worker)
        with pytest.raises(OSError, match="planted failure in the worker"):
            write_tensor_csv(tensor, tmp_path / "imputed.csv", tmp_path / "imputed.json", {})
        # neither a partial output nor the temporary directory is left behind
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_failed_rewrite_keeps_earlier_outputs(self, tmp_path, monkeypatch, tensor_from_json):
        tensor = ImputedTensor(("a", "b", "c"), np.array([0.0, 1.0]), np.zeros((3, 2, 1)))
        csv_path, json_path = tmp_path / "imputed.csv", tmp_path / "imputed.json"
        write_tensor_csv(tensor, csv_path, json_path, {})
        before = csv_path.read_bytes(), json_path.read_bytes()
        monkeypatch.setattr(tsmote.data, "_WRITE_ROWS", 2)
        monkeypatch.setattr(tsmote.data, "_write_chunks", write_chunks_but_fail_in_worker)
        changed = ImputedTensor(("a", "b", "c"), np.array([0.0, 1.0]), np.ones((3, 2, 1)))
        with pytest.raises(OSError, match="planted failure in the worker"):
            write_tensor_csv(changed, csv_path, json_path, {"n_slices": 2})
        assert (csv_path.read_bytes(), json_path.read_bytes()) == before
        assert tensor_from_json(before[1].decode()).data.shape == (3, 2, 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imputed.csv", "imputed.json"]
        assert multiprocessing.active_children() == []
