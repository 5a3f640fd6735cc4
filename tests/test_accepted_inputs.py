"""Every long CSV that ``tsmote impute`` reads is imputed, or rejected with its cause.

Random files lean on what the reader accepts: ids that need quoting, rows out
of order, repeated times, empty cells, magnitudes from the smallest subnormal
to the float64 limit, an optional constant ``age`` prefix, and few
observations per slice, under any neighbor count from 1 to 6 and four weight
laws. Each file runs under every method, with and without smoothing, in this
process. Their tensors stay far below one writer chunk, so no worker process
starts, except in a few examples marked ``multichunk`` that write one sample
per chunk, so that the writer's worker formats half of every tensor. A run
passes when it exits 0 with a finite ``imputed.csv`` that, unsmoothed, gives
back every value of a slot with one observation bit for bit, or when it exits
2 with a JSON error whose message is one of ``CAUSES``. Each file also reads,
three records at a time, to the same dataset or error as in one block.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsmote.data
from tsmote import cli
from tsmote.imputation import METHODS

# the errors an input may exit 2 with, each matched from its start: each names what in the input is wrong
CAUSES = [re.compile(p) for p in (
    r"dataset failed validation$",
    r"sample .* has no class label, but other samples do$",
    r"t_max \(.*\) must exceed t_min \(.*\)$",
    r"time span from .* to .* is too wide: 2 \* \(t_max - t_min\) overflows$",
    r"need at least 2 observations per slice on average: \d+ < \d+$",
    r"all observation times are equal; cannot build slices$",
    r"duplicate timestamps leave too few distinct values for \d+ slices$",
    r"the last slice's times all equal t_max; cannot build \d+ slices$",
    r"class=.* has no observations in slice \d+; reduce n_slices or provide more data$",
    r"class=.* slice=\d+ has a feature with no observed values$",
    r"feature \d+ in class=.* slice=\d+ has \d+ non-null values; need at least 2$",
    r"dataset contains null feature entries; ",
    r"series of length \d+ is shorter than window 3; ",
)]
IDS = st.lists(st.sampled_from([",", '"', "\r\n", "\n", " ", "a", "b", "é"]), max_size=4).map("".join)
TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, -1.0, 1e-300, 5e-324]) | st.floats(-10.0, 10.0)
EXTREME_TIMES = TIMES | st.sampled_from([1e300, 1.7e308, -1.7e308])
EXTREME_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 8e307, 1.7e308, -1.7e308])
LAMBDAS = st.sampled_from(["uniform", "beta:0.5,0.5", "point:0", "point:1"])


@st.composite
def long_csvs(draw):
    """(csv text, impute options): 2 to 6 samples of 1 to 5 rows, in shuffled row order,
    with a slice count, a neighbor count and a weight law.

    Nulls, extreme values and times, and a sample without a label are rare, so
    that many files are imputed."""
    def rare(odds):  # the largest value: a smallest draw, which Hypothesis favours, is not rare
        return draw(st.integers(1, odds)) == odds

    n_features = draw(st.integers(1, 3))
    has_age, has_class = draw(st.booleans()), draw(st.booleans())
    times = EXTREME_TIMES if rare(8) else TIMES
    extremes = rare(4)
    rows = []
    for sid in draw(st.lists(IDS, min_size=2, max_size=6, unique=True)):
        label = "" if rare(32) else draw(st.sampled_from(["u", 'v,"w']))
        age = draw(st.sampled_from([None, 20.0, 41.5, 1e-300]))
        for _ in range(draw(st.integers(1, 5))):
            # a null cell is rare; a row of null cells (and null age) rarer
            kept = -1 if rare(64) else draw(st.integers(0, n_features - 1))
            cells = [None if k != kept and rare(4) else draw(EXTREME_VALUES) if extremes and rare(8)
                     else draw(st.floats(-1e6, 1e6)) for k in range(n_features)]
            ages = [None if rare(4) else age] if has_age else []
            rows.append([sid, draw(times), *([label] if has_class else []), *ages, *cells])
    header = ["sample_id", "time", *(["class"] if has_class else []), *(["age"] if has_age else []),
              *(f"f{k}" for k in range(n_features))]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *(["" if c is None else repr(c) if isinstance(c, float) else c
                                          for c in row] for row in draw(st.permutations(rows)))])
    options = ["--slices", str(draw(st.integers(1, 5))), "--fixed", str(int(has_age)),
               "--k", str(draw(st.integers(1, 6))), "--lambda", draw(LAMBDAS)]
    return buf.getvalue(), options + ["--allow-null-imputation"] * draw(st.booleans())


def read_or_error(path):
    """The dataset ``read_long_csv`` reads from ``path``, or the message of its ``ValueError``."""
    try:
        return tsmote.data.read_long_csv(path)
    except ValueError as e:
        return str(e)


def run_main(argv):
    """(exit code, stderr) of one in-process run; a numpy overflow or other
    RuntimeWarning raises instead of printing."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def single_observation_values(path: Path, grid: dict):
    """{(sample, slice): cells} of every slot that holds exactly one input row."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    first = 2 + (header[2] == "class")  # the age or first feature column
    boundaries = np.asarray(grid["boundaries"])
    slots: dict = {}
    for row in rows:
        elapsed = float(row[1]) - grid["t_min"]
        si = min(max(int(np.searchsorted(boundaries, elapsed, side="right")) - 1, 0), grid["n_slices"] - 1)
        slots.setdefault((row[0], si), []).append(row[first:])
    return {slot: cells[0] for slot, cells in slots.items() if len(cells) == 1}


@settings(max_examples=60, deadline=None)
@given(table=long_csvs())
# a null replaced by the only other value, 1.7e308, in the slot that value shares
@example(table=("sample_id,time,age,f0,f1\r\n,0.0,20.0,,\r\n,0.5,,0.0,1.7e+308\r\n",
                ["--slices", "1", "--fixed", "1"]))
# a cell whose only value of f1 is 1.7e308: its nanmedian adds that value to itself
@example(table=('sample_id,time,f0,f1,f2\r\n,0.0,,,0.0\r\n",",0.5,0.0,1.7e+308,\r\n',
                ["--slices", "1", "--fixed", "0"]))
def test_accepted_csv_is_imputed_or_rejected_with_cause(table):
    check_imputed_or_rejected(table)


@pytest.mark.multichunk
@settings(max_examples=10, deadline=None)
@given(table=long_csvs())
def test_accepted_csv_across_writer_chunks(table):
    with mock.patch.object(tsmote.data, "_CHUNK_ROWS", 1), mock.patch.object(tsmote.data, "_WRITE_ROWS", 1):
        check_imputed_or_rejected(table)


def check_imputed_or_rejected(table):
    text, options = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "in.csv")
        path.write_text(text, newline="")
        want = read_or_error(path)
        with mock.patch.object(tsmote.data, "_CHUNK_ROWS", 3):
            assert read_or_error(path) == want
        for method in METHODS:
            for smooth in ([], ["--smooth", "--window", "3", "--order", "1"]):
                out = Path(tmp, f"{method}{len(smooth)}")
                argv = ["impute", str(path), "--method", method, *options, *smooth, "-o", str(out)]
                code, err = run_main(argv)
                if code == 2:
                    error = json.loads(err.splitlines()[-1])
                    assert any(cause.match(error["error"]) for cause in CAUSES), (argv, error)
                    assert "report" not in error or error["report"]["violations"], (argv, error)
                    assert not (out / "imputed.csv").exists()
                    continue
                assert code == 0, (argv, err)
                with open(out / "imputed.csv", newline="") as fh:
                    header, *rows = csv.reader(fh)
                values = np.array([[float(c) for c in row[4:]] for row in rows])
                assert np.isfinite(values).all(), argv
                if smooth:
                    continue
                grid = json.loads((out / "grid.json").read_text())
                imputed = {(row[0], int(row[2])): row[4:] for row in rows}
                for slot, cells in single_observation_values(path, grid).items():
                    for cell, got in zip(cells, imputed[slot]):
                        assert cell == "" or repr(float(cell)) == got, (argv, slot, cells, imputed[slot])
