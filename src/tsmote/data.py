"""Core data model: ragged multivariate time series with optional nulls.

A dataset is a collection of samples; each sample is an ordered run of
(time, feature-vector) observations. A null feature entry is NaN, the only
null encoding. Times are abstract reals; unit interpretation is the
caller's concern.

Samples are stored column-wise, after the offsets-plus-values buffers of the
Arrow columnar format: one ``times (N,)`` array and one ``values (N, F)``
array hold every observation, and ``offsets (n_samples + 1,)`` marks where
each sample's rows start. Containers are immutable after construction (their
arrays are read-only). Long-format CSV is the canonical on-disk
representation: ``sample_id, time[, class], <feature columns...>``. Every CSV
file the package writes has the cells of :func:`write_csv`: floats as their
shortest round-trip ``repr``, nulls as empty cells, text quoted as the csv
module quotes it. :func:`write_tensor_csv` writes the imputed tensor's CSV and
JSON files together.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from pathlib import Path
from typing import Optional

import numpy as np


def _frozen(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _check_fixed_prefix(n_fix: int, n_features: int) -> None:
    if not 0 <= n_fix <= n_features:
        raise ValueError(f"fixed_prefix_len {n_fix} must lie between 0 and the {n_features} features")


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Ragged samples sharing one feature schema, stored as flat arrays.

    Sample ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of ``times (N,)``
    and ``values (N, n_features)``, and has at least one row. The ``ids`` are
    unique, every time is finite, each sample's times never go down (equal
    times are averaged later), and no value is infinite (NaN marks a null).
    ``labels`` holds one class label per sample, on every sample or on none
    (all None). Construction raises ``ValueError``, naming the sample, where
    one of these fails. The leading ``fixed_prefix_len`` features are
    time-independent (e.g. age), expected identical across a sample's
    non-null observations (:func:`validate_dataset` reports where not).
    """

    ids: tuple[str, ...]
    offsets: np.ndarray
    times: np.ndarray
    values: np.ndarray
    labels: tuple[Optional[str], ...] = ()
    feature_names: tuple[str, ...] = ()
    fixed_prefix_len: int = 0

    def __post_init__(self):
        ids = tuple(self.ids)
        offsets = _frozen(self.offsets, np.intp)
        times = _frozen(self.times, float)
        values = _frozen(self.values, float)
        if not ids:
            raise ValueError("dataset must contain at least one sample")
        if offsets.shape != (len(ids) + 1,) or offsets[0] != 0:
            raise ValueError("offsets must start at 0 and hold one entry per sample plus one")
        empty = np.flatnonzero(np.diff(offsets) < 1)
        if empty.size:
            raise ValueError(f"sample {ids[empty[0]]!r} has no observations")
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("values must be an (N, n_features) array with n_features positive")
        if times.shape != (offsets[-1],) or len(values) != offsets[-1]:
            raise ValueError(
                f"times {times.shape} and values {values.shape} must have the "
                f"{offsets[-1]} rows the offsets cover"
            )
        n_f = values.shape[1]
        labels = tuple(self.labels) or (None,) * len(ids)
        if len(labels) != len(ids):
            raise ValueError("labels must hold one entry per sample")
        names = tuple(self.feature_names) or tuple(f"f_{k}" for k in range(n_f))
        if len(names) != n_f:
            raise ValueError("feature_names length must equal n_features")
        _check_fixed_prefix(self.fixed_prefix_len, n_f)
        for name, value in (("ids", ids), ("offsets", offsets), ("times", times),
                            ("values", values), ("labels", labels), ("feature_names", names)):
            object.__setattr__(self, name, value)

        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise ValueError(f"sample id {sid!r} repeats")
            seen.add(sid)
        owner = self.row_sample
        # a comparison, not np.diff: the step between two huge times can overflow
        goes_down = np.concatenate(([False], (times[1:] < times[:-1]) & (owner[1:] == owner[:-1])))
        for rows, problem in ((~np.isfinite(times), "has a non-finite time"),
                              (goes_down, "has times that go down"),
                              (np.isinf(values).any(axis=1), "has an infinite value")):
            if rows.any():
                raise ValueError(f"sample {ids[owner[rows.argmax()]]!r} {problem}")
        labeled = [lab is not None for lab in labels]
        if any(labeled) and not all(labeled):
            raise ValueError(f"sample {ids[labeled.index(False)]!r} has no class label, but other samples do")

    @classmethod
    def from_segments(cls, ids, times, values, **fields) -> "TimeSeriesDataset":
        """Build from per-sample ``times[i]`` (m_i,) and ``values[i]`` (m_i, F); None is a null."""
        return cls(
            ids=tuple(ids),
            offsets=np.concatenate(([0], np.cumsum([len(t) for t in times], dtype=np.intp))),
            times=np.concatenate([np.asarray(t, dtype=float) for t in times]),
            values=np.concatenate([np.array(v, dtype=float) for v in values]),
            **fields,
        )

    def __eq__(self, other):
        if not isinstance(other, TimeSeriesDataset):
            return NotImplemented
        return (
            (self.ids, self.labels, self.feature_names, self.fixed_prefix_len)
            == (other.ids, other.labels, other.feature_names, other.fixed_prefix_len)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.times, other.times, equal_nan=True)
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    @property
    def n_samples(self) -> int:
        return len(self.ids)

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """Observations per sample."""
        return np.diff(self.offsets)

    @cached_property
    def row_sample(self) -> np.ndarray:
        """(N,) position of the sample that owns each row."""
        return np.repeat(np.arange(self.n_samples), self.counts)

    @cached_property
    def fixed_values(self) -> np.ndarray:
        """(n_samples, fixed_prefix_len) value of each fixed-prefix feature: the sample's
        first non-null entry, NaN where the sample never records the feature."""
        n, n_fix = len(self.values), self.fixed_prefix_len
        head = self.values[:, :n_fix]
        # row n of the padded head is all NaN: the "first non-null row" of an all-null column
        padded = np.vstack((head, np.full((1, n_fix), np.nan)))
        first = np.minimum.reduceat(np.where(np.isnan(head), n, np.arange(n)[:, None]), self.offsets[:-1])
        return padded[first, np.arange(n_fix)]

    @property
    def has_labels(self) -> bool:
        return self.labels[0] is not None

    @cached_property
    def classes(self) -> tuple[Optional[str], ...]:
        """The distinct labels in sorted order; ``(None,)`` when unlabeled, which is one class."""
        return tuple(sorted(set(self.labels))) if self.has_labels else (None,)

    @cached_property
    def class_codes(self) -> np.ndarray:
        """(n_samples,) position of each sample's label in :attr:`classes`."""
        code = {lab: i for i, lab in enumerate(self.classes)}
        return _frozen([code[lab] for lab in self.labels], np.intp)

    def total_observations(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ImputedTensor:
    """Dense (n_samples, n_slices, n_features) trajectory tensor, no nulls, at least one slice;
    its leading ``fixed_prefix_len`` features are time-independent, as in the dataset."""

    sample_ids: tuple[str, ...]
    grid_times: np.ndarray
    data: np.ndarray
    class_labels: Optional[tuple[Optional[str], ...]] = None
    feature_names: tuple[str, ...] = ()
    fixed_prefix_len: int = 0

    def __post_init__(self):
        n_d, n_t, n_f = self.data.shape
        if n_t < 1:
            raise ValueError("tensor must have at least one slice")
        if len(self.sample_ids) != n_d:
            raise ValueError("sample_ids must match data rows")
        if len(self.grid_times) != n_t:
            raise ValueError("grid_times must match data slices")
        if self.class_labels is not None and len(self.class_labels) != n_d:
            raise ValueError("class_labels must hold one entry per sample")
        if self.feature_names and len(self.feature_names) != n_f:
            raise ValueError("feature_names length must equal n_features")
        if np.any(np.diff(self.grid_times) <= 0):
            raise ValueError("grid_times must be strictly increasing")
        # NaN propagates through both, so no tensor-sized mask is needed
        if not (np.isfinite(self.data.min(initial=0.0)) and np.isfinite(self.data.max(initial=0.0))):
            raise ValueError("imputed tensor must not contain nulls or infinite values")
        _check_fixed_prefix(self.fixed_prefix_len, n_f)
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"f_{k}" for k in range(n_f))
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class Violation:
    kind: str
    sample_id: Optional[str]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "sample_id": v.sample_id, "message": v.message}
                for v in self.violations
            ],
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _distinct(owners: np.ndarray) -> np.ndarray:
    """The distinct entries of the sorted, non-negative ``owners`` (np.unique imports numpy.ma)."""
    return owners[np.diff(owners, prepend=-1) != 0]


def validate_dataset(dataset: TimeSeriesDataset, n_slices: Optional[int] = None) -> ValidationReport:
    """Report, without raising, what a valid dataset can still get wrong.

    Violations: fully-null observations, fixed-prefix inconsistency (one per
    sample and feature), and feature magnitudes whose sums would overflow.
    Warnings: duplicate timestamps (averaged later) and, when a slice count
    is given, fewer than two observations per slice per class.
    """
    violations: list[Violation] = []
    warnings: list[str] = []
    ids, times, values = dataset.ids, dataset.times, dataset.values
    row_sample = dataset.row_sample

    repeat = (times[1:] == times[:-1]) & (row_sample[1:] == row_sample[:-1])
    for i in _distinct(row_sample[1:][repeat]):
        warnings.append(f"sample {ids[i]!r} has duplicate timestamps (degenerate observations)")

    nulls = np.isnan(values)
    for r in np.flatnonzero(nulls.all(axis=1)):
        violations.append(Violation("all-null-observation", ids[row_sample[r]],
                                    f"observation at t={float(times[r])} is entirely null"))

    # each fixed feature's non-null entries must equal the sample's first one
    n_fix = dataset.fixed_prefix_len
    varies = (values[:, :n_fix] != dataset.fixed_values[row_sample]) & ~nulls[:, :n_fix]
    for k in range(n_fix):
        for i in _distinct(row_sample[varies[:, k]]):
            violations.append(Violation("inconsistent-fixed-feature", ids[i],
                                        f"fixed feature {k} varies across observations"))

    # with max|v| * count finite, no sum, mean or difference of the feature's
    # values downstream overflows. count is the most of its non-null values, the
    # longest sample's rows (a slot averages at most those once nulls are
    # replaced) and 2 (nanmedian adds a lone value to itself); a feature has a
    # value in every cell, so count >= n_slices >= window, which bounds --smooth
    # too, as each smoothing row's abs-sum is at most sqrt(window)
    magnitude = np.where(nulls, 0.0, np.abs(values))
    count = np.maximum((~nulls).sum(axis=0), max(dataset.counts.max(), 2))
    with np.errstate(over="ignore"):
        bound = magnitude.max(axis=0) * count
    for k in np.flatnonzero(~np.isfinite(bound)):
        r = int(magnitude[:, k].argmax())
        violations.append(Violation(
            "value-out-of-range",
            ids[row_sample[r]],
            f"feature {dataset.feature_names[k]!r} reaches |value| {float(magnitude[r, k])!r}; "
            f"{int(count[k])} values that large overflow float64 sums and means",
        ))

    if n_slices is not None and n_slices > 0:
        total = dataset.total_observations()
        needed = 2 * n_slices * len(dataset.classes)
        if total < needed:
            warnings.append(
                f"insufficient observations for {n_slices} slices: "
                f"{total} < {needed} (2 per slice per class)"
            )

    return ValidationReport(tuple(violations), tuple(warnings))


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

_QUOTED = re.compile('[,"\r\n]')
_CHUNK_ROWS = 8192  # rows read or formatted at a time: bounds the strings held in memory
_WRITE_ROWS = 4096  # write_tensor_csv's chunk: one of 8192 rows holds about 4 MB of strings at 3 features
_TENSOR_COLUMNS = ("sample_id", "class", "slice_index", "grid_time")  # imputed.csv's leading columns


def _cells(column: np.ndarray) -> list[str]:
    """One column's cells. A float is its ``repr`` (the shortest string that reads back
    to it), NaN an empty cell. Anything else is text as the csv module writes it (excel
    dialect, minimal quoting): None is empty; a comma, quote, CR or LF quotes the cell."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return [repr(v) if v == v else "" for v in values]  # NaN alone is unequal to itself
    text = {}
    for v in set(values):  # repeated ids and labels are formatted once
        s = "" if v is None else str(v)
        text[v] = '"%s"' % s.replace('"', '""') if _QUOTED.search(s) else s
    return list(map(text.__getitem__, values))


def _csv_line(texts) -> str:
    return ",".join(_cells(np.array(texts, dtype=object))) + "\r\n"


def write_csv(path, header, columns) -> None:
    """Write a ``header`` row, then one row per entry of the equal-length 1-D ``columns``,
    each cell formatted by :func:`_cells`; lines end in CRLF."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            cells = [_cells(c[lo : lo + _CHUNK_ROWS]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_long_csv(path, fixed_prefix_len: int = 0) -> TimeSeriesDataset:
    """Parse long-format CSV: ``sample_id, time[, class], features...``.

    The header row is required. A column name may not repeat, and no feature
    may take the name of a leading column of :func:`write_tensor_csv`
    (``sample_id``, ``class``, ``slice_index``, ``grid_time``), so the imputed
    CSV reads back by name. An empty feature cell is a null; a time or
    feature cell that is not a finite number (``nan``, ``inf``, ``1e400``) is
    rejected with its line.
    Rows are grouped by sample id (first-appearance order) and stable-sorted
    by time within each sample; ``fixed_prefix_len`` goes to the dataset.
    Records are parsed ``_CHUNK_ROWS`` at a time, so at most one block of
    them is held as strings.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, missing header") from None
        if len(header) < 3 or header[0] != "sample_id" or header[1] != "time":
            raise ValueError(
                f"{path}: missing header; expected 'sample_id,time[,class],<features>'"
            )
        has_class = header[2] == "class"
        feature_names = tuple(header[3:] if has_class else header[2:])
        if not feature_names:
            raise ValueError(f"{path}: no feature columns found")
        for k, name in enumerate(header):
            if name in header[:k]:
                raise ValueError(f"{path}: column {name!r} appears twice in the header")
        for name in feature_names:
            if name in _TENSOR_COLUMNS:
                raise ValueError(f"{path}: feature column {name!r} has the name of an imputed.csv column")
        first = 2 + has_class
        expected = first + len(feature_names)

        codes: dict[str, int] = {}  # each sample id's position, in first-appearance order
        pairs, blocks = set(), []  # the (code, class cell) of every row; each block's arrays
        numbered = enumerate(reader, start=2)
        for block in iter(lambda: list(islice(numbered, _CHUNK_ROWS)), []):
            rows, lines, width_error = [], [], None
            for lineno, row in block:
                if not row:
                    continue
                if len(row) != expected:
                    width_error = f"{path}:{lineno}: expected {expected} columns, got {len(row)}"
                    break
                rows.append(row)
                lines.append(lineno)

            # parse whole columns; a rejected cell is then found row by row, so the
            # error names the first bad line as a row-by-row parser would
            columns = list(zip(*rows)) or [()] * expected
            try:
                times = np.fromiter(map(float, columns[1]), float, len(rows))
                values = np.column_stack([
                    np.fromiter(map(float, [c or "nan" for c in columns[k]]), float, len(rows))
                    for k in range(first, expected)
                ])
                clean = np.isfinite(times).all() and all(
                    not rows[r][first + k] for r, k in np.argwhere(~np.isfinite(values)))
            except ValueError:
                clean = False
            if not clean:
                for row, lineno in zip(rows, lines):
                    try:
                        t = float(row[1])
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: unparseable time {row[1]!r}") from None
                    if not math.isfinite(t):
                        raise ValueError(f"{path}:{lineno}: non-finite time {row[1]!r}")
                    for cell in row[first:]:
                        try:
                            v = float(cell or 0)
                        except ValueError:
                            raise ValueError(f"{path}:{lineno}: unparseable value {cell!r}") from None
                        if not math.isfinite(v):
                            raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
            if width_error:
                raise ValueError(width_error)
            row_code = np.fromiter((codes.setdefault(s, len(codes)) for s in columns[0]), np.intp, len(rows))
            if has_class:
                pairs.update(zip(row_code.tolist(), columns[2]))
            blocks.append((times, values, row_code))
            del block, rows, lines, columns  # freed before the next block is read
    if not codes:
        raise ValueError(f"{path}: no data rows")

    labels: list[set[str]] = [set() for _ in codes]
    for code, lab in pairs:
        if lab:
            labels[code].add(lab)
    for sid, found in zip(codes, labels):
        if len(found) > 1:
            raise ValueError(f"{path}: sample {sid!r} carries conflicting class labels {sorted(found)}")

    times, values, row_code = (np.concatenate(parts) for parts in zip(*blocks))
    order = np.lexsort((times, row_code))
    return TimeSeriesDataset(
        ids=tuple(codes),
        offsets=np.concatenate(([0], np.cumsum(np.bincount(row_code)))),
        times=times[order],
        values=values[order],
        labels=tuple(found.pop() if found else None for found in labels),
        feature_names=feature_names,
        fixed_prefix_len=fixed_prefix_len,
    )


def write_long_csv(dataset: TimeSeriesDataset, path) -> None:
    """Write the dataset in the long format accepted by :func:`read_long_csv`."""
    owner = dataset.row_sample
    labels = [np.array(dataset.labels, dtype=object)[owner]] if dataset.has_labels else []
    header = ["sample_id", "time"] + ["class"] * len(labels) + list(dataset.feature_names)
    write_csv(path, header, [np.array(dataset.ids, dtype=object)[owner], dataset.times, *labels,
                             *dataset.values.T])


def _write_chunks(csv_path, json_path, data, prefixes, slots, entry, step, seam) -> None:
    """Append the samples of ``data`` to both files, ``step`` samples at a time.

    A sample's CSV rows are its ``prefixes`` entry, then one ``slots`` row per slice;
    its JSON entry is the ``entry`` template. ``seam`` goes before the first JSON
    entry: ``", "`` when an earlier entry precedes it in the document.
    """
    with open(csv_path, "a", newline="") as csv_fh, open(json_path, "a") as json_fh:
        for lo in range(0, len(prefixes), step):
            chunk = prefixes[lo : lo + step]
            values = tuple(map(repr, data[lo : lo + step].ravel().tolist()))
            csv_fh.write("".join(p + p.join(slots) for p in chunk) % values)
            json_fh.write(seam + ", ".join([entry] * len(chunk)) % values)
            seam = ", "


def _write_saved_chunks(npy_path, csv_path, json_path, *args) -> None:
    """``_write_chunks`` on the array saved at ``npy_path``, read through a memory map."""
    _write_chunks(csv_path, json_path, np.load(npy_path, mmap_mode="r"), *args)


def run_beside(there, here) -> tuple:
    """``(there(), here())``, with ``there`` run in one worker process while ``here`` runs in this one.

    The worker starts by the platform's default method, so ``there`` must pickle:
    a module-level function, or a ``functools.partial`` of one. It is joined before
    this returns, on success or failure, and its exception is raised here.
    """
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(1) as pool:
        future = pool.submit(there)
        mine = here()
        return future.result(), mine


def write_tensor_csv(tensor: ImputedTensor, csv_path, json_path, grid_meta: dict) -> None:
    """Write the tensor as wide per-slice CSV and as compact JSON, in one pass.

    ``csv_path`` gets ``sample_id, class, slice_index, grid_time, features...``, one
    row per (sample, slice), as :func:`write_csv` writes it. ``json_path`` gets
    ``sample_ids``, ``class_labels``, ``feature_names``, ``grid_times``, ``data`` (the
    nested ``(sample, slice, feature)`` lists) and ``grid_meta`` under ``grid``, as
    :func:`json.dumps` writes it. The values are formatted once, a chunk of samples (about
    ``_WRITE_ROWS`` rows) at a time, into per-sample ``%`` templates of both files.

    Both files are written in a temporary directory beside ``csv_path`` and renamed
    into place once complete, so a failure part-way leaves whatever was there before;
    ``json_path`` must be on the same filesystem. With two chunks or more, a worker
    process (:func:`run_beside`) formats the second half of the chunks meanwhile,
    reading its values from a ``.npy`` file in the temporary directory; its files are
    appended in order, so the bytes do not depend on the split.
    """
    n_d, n_t, n_f = tensor.shape
    data = np.asarray(tensor.data, float)
    labels = tensor.class_labels or (None,) * n_d
    grid_times = np.asarray(tensor.grid_times, float)
    # a sample's CSV rows: its quoted id and label cells, then one slot's row per slice
    prefixes = [f"{sid},{lab},".replace("%", "%%") for sid, lab in zip(
        _cells(np.array(tensor.sample_ids, dtype=object)), _cells(np.array(labels, dtype=object)))]
    cells = ",%s" * n_f + "\r\n"
    slots = [f"{j},{g}{cells}" for j, g in enumerate(_cells(grid_times))]
    # one sample's JSON entry: a list per slice of its feature values
    entry = "[%s]" % ", ".join(["[%s]" % ", ".join(["%s"] * n_f)] * n_t)
    members = {
        "sample_ids": list(tensor.sample_ids),
        "class_labels": list(tensor.class_labels) if tensor.class_labels else None,
        "feature_names": list(tensor.feature_names),
        "grid_times": grid_times.tolist(),
    }
    head = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in members.items())

    step = max(1, _WRITE_ROWS // n_t)
    n_chunks = -(-n_d // step)
    mid = step * ((n_chunks + 1) // 2)
    with tempfile.TemporaryDirectory(dir=Path(csv_path).parent) as tmp:
        # this process writes the "a" files; the worker writes the "b" files, appended to them
        a_csv, a_json, b_csv, b_json, b_npy = (
            Path(tmp, name) for name in ("a.csv", "a.json", "b.csv", "b.json", "b.npy"))
        with open(a_csv, "w", newline="") as csv_fh, open(a_json, "w") as json_fh:
            csv_fh.write(_csv_line([*_TENSOR_COLUMNS, *tensor.feature_names]))
            json_fh.write('{%s"data": [' % head)
        if n_chunks == 1:
            _write_chunks(a_csv, a_json, data, prefixes, slots, entry, step, "")
        else:
            # the worker reads its half from a file: no array is pickled through the executor's pipe
            np.save(b_npy, data[mid:])
            run_beside(partial(_write_saved_chunks, b_npy, b_csv, b_json, prefixes[mid:], slots, entry, step, ", "),
                       partial(_write_chunks, a_csv, a_json, data[:mid], prefixes[:mid], slots, entry, step, ""))
            for part, path in ((b_csv, a_csv), (b_json, a_json)):
                with open(part, "rb") as src, open(path, "ab") as dst:
                    shutil.copyfileobj(src, dst)
        with open(a_json, "a") as json_fh:
            json_fh.write('], "grid": %s}' % json.dumps(grid_meta))
        os.replace(a_csv, csv_path)
        os.replace(a_json, json_path)
