"""Core data model: ragged multivariate time series with optional nulls.

A dataset is a collection of samples; each sample is an ordered list of
(time, feature-vector) observations. Individual feature entries may be
null (``None``). Times are abstract reals; unit interpretation is the
caller's concern.

Containers are immutable after construction and safe to share across
workers. Long-format CSV is the canonical on-disk representation:
``sample_id, time[, class], <feature columns...>`` with empty cells for
nulls.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

Value = Optional[float]


@dataclass(frozen=True)
class Observation:
    """One (time, feature-vector) pair; entries of ``values`` may be None."""

    time: float
    values: tuple[Value, ...]

    def has_nulls(self) -> bool:
        return any(v is None for v in self.values)


@dataclass(frozen=True)
class Sample:
    """One subject's irregular time series.

    Parameters
    ----------
    id : str
        Opaque identifier, unique within a dataset.
    observations : tuple of Observation
        Expected sorted ascending by time (violations are reported by
        :func:`validate_dataset`, not rejected here).
    class_label : str, optional
        Categorical label; either all samples of a dataset carry one or none do.
    fixed_prefix_len : int
        Number of leading time-independent features (e.g. age). Their values
        are expected identical across the sample's observations when non-null.
    """

    id: str
    observations: tuple[Observation, ...]
    class_label: Optional[str] = None
    fixed_prefix_len: int = 0

    def __post_init__(self):
        if len(self.observations) < 1:
            raise ValueError(f"sample {self.id!r} has no observations")
        if self.fixed_prefix_len < 0:
            raise ValueError("fixed_prefix_len must be nonnegative")

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    def times(self) -> np.ndarray:
        return np.array([o.time for o in self.observations], dtype=float)

    def value_matrix(self) -> np.ndarray:
        """(m_i, n_F) float array with NaN standing in for null entries."""
        m = np.array(
            [[np.nan if v is None else v for v in o.values] for o in self.observations],
            dtype=float,
        )
        return m


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Immutable collection of samples sharing one feature schema."""

    samples: tuple[Sample, ...]
    n_features: int
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"f_{k}" for k in range(self.n_features))
            )
        if len(self.feature_names) != self.n_features:
            raise ValueError("feature_names length must equal n_features")

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def has_labels(self) -> bool:
        return any(s.class_label is not None for s in self.samples)

    def class_labels(self) -> list[str]:
        """Distinct labels in sorted order (empty if unlabeled)."""
        return sorted({s.class_label for s in self.samples if s.class_label is not None})

    def total_observations(self) -> int:
        return sum(s.n_observations for s in self.samples)


@dataclass(frozen=True)
class ImputedTensor:
    """Dense (n_samples, n_slices, n_features) trajectory tensor, no nulls."""

    sample_ids: tuple[str, ...]
    grid_times: np.ndarray
    data: np.ndarray
    class_labels: Optional[tuple[Optional[str], ...]] = None
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        n_d, n_t, n_f = self.data.shape
        if len(self.sample_ids) != n_d:
            raise ValueError("sample_ids must match data rows")
        if len(self.grid_times) != n_t:
            raise ValueError("grid_times must match data slices")
        if np.any(np.diff(self.grid_times) <= 0):
            raise ValueError("grid_times must be strictly increasing")
        if not np.isfinite(self.data).all():
            raise ValueError("imputed tensor must not contain nulls or infinite values")
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class DatasetStats:
    n_samples: int
    n_features: int
    observation_counts: tuple[int, ...]
    total_observations: int
    null_fraction: tuple[float, ...]
    time_range: tuple[float, float]


def validate_dataset(dataset: TimeSeriesDataset, n_slices: Optional[int] = None) -> ValidationReport:
    """Report structural problems without raising.

    Checks per sample: sorted times, finite times, vector widths matching the
    dataset schema, finite feature values, fully-null observations,
    fixed-prefix consistency, and duplicate timestamps (warning only,
    resolved later by degeneracy averaging). Dataset-wide: label-presence consistency, and — when a slice
    count is given — whether the total observation count can support it
    (at least two observations per slice per class).
    """
    violations: list[Violation] = []
    warnings: list[str] = []

    labeled = [s for s in dataset.samples if s.class_label is not None]
    if labeled and len(labeled) != dataset.n_samples:
        violations.append(
            Violation("partial-labels", None, "class labels must be present on every sample or none")
        )

    seen_ids: set[str] = set()
    for s in dataset.samples:
        if s.id in seen_ids:
            violations.append(Violation("duplicate-sample-id", s.id, f"sample id {s.id!r} repeats"))
        seen_ids.add(s.id)

        times = [o.time for o in s.observations]
        if any(not math.isfinite(t) for t in times):
            violations.append(Violation("nonfinite-time", s.id, "observation time is not finite"))
        elif any(b < a for a, b in zip(times, times[1:])):
            violations.append(Violation("unsorted-times", s.id, "observation times are not ascending"))
        elif any(b == a for a, b in zip(times, times[1:])):
            warnings.append(f"sample {s.id!r} has duplicate timestamps (degenerate observations)")

        prefix_seen: dict[int, float] = {}
        for o in s.observations:
            if len(o.values) != dataset.n_features:
                violations.append(
                    Violation(
                        "wrong-width",
                        s.id,
                        f"observation at t={o.time} has {len(o.values)} values, expected {dataset.n_features}",
                    )
                )
                continue
            if any(v is not None and not math.isfinite(v) for v in o.values):
                violations.append(
                    Violation("nonfinite-value", s.id, f"observation at t={o.time} has a non-finite value")
                )
            if all(v is None for v in o.values):
                violations.append(
                    Violation("all-null-observation", s.id, f"observation at t={o.time} is entirely null")
                )
            for k in range(min(s.fixed_prefix_len, len(o.values))):
                v = o.values[k]
                if v is None:
                    continue
                if k in prefix_seen and prefix_seen[k] != v:
                    violations.append(
                        Violation(
                            "inconsistent-fixed-feature",
                            s.id,
                            f"fixed feature {k} varies across observations",
                        )
                    )
                prefix_seen.setdefault(k, v)

    if n_slices is not None and n_slices > 0:
        n_classes = max(1, len(dataset.class_labels()))
        total = dataset.total_observations()
        needed = 2 * n_slices * n_classes
        if total < needed:
            warnings.append(
                f"insufficient observations for {n_slices} slices: "
                f"{total} < {needed} (2 per slice per class)"
            )

    return ValidationReport(tuple(violations), tuple(warnings))


def dataset_stats(dataset: TimeSeriesDataset) -> DatasetStats:
    """Exact counts: sizes, per-feature null fraction, overall time range."""
    counts = tuple(s.n_observations for s in dataset.samples)
    total = sum(counts)
    nulls = np.zeros(dataset.n_features, dtype=int)
    t_lo, t_hi = math.inf, -math.inf
    for s in dataset.samples:
        for o in s.observations:
            t_lo = min(t_lo, o.time)
            t_hi = max(t_hi, o.time)
            for k, v in enumerate(o.values[: dataset.n_features]):
                if v is None:
                    nulls[k] += 1
    return DatasetStats(
        n_samples=dataset.n_samples,
        n_features=dataset.n_features,
        observation_counts=counts,
        total_observations=total,
        null_fraction=tuple(float(n) / total for n in nulls),
        time_range=(t_lo, t_hi),
    )


# ---------------------------------------------------------------------------
# Long-format CSV
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # repr of a Python float is the shortest exact round-trip form
    return repr(float(x))


def _parse_value(cell: str, path, lineno: int) -> Value:
    if cell == "":
        return None
    try:
        v = float(cell)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable value {cell!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{path}:{lineno}: non-finite value {cell!r}")
    return v


def read_long_csv(path, class_column: str = "class") -> TimeSeriesDataset:
    """Parse long-format CSV: ``sample_id, time[, class], features...``.

    The header row is required. An empty feature cell is a null; a feature
    cell that is not a finite number (``nan``, ``inf``) is rejected with its
    line. Observations are grouped by sample id (first-appearance order) and
    sorted by time within each sample.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, missing header") from None
        if len(header) < 3 or header[0] != "sample_id" or header[1] != "time":
            raise ValueError(
                f"{path}: missing header; expected 'sample_id,time[,{class_column}],<features>'"
            )
        has_class = header[2] == class_column
        feature_names = tuple(header[3:] if has_class else header[2:])
        if not feature_names:
            raise ValueError(f"{path}: no feature columns found")
        n_f = len(feature_names)

        rows: dict[str, list[tuple[float, Optional[str], tuple[Value, ...]]]] = {}
        order: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            expected = 2 + has_class + n_f
            if len(row) != expected:
                raise ValueError(f"{path}:{lineno}: expected {expected} columns, got {len(row)}")
            sid = row[0]
            try:
                t = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable time {row[1]!r}") from None
            label = row[2] if has_class else None
            if label == "":
                label = None
            vals = tuple(_parse_value(cell, path, lineno) for cell in row[2 + has_class:])
            if sid not in rows:
                rows[sid] = []
                order.append(sid)
            rows[sid].append((t, label, vals))

    if not order:
        raise ValueError(f"{path}: no data rows")

    samples = []
    for sid in order:
        recs = sorted(rows[sid], key=lambda r: r[0])
        labels = {r[1] for r in recs if r[1] is not None}
        if len(labels) > 1:
            raise ValueError(f"{path}: sample {sid!r} carries conflicting class labels {sorted(labels)}")
        obs = tuple(Observation(t, vals) for t, _, vals in recs)
        samples.append(Sample(id=sid, observations=obs, class_label=(labels.pop() if labels else None)))
    return TimeSeriesDataset(tuple(samples), n_features=n_f, feature_names=feature_names)


def write_long_csv(dataset: TimeSeriesDataset, path, class_column: str = "class") -> None:
    """Write the dataset in the long format accepted by :func:`read_long_csv`."""
    has_class = dataset.has_labels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["sample_id", "time"] + ([class_column] if has_class else []) + list(dataset.feature_names)
        writer.writerow(header)
        for s in dataset.samples:
            for o in s.observations:
                row = [s.id, _fmt(o.time)]
                if has_class:
                    row.append(s.class_label if s.class_label is not None else "")
                row.extend("" if v is None else _fmt(v) for v in o.values)
                writer.writerow(row)


def write_tensor_csv(tensor: ImputedTensor, path) -> None:
    """Wide per-slice CSV: ``sample_id, class, slice_index, grid_time, features...``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "class", "slice_index", "grid_time"] + list(tensor.feature_names))
        labels = tensor.class_labels or (None,) * len(tensor.sample_ids)
        for i, sid in enumerate(tensor.sample_ids):
            for j, gt in enumerate(tensor.grid_times):
                row = [sid, labels[i] if labels[i] is not None else "", str(j), _fmt(gt)]
                row.extend(_fmt(v) for v in tensor.data[i, j])
                writer.writerow(row)


def tensor_to_json(tensor: ImputedTensor, grid_meta: Optional[dict] = None) -> str:
    """Compact JSON container with the grid metadata embedded."""
    payload = {
        "sample_ids": list(tensor.sample_ids),
        "class_labels": list(tensor.class_labels) if tensor.class_labels else None,
        "feature_names": list(tensor.feature_names),
        "grid_times": [float(t) for t in tensor.grid_times],
        "data": tensor.data.tolist(),
    }
    if grid_meta is not None:
        payload["grid"] = grid_meta
    return json.dumps(payload)


def tensor_from_json(text: str) -> ImputedTensor:
    payload = json.loads(text)
    return ImputedTensor(
        sample_ids=tuple(payload["sample_ids"]),
        grid_times=np.array(payload["grid_times"], dtype=float),
        data=np.array(payload["data"], dtype=float),
        class_labels=tuple(payload["class_labels"]) if payload.get("class_labels") else None,
        feature_names=tuple(payload["feature_names"]),
    )
