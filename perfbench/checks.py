"""Output checks, curve RMSE and per-layer counts, computed without ``tsmote``.

Everything here reads the benchmark's own input CSV and the files the CLI
wrote (``imputed.csv``, ``imputed.json``, ``grid.json``,
``comparison.json``). Slots are located with the benchmark's own
``searchsorted`` on the ``grid.json`` boundaries, so a change to the
program's data model cannot change what is checked.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import curve

METHODS = ("tsmote", "slice_mean", "slice_median")
SURPLUS = 1.5  # the CLI's default --surplus


@dataclass(frozen=True)
class Observations:
    """The input CSV as flat arrays, rows grouped by sample in file order."""

    ids: list[str]
    labels: list[str]
    sample: np.ndarray  # (N,) sample position of each row
    times: np.ndarray  # (N,)
    values: np.ndarray  # (N, F), NaN for an empty cell
    features: list[str]


@dataclass(frozen=True)
class Tensor:
    features: list[str]
    ids: list[str]
    labels: list[str]
    grid_times: np.ndarray  # (T,)
    data: np.ndarray  # (D, T, F)


def read_input(path) -> Observations:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    ids: list[str] = []
    labels: list[str] = []
    pos: dict[str, int] = {}
    sample = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if row[0] not in pos:
            pos[row[0]] = len(ids)
            ids.append(row[0])
            labels.append(row[2])
        sample[r] = pos[row[0]]
    times = np.array([float(row[1]) for row in rows])
    values = np.array([[float(c) if c else np.nan for c in row[3:]] for row in rows])
    return Observations(ids, labels, sample, times, values, header[3:])


def read_grid(path) -> dict:
    return json.loads(Path(path).read_text())


def read_tensor_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def slot_of(obs: Observations, grid: dict) -> np.ndarray:
    """Slice index of every input row, by the documented half-open rule."""
    bounds = np.asarray(grid["boundaries"], dtype=float)
    idx = np.searchsorted(bounds, obs.times - grid["t_min"], side="right") - 1
    return np.clip(idx, 0, grid["n_slices"] - 1)


def slot_counts(obs: Observations, grid: dict) -> np.ndarray:
    """(D, T) number of input rows per output slot."""
    n_t = grid["n_slices"]
    flat = obs.sample * n_t + slot_of(obs, grid)
    return np.bincount(flat, minlength=len(obs.ids) * n_t).reshape(len(obs.ids), n_t)


def check_impute(out_dir, obs: Observations, *, smoothed: bool, fixed: int) -> tuple[list[str], Tensor | None]:
    """Every check of one ``tsmote impute`` output; returns (failures, tensor)."""
    out_dir = Path(out_dir)
    grid = read_grid(out_dir / "grid.json")
    n_d, n_t, n_f = len(obs.ids), grid["n_slices"], len(obs.features)

    header, rows = read_tensor_csv(out_dir / "imputed.csv")
    if header != ["sample_id", "class", "slice_index", "grid_time", *obs.features]:
        return [f"rows: unexpected imputed.csv header {header}"], None
    if len(rows) != n_d * n_t:
        return [f"rows: imputed.csv has {len(rows)} rows, expected {n_d} x {n_t}"], None
    expect_ids = [sid for sid in obs.ids for _ in range(n_t)]
    expect_slices = [str(j) for _ in range(n_d) for j in range(n_t)]
    if [r[0] for r in rows] != expect_ids or [r[2] for r in rows] != expect_slices:
        return ["rows: imputed.csv rows are not sample-major with slices 0..T-1"], None
    try:
        numbers = np.array([[float(c) for c in r[3:]] for r in rows])
    except ValueError as e:
        return [f"finite: unparseable number in imputed.csv ({e})"], None
    tensor = Tensor(
        features=header[4:],
        ids=obs.ids,
        labels=[r[1] for r in rows[::n_t]],
        grid_times=numbers[:n_t, 0],
        data=numbers[:, 1:].reshape(n_d, n_t, n_f),
    )

    failures = []
    if not np.isfinite(numbers).all():
        failures.append(f"finite: {int((~np.isfinite(numbers)).sum())} non-finite values in imputed.csv")
    if tensor.labels != obs.labels:
        failures.append("rows: class column differs from the input labels")
    if not np.array_equal(numbers[:, 0], np.tile(tensor.grid_times, n_d)):
        failures.append("rows: grid_time differs between samples")

    payload = json.loads((out_dir / "imputed.json").read_text())
    same = (
        payload["sample_ids"] == tensor.ids
        and payload["class_labels"] == tensor.labels
        and payload["feature_names"] == tensor.features
        and np.array_equal(np.array(payload["grid_times"], dtype=float), tensor.grid_times)
        and np.array_equal(np.array(payload["data"], dtype=float), tensor.data, equal_nan=True)
    )
    if not same:
        failures.append("json: imputed.json differs from imputed.csv")

    if not smoothed:
        # a slot holding exactly one observation keeps its non-null values
        flat = obs.sample * n_t + slot_of(obs, grid)
        single = np.bincount(flat, minlength=n_d * n_t)[flat] == 1
        got = tensor.data.reshape(-1, n_f)[flat[single]]
        want = obs.values[single]
        known = ~np.isnan(want)
        changed = got[known].view(np.uint64) != want[known].view(np.uint64)
        if changed.any():
            failures.append(f"observed: {int(changed.sum())} observed values changed in single-observation slots")

    for k in range(fixed):
        col = tensor.data[:, :, k]
        want = np.full(n_d, np.nan)
        want[obs.sample] = obs.values[:, k]  # constant per sample in the input
        if not (col == want[:, None]).all():
            failures.append(f"fixed: column {obs.features[k]!r} is not the input's constant per sample")
    return failures, tensor


def check_comparison(out_dir, reps: int) -> list[str]:
    """``compare-imputers`` lists all three methods with metrics in [0, 1]."""
    rows = json.loads((Path(out_dir) / "comparison.json").read_text())
    if sorted(r["method"] for r in rows) != sorted(METHODS):
        return [f"comparison: methods {[r['method'] for r in rows]}, expected {list(METHODS)}"]
    failures = []
    for r in rows:
        values = [r["accuracy_mean"], r["auc_mean"], *r["accuracies"], *r["aucs"]]
        if len(r["accuracies"]) != reps or len(r["aucs"]) != reps:
            failures.append(f"comparison: {r['method']} reports {len(r['accuracies'])} reps, expected {reps}")
        if not all(0.0 <= v <= 1.0 for v in values):
            failures.append(f"comparison: {r['method']} has accuracy or AUC outside [0, 1]")
    return failures


def curve_rmse(tensor: Tensor, fixed: int) -> float:
    """RMSE of every feature slot against the noise-free curve at its grid time."""
    truth = np.stack([curve(label, tensor.grid_times) for label in tensor.labels])
    err = tensor.data[:, :, fixed:] - truth
    return float(np.sqrt(np.mean(err * err)))


COUNT_NAMES = (
    "slicing.occupancy_spread",
    "imputation.slots_observed",
    "imputation.slots_averaged",
    "imputation.slots_filled",
    "imputation.null_rows",
    "synthesis.cells",
    "synthesis.cell_obs_max",
    "synthesis.cell_obs_median",
    "synthesis.pool_vectors",
    "synthesis.draws_required",
    "synthesis.pool_use_ratio",
)


def layer_counts(obs: Observations, grid: dict, *, pool: bool) -> dict[str, float]:
    """Work counts of the slicing, synthesis and imputation layers.

    The synthesis counts follow the pool-size rule of ``generate_pool``:
    each (class, slice) cell must serve one draw per class sample missing
    the slice plus one per null-bearing row in it, and generates
    ``ceil(surplus * required)`` vectors. They are zero when no pool is built.
    """
    n_t = grid["n_slices"]
    slots = slot_of(obs, grid)
    counts = slot_counts(obs, grid)
    null_row = np.isnan(obs.values).any(axis=1)
    labels = np.array(obs.labels)
    cell_obs, required = [], []
    for label in sorted(set(obs.labels)):
        in_class = labels[obs.sample] == label
        cell_obs.append(np.bincount(slots[in_class], minlength=n_t))
        missing = (counts[labels == label] == 0).sum(axis=0)
        required.append(missing + np.bincount(slots[in_class & null_row], minlength=n_t))
    cell_obs, required = np.concatenate(cell_obs), np.concatenate(required)
    vectors = sum(math.ceil(SURPLUS * int(r)) for r in required)
    return {
        "slicing.occupancy_spread": max(grid["occupancy"]) - min(grid["occupancy"]),
        "imputation.slots_observed": int((counts == 1).sum()),
        "imputation.slots_averaged": int((counts >= 2).sum()),
        "imputation.slots_filled": int((counts == 0).sum()),
        "imputation.null_rows": int(null_row.sum()),
        "synthesis.cells": int(cell_obs.size) if pool else 0,
        "synthesis.cell_obs_max": int(cell_obs.max()) if pool else 0,
        "synthesis.cell_obs_median": float(np.median(cell_obs)) if pool else 0.0,
        "synthesis.pool_vectors": vectors if pool else 0,
        "synthesis.draws_required": int(required.sum()) if pool else 0,
        "synthesis.pool_use_ratio": float(required.sum() / vectors) if pool and vectors else 0.0,
    }
