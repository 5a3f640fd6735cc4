"""Imputation: reshape ragged samples onto the slice grid and fill the gaps.

Every method runs the same steps on each sample's ``(m, F)`` value matrix:
pin the time-independent prefix features, replace null components, reshape
observations into their slices (averaging degenerate slots componentwise so
each slot holds one value), then fill empty slots. The method only decides
where a slice's vector comes from: the tsmote method draws it from the
per-class synthetic pool; the slice_mean / slice_median baselines take the
per-class per-slice per-feature statistic of the observed values.

Real observations are never overwritten: a slot that had original data keeps
it exactly (or its degenerate average). Time-independent prefix features are
copied from the sample itself into every filled slot; a prefix feature that
is null in every observation takes its value from the first replacement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import ImputedTensor, TimeSeriesDataset
from .slicing import SliceAssignment, SliceGrid, assign_slices, group_cells
from .synthesis import SynthesisConfig, generate_pool

TSMOTE = "tsmote"
SLICE_MEAN = "slice_mean"
SLICE_MEDIAN = "slice_median"
METHODS = (TSMOTE, SLICE_MEAN, SLICE_MEDIAN)

Draw = Callable[[int], np.ndarray]  # slice index -> one feature vector for that slice


@dataclass(frozen=True)
class ImputationConfig:
    method: str = TSMOTE
    replacement_policy: Optional[str] = None  # None -> follow the synthesis config
    allow_null_feature_imputation: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.replacement_policy not in (None, "with", "without"):
            raise ValueError("replacement_policy must be 'with', 'without' or None")


def replace_nulls(mat: np.ndarray, slice_indices, draw: Draw) -> np.ndarray:
    """Replace each null component from one vector drawn for its row's slice.

    One vector is drawn per null-bearing row, in row order; non-null
    components are untouched. Returns a copy. The caller is responsible for
    asserting feature independence (see
    ``ImputationConfig.allow_null_feature_imputation``).
    """
    out = mat.copy()
    nulls = np.isnan(mat)
    for r in np.flatnonzero(nulls.any(axis=1)):
        out[r, nulls[r]] = draw(slice_indices[r])[nulls[r]]
    return out


def reshape_to_grid(mat: np.ndarray, slice_indices, n_slices: int) -> np.ndarray:
    """(n_slices, n_features) row; empty slots are NaN, degenerate slots averaged.

    Expects nulls to have been replaced already (or absent).
    """
    if np.isnan(mat).any():
        raise ValueError("value matrix still contains nulls; replace them before reshaping")
    row = np.full((n_slices, mat.shape[1]), np.nan)
    counts = np.zeros(n_slices, dtype=int)
    for obs_vals, si in zip(mat, slice_indices):
        if counts[si] == 0:
            row[si] = obs_vals
        else:
            row[si] = (row[si] * counts[si] + obs_vals) / (counts[si] + 1)
        counts[si] += 1
    return row


def fill_missing_slices(row: np.ndarray, draw: Draw, fixed_values: np.ndarray) -> np.ndarray:
    """Fill NaN slots of a reshaped row with draws, in slice order; returns a copy.

    The leading ``len(fixed_values)`` entries of every filled slot are
    overwritten with the sample's own fixed values. Without-replacement pool
    draws permanently consume pool vectors.
    """
    out = row.copy()
    empty = np.flatnonzero(np.isnan(row).any(axis=1))
    for si in empty:
        out[si] = draw(si)
    out[np.ix_(empty, np.arange(len(fixed_values)))] = fixed_values
    return out


def _pin_fixed_prefix(mat: np.ndarray, n_fix: int) -> np.ndarray:
    """Write each fixed-prefix column's first non-null value into all its rows.

    Works in place and returns the pinned values; a column that is null in
    every row stays null and its value is NaN.
    """
    head = mat[:, :n_fix]
    fixed = head[np.isnan(head).argmin(axis=0), np.arange(n_fix)]
    known = ~np.isnan(fixed)
    head[:, known] = fixed[known]
    return fixed


def _slice_statistics(
    dataset: TimeSeriesDataset,
    n_slices: int,
    assignment: SliceAssignment,
    method: str,
) -> dict[tuple[Optional[str], int], np.ndarray]:
    """Per-(class, slice) featurewise mean or median of observed values."""
    reduce = np.nanmean if method == SLICE_MEAN else np.nanmedian
    cells = group_cells(dataset, assignment)
    stats: dict[tuple[Optional[str], int], np.ndarray] = {}
    for lab in dataset.class_labels() or [None]:
        for si in range(n_slices):
            cell = cells.get((lab, si))
            if cell is None:
                raise ValueError(
                    f"class={lab!r} has no observations in slice {si}; cannot compute baseline statistic"
                )
            if np.isnan(cell).all(axis=0).any():
                raise ValueError(
                    f"class={lab!r} slice={si} has a feature with no observed values"
                )
            stats[(lab, si)] = reduce(cell, axis=0)
    return stats


def impute_dataset(
    dataset: TimeSeriesDataset,
    grid: SliceGrid,
    assignment: Optional[SliceAssignment] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
    imputation_config: Optional[ImputationConfig] = None,
) -> ImputedTensor:
    """Produce one complete trajectory per sample on the slice grid.

    The returned tensor's grid times are in original units
    (``grid.t_min + elapsed grid time``).
    """
    imp = imputation_config or ImputationConfig()
    syn = synthesis_config or SynthesisConfig()
    if imp.replacement_policy is not None and imp.replacement_policy != syn.replacement_policy:
        syn = dataclasses.replace(syn, replacement_policy=imp.replacement_policy)
    if assignment is None:
        assignment = assign_slices(dataset, grid)

    rng = np.random.default_rng(imp.seed)
    n_t, n_f = grid.n_slices, dataset.n_features

    has_nulls = any(o.has_nulls() for s in dataset.samples for o in s.observations)
    if imp.method == TSMOTE and has_nulls and not imp.allow_null_feature_imputation:
        raise ValueError(
            "dataset contains null feature entries; imputing them samples each feature "
            "from its marginal distribution, which destroys cross-feature correlations. "
            "Set allow_null_feature_imputation=True only if the features are independent."
        )

    # the method decides only where a slice's vector comes from
    if imp.method == TSMOTE:
        pool = generate_pool(dataset, grid, assignment, syn)
        source = partial(pool.draw, rng=rng)
    else:
        stats = _slice_statistics(dataset, n_t, assignment, imp.method)

        def source(lab, si):
            return stats[(lab, si)]

    rows = np.empty((dataset.n_samples, n_t, n_f), dtype=float)
    for pos, (sample, idx) in enumerate(zip(dataset.samples, assignment.indices)):
        draw = partial(source, sample.class_label)
        n_fix = min(sample.fixed_prefix_len, n_f)
        mat = sample.value_matrix()
        _pin_fixed_prefix(mat, n_fix)
        mat = replace_nulls(mat, idx, draw)
        fixed = _pin_fixed_prefix(mat, n_fix)
        rows[pos] = fill_missing_slices(reshape_to_grid(mat, idx, n_t), draw, fixed)

    labels = tuple(s.class_label for s in dataset.samples) if dataset.has_labels else None
    return ImputedTensor(
        sample_ids=tuple(s.id for s in dataset.samples),
        grid_times=grid.t_min + np.asarray(grid.grid_times, dtype=float),
        data=rows,
        class_labels=labels,
        feature_names=dataset.feature_names,
    )
