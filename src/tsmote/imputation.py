"""Imputation: put ragged samples onto the slice grid and fill the gaps.

Every method runs the same steps on the dataset's value array: pin the
time-independent prefix features, replace null components, average the
observations that share a slot componentwise, and fill the empty slots. The
draws form one request table, listed sample by sample (null-bearing rows in
row order, then empty slots in slice order) and tagged with their (class,
slice) cell. The method only decides how a cell serves its requests, with one
gather: tsmote from the per-class synthetic pool, the slice_mean /
slice_median baselines with the cell's per-feature statistic.

Real observations are never overwritten: a slot that had original data keeps
it exactly (or its degenerate average). Time-independent prefix features are
copied from the sample itself into every filled slot; a prefix feature that
is null in every observation takes its value from the first replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import ImputedTensor, TimeSeriesDataset
from .slicing import SliceGrid, assign_slices, group_cells, group_ranks
from .synthesis import SynthesisConfig, generate_pool

TSMOTE = "tsmote"
SLICE_MEAN = "slice_mean"
SLICE_MEDIAN = "slice_median"
METHODS = (TSMOTE, SLICE_MEAN, SLICE_MEDIAN)


@dataclass(frozen=True)
class ImputationConfig:
    method: str = TSMOTE
    allow_null_feature_imputation: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


def _slice_statistics(
    dataset: TimeSeriesDataset,
    n_slices: int,
    cells: np.ndarray,
    method: str,
) -> np.ndarray:
    """(n_cells, F) featurewise mean or median of each (class, slice) cell's observed values."""
    reduce = np.nanmean if method == SLICE_MEAN else np.nanmedian
    labels = dataset.class_labels() or [None]
    stats = np.empty((len(labels) * n_slices, dataset.n_features))
    for c, block in enumerate(group_cells(dataset.values, cells, len(stats))):
        lab, si = labels[c // n_slices], c % n_slices
        if len(block) == 0:
            raise ValueError(
                f"class={lab!r} has no observations in slice {si}; cannot compute baseline statistic"
            )
        if np.isnan(block).all(axis=0).any():
            raise ValueError(f"class={lab!r} slice={si} has a feature with no observed values")
        stats[c] = reduce(block, axis=0)
    return stats


def impute_dataset(
    dataset: TimeSeriesDataset,
    grid: SliceGrid,
    assignment: Optional[np.ndarray] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
    imputation_config: Optional[ImputationConfig] = None,
) -> ImputedTensor:
    """Produce one complete trajectory per sample on the slice grid.

    ``assignment`` is the (N,) slice index of every row, as ``assign_slices``
    returns it; it is computed when omitted. ``synthesis_config.seed`` seeds
    both the pool and, under ``replacement_policy="with"``, the draws from it.
    The returned tensor's grid times are in original units
    (``grid.t_min + elapsed grid time``).
    """
    imp = imputation_config or ImputationConfig()
    syn = synthesis_config or SynthesisConfig()
    if assignment is None:
        assignment = assign_slices(dataset, grid)

    n_d, n_t, n_f = dataset.n_samples, grid.n_slices, dataset.n_features
    n_fix = dataset.fixed_prefix_len
    owner = dataset.row_sample
    first_rows = dataset.offsets[:-1]
    sample_cell = dataset.class_positions() * n_t  # (class, slice) cell of each sample's slice 0
    cells = sample_cell[owner] + assignment

    if imp.method == TSMOTE:
        if np.isnan(dataset.values).any() and not imp.allow_null_feature_imputation:
            raise ValueError(
                "dataset contains null feature entries; imputing them samples each feature "
                "from its marginal distribution, which destroys cross-feature correlations. "
                "Set allow_null_feature_imputation=True only if the features are independent."
            )
        pool = generate_pool(dataset, grid, assignment, syn)
    else:
        stats = _slice_statistics(dataset, n_t, cells, imp.method)

    values = dataset.values.copy()
    _pin_fixed_prefix(values, dataset)
    null_rows = np.flatnonzero(np.isnan(values).any(axis=1))
    slots = owner * n_t + assignment  # flat (sample, slice) slot of each row
    empty = np.flatnonzero(np.bincount(slots, minlength=n_d * n_t) == 0)

    # the request table: null-bearing rows, then empty slots, stably sorted by sample
    order = np.argsort(np.concatenate((owner[null_rows], empty // n_t)), kind="stable")
    request_cells = np.concatenate((cells[null_rows], sample_cell[empty // n_t] + empty % n_t))
    drawn = np.empty((len(order), n_f))
    if imp.method == TSMOTE:
        drawn[order] = pool.serve(request_cells[order], np.random.default_rng(syn.seed))
    else:
        drawn[order] = stats[request_cells[order]]

    nulls = np.isnan(values[null_rows])
    values[null_rows] = np.where(nulls, drawn[: len(null_rows)], values[null_rows])
    values[:, :n_fix] = values[first_rows, :n_fix][owner]  # a null prefix took its first draw

    # a slot holds the running mean (row * c + x) / (c + 1) of its rows in row order;
    # it is not a sum / count, which can differ in the last bit
    data = np.full((n_d * n_t, n_f), np.nan)
    rank = group_ranks(slots)
    for r in range(int(rank.max()) + 1):
        at = rank == r
        s = slots[at]
        data[s] = values[at] if r == 0 else (data[s] * r + values[at]) / (r + 1)
    data[empty] = drawn[len(null_rows) :]
    data[empty, :n_fix] = values[first_rows, :n_fix][empty // n_t]

    return ImputedTensor(
        sample_ids=dataset.ids,
        grid_times=grid.t_min + np.asarray(grid.grid_times, dtype=float),
        data=data.reshape(n_d, n_t, n_f),
        class_labels=dataset.labels if dataset.has_labels else None,
        feature_names=dataset.feature_names,
    )


def _pin_fixed_prefix(values: np.ndarray, dataset: TimeSeriesDataset) -> None:
    """Write each sample's first non-null value of each fixed-prefix column into all its rows.

    Works in place; a column that is null in every row of a sample stays null.
    """
    n, n_fix = len(values), dataset.fixed_prefix_len
    head = values[:, :n_fix]
    # row n of the padded head is all NaN: the "first non-null row" of an all-null column
    padded = np.vstack((head, np.full((1, n_fix), np.nan)))
    first = np.minimum.reduceat(np.where(np.isnan(head), n, np.arange(n)[:, None]), dataset.offsets[:-1])
    head[:] = padded[first, np.arange(n_fix)][dataset.row_sample]
