"""Imputation: put ragged samples onto the slice grid and fill the gaps.

Every method runs the same steps on the dataset's value array: pin the
time-independent prefix features, replace null components, average the
observations that share a slot componentwise, and fill the empty slots. It
works in one buffer: a row for every (sample, slice) slot, then one row for
each null-bearing row. The draws are served sample by sample (null-bearing
rows in row order, then empty slots in slice order), but no table of them is
kept. ``slicing.Requests`` sorts the rows by (class, slice) cell once, and both
the pool and the baselines iterate it: each cell in cell order, with its
observations and its buffer rows, listed from a slot mask when the cell is
reached. The method only decides how a cell serves its requests, each written
straight into its row: tsmote from the per-class synthetic pool, the
slice_mean / slice_median baselines with the cell's per-feature statistic.
The null components are then filled from the buffer's tail and the rows
averaged into its head, which is the returned tensor.

Real observations are never overwritten: a slot that had original data keeps
it exactly (or its degenerate average). Time-independent prefix features are
copied from the sample itself into every slot, averaged or filled; a prefix
feature that is null in every observation takes its value from the first
replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import ImputedTensor, TimeSeriesDataset
from .slicing import Requests, SliceGrid, assign_slices
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


def _slice_statistics(requests: Requests, method: str):
    """Yield each (class, slice) cell's buffer rows and the featurewise mean or median of its observed values.

    An empty cell, or one that never observes a feature its fill reads, raises
    ``ValueError``; the first such cell in cell order is the one named. A cell reads
    every feature after the fixed prefix and the prefix columns ``requests.unrecorded``
    marks; an unread prefix column with no values gets 0.
    """
    n_fix = requests.unrecorded.shape[1]
    for c, name, obs, rows in requests:
        seen = (~np.isnan(obs)).sum(axis=0)
        if (seen[n_fix:] == 0).any() or (seen[:n_fix] == 0)[requests.unrecorded[c]].any():
            raise ValueError(f"{name} has a feature with no observed values")
        obs[:, seen == 0] = 0.0  # unread: no mean of an empty column to warn of
        if method == SLICE_MEAN:
            yield rows, np.nanmean(obs, axis=0)
            continue
        # the midpoint of each column's middle pair of observed values (NaN sorts last): np.nanmedian's
        # bits without importing numpy.ma; stable, so equal values such as 0.0 and -0.0 keep dataset order
        x, f = np.sort(obs, axis=0, kind="stable"), np.arange(obs.shape[1])
        yield rows, (x[(seen - 1) // 2, f] + x[seen // 2, f]) / 2


def impute_dataset(
    dataset: TimeSeriesDataset,
    grid: SliceGrid,
    assignment: Optional[np.ndarray] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
    imputation_config: Optional[ImputationConfig] = None,
) -> ImputedTensor:
    """Produce one complete trajectory per sample on the slice grid.

    ``assignment`` is the (N,) slice index of every row, as ``assign_slices``
    returns it; it is computed when omitted, must lie in ``[0, grid.n_slices)``,
    and may not go down within a sample, as no slice grid's does.
    ``synthesis_config.seed`` seeds each (class, slice) cell's pool and the cell's
    draws from it. Under tsmote, rows that still hold a null once the fixed prefix
    is pinned need ``allow_null_feature_imputation``; a prefix null that pinning
    fills does not. The returned tensor's grid times are ``grid.data_grid_times()``.
    """
    imp = imputation_config or ImputationConfig()
    syn = synthesis_config or SynthesisConfig()
    n_d, n_t, n_f = dataset.n_samples, grid.n_slices, dataset.n_features
    if assignment is None:
        assignment = assign_slices(dataset, grid)
    outside = np.flatnonzero((assignment < 0) | (assignment >= n_t))
    if outside.size:
        raise ValueError(f"assignment {assignment[outside[0]]} at row {outside[0]} is outside [0, {n_t}), "
                         "the grid's slices")
    slots = dataset.row_sample * n_t + assignment  # flat (sample, slice) slot of each row
    if (np.diff(slots) < 0).any():
        raise ValueError("assignment goes down within a sample, whose rows are in time order")
    n_fix = dataset.fixed_prefix_len
    first_rows = dataset.offsets[:-1]

    requests = Requests(dataset, n_t, assignment)
    null_rows = requests.null_rows
    if imp.method == TSMOTE and len(null_rows) and not imp.allow_null_feature_imputation:
        raise ValueError(
            "dataset contains null feature entries; imputing them samples each feature "
            "from its marginal distribution, which destroys cross-feature correlations. "
            "Set allow_null_feature_imputation=True only if the features are independent."
        )
    n_slots = n_d * n_t
    buf = np.empty((requests.n_rows, n_f))
    if imp.method == TSMOTE:
        generate_pool(requests, buf, syn)
    else:
        for rows, stat in _slice_statistics(requests, imp.method):
            buf[rows] = stat
    del requests
    values = dataset.values.copy()  # each sample's fixed prefix pinned to its value
    values[:, :n_fix] = dataset.fixed_values[dataset.row_sample]

    nulls = np.isnan(values[null_rows])
    values[null_rows] = np.where(nulls, buf[n_slots:], values[null_rows])

    # a slot holds the running mean (row * c + x) / (c + 1) of its rows in row order;
    # it is not a sum / count, which can differ in the last bit
    data = buf[:n_slots]
    rank = np.arange(len(slots)) - np.searchsorted(slots, slots)  # row's place in its slot
    for r in range(int(rank.max()) + 1):
        at = rank == r
        s = slots[at]
        data[s] = values[at] if r == 0 else (data[s] * r + values[at]) / (r + 1)
    # every slot takes the sample's prefix as its first row holds it, a draw where never recorded
    data.reshape(n_d, n_t, n_f)[:, :, :n_fix] = values[first_rows, None, :n_fix]

    return ImputedTensor(
        sample_ids=dataset.ids,
        grid_times=grid.data_grid_times(),
        data=data.reshape(n_d, n_t, n_f),
        class_labels=dataset.labels if dataset.has_labels else None,
        feature_names=dataset.feature_names,
        fixed_prefix_len=n_fix,
    )
