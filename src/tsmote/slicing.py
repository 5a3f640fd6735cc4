"""Time-slice construction and assignment.

Elapsed times (relative to ``t_min``) are pooled across the whole dataset,
sorted, and partitioned into ``n_slices`` contiguous groups whose sizes
differ by at most one. The boundary between adjacent groups is the midpoint
between the last elapsed time of one group and the first of the next, so a
slice is the half-open interval ``[boundaries[i], boundaries[i+1])``; the
final slice is closed above so the latest observation is not orphaned.

The grid is class-blind: it is built once on the entire dataset so every
class shares the same slice geometry.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import TimeSeriesDataset

logger = logging.getLogger(__name__)

MIDPOINT = "midpoint"
MEDIAN_OF_OBSERVATIONS = "median_of_observations"
_POLICIES = (MIDPOINT, MEDIAN_OF_OBSERVATIONS)


class SliceGridError(ValueError):
    """Raised when a slice grid cannot be constructed from the data."""


@dataclass(frozen=True)
class SliceGrid:
    """Slice boundaries in elapsed time, plus representative grid times.

    ``boundaries`` has ``n_slices + 1`` strictly increasing entries with
    ``boundaries[0] == 0`` and ``boundaries[-1] == t_max - t_min``.
    ``grid_times[i]`` lies inside slice ``i``; the policy is either the
    boundary midpoint or the median of the observations that formed the
    slice. ``occupancy`` records the construction-time group sizes; the
    spread can exceed 1 only when duplicate timestamps forced a split to
    shift.
    """

    n_slices: int
    boundaries: tuple[float, ...]
    grid_times: tuple[float, ...]
    grid_time_policy: str
    t_min: float
    t_max: float
    occupancy: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.boundaries) != self.n_slices + 1:
            raise ValueError("boundaries must have n_slices + 1 entries")
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.grid_times) != self.n_slices:
            raise ValueError("one grid time per slice required")

    @property
    def slice_widths(self) -> np.ndarray:
        return np.diff(np.asarray(self.boundaries))

    @property
    def span(self) -> float:
        return self.boundaries[-1]

    @property
    def occupancy_spread(self) -> int:
        if not self.occupancy:
            return 0
        return max(self.occupancy) - min(self.occupancy)

    def to_dict(self) -> dict:
        return {
            "n_slices": self.n_slices,
            "boundaries": list(self.boundaries),
            "grid_times": list(self.grid_times),
            "grid_time_policy": self.grid_time_policy,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "occupancy": list(self.occupancy),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "SliceGrid":
        return cls(
            n_slices=int(d["n_slices"]),
            boundaries=tuple(float(x) for x in d["boundaries"]),
            grid_times=tuple(float(x) for x in d["grid_times"]),
            grid_time_policy=d["grid_time_policy"],
            t_min=float(d["t_min"]),
            t_max=float(d["t_max"]),
            occupancy=tuple(int(x) for x in d.get("occupancy", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "SliceGrid":
        return cls.from_dict(json.loads(text))


def group_cells(values: np.ndarray, cells: np.ndarray, n_cells: int) -> list[np.ndarray]:
    """Rows of ``values`` in every cell ``0 .. n_cells - 1``, NaN marking nulls.

    One stable sort by cell, so each cell keeps its rows in dataset order
    (sample order, then observation order).
    """
    order = np.argsort(cells, kind="stable")
    return np.split(values[order], np.cumsum(np.bincount(cells, minlength=n_cells))[:-1])


def group_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of every entry among the entries with the same non-negative integer key."""
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys)
    ranks = np.empty(keys.size, dtype=np.intp)
    ranks[order] = np.arange(keys.size) - (np.cumsum(counts) - counts)[keys[order]]
    return ranks


def compute_time_bounds(
    dataset: TimeSeriesDataset,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
) -> tuple[float, float]:
    """Overall time bounds, optionally overridden by the caller.

    An override below the observed maximum clamps later observations into the
    final slice downstream. Picking a *larger* ``t_max`` than observed leaves
    empty slices beyond the data and is allowed but rarely useful.
    """
    times = dataset.times
    lo = float(times.min()) if t_min is None else float(t_min)
    hi = float(times.max()) if t_max is None else float(t_max)
    if hi <= lo:
        raise SliceGridError(f"t_max ({hi}) must exceed t_min ({lo})")
    return lo, hi


def build_slice_grid(
    dataset: TimeSeriesDataset,
    n_slices: int,
    grid_time_policy: str = MEDIAN_OF_OBSERVATIONS,
    bounds: Optional[tuple[Optional[float], Optional[float]]] = None,
) -> SliceGrid:
    """Partition pooled elapsed times into equal-count slices.

    Group sizes differ by at most one, with the remainder going to the
    earliest slices. When duplicate timestamps straddle a would-be split, the
    split shifts forward so equal timestamps stay together (boundaries must
    be strictly increasing); the resulting occupancy imbalance is recorded in
    ``occupancy`` and logged rather than silently violated.
    """
    if n_slices < 1:
        raise SliceGridError("n_slices must be at least 1")
    if grid_time_policy not in _POLICIES:
        raise SliceGridError(f"unknown grid_time_policy {grid_time_policy!r}; use one of {_POLICIES}")

    t_lo, t_hi = compute_time_bounds(dataset, *(bounds or (None, None)))
    span = t_hi - t_lo

    elapsed = dataset.times - t_lo
    if np.any(elapsed < 0):
        raise SliceGridError("observation time earlier than t_min")
    n_clamped = int(np.sum(elapsed > span))
    if n_clamped:
        logger.warning("%d observations beyond t_max clamped into the final slice", n_clamped)
        elapsed = np.minimum(elapsed, span)

    total = elapsed.size
    if total < 2 * n_slices:
        raise SliceGridError(
            f"need at least 2 observations per slice on average: {total} < {2 * n_slices}"
        )

    elapsed.sort()
    if elapsed[0] == elapsed[-1]:
        raise SliceGridError("all observation times are equal; cannot build slices")

    base, rem = divmod(total, n_slices)
    sizes = [base + 1 if i < rem else base for i in range(n_slices)]
    nominal_splits = np.cumsum(sizes)[:-1]

    splits: list[int] = []
    prev = 0
    for p in nominal_splits:
        p0 = max(int(p), prev + 1)
        while p0 < total and elapsed[p0 - 1] == elapsed[p0]:
            p0 += 1
        if p0 >= total:
            raise SliceGridError(
                f"duplicate timestamps leave too few distinct values for {n_slices} slices"
            )
        splits.append(p0)
        prev = p0

    boundaries = [0.0]
    for p in splits:
        boundaries.append(float((elapsed[p - 1] + elapsed[p]) / 2.0))
    boundaries.append(float(span))

    group_edges = [0, *splits, total]
    occupancy = tuple(b - a for a, b in zip(group_edges, group_edges[1:]))
    if max(occupancy) - min(occupancy) > 1:
        logger.warning(
            "slice occupancy spread %d exceeds 1 due to duplicate timestamps",
            max(occupancy) - min(occupancy),
        )

    if grid_time_policy == MIDPOINT:
        grid_times = tuple(
            (a + b) / 2.0 for a, b in zip(boundaries, boundaries[1:])
        )
    else:
        grid_times = tuple(
            float(np.median(elapsed[a:b])) for a, b in zip(group_edges, group_edges[1:])
        )

    return SliceGrid(
        n_slices=n_slices,
        boundaries=tuple(boundaries),
        grid_times=grid_times,
        grid_time_policy=grid_time_policy,
        t_min=t_lo,
        t_max=t_hi,
        occupancy=occupancy,
    )


def assign_slices(dataset: TimeSeriesDataset, grid: SliceGrid) -> np.ndarray:
    """The slice of every observation, as an (N,) index array aligned with the dataset's rows.

    An observation goes to the slice containing its elapsed time. Slices
    are closed below and open above except the last, which is closed above.
    Elapsed times beyond the final boundary (possible only under a ``t_max``
    override) are clamped into the last slice; negative elapsed times are an
    error.
    """
    tau = dataset.times - grid.t_min
    early = np.flatnonzero(tau < 0)
    if early.size:
        sid = dataset.ids[dataset.row_sample[early[0]]]
        raise SliceGridError(f"sample {sid!r} has an observation earlier than t_min")
    idx = np.searchsorted(np.asarray(grid.boundaries), tau, side="right") - 1
    return np.clip(idx, 0, grid.n_slices - 1)
