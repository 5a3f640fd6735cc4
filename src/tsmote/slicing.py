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
    """Slice boundaries and representative grid times, in elapsed time.

    Elapsed time is data time minus ``t_min``; ``data_grid_times()`` is the
    one conversion of the grid times back to data units.

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
        b, g = self.boundaries, self.grid_times
        if not np.isfinite([*b, *g, self.t_min, self.t_max]).all():
            raise ValueError("slice grid entries must be finite")
        if self.n_slices < 1 or len(b) != self.n_slices + 1 or len(g) != self.n_slices:
            raise ValueError("n_slices must be at least 1, with n_slices + 1 boundaries and n_slices grid times")
        if b[0] != 0 or b[-1] != self.t_max - self.t_min:
            raise ValueError("boundaries must run from 0 to t_max - t_min")
        if any(hi <= lo for lo, hi in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing")
        # closed above too: a midpoint between adjacent floats can round onto the upper boundary
        if not all(lo <= t <= hi for lo, t, hi in zip(b, g, b[1:])):
            raise ValueError("each grid time must lie in its slice")
        if self.grid_time_policy not in _POLICIES:
            raise ValueError(f"unknown grid_time_policy {self.grid_time_policy!r}; use one of {_POLICIES}")

    def data_grid_times(self) -> np.ndarray:
        """The grid times in data units, ``t_min + grid_times``, as a float array."""
        return self.t_min + np.asarray(self.grid_times, dtype=float)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "SliceGrid":
        if not isinstance(d, dict):
            raise ValueError(f"a slice grid must be a JSON object, not {type(d).__name__}")

        def entry(key, convert):
            try:
                return convert(d[key])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ValueError(f"slice grid entry {key!r} is missing or malformed: {d.get(key)!r}") from None

        def floats(xs):
            return tuple(float(x) for x in xs)

        return cls(
            n_slices=entry("n_slices", int),
            boundaries=entry("boundaries", floats),
            grid_times=entry("grid_times", floats),
            grid_time_policy=entry("grid_time_policy", lambda p: p),
            t_min=entry("t_min", float),
            t_max=entry("t_max", float),
            occupancy=entry("occupancy", lambda xs: tuple(int(x) for x in xs)) if "occupancy" in d else (),
        )

    @classmethod
    def from_json(cls, text: str) -> "SliceGrid":
        return cls.from_dict(json.loads(text))


def cell_index(dataset: TimeSeriesDataset, samples: np.ndarray, slices: np.ndarray, n_slices: int) -> np.ndarray:
    """The (class, slice) cell ``dataset.class_codes[sample] * n_slices + slice`` of each pair."""
    return dataset.class_codes[samples] * n_slices + slices


def cell_blocks(dataset: TimeSeriesDataset, n_slices: int, assignment: np.ndarray):
    """Yield ``(cell, name, rows)`` for every (class, slice) cell in cell order.

    ``rows`` holds the cell's values in dataset order (sample order, then
    observation order), NaN marking nulls; ``name`` reads ``class=... slice=...``.
    A cell with no rows raises ``ValueError`` when it is reached, so errors
    come out in cell order.
    """
    cells = cell_index(dataset, dataset.row_sample, assignment, n_slices)
    counts = np.bincount(cells, minlength=len(dataset.classes) * n_slices)
    blocks = np.split(dataset.values[np.argsort(cells, kind="stable")], np.cumsum(counts)[:-1])
    for c, rows in enumerate(blocks):
        lab, si = dataset.classes[c // n_slices], c % n_slices
        if len(rows) == 0:
            raise ValueError(
                f"class={lab!r} has no observations in slice {si}; reduce n_slices or provide more data"
            )
        yield c, f"class={lab!r} slice={si}", rows


class Requests:
    """The draws a fill makes: one for each null-bearing row and each empty (sample, slice) slot.

    The fill writes into one buffer: a row for every flat (sample, slice) slot,
    then one for each of ``null_rows``, the rows that still hold a null once the
    fixed prefix is pinned to the sample's value. Requests are served sample by
    sample: its null-bearing rows in row order, then its empty slots in slice
    order. No request table is kept: ``rows`` lists one cell's buffer rows from
    the ``occupied`` slot mask. ``sizes`` counts each (class, slice) cell's
    requests, numbered as ``cell_index``, and ``unrecorded`` marks the prefix
    columns each cell's fill reads: those of a sample there that never records one.
    """

    def __init__(self, dataset: TimeSeriesDataset, n_slices: int, assignment: np.ndarray):
        owner, fix, never = dataset.row_sample, dataset.fixed_prefix_len, np.isnan(dataset.fixed_values)
        self.n_slices, self.n_slots = n_slices, dataset.n_samples * n_slices
        self.occupied = np.zeros((dataset.n_samples, n_slices), dtype=bool)
        self.occupied[owner, assignment] = True
        self.null_rows = np.flatnonzero(np.isnan(dataset.values[:, fix:]).any(axis=1) | never.any(axis=1)[owner])
        self.n_rows = self.n_slots + len(self.null_rows)  # rows in the fill's buffer
        self.null_owner = owner[self.null_rows]
        self.null_cells = cell_index(dataset, self.null_owner, assignment[self.null_rows], n_slices)
        self.members = [np.flatnonzero(dataset.class_codes == k) for k in range(len(dataset.classes))]
        n_nulls = np.bincount(self.null_cells, minlength=len(self.members) * n_slices)
        self.sizes = np.concatenate([len(m) - self.occupied[m].sum(axis=0) for m in self.members]) + n_nulls
        self.null_ends = np.cumsum(n_nulls)
        self.by_cell = np.argsort(self.null_cells, kind="stable")  # each cell's null-bearing rows, in row order
        # every row of a sample that never records a prefix feature is null-bearing
        r, f = np.nonzero(never[self.null_owner])
        self.unrecorded = np.zeros((len(self.sizes), fix), dtype=bool)
        self.unrecorded[self.null_cells[r], f] = True

    def rows(self, c: int) -> np.ndarray:
        """Cell ``c``'s buffer rows in serving order, which is sample order: a sample asks
        the cell for its null-bearing rows in that slice, or else for its empty slot."""
        members, s = self.members[c // self.n_slices], c % self.n_slices
        empty = members[~self.occupied[members, s]]
        if len(empty) == self.sizes[c]:  # no null-bearing rows
            return empty * self.n_slices + s
        nulls = self.by_cell[self.null_ends[c] - (self.sizes[c] - len(empty)) : self.null_ends[c]]
        rows = np.concatenate((self.n_slots + nulls, empty * self.n_slices + s))
        return rows[np.argsort(np.concatenate((self.null_owner[nulls], empty)), kind="stable")]


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

    ``bounds`` overrides ``(t_min, t_max)``, each defaulting to the data's
    range when ``None``. A ``t_max`` below the observed maximum clamps later
    observations into the final slice; a larger one widens it.
    """
    if n_slices < 1:
        raise SliceGridError("n_slices must be at least 1")
    if grid_time_policy not in _POLICIES:
        raise SliceGridError(f"unknown grid_time_policy {grid_time_policy!r}; use one of {_POLICIES}")

    lo, hi = bounds or (None, None)
    t_lo = float(dataset.times.min()) if lo is None else float(lo)
    t_hi = float(dataset.times.max()) if hi is None else float(hi)
    for name, t in (("t_min", t_lo), ("t_max", t_hi)):
        if not np.isfinite(t):
            raise SliceGridError(f"{name} must be a finite number, not {t!r}")
    if t_hi <= t_lo:
        raise SliceGridError(f"t_max ({t_hi}) must exceed t_min ({t_lo})")
    span = t_hi - t_lo
    # boundaries and median grid times add two elapsed times
    if not np.isfinite(2.0 * span):
        raise SliceGridError(
            f"time span from {t_lo!r} to {t_hi!r} is too wide: 2 * (t_max - t_min) overflows"
        )

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
        # the midpoint of two adjacent floats rounds to one of them; the
        # lower one would move its observations up a slice
        mid = (elapsed[p - 1] + elapsed[p]) / 2.0
        boundaries.append(float(mid if mid > elapsed[p - 1] else elapsed[p]))
    if boundaries[-1] >= span:
        raise SliceGridError(f"the last slice's times all equal t_max; cannot build {n_slices} slices")
    boundaries.append(float(span))

    group_edges = [0, *splits, total]
    occupancy = tuple(b - a for a, b in zip(group_edges, group_edges[1:]))
    spread = max(occupancy) - min(occupancy)
    if spread > 1:
        logger.warning("slice occupancy spread %d exceeds 1 due to duplicate timestamps", spread)

    if grid_time_policy == MIDPOINT:
        grid_times = tuple(
            (a + b) / 2.0 for a, b in zip(boundaries, boundaries[1:])
        )
    else:
        # the median of each sorted run: np.median gives the same bits but imports numpy.ma
        grid_times = tuple(
            float((elapsed[(a + b - 1) // 2] + elapsed[(a + b) // 2]) / 2.0)
            for a, b in zip(group_edges, group_edges[1:])
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
