"""Per-feature nearest-neighbor synthesis within a time slice.

Each synthetic feature value interpolates between a seed value ``z`` and one
of its k nearest neighbors ``y`` along that single feature direction:
``z + lam * (y - z)`` with ``lam`` drawn from a configurable distribution on
[0, 1]. Nulls are dropped per feature column, never whole rows, so sparse
slices still contribute every measured value.

Generation enumerates (seed, neighbor-rank) pairs deterministically for each
column: round-robin over the column's non-null entries first, then over
neighbor ranks, cycling when more vectors are requested than the enumeration
holds. When a slice cell is null-free every column has the same entries, so
all components of one synthetic vector use the same seed observation (each
feature keeping its own 1-D neighbor list): the vector is assembled from
values of one small neighborhood and cross-feature correlations survive.
With nulls present the columns' enumerations drift apart, which samples each
feature from its marginal distribution — valid only for (approximately)
independent features.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import TimeSeriesDataset, write_csv
from .slicing import SliceGrid, group_cells, group_ranks

logger = logging.getLogger(__name__)


class SynthesisError(ValueError):
    """A slice cell cannot support synthetic generation."""


class PoolUnderflowError(RuntimeError):
    """A without-replacement pool ran out of vectors."""


@dataclass(frozen=True)
class LambdaSpec:
    """Interpolation-weight distribution on [0, 1] with closed-form moments."""

    kind: str  # "uniform01" | "beta" | "point_mass"
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def uniform(cls) -> "LambdaSpec":
        return cls("uniform01")

    @classmethod
    def beta(cls, a: float, b: float) -> "LambdaSpec":
        if a <= 0 or b <= 0:
            raise ValueError("beta parameters must be positive")
        return cls("beta", a, b)

    @classmethod
    def point_mass(cls, c: float) -> "LambdaSpec":
        if not 0.0 <= c <= 1.0:
            raise ValueError("point mass must lie in [0, 1]")
        return cls("point_mass", c)

    @property
    def mean(self) -> float:
        if self.kind == "uniform01":
            return 0.5
        if self.kind == "beta":
            return self.a / (self.a + self.b)
        return self.a

    @property
    def variance(self) -> float:
        if self.kind == "uniform01":
            return 1.0 / 12.0
        if self.kind == "beta":
            s = self.a + self.b
            return self.a * self.b / (s * s * (s + 1.0))
        return 0.0

    @property
    def second_moment(self) -> float:
        return self.variance + self.mean**2

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "uniform01":
            return rng.random(size)
        if self.kind == "beta":
            return rng.beta(self.a, self.b, size)
        return np.full(size, self.a, dtype=float)

    @classmethod
    def parse(cls, text: str) -> "LambdaSpec":
        """Parse ``uniform``, ``beta:a,b`` or ``point:c``."""
        if text == "uniform":
            return cls.uniform()
        if text.startswith("beta:"):
            a, b = (float(x) for x in text[5:].split(","))
            return cls.beta(a, b)
        if text.startswith("point:"):
            return cls.point_mass(float(text[6:]))
        raise ValueError(f"unrecognized lambda distribution {text!r}")


@dataclass(frozen=True)
class SynthesisConfig:
    k_neighbors: int = 5
    lambda_dist: LambdaSpec = field(default_factory=LambdaSpec.uniform)
    surplus_factor: float = 1.5
    seed: int = 0
    replacement_policy: str = "without"  # "with" | "without"

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.surplus_factor < 1.0:
            raise ValueError("surplus_factor must be >= 1")
        if self.replacement_policy not in ("with", "without"):
            raise ValueError("replacement_policy must be 'with' or 'without'")


def knn_1d(values: np.ndarray, query_index: int, k: int) -> np.ndarray:
    """Indices of the k values nearest to ``values[query_index]``, self excluded.

    Ties break toward the smaller index. If ``k`` exceeds the number of other
    values it is reduced with a warning (the slice is too sparse for the
    requested neighborhood).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise SynthesisError("need at least 2 values for nearest-neighbor search")
    return _neighbor_table(values, k)[query_index]


def _neighbor_table(values: np.ndarray, k: int, label: str = "") -> np.ndarray:
    """(n, min(k, n - 1)) neighbor indices per entry, nearest first.

    Distance is ``|values[i] - values[j]|``; ties break toward the smaller
    index. A ``k`` of ``n`` or more is reduced to ``n - 1`` with a warning.

    Sorted-window search in O(n log n) time and O(n k) memory: in stable
    sorted order a row's k nearest lie among the k positions on each side.
    Equal values sit in index order, so the right side already lists ties
    smallest index first, and the left side walks each equal-value group from
    its start. The 2k candidates are sorted by (distance, index). Where
    rounding gives the window's farthest value group the same distance as an
    adjacent distinct value on that side, the window can miss a smaller
    index; those rows are recomputed from their exact distance row.
    """
    n = values.size
    if k >= n:
        where = f" in {label}" if label else ""
        logger.warning("k=%d >= %d values%s; reducing to %d", k, n, where, n - 1)
        k = n - 1
    order = np.argsort(values, kind="stable")
    # sorted values padded with a NaN at each end: a window reaching past
    # either end lands on NaN, whose distance sorts last and equals nothing
    vp = np.concatenate(([np.nan], values[order], [np.nan]))
    op = np.concatenate(([n], order, [n]))
    v = vp[1:-1, None]
    differs = vp[1:] != vp[:-1]
    new = np.flatnonzero(differs) + 1  # first position of each equal-value group
    group = np.concatenate(([0], np.cumsum(differs)))
    start = np.concatenate(([0], new))[group]
    end = np.concatenate((new - 1, [n + 1]))[group]

    pos = np.arange(1, n + 1)[:, None]
    step = np.arange(1, k + 1)
    right = np.minimum(pos + step, n + 1)
    q = np.maximum(pos - step, 0)
    left = start[q] + np.minimum(end[q], pos - 1) - q  # mirrored within its group
    cand = np.concatenate((left, right), axis=1)
    dist = np.abs(vp[cand] - v)
    idx = op[cand]
    nearest = np.lexsort((idx, dist), axis=-1)[:, :k]
    table = np.empty((n, k), dtype=np.intp)
    table[order] = idx[np.arange(n)[:, None], nearest]

    edge = cand[:, k - 1 :: k]  # farthest window position on each side
    around = vp.take(np.stack((start[edge] - 1, end[edge] + 1)), mode="clip")
    for i in order[(np.abs(around - v) == dist[:, k - 1 :: k]).any(axis=(0, 2))]:
        row = np.argsort(np.abs(values - values[i]), kind="stable")
        table[i] = row[row != i][:k]
    return table


def synthesize_slice(
    slice_obs: np.ndarray,
    config: SynthesisConfig,
    count: int,
    rng: np.random.Generator,
    label: str = "",
) -> np.ndarray:
    """Generate ``count`` synthetic feature vectors from one slice cell.

    ``slice_obs`` is an (n_obs, n_features) array with NaN marking nulls.
    Every generated component lies in the closed interval between its seed
    and neighbor values, hence within the column's observed range.
    """
    obs = np.asarray(slice_obs, dtype=float)
    if obs.ndim != 2:
        raise ValueError("slice_obs must be 2-dimensional")
    n_feat = obs.shape[1]
    out = np.empty((count, n_feat), dtype=float)
    if count == 0:
        return out

    col_valid = [np.flatnonzero(~np.isnan(obs[:, f])) for f in range(n_feat)]
    for f, idx in enumerate(col_valid):
        if idx.size < 2:
            where = f" in {label}" if label else ""
            raise SynthesisError(
                f"feature {f}{where} has {idx.size} non-null values; need at least 2"
            )

    j = np.arange(count)
    for f, idx in enumerate(col_valid):
        col = obs[idx, f]
        where = f"feature {f} of {label}" if label else f"feature {f}"
        nn = _neighbor_table(col, config.k_neighbors, where)
        seeds = j % col.size
        ranks = (j // col.size) % nn.shape[1]
        z = col[seeds]
        y = col[nn[seeds, ranks]]
        lam = config.lambda_dist.sample(rng, count)
        out[:, f] = z + lam * (y - z)
    return out


@dataclass(frozen=True, eq=False)
class SyntheticPool:
    """Synthetic vectors of every (class, slice) cell in one flat array.

    Cell ``c = class position * n_slices + slice`` owns rows
    ``starts[c] : starts[c] + sizes[c]`` of ``vectors``; class positions
    follow ``labels``. Without replacement each cell's rows are stored in a
    pre-shuffled deterministic order and requests consume them in that
    order, so the assignment depends only on the request sequence, not on
    shared RNG state.
    """

    labels: tuple[Optional[str], ...]
    n_slices: int
    vectors: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    replacement_policy: str

    def cell(self, class_label: Optional[str], slice_index: int) -> np.ndarray:
        c = self.labels.index(class_label) * self.n_slices + slice_index
        return self.vectors[self.starts[c] : self.starts[c] + self.sizes[c]]

    def serve(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One vector for each request, given the requests' cells in request order.

        With replacement a request takes a uniformly drawn row of its cell,
        all from one ``rng.integers`` call (the same values as one call per
        request). Without, a cell's n-th request takes its n-th row; the first
        request beyond a cell's size raises :class:`PoolUnderflowError`.
        """
        sizes = self.sizes[cells]
        pick = group_ranks(cells) if self.replacement_policy == "without" else np.zeros_like(cells)
        short = np.flatnonzero(pick >= sizes)
        if short.size:
            c = int(cells[short[0]])
            lab, si = self.labels[c // self.n_slices], c % self.n_slices
            if self.sizes[c] == 0:
                raise PoolUnderflowError(
                    f"pool underflow: no synthetic vectors for class={lab!r} slice={si}"
                    " (increase surplus_factor or use replacement_policy='with')"
                )
            raise PoolUnderflowError(
                f"pool underflow: class={lab!r} slice={si} exhausted after "
                f"{self.sizes[c]} draws (increase surplus_factor)"
            )
        if self.replacement_policy == "with":
            pick = rng.integers(0, sizes)
        return self.vectors[self.starts[cells] + pick]


def generate_pool(
    dataset: TimeSeriesDataset,
    grid: SliceGrid,
    assignment: np.ndarray,
    config: SynthesisConfig,
) -> SyntheticPool:
    """Build the per-class, per-slice synthetic pool.

    ``assignment`` is the (N,) slice index of every row, from ``assign_slices``.
    Pool size per cell is ``ceil(surplus_factor * required)`` where
    ``required`` counts the class samples missing the slice plus the cell's
    null-bearing observations (each needs one replacement draw). Cells with
    zero requirement stay empty. Each cell generates from its own RNG stream
    keyed by (seed, class, slice), so a cell's vectors do not depend on the
    other cells. Without replacement the cell is then put in a random order
    drawn from the same stream. Neighbor search costs O(n log n) per column
    of an n-row cell (see ``_neighbor_table``).
    """
    labels = dataset.class_labels() or [None]
    n_t = grid.n_slices
    n_cells = len(labels) * n_t
    class_pos = dataset.class_positions()
    cells = class_pos[dataset.row_sample] * n_t + assignment
    # samples observed in each cell: distinct (cell, sample) pairs
    present = np.bincount(np.unique(cells * dataset.n_samples + dataset.row_sample) // dataset.n_samples,
                          minlength=n_cells)
    null_rows = np.bincount(cells[np.isnan(dataset.values).any(axis=1)], minlength=n_cells)
    required = np.repeat(np.bincount(class_pos), n_t) - present + null_rows
    sizes = np.array([math.ceil(config.surplus_factor * int(r)) for r in required], dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    vectors = np.empty((int(sizes.sum()), dataset.n_features))

    for c, block in enumerate(group_cells(dataset.values, cells, n_cells)):
        lab, si = labels[c // n_t], c % n_t
        if len(block) == 0:
            raise SynthesisError(
                f"class={lab!r} has no observations in slice {si}; "
                "reduce n_slices or provide more data"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(c // n_t, si))
        )
        pool = synthesize_slice(block, config, sizes[c], rng, label=f"class={lab!r} slice={si}")
        if config.replacement_policy == "without":
            # the same order and RNG state as rng.shuffle(pool, axis=0), far faster
            pool = pool[rng.permutation(sizes[c])]
        vectors[starts[c] : starts[c] + sizes[c]] = pool
    return SyntheticPool(tuple(labels), n_t, vectors, starts, sizes, config.replacement_policy)


def write_pool_csv(pool: SyntheticPool, grid: SliceGrid, feature_names, path) -> None:
    """Flat CSV of all pooled vectors: class, slice_index, grid_time, features."""
    cell = np.repeat(np.arange(len(pool.sizes)), pool.sizes)
    si = cell % pool.n_slices
    write_csv(path, ["class", "slice_index", "grid_time", *feature_names],
              [np.array(pool.labels, dtype=object)[cell // pool.n_slices], si,
               np.asarray(grid.grid_times, dtype=float)[si], *pool.vectors.T])
