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
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import TimeSeriesDataset
from .slicing import SliceAssignment, SliceGrid, group_cells

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
    """
    n = values.size
    if k >= n:
        where = f" in {label}" if label else ""
        logger.warning("k=%d >= %d values%s; reducing to %d", k, n, where, n - 1)
        k = n - 1
    d = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, kind="stable", axis=1)[:, :k]


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


class SyntheticPool:
    """Per-(class, slice) stock of synthetic vectors with draw bookkeeping.

    Without replacement, vectors are consumed in a pre-shuffled deterministic
    order via a cursor, so the pool assignment depends only on the draw
    sequence, not on shared RNG state.
    """

    def __init__(
        self,
        vectors: dict[tuple[Optional[str], int], np.ndarray],
        replacement_policy: str,
    ):
        self._vectors = vectors
        self._cursor = {key: 0 for key in vectors}
        self.replacement_policy = replacement_policy

    def keys(self):
        return self._vectors.keys()

    def size(self, class_label: Optional[str], slice_index: int) -> int:
        return len(self._vectors.get((class_label, slice_index), ()))

    def vectors(self, class_label: Optional[str], slice_index: int) -> np.ndarray:
        return self._vectors[(class_label, slice_index)]

    def draw(
        self, class_label: Optional[str], slice_index: int, rng: np.random.Generator
    ) -> np.ndarray:
        key = (class_label, slice_index)
        pool = self._vectors.get(key)
        if pool is None or len(pool) == 0:
            raise PoolUnderflowError(
                f"pool underflow: no synthetic vectors for class={class_label!r} slice={slice_index}"
                " (increase surplus_factor or use replacement_policy='with')"
            )
        if self.replacement_policy == "with":
            return pool[int(rng.integers(len(pool)))]
        cur = self._cursor[key]
        if cur >= len(pool):
            raise PoolUnderflowError(
                f"pool underflow: class={class_label!r} slice={slice_index} exhausted after "
                f"{len(pool)} draws (increase surplus_factor)"
            )
        self._cursor[key] = cur + 1
        return pool[cur]


def generate_pool(
    dataset: TimeSeriesDataset,
    grid: SliceGrid,
    assignment: SliceAssignment,
    config: SynthesisConfig,
    threads: int = 1,
) -> SyntheticPool:
    """Build the per-class, per-slice synthetic pool.

    Pool size per cell is ``ceil(surplus_factor * required)`` where
    ``required`` counts the class samples missing the slice plus the cell's
    null-bearing observations (each needs one replacement draw). Cells with
    zero requirement stay empty. Each cell generates from an independent RNG
    stream keyed by (seed, class, slice), so parallel and serial generation
    produce identical pools; ``threads`` caps the worker count.
    """
    labels = dataset.class_labels() or [None]
    label_pos = {lab: i for i, lab in enumerate(labels)}
    cells = group_cells(dataset, assignment)
    class_sizes = Counter(s.class_label for s in dataset.samples)
    present = Counter(
        (s.class_label, si)
        for s, idx in zip(dataset.samples, assignment.indices)
        for si in set(idx)
    )

    def build_cell(key: tuple[Optional[str], int]) -> np.ndarray:
        lab, si = key
        cell = cells.get(key)
        if cell is None:
            raise SynthesisError(
                f"class={lab!r} has no observations in slice {si}; "
                "reduce n_slices or provide more data"
            )
        null_rows = int(np.isnan(cell).any(axis=1).sum())
        required = class_sizes[lab] - present[key] + null_rows
        pool_size = math.ceil(config.surplus_factor * required)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(label_pos[lab], si))
        )
        pool = synthesize_slice(cell, config, pool_size, rng, label=f"class={lab!r} slice={si}")
        if config.replacement_policy == "without" and pool_size > 0:
            rng.shuffle(pool, axis=0)
        return pool

    keys = [(lab, si) for lab in labels for si in range(grid.n_slices)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool_exec:
            built = list(pool_exec.map(build_cell, keys))
        vectors = dict(zip(keys, built))
    else:
        vectors = {key: build_cell(key) for key in keys}

    return SyntheticPool(vectors, config.replacement_policy)


def write_pool_csv(pool: SyntheticPool, grid: SliceGrid, feature_names, path) -> None:
    """Flat CSV of all pooled vectors: class, slice_index, grid_time, features."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "slice_index", "grid_time"] + list(feature_names))
        for (lab, si) in sorted(pool.keys(), key=lambda k: (str(k[0]), k[1])):
            for vec in pool.vectors(lab, si):
                row = [lab if lab is not None else "", str(si), repr(float(grid.grid_times[si]))]
                row.extend(repr(float(v)) for v in vec)
                writer.writerow(row)
