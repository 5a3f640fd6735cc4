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
values of one small neighborhood and cross-feature correlations survive at
small k (x0.99-1.00 at the default k = 5, see ``moments``). Neighbor lists
that span the cell pair each seed with unrelated neighbors per feature, and
the correlation roughly halves. With nulls present the columns' enumerations
drift apart, which samples each feature from its marginal distribution —
valid only for (approximately) independent features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .slicing import Requests

logger = logging.getLogger(__name__)


class SynthesisError(ValueError):
    """A slice cell cannot support synthetic generation."""


@dataclass(frozen=True)
class LambdaSpec:
    """Interpolation-weight distribution on [0, 1] with closed-form moments."""

    kind: str  # "uniform01" | "beta" | "point_mass"
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform01", "beta", "point_mass"):
            raise ValueError(f"lambda kind must be uniform01, beta or point_mass, not {self.kind!r}")
        if self.kind == "beta" and not (0 < self.a < np.inf and 0 < self.b < np.inf):
            raise ValueError(f"beta parameters must be positive and finite, not a={self.a!r}, b={self.b!r}")
        if self.kind == "point_mass" and not (0.0 <= self.a <= 1.0 and self.b == 0.0):
            raise ValueError(f"point mass must lie in [0, 1], not {self.a!r}")
        if self.kind == "uniform01" and (self.a, self.b) != (0.0, 0.0):
            raise ValueError("uniform01 takes no parameters")

    @classmethod
    def uniform(cls) -> "LambdaSpec":
        return cls("uniform01")

    @classmethod
    def beta(cls, a: float, b: float) -> "LambdaSpec":
        return cls("beta", a, b)

    @classmethod
    def point_mass(cls, c: float) -> "LambdaSpec":
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
        for form, make in (("beta:a,b", cls.beta), ("point:c", cls.point_mass)):
            prefix = form.partition(":")[0] + ":"
            if text.startswith(prefix):
                try:
                    params = [float(p) for p in text[len(prefix) :].split(",")]
                except ValueError:
                    params = []
                if len(params) != form.count(",") + 1:
                    raise ValueError(f"lambda distribution {text!r} must have the form {form}")
                return make(*params)
        raise ValueError(f"unrecognized lambda distribution {text!r}")


@dataclass(frozen=True)
class SynthesisConfig:
    k_neighbors: int = 5
    lambda_dist: LambdaSpec = field(default_factory=LambdaSpec.uniform)
    seed: int = 0
    replacement_policy: str = "without"  # "with" | "without"

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.replacement_policy not in ("with", "without"):
            raise ValueError("replacement_policy must be 'with' or 'without'")


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
    unread=(),
) -> np.ndarray:
    """Generate ``count`` synthetic feature vectors from one slice cell.

    ``slice_obs`` is an (n_obs, n_features) array with NaN marking nulls.
    Every generated component lies in the closed interval between its seed
    and neighbor values, hence within the column's observed range. A column in
    ``unread`` is left NaN, needs no values, and still draws its weights, keeping
    the others' values.
    """
    obs = np.asarray(slice_obs, dtype=float)
    if obs.ndim != 2:
        raise ValueError("slice_obs must be 2-dimensional")
    n_feat = obs.shape[1]
    out = np.full((count, n_feat), np.nan)
    if count == 0:
        return out

    col_valid = [np.flatnonzero(~np.isnan(obs[:, f])) for f in range(n_feat)]
    for f, idx in enumerate(col_valid):
        if idx.size < 2 and f not in unread:
            where = f" in {label}" if label else ""
            raise SynthesisError(
                f"feature {f}{where} has {idx.size} non-null values; need at least 2"
            )

    j = np.arange(count)
    for f, idx in enumerate(col_valid):
        lam = config.lambda_dist.sample(rng, count)
        if f in unread:
            continue
        col = obs[idx, f]
        where = f"feature {f} of {label}" if label else f"feature {f}"
        nn = _neighbor_table(col, config.k_neighbors, where)
        seeds = j % col.size
        ranks = (j // col.size) % nn.shape[1]
        z = col[seeds]
        y = col[nn[seeds, ranks]]
        out[:, f] = z + lam * (y - z)
    return out


def generate_pool(requests: Requests, out: np.ndarray, config: SynthesisConfig) -> None:
    """Write one synthetic vector for each of ``requests`` into its row of ``out``.

    ``requests`` is the ``slicing.Requests`` of the dataset and its slice
    assignment. Each (class, slice) cell makes as many vectors as it has requests;
    one with none needs no usable column. A cell generates from its own RNG stream
    keyed by (seed, class, slice), so its vectors do not depend on the other cells.
    The same stream then picks the vector each of the cell's requests takes, in
    serving order: a random order of the vectors without replacement, so every
    vector is taken once, or uniform draws with replacement. Neighbor search costs
    O(n log n) per column of an n-row cell (see ``_neighbor_table``). A fixed-prefix
    column is left NaN, and may hold fewer than 2 values, in a cell that
    ``requests.unrecorded`` says does not read it.
    """
    with_replacement = config.replacement_policy == "with"
    for c, name, obs, rows in requests:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=divmod(c, requests.n_slices)))
        n = requests.sizes[c]
        pool = synthesize_slice(obs, config, n, rng, label=name, unread=np.flatnonzero(~requests.unrecorded[c]))
        # without replacement: the same order and RNG state as rng.shuffle(pool, axis=0), far faster
        out[rows] = pool[rng.integers(0, n, n) if with_replacement else rng.permutation(n)]
