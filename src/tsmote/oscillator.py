"""Synthetic 2D uncoupled harmonic-oscillator datasets.

Each sample observes the curve x = sin(wx*t) + eps, y = sin(wy*t + delta) + eps
at a random number of irregular times inside one full period
[0, max(2*pi/wx, 2*pi/wy)], with Gaussian noise. Observation times come from
a uniform or truncated-exponential distribution; the exponential's early
pile-up is what makes the final time slice parametrically wide downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import TimeSeriesDataset
from .slicing import MEDIAN_OF_OBSERVATIONS, SliceGrid, build_slice_grid

UNIFORM = "uniform"
EXPONENTIAL = "exponential"
OBS_MIN, OBS_MAX = 5, 20  # observations per sample, inclusive


@dataclass(frozen=True)
class OscillatorConfig:
    omega_x: float = 1.0
    omega_y: float = 2.0
    delta: float = 0.0
    noise_sigma: float = 0.05
    n_samples: int = 100
    time_dist: str = UNIFORM
    seed: int = 0

    def __post_init__(self):
        if self.omega_x <= 0 or self.omega_y <= 0:
            raise ValueError("frequencies must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.time_dist not in (UNIFORM, EXPONENTIAL):
            raise ValueError(f"time_dist must be '{UNIFORM}' or '{EXPONENTIAL}'")

    @property
    def t_max(self) -> float:
        return max(2 * math.pi / self.omega_x, 2 * math.pi / self.omega_y)


def _draw_times(config: OscillatorConfig, m: int, rng: np.random.Generator) -> np.ndarray:
    t_max = config.t_max
    if config.time_dist == UNIFORM:
        return np.sort(rng.uniform(0.0, t_max, m))
    rate = 3.0 / t_max  # ~95% of the untruncated mass inside the window
    out = np.empty(m)
    filled = 0
    while filled < m:  # rejection keeps draws inside one period
        t = rng.exponential(1.0 / rate)
        if t <= t_max:
            out[filled] = t
            filled += 1
    return np.sort(out)


def curve_values(config: OscillatorConfig, times: np.ndarray) -> np.ndarray:
    """Noise-free (len(times), 2) points of the configured Lissajous curve."""
    x = np.sin(config.omega_x * times)
    y = np.sin(config.omega_y * times + config.delta)
    return np.column_stack([x, y])


def generate_oscillator_dataset(
    config: OscillatorConfig,
    class_label: Optional[str] = None,
    id_prefix: str = "s",
) -> TimeSeriesDataset:
    """Irregularly sampled noisy oscillator trajectories.

    Per-sample RNG streams are derived from (seed, sample index), so the
    output is independent of generation order.
    """
    times, values = [], []
    for i in range(config.n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        m = int(rng.integers(OBS_MIN, OBS_MAX + 1))
        times.append(_draw_times(config, m, rng))
        vals = curve_values(config, times[-1])
        if config.noise_sigma > 0:
            vals = vals + rng.normal(0.0, config.noise_sigma, vals.shape)
        values.append(vals)
    return TimeSeriesDataset.from_segments(
        [f"{id_prefix}{i:04d}" for i in range(config.n_samples)], times, values,
        labels=(class_label,) * config.n_samples, feature_names=("x", "y"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Size and sampling of the two-class oscillator experiment.

    The classes are fixed: ``"w2"`` and ``"w4"`` share x-frequency 1 and have
    y-frequency 2 and 4. The grid's times are the medians of its slices'
    observations.
    """

    noise_sigma: float = 0.1
    n_train_a: int = 270
    n_train_b: int = 180
    n_test_a: int = 30
    n_test_b: int = 20
    time_dist: str = UNIFORM
    n_slices: int = 50


@dataclass(frozen=True)
class TwoClassExperiment:
    train: TimeSeriesDataset
    test: TimeSeriesDataset
    grid: SliceGrid


def generate_two_class_experiment(
    seed: int, config: ExperimentConfig = ExperimentConfig()
) -> TwoClassExperiment:
    """Irregular two-class training set plus an on-grid test set.

    The slice grid is built from the combined training data (class-blind) and
    test samples are observed exactly at the grid times, so imputation is a
    no-op on them and imputer quality is isolated on the training side.
    """
    cfg_a = OscillatorConfig(omega_y=2.0, noise_sigma=config.noise_sigma, n_samples=config.n_train_a,
                             time_dist=config.time_dist, seed=seed)
    cfg_b = replace(cfg_a, omega_y=4.0, n_samples=config.n_train_b, seed=seed + 1)
    a = generate_oscillator_dataset(cfg_a, class_label="w2", id_prefix="a")
    b = generate_oscillator_dataset(cfg_b, class_label="w4", id_prefix="b")
    train = TimeSeriesDataset(
        ids=a.ids + b.ids,
        offsets=np.concatenate((a.offsets, a.offsets[-1] + b.offsets[1:])),
        times=np.concatenate((a.times, b.times)),
        values=np.concatenate((a.values, b.values)),
        labels=a.labels + b.labels,
        feature_names=("x", "y"),
    )

    grid = build_slice_grid(train, config.n_slices, MEDIAN_OF_OBSERVATIONS)
    grid_times = grid.t_min + np.asarray(grid.grid_times)

    ids, labels, values = [], [], []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(10_000,)))
    for label, n_test, cfg in (("w2", config.n_test_a, cfg_a), ("w4", config.n_test_b, cfg_b)):
        for i in range(n_test):
            vals = curve_values(cfg, grid_times)
            if config.noise_sigma > 0:
                vals = vals + rng.normal(0.0, config.noise_sigma, vals.shape)
            ids.append(f"t{label}{i:03d}")
            labels.append(label)
            values.append(vals)
    test = TimeSeriesDataset.from_segments(
        ids, [grid_times] * len(ids), values, labels=labels, feature_names=("x", "y")
    )
    return TwoClassExperiment(train=train, test=test, grid=grid)
