"""Seeded long-CSV inputs for the benchmark, written with numpy and ``csv`` only.

Every sample observes the two-class oscillator curve of the paper,
``x = sin(t)`` and ``y = sin(omega_y * t)`` with ``omega_y`` = 2 (class
``w2``) or 4 (class ``w4``), at 5 to 20 irregular times in one period
``[0, 2*pi]``, plus Gaussian noise. Nothing here imports ``tsmote``, so the
inputs stay the same bytes whatever the program's data model becomes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

T_MAX = 2 * math.pi
OMEGA_Y = {"w2": 2.0, "w4": 4.0}
NOISE_SIGMA = 0.1
OBS_MIN, OBS_MAX = 5, 20  # observations per sample, inclusive
UNIFORM = "uniform"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class InputSpec:
    n_w2: int
    n_w4: int
    time_dist: str = UNIFORM
    null_frac: float = 0.0  # share of x/y entries left empty, never both in one row
    with_age: bool = False  # constant leading `age` column per sample


@dataclass(frozen=True)
class InputInfo:
    sha256: str
    n_bytes: int
    n_obs: int
    n_samples: int


def curve(label: str, t: np.ndarray) -> np.ndarray:
    """Noise-free (len(t), 2) curve points of one class."""
    return np.column_stack([np.sin(t), np.sin(OMEGA_Y[label] * t)])


def _times(spec: InputSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(m)
    if spec.time_dist == UNIFORM:
        return np.sort(u * T_MAX)
    # exponential with rate 3 / T_MAX, truncated to [0, T_MAX] by inverting its CDF
    rate = 3.0 / T_MAX
    mass = -np.expm1(-rate * T_MAX)
    return np.sort(-np.log1p(-u * mass) / rate)


def write_input(spec: InputSpec, seed: int, path) -> InputInfo:
    """Write one input CSV; the same ``(spec, seed)`` gives the same bytes."""
    rng = np.random.default_rng(seed)
    header = ["sample_id", "time", "class"] + (["age"] if spec.with_age else []) + ["x", "y"]
    labels = ["w2"] * spec.n_w2 + ["w4"] * spec.n_w4
    n_obs = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, label in enumerate(labels):
            m = int(rng.integers(OBS_MIN, OBS_MAX + 1))
            t = _times(spec, m, rng)
            vals = curve(label, t) + rng.normal(0.0, NOISE_SIGMA, (m, 2))
            cells = [[repr(float(v)) for v in row] for row in vals]
            if spec.null_frac:
                # a row loses x or y with probability 2 * null_frac, never both
                hit = rng.random(m) < 2 * spec.null_frac
                which = rng.integers(0, 2, m)
                for r in np.flatnonzero(hit):
                    cells[r][which[r]] = ""
            prefix = [repr(float(rng.integers(20, 81)))] if spec.with_age else []
            sid = f"s{i:05d}"
            for tj, row in zip(t, cells):
                writer.writerow([sid, repr(float(tj)), label, *prefix, *row])
            n_obs += m
    with open(path, "rb") as fh:
        data = fh.read()
    return InputInfo(hashlib.sha256(data).hexdigest(), len(data), n_obs, len(labels))
