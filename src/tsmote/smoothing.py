"""Savitzky-Golay smoothing on arbitrarily spaced grids.

Each interior point is replaced by the value, at its own time, of a
least-squares polynomial fitted to the window centered there using the
actual sample times. Points too close to either end reuse the fit of the
nearest full window, evaluated at their own times, so the output length
matches the input and endpoints stay defined.

Fits use times centered on the evaluation window and scaled to [-1, 1];
a raw Vandermonde basis in absolute time is badly conditioned for large t.
The whole filter is a linear operator in the values, so a reusable
(n x n) matrix is built per time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImputedTensor


@dataclass(frozen=True)
class SmoothingConfig:
    window: int = 25
    poly_order: int = 5

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 3")
        if not 0 <= self.poly_order < self.window:
            raise ValueError("poly_order must satisfy 0 <= poly_order < window")


def smoothing_matrix(times: np.ndarray, window: int, poly_order: int) -> np.ndarray:
    """Dense linear operator applying the filter to any series on ``times``."""
    t = np.asarray(times, dtype=float)
    n = t.size
    if n < window:
        raise ValueError(
            f"series of length {n} is shorter than window {window}; "
            "use a smaller window or disable smoothing"
        )
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")

    half = window // 2
    degree = poly_order + 1
    powers = np.arange(degree)
    S = np.zeros((n, n))

    def window_pinv(start: int, center_time: float, scale: float) -> np.ndarray:
        tw = (t[start : start + window] - center_time) / scale
        A = tw[:, None] ** powers
        return np.linalg.pinv(A)

    for i in range(half, n - half):
        start = i - half
        scale = max(t[start + window - 1] - t[i], t[i] - t[start])
        pinv = window_pinv(start, t[i], scale)
        # fitted value at the (centered) evaluation time 0 is coefficient 0
        S[i, start : start + window] = pinv[0]

    # boundary rows evaluate the nearest full window's fit at their own times
    for edge_start, rows in ((0, range(half)), (n - window, range(n - half, n))):
        center = edge_start + half
        scale = max(t[edge_start + window - 1] - t[center], t[center] - t[edge_start])
        pinv = window_pinv(edge_start, t[center], scale)
        for i in rows:
            phi = ((t[i] - t[center]) / scale) ** powers
            S[i, edge_start : edge_start + window] = phi @ pinv
    return S


def savgol_nonuniform(times: np.ndarray, values: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    """Smooth one series; see module docstring for boundary handling."""
    S = smoothing_matrix(times, config.window, config.poly_order)
    return S @ np.asarray(values, dtype=float)


def smooth_tensor(
    tensor: ImputedTensor, config: SmoothingConfig, fixed_prefix_len: int = 0
) -> ImputedTensor:
    """Apply the filter per sample per feature against the shared grid times.

    Fixed-prefix features pass through unmodified. Grid times are never
    changed.
    """
    S = smoothing_matrix(tensor.grid_times, config.window, config.poly_order)
    # data is (n_samples, n_slices, n_features); contract S with the slice axis
    smoothed = np.einsum("ts,nsf->ntf", S, tensor.data)
    if fixed_prefix_len > 0:
        smoothed[:, :, :fixed_prefix_len] = tensor.data[:, :, :fixed_prefix_len]
    return ImputedTensor(
        sample_ids=tensor.sample_ids,
        grid_times=tensor.grid_times,
        data=smoothed,
        class_labels=tensor.class_labels,
        feature_names=tensor.feature_names,
    )
