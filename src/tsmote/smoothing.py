"""Savitzky-Golay smoothing on arbitrarily spaced grids.

Each interior point is replaced by the value, at its own time, of a
least-squares polynomial fitted to the window centered there using the
actual sample times. Points too close to either end reuse the fit of the
nearest full window, evaluated at their own times, so the output length
matches the input and endpoints stay defined.

Fits use times centered on the evaluation window and scaled to [-1, 1];
a raw Vandermonde basis in absolute time is badly conditioned for large t.
The whole filter is a linear operator in the values: one (n x n) matrix per
time grid, applied to a tensor in place, one batched ``matmul`` per block of
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import ImputedTensor

_BLOCK = 8192  # slots smoothed at a time


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
    powers = np.arange(poly_order + 1)
    S = np.zeros((n, n))
    for start in range(n - window + 1):
        # the rows that use this window: its centre row, and at either end the rows
        # nearer the end, which have no full window centred on them
        rows = range(0 if start == 0 else start + half, n if start == n - window else start + half + 1)
        center = t[start + half]
        scale = max(t[start + window - 1] - center, center - t[start])
        pinv = np.linalg.pinv(((t[start : start + window] - center) / scale)[:, None] ** powers)
        for i in rows:
            # the fit evaluated at t[i], which for the centre row is coefficient 0
            S[i, start : start + window] = ((t[i] - center) / scale) ** powers @ pinv
    return S


def smooth_tensor(tensor: ImputedTensor, config: SmoothingConfig) -> ImputedTensor:
    """Apply the filter to every sample and feature in place, overwriting ``tensor.data``.

    The samples go through one batched ``matmul`` (one matrix product per sample)
    about ``_BLOCK`` slots at a time, so beside the tensor only one block's
    product is held. The tensor's fixed-prefix features pass through unmodified.
    Grid times are never changed.
    """
    S = smoothing_matrix(tensor.grid_times, config.window, config.poly_order)
    data, fix = tensor.data, tensor.fixed_prefix_len
    step = max(1, _BLOCK // len(S))
    for lo in range(0, len(data), step):
        data[lo : lo + step, :, fix:] = np.matmul(S, data[lo : lo + step])[..., fix:]
    return replace(tensor, data=data)
