"""Tests for nonuniform Savitzky-Golay smoothing."""

import numpy as np
import pytest

from tsmote.data import ImputedTensor
from tsmote.smoothing import SmoothingConfig, savgol_nonuniform, smooth_tensor


def random_grid(rng, n, lo=0.0, hi=10.0):
    t = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(t) <= 0):
        t = np.sort(rng.uniform(lo, hi, n))
    return t


class TestConfig:
    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            SmoothingConfig(window=24)

    def test_order_must_be_below_window(self):
        with pytest.raises(ValueError):
            SmoothingConfig(window=5, poly_order=5)


class TestSavgol:
    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(0)
        config = SmoothingConfig(window=25, poly_order=5)
        for _ in range(10):
            t = random_grid(rng, 60)
            coeffs = rng.uniform(-2, 2, 6)
            y = np.polynomial.polynomial.polyval(t - t.mean(), coeffs)
            out = savgol_nonuniform(t, y, config)
            np.testing.assert_allclose(out, y, rtol=1e-8, atol=1e-8 * max(1, np.abs(y).max()))

    def test_specific_quadratic(self):
        rng = np.random.default_rng(1)
        t = random_grid(rng, 40)
        y = 2 * t**2 - t + 3
        out = savgol_nonuniform(t, y, SmoothingConfig(window=11, poly_order=2))
        np.testing.assert_allclose(out, y, rtol=1e-8)

    def test_constant_series_unchanged(self):
        rng = np.random.default_rng(2)
        t = random_grid(rng, 30)
        y = np.full(30, 7.25)
        out = savgol_nonuniform(t, y, SmoothingConfig(window=7, poly_order=3))
        np.testing.assert_allclose(out, y, rtol=1e-12)

    def test_series_shorter_than_window(self):
        t = np.arange(10.0)
        with pytest.raises(ValueError, match="smaller window"):
            savgol_nonuniform(t, t, SmoothingConfig(window=25, poly_order=5))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        t = random_grid(rng, 50)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        a, b = 2.5, -1.25
        config = SmoothingConfig(window=13, poly_order=4)
        lhs = savgol_nonuniform(t, a * x + b * y, config)
        rhs = a * savgol_nonuniform(t, x, config) + b * savgol_nonuniform(t, y, config)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_white_noise_variance_reduced(self):
        rng = np.random.default_rng(4)
        t = random_grid(rng, 200)
        reductions = []
        for _ in range(20):
            y = rng.standard_normal(200)
            out = savgol_nonuniform(t, y, SmoothingConfig(window=25, poly_order=5))
            reductions.append(np.var(out) / np.var(y))
        assert np.mean(reductions) < 1.0
        assert max(reductions) < 1.0

    def test_nonmonotone_times_rejected(self):
        t = np.array([0.0, 1.0, 1.0, 2.0] + list(np.arange(3, 30.0)))
        with pytest.raises(ValueError, match="strictly increasing"):
            savgol_nonuniform(t, np.zeros_like(t), SmoothingConfig(window=5, poly_order=2))


def poly_tensor(rng, n_samples=4, n_t=50, n_feat=2, degree=5):
    t = random_grid(rng, n_t)
    data = np.empty((n_samples, n_t, n_feat))
    for i in range(n_samples):
        for f in range(n_feat):
            coeffs = rng.uniform(-1, 1, degree + 1)
            data[i, :, f] = np.polynomial.polynomial.polyval(t - t.mean(), coeffs)
    return ImputedTensor(
        sample_ids=tuple(f"s{i}" for i in range(n_samples)),
        grid_times=t,
        data=data,
    )


class TestSmoothTensor:
    def test_polynomial_tensor_reproduced(self):
        tensor = poly_tensor(np.random.default_rng(6))
        out = smooth_tensor(tensor, SmoothingConfig(window=25, poly_order=5))
        np.testing.assert_allclose(out.data, tensor.data, rtol=1e-8, atol=1e-8)
        np.testing.assert_array_equal(out.grid_times, tensor.grid_times)

    def test_fixed_prefix_passthrough(self):
        rng = np.random.default_rng(7)
        tensor = poly_tensor(rng)
        noisy = tensor.data.copy()
        noisy[:, :, 0] = 42.0  # a fixed feature: constant per sample
        noisy[:, :, 1] += rng.standard_normal(noisy[:, :, 1].shape)
        tensor = ImputedTensor(tensor.sample_ids, tensor.grid_times, noisy)
        out = smooth_tensor(tensor, SmoothingConfig(window=25, poly_order=5), fixed_prefix_len=1)
        np.testing.assert_array_equal(out.data[:, :, 0], noisy[:, :, 0])
        assert not np.array_equal(out.data[:, :, 1], noisy[:, :, 1])
