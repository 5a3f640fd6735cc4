"""Tests for nonuniform Savitzky-Golay smoothing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from tsmote.data import ImputedTensor, TimeSeriesDataset
from tsmote.imputation import ImputationConfig, impute_dataset
from tsmote.oscillator import generate_two_class_experiment
from tsmote.slicing import build_slice_grid
from tsmote import smoothing
from tsmote.smoothing import SmoothingConfig, smooth_tensor, smoothing_matrix


def random_grid(rng, n, lo=0.0, hi=10.0):
    t = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(t) <= 0):
        t = np.sort(rng.uniform(lo, hi, n))
    return t


def savgol(t, y, config):
    """One series through the filter's matrix, the operator ``smooth_tensor`` applies."""
    return smoothing_matrix(t, config.window, config.poly_order) @ y


def smooth_copy(tensor, config):
    """``smooth_tensor`` on a copy of ``tensor``, which it would overwrite."""
    return smooth_tensor(dataclasses.replace(tensor, data=tensor.data.copy()), config)


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
            out = savgol(t, y, config)
            np.testing.assert_allclose(out, y, rtol=1e-8, atol=1e-8 * max(1, np.abs(y).max()))

    def test_specific_quadratic(self):
        rng = np.random.default_rng(1)
        t = random_grid(rng, 40)
        y = 2 * t**2 - t + 3
        out = savgol(t, y, SmoothingConfig(window=11, poly_order=2))
        np.testing.assert_allclose(out, y, rtol=1e-8)

    def test_constant_series_unchanged(self):
        rng = np.random.default_rng(2)
        t = random_grid(rng, 30)
        y = np.full(30, 7.25)
        out = savgol(t, y, SmoothingConfig(window=7, poly_order=3))
        np.testing.assert_allclose(out, y, rtol=1e-12)

    def test_series_shorter_than_window(self):
        t = np.arange(10.0)
        with pytest.raises(ValueError, match="smaller window"):
            savgol(t, t, SmoothingConfig(window=25, poly_order=5))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        t = random_grid(rng, 50)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        a, b = 2.5, -1.25
        config = SmoothingConfig(window=13, poly_order=4)
        lhs = savgol(t, a * x + b * y, config)
        rhs = a * savgol(t, x, config) + b * savgol(t, y, config)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_white_noise_variance_reduced(self):
        rng = np.random.default_rng(4)
        t = random_grid(rng, 200)
        reductions = []
        for _ in range(20):
            y = rng.standard_normal(200)
            out = savgol(t, y, SmoothingConfig(window=25, poly_order=5))
            reductions.append(np.var(out) / np.var(y))
        assert np.mean(reductions) < 1.0
        assert max(reductions) < 1.0

    @pytest.mark.parametrize("times", ["uniform", "exponential", "clustered"])
    def test_row_abs_sum_at_most_sqrt_window(self, times):
        # each row of S is a row of its window's least-squares hat matrix, an
        # orthogonal projection: its 2-norm is at most 1, so its abs-sum is at
        # most sqrt(window), and |S @ v| <= max|v| * sqrt(window)
        rng = np.random.default_rng(["uniform", "exponential", "clustered"].index(times))
        for _ in range(100):
            n = int(rng.integers(5, 61))
            window = int(rng.choice(np.arange(3, n + 1, 2)))
            order = int(rng.integers(0, window))
            if times == "uniform":
                t = random_grid(rng, n)
            elif times == "exponential":
                t = np.cumsum(rng.exponential(1.0, n))
            else:  # a few tight clusters far apart
                centers = rng.uniform(0, 100, int(rng.integers(1, 5)))
                t = np.sort(rng.choice(centers, n) + rng.uniform(0, 1e-3, n))
            S = smoothing_matrix(t, window, order)
            assert np.abs(S).sum(axis=1).max() <= np.sqrt(window) * (1 + 1e-9)

    def test_one_pinv_per_window_matches_one_per_row(self, monkeypatch):
        """The rows near either end share their end's window and its pseudo-inverse; the
        operator has the bits of the per-row loop, which solved a window for every row."""
        def per_row(t, window, order):
            n, half, powers = len(t), window // 2, np.arange(order + 1)
            S = np.zeros((n, n))
            for i in range(n):
                start = min(max(i - half, 0), n - window)
                center = t[start + half]
                scale = max(t[start + window - 1] - center, center - t[start])
                pinv = np.linalg.pinv(((t[start : start + window] - center) / scale)[:, None] ** powers)
                S[i, start : start + window] = ((t[i] - center) / scale) ** powers @ pinv
            return S

        rng = np.random.default_rng(24)
        solved = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: solved.append(a.shape) or pinv(a))
        for n, window, order in [(50, 25, 5), (25, 25, 5), (26, 25, 3), (9, 3, 0), (12, 5, 2), (7, 7, 6)]:
            t = np.cumsum(rng.exponential(1.0, n))
            solved.clear()
            S = smoothing_matrix(t, window, order)
            assert len(solved) == n - window + 1
            assert S.tobytes() == per_row(t, window, order).tobytes()

    def test_nonmonotone_times_rejected(self):
        t = np.array([0.0, 1.0, 1.0, 2.0] + list(np.arange(3, 30.0)))
        with pytest.raises(ValueError, match="strictly increasing"):
            savgol(t, np.zeros_like(t), SmoothingConfig(window=5, poly_order=2))


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
        out = smooth_copy(tensor, SmoothingConfig(window=25, poly_order=5))
        np.testing.assert_allclose(out.data, tensor.data, rtol=1e-8, atol=1e-8)
        np.testing.assert_array_equal(out.grid_times, tensor.grid_times)

    def test_fixed_prefix_passthrough(self):
        rng = np.random.default_rng(7)
        tensor = poly_tensor(rng)
        noisy = tensor.data.copy()
        noisy[:, :, 0] = 42.0  # a fixed feature: constant per sample
        noisy[:, :, 1] += rng.standard_normal(noisy[:, :, 1].shape)
        tensor = ImputedTensor(tensor.sample_ids, tensor.grid_times, noisy, fixed_prefix_len=1)
        out = smooth_copy(tensor, SmoothingConfig(window=25, poly_order=5))
        assert out.fixed_prefix_len == 1
        np.testing.assert_array_equal(out.data[:, :, 0], noisy[:, :, 0])
        assert not np.array_equal(out.data[:, :, 1], noisy[:, :, 1])

    def test_imputed_prefix_kept_bit_for_bit(self):
        # an `age` column before x and y, one value per sample; filtering a constant
        # series would change its last bits on this 200-slice grid
        train = generate_two_class_experiment(0).train
        ages = 20.0 + np.arange(train.n_samples) / 7.0
        dataset = TimeSeriesDataset(
            train.ids, train.offsets, train.times, np.column_stack((ages[train.row_sample], train.values)),
            train.labels, ("age", "x", "y"), fixed_prefix_len=1,
        )
        tensor = impute_dataset(dataset, build_slice_grid(dataset, 200),
                                imputation_config=ImputationConfig(method="slice_mean"))
        assert tensor.fixed_prefix_len == 1
        out = smooth_copy(tensor, SmoothingConfig(window=25, poly_order=5))
        np.testing.assert_array_equal(out.data[:, :, 0], tensor.data[:, :, 0])
        assert not np.array_equal(out.data[:, :, 1:], tensor.data[:, :, 1:])

    @pytest.mark.parametrize("n_feat", [1, 2, 3])
    @pytest.mark.parametrize("fixed", [0, 1])
    def test_matches_per_feature_reference(self, n_feat, fixed):
        # F = 1 included on purpose: a contraction over the whole tensor may
        # reduce a single-feature tensor in another order than a multi-feature one
        rng = np.random.default_rng(10 * n_feat + fixed)
        for _ in range(10):
            n_t = int(rng.integers(7, 80))
            window = int(rng.choice(np.arange(3, n_t + 1, 2)))
            config = SmoothingConfig(window=window, poly_order=int(rng.integers(0, window)))
            t = random_grid(rng, n_t)
            data = rng.standard_normal((int(rng.integers(1, 30)), n_t, n_feat)) * 10.0 ** rng.integers(-3, 4)
            tensor = ImputedTensor(tuple(f"s{i}" for i in range(len(data))), t, data, fixed_prefix_len=fixed)
            out = smooth_copy(tensor, config).data
            S = smoothing_matrix(t, config.window, config.poly_order)
            np.testing.assert_array_equal(out[..., :fixed], data[..., :fixed])
            for f in range(fixed, n_feat):
                reference = np.einsum("ts,ns->nt", S, data[..., f])
                np.testing.assert_allclose(out[..., f], reference, rtol=0, atol=1e-12 * np.abs(data).max())

    def test_blockwise_equals_one_matmul(self, monkeypatch):
        # 700 samples of 50 slices: 4 blocks of 163 samples and one of 48
        rng = np.random.default_rng(11)
        t = random_grid(rng, 50)
        data = rng.standard_normal((700, 50, 3)) * 10.0 ** rng.integers(-3, 4, (700, 1, 3))
        assert -(-700 // (smoothing._BLOCK // 50)) == 5
        tensor = ImputedTensor(tuple(f"s{i}" for i in range(700)), t, data.copy(), fixed_prefix_len=1)
        config = SmoothingConfig(window=25, poly_order=5)
        whole = np.matmul(smoothing_matrix(t, config.window, config.poly_order), data)
        whole[..., :1] = data[..., :1]
        out = smooth_tensor(tensor, config)
        assert out.data is tensor.data  # overwritten in place
        assert out.data.tobytes() == whole.tobytes()
        monkeypatch.setattr(smoothing, "_BLOCK", 1)  # a sample per block
        assert smooth_copy(ImputedTensor(tensor.sample_ids, t, data.copy(), fixed_prefix_len=1),
                           config).data.tobytes() == whole.tobytes()

    def test_holds_a_block_beside_the_tensor(self):
        # 2 000 samples of 200 slices and 3 features, the sparse-nulls benchmark's tensor:
        # a whole-tensor matmul held a second 9.6 MB tensor and a finiteness mask
        rng = np.random.default_rng(12)
        t = random_grid(rng, 200)
        tensor = ImputedTensor(tuple(f"s{i}" for i in range(2000)), t, rng.standard_normal((2000, 200, 3)),
                               fixed_prefix_len=1)
        config = SmoothingConfig(window=25, poly_order=5)
        smoothing_matrix(t, config.window, config.poly_order)  # warm up numpy.linalg
        tracemalloc.start()
        try:
            smooth_tensor(tensor, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * tensor.data.nbytes, peak
