"""Tests for the moment-law verification machinery."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsmote.imputation
import tsmote.moments
from tsmote.moments import (
    _check_covariance_factor,
    _check_variance_laws,
    _imputed_variance_ratios,
    _one_row_dataset,
    population_cov,
    predicted_variance_ratio,
    theoretical_cov_factor,
)
from tsmote.slicing import assign_slices, build_slice_grid
from tsmote.synthesis import LambdaSpec, SynthesisConfig, _neighbor_table, synthesize_slice


class TestTheoreticalFactor:
    def test_uniform_is_two_thirds(self):
        assert theoretical_cov_factor(LambdaSpec.uniform()) == pytest.approx(2 / 3, abs=1e-15)

    def test_beta_2_5(self):
        assert theoretical_cov_factor(LambdaSpec.beta(2, 5)) == pytest.approx(9 / 14, abs=1e-15)

    def test_point_masses_at_ends_are_exactly_one(self):
        assert theoretical_cov_factor(LambdaSpec.point_mass(0.0)) == 1.0
        assert theoretical_cov_factor(LambdaSpec.point_mass(1.0)) == 1.0

    def test_point_mass_general(self):
        assert theoretical_cov_factor(LambdaSpec.point_mass(0.3)) == pytest.approx(0.58)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=0.3, max_value=8),
        b=st.floats(min_value=0.3, max_value=8),
    )
    def test_factor_in_unit_interval(self, a, b):
        f = theoretical_cov_factor(LambdaSpec.beta(a, b))
        assert 0.0 < f <= 1.0


def in_degrees(table: np.ndarray) -> np.ndarray:
    return np.bincount(table.ravel(), minlength=len(table))


class TestNeighborDegrees:
    """The edge counts of the production ``_neighbor_table``."""

    def test_k1_sums_to_d(self):
        values = np.random.default_rng(2).standard_normal(30)
        assert in_degrees(_neighbor_table(values, 1)).sum() == 30

    def test_two_point_slice(self):
        table = _neighbor_table(np.array([0.0, 1.0]), 1)
        assert table.tolist() == [[1], [0]]
        assert in_degrees(table).sum() == 2

    def test_hundred_points_k5(self):
        values = np.random.default_rng(3).standard_normal(100)
        assert in_degrees(_neighbor_table(values, 5)).sum() == 500

    def test_k_too_large(self):
        # k is reduced to n - 1, where every entry is every other entry's neighbor
        table = _neighbor_table(np.zeros(3), 3)
        assert table.shape == (3, 2)
        assert in_degrees(table).tolist() == [2, 2, 2]


class TestOneRowDataset:
    def test_each_cell_holds_n_rows_of_one_row_samples(self):
        n_t, n = 5, 3
        values = np.random.default_rng(9).standard_normal((2, n_t, n, 2))
        dataset = _one_row_dataset(values)
        assert dataset.counts.tolist() == [1] * (2 * n_t * n)
        np.testing.assert_array_equal(dataset.values, values.reshape(-1, 2))
        assignment = assign_slices(dataset, build_slice_grid(dataset, n_t))
        cells = dataset.class_codes[dataset.row_sample] * n_t + assignment
        assert np.bincount(cells).tolist() == [n] * (2 * n_t)
        # samples are ordered by class, slice, then row
        np.testing.assert_array_equal(cells, np.repeat(np.arange(2 * n_t), n))


class TestVarianceLaws:
    """``predicted_variance_ratio`` against ``impute_dataset`` outputs."""

    def test_hand_example(self):
        assert predicted_variance_ratio(2, 8, LambdaSpec.uniform(), "slice_mean") == 0.25
        hand = np.broadcast_to(np.array([[0.0], [2.0]]) + np.array([0.0, 10.0])[:, None, None, None],
                               (2, 4, 2, 1))
        assert _imputed_variance_ratios(hand, "slice_mean").tolist() == [[[0.25]] * 4] * 2

    def test_single_slice_is_identity(self):
        # every slot is observed, so nothing is filled
        x = np.random.default_rng(4).standard_normal((2, 1, 7, 2))
        np.testing.assert_allclose(_imputed_variance_ratios(x, "slice_mean"), 1.0, rtol=1e-15)
        assert predicted_variance_ratio(7, 7, LambdaSpec.uniform(), "slice_mean") == 1.0

    def test_exactness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, n_t = int(rng.integers(3, 30)), int(rng.integers(2, 9))
            x = rng.standard_normal((2, n_t, n, 1)) + np.array([0.0, 5.0])[:, None, None, None]
            predicted = predicted_variance_ratio(n, n * n_t, LambdaSpec.uniform(), "slice_mean")
            assert predicted == n / (n * n_t)
            np.testing.assert_allclose(_imputed_variance_ratios(x, "slice_mean"), predicted, atol=1e-12)

    def test_copy_weights_predict_no_contraction(self):
        for c in (0.0, 1.0):
            for n_obs, n_slots in ((2, 8), (12, 276), (7, 7), (3, 10)):
                assert predicted_variance_ratio(n_obs, n_slots, LambdaSpec.point_mass(c), "tsmote") == 1.0

    def test_synthetic_padding_mixture(self):
        # T - 1 = n - 1: each cell's requests are one whole (seed, rank) enumeration
        rng = np.random.default_rng(5)
        n = n_t = 10
        ratios = np.array([
            _imputed_variance_ratios(rng.standard_normal((2, n_t, n, 1)), "tsmote", seed=r).mean()
            for r in range(40)
        ])
        predicted = predicted_variance_ratio(n, n * n_t, LambdaSpec.uniform(), "tsmote")
        assert predicted == pytest.approx(0.1 + 0.9 * (1 - (1 / 3) * 10 / 9) - 2 * (1 / 12) * 0.1 * 0.9 / 9)
        se = ratios.std(ddof=1) / np.sqrt(len(ratios))
        assert abs(ratios.mean() - predicted) <= 3 * se

    def test_filled_mean_spread_on_the_kernel(self):
        # each column is one cell: n = 4 observations and one whole (seed, rank)
        # enumeration of N - n = 12 filled slots
        rng = np.random.default_rng(10)
        n, n_slots, cells = 4, 16, 4000
        obs = rng.standard_normal((n, cells))
        filled = synthesize_slice(obs, SynthesisConfig(k_neighbors=n - 1), n_slots - n, rng)
        ratios = np.concatenate([obs, filled]).var(axis=0) / obs.var(axis=0)
        se = ratios.std(ddof=1) / np.sqrt(cells)
        spread = 2 * (1 / 12) * 0.25 * 0.75 / (n - 1)  # the filled mean's spread, 0.0104
        assert 3 * se < spread
        predicted = predicted_variance_ratio(n, n_slots, LambdaSpec.uniform(), "tsmote")
        assert predicted == pytest.approx(0.25 + 0.75 * (1 - (1 / 3) * 4 / 3) - spread)
        assert abs(ratios.mean() - predicted) <= 3 * se

    def test_class_blind_slice_mean_fails_the_battery(self, monkeypatch):
        def pooled_over_classes(dataset, n_slices, assignment, method, unrecorded):
            stats = [np.nanmean(dataset.values[assignment == s], axis=0) for s in range(n_slices)]
            return np.tile(stats, (len(dataset.classes), 1))

        monkeypatch.setattr(tsmote.imputation, "_slice_statistics", pooled_over_classes)
        failed = {c.name for c in _check_variance_laws(seed=0) if not c.passed}
        assert failed == {"impute-mean-collapse[hand]", "impute-mean-collapse[random]"}


def test_independent_seed_kernel_fails_correlation_kept(monkeypatch):
    # each column's rows permuted on their own: every feature draws its seeds
    # independently, as the columns of a cell with nulls do
    kernel = tsmote.moments.synthesize_slice

    def independent_seeds(X, config, count, rng):
        Y = kernel(X, config, count, rng)
        return np.stack([rng.permutation(col) for col in Y.T], axis=1)

    monkeypatch.setattr(tsmote.moments, "synthesize_slice", independent_seeds)
    failed = {c.name for c in _check_covariance_factor(seed=0) if not c.passed}
    assert failed == {"correlation-kept[k=5]", "kernel-copy-identity[point(0)]"}


@pytest.mark.parametrize("seed", [0, 3])
def test_copy_identity_reports_a_bounded_correlation_change(seed):
    # a change of correlation lies in [0, 2]; a ratio over near-zero cross-covariances does not
    (check,) = [c for c in _check_covariance_factor(seed) if c.name == "kernel-copy-identity[point(1)]"]
    assert check.passed
    assert 0.0 <= float(re.search(r"by (?:up to )?([\d.]+)", check.detail).group(1)) <= 2.0


class TestKernelEnumeration:
    """``synthesize_slice`` at k = n - 1 over count = n(n - 1): every ordered pair once."""

    def test_full_enumeration_count(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        cfg = SynthesisConfig(k_neighbors=3, lambda_dist=LambdaSpec.point_mass(1.0))
        Y = synthesize_slice(X, cfg, 12, np.random.default_rng(0))
        assert Y.shape == (12, 2)  # 4 * 3 ordered pairs
        # each row is a neighbor of each of the other three, once
        for f in range(2):
            assert sorted(Y[:, f].tolist()) == sorted(np.repeat(X[:, f], 3).tolist())

    def test_zero_weight_duplicates_preserve_cov_exactly(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        cfg = SynthesisConfig(k_neighbors=59, lambda_dist=LambdaSpec.point_mass(0.0))
        Y = synthesize_slice(X, cfg, 60 * 59, rng)
        np.testing.assert_allclose(population_cov(Y), population_cov(X), atol=1e-12)
