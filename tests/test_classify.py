"""Tests for the from-scratch logistic regression and metrics."""

import dataclasses
import hashlib
import multiprocessing

import numpy as np
import pytest

from tsmote.classify import (
    ComparisonConfig,
    Normalizer,
    _binary_labels,
    _features,
    auc_score,
    evaluate,
    fit_logistic,
    predict_proba,
    run_imputer_comparison,
)
from tsmote.imputation import METHODS, ImputationConfig, impute_dataset
from tsmote.oscillator import ExperimentConfig, generate_two_class_experiment
from tsmote.slicing import assign_slices
from tsmote.smoothing import SmoothingConfig, smooth_tensor
from tsmote.synthesis import SynthesisConfig


def brute_force_auc(scores, labels):
    """All positive/negative pairs; ties count half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestNormalizer:
    def test_transform_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, (200, 4))
        norm = Normalizer.fit(X)
        Z = norm.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_rejected(self):
        X = np.ones((10, 2))
        X[:, 0] = np.arange(10)
        with pytest.raises(ValueError, match="zero-variance"):
            Normalizer.fit(X)

    def test_train_statistics_applied_to_test(self):
        train = np.array([[0.0], [2.0]])
        norm = Normalizer.fit(train)
        out = norm.transform(np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1


class TestFitLogistic:
    def test_separable_data_perfect_training_accuracy(self):
        X = np.concatenate([-np.ones((50, 1)), np.ones((50, 1))])
        y = np.concatenate([np.zeros(50), np.ones(50)])
        model = fit_logistic(X, y)
        acc, auc = evaluate(model, X, y)
        assert acc == 1.0
        assert auc == 1.0

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((80, 5))
        y = (X[:, 0] > 0).astype(float)
        m1 = fit_logistic(X, y)
        m2 = fit_logistic(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_weights_pinned_bit_for_bit(self):
        """The weights of a comparison-sized fit (450 standardized rows, 100 features) stay the recorded bits."""
        rng = np.random.default_rng(15)
        X = rng.standard_normal((450, 100)) * rng.uniform(0.5, 3.0, 100) + rng.normal(0.0, 2.0, 100)
        signal = X[:, :5].sum(axis=1)
        y = (signal + rng.normal(0.0, 2.0, 450) > np.median(signal)).astype(float)
        model = fit_logistic(Normalizer.fit(X).transform(X), y)
        assert hashlib.sha256(model.weights.tobytes()).hexdigest() == (
            "fecc377a0e60b9169e7f9e6ca2dd3d4780906f625d54643e5a5e65cb496e2b58")
        assert model.bias.hex() == "0x1.9f2a766e3a856p-5"

    def test_non_binary_labels_rejected(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError, match="binary"):
            fit_logistic(X, np.array([0.0, 1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="binary"):
            fit_logistic(X, np.ones(4))

    def test_nan_features_rejected(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="NaN"):
            fit_logistic(X, np.array([0.0, 1.0]))

    def test_chance_level_auc_when_labels_independent(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10_000, 3))
        y = (rng.random(10_000) < 0.5).astype(float)
        n_train = 8000
        model = fit_logistic(X[:n_train], y[:n_train], n_iterations=500)
        _, auc = evaluate(model, X[n_train:], y[n_train:])
        assert 0.45 <= auc <= 0.55


class TestAuc:
    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert auc_score(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
        assert auc_score(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0

    def test_hand_example(self):
        got = auc_score(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert got == pytest.approx(0.75)

    def test_ties_use_midranks(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert auc_score(scores, labels) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            auc_score(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc_score(scores, labels) == pytest.approx(brute_force_auc(scores, labels))


def serial_comparison(seed, config):
    """The one-process repetition loop that the split comparison replaced, as its oracle:
    ``{method: (accuracies, aucs)}``."""
    results = {m: ([], []) for m in METHODS}
    for rep in range(config.n_repetitions):
        rep_seed = seed + rep
        exp = generate_two_class_experiment(rep_seed, config.experiment)
        assignment = assign_slices(exp.train, exp.grid)
        test_tensor = impute_dataset(
            exp.test, exp.grid, imputation_config=ImputationConfig(method="slice_mean")
        )
        if config.smoothing is not None and config.smooth_test:
            test_tensor = smooth_tensor(test_tensor, config.smoothing)
        X_test_raw = _features(test_tensor, config.feature_mode)
        y_test = _binary_labels(test_tensor)
        for method in METHODS:
            train_tensor = impute_dataset(exp.train, exp.grid, assignment, SynthesisConfig(seed=rep_seed),
                                          ImputationConfig(method=method))
            if config.smoothing is not None:
                train_tensor = smooth_tensor(train_tensor, config.smoothing)
            X_train = _features(train_tensor, config.feature_mode)
            y_train = _binary_labels(train_tensor)
            norm = Normalizer.fit(X_train)
            model = fit_logistic(norm.transform(X_train), y_train)
            acc, auc = evaluate(model, norm.transform(X_test_raw), y_test)
            results[method][0].append(acc)
            results[method][1].append(auc)
    return results


# noisy enough that every repetition scores differently, so a shuffled join shows
NOISY_EXPERIMENT = ExperimentConfig(noise_sigma=1.0, n_train_a=40, n_train_b=30, n_test_a=8, n_test_b=6,
                                    n_slices=10)


class TestComparison:
    @pytest.mark.parametrize("feature_mode, smoothing", [
        ("flattened", SmoothingConfig(window=5, poly_order=2)),
        ("endpoint", SmoothingConfig(window=5, poly_order=2)),
        ("flattened", None),
    ])
    def test_split_matches_serial_loop(self, feature_mode, smoothing):
        config = ComparisonConfig(experiment=NOISY_EXPERIMENT, smoothing=smoothing, n_repetitions=3,
                                  feature_mode=feature_mode)
        expected = serial_comparison(7, config)
        assert len(set(expected["tsmote"][1])) == 3
        # repetition r depends only on seed + r, so fewer repetitions give a prefix
        for n in (1, 2, 3):
            results = run_imputer_comparison(7, dataclasses.replace(config, n_repetitions=n))
            assert multiprocessing.active_children() == []
            assert {r.method: (r.accuracies, r.aucs) for r in results} == {
                m: (accs[:n], aucs[:n]) for m, (accs, aucs) in expected.items()}

    def test_emits_three_methods_with_metrics(self):
        config = ComparisonConfig(
            experiment=ExperimentConfig(
                n_train_a=40, n_train_b=30, n_test_a=8, n_test_b=6, n_slices=10
            ),
            smoothing=SmoothingConfig(window=5, poly_order=2),
            n_repetitions=1,
        )
        results = run_imputer_comparison(0, config)
        assert [r.method for r in results] == ["tsmote", "slice_mean", "slice_median"]
        for r in results:
            assert len(r.accuracies) == 1
            assert 0.0 <= r.accuracy_mean <= 1.0
            assert 0.0 <= r.auc_mean <= 1.0

    def test_feature_mode_validated(self):
        with pytest.raises(ValueError, match="feature_mode"):
            ComparisonConfig(feature_mode="pixels")
