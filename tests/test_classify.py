"""Tests for the from-scratch logistic regression and metrics."""

import concurrent.futures
import dataclasses
import hashlib
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

import tsmote.classify
from tsmote.classify import (
    _L2,
    ComparisonConfig,
    Normalizer,
    auc_score,
    evaluate,
    fit_logistic,
    predict_proba,
    repetition_scores,
    run_imputer_comparison,
)
from tsmote.imputation import METHODS
from tsmote.oscillator import ExperimentConfig
from tsmote.smoothing import SmoothingConfig


def brute_force_auc(scores, labels):
    """All positive/negative pairs; ties count half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def midranks_loop(scores):
    """Midranks by walking the sorted scores tie block by tie block: the reference for
    ``auc_score``'s vectorized midranks."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    s = scores[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def pinned_problem():
    """A comparison-sized fit: 450 standardized rows, 100 features, labels from the first five."""
    rng = np.random.default_rng(15)
    X = rng.standard_normal((450, 100)) * rng.uniform(0.5, 3.0, 100) + rng.normal(0.0, 2.0, 100)
    signal = X[:, :5].sum(axis=1)
    y = (signal + rng.normal(0.0, 2.0, 450) > np.median(signal)).astype(float)
    return Normalizer.fit(X).transform(X), y


def pinned_fit():
    """``(sha256 of the weights, bias.hex())`` of the pinned problem's fit."""
    model = fit_logistic(*pinned_problem())
    return hashlib.sha256(model.weights.tobytes()).hexdigest(), model.bias.hex()


def unstandardized_problem(seed):
    """Up to 300 rows and 40 features with scales from 1e-2 to 1e3 and offsets of a few
    scales; labels follow a random direction, or split the first feature at its median."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(10, 300)), int(rng.integers(1, 40))
    scale = 10 ** rng.uniform(-2, 3, p)
    X = rng.standard_normal((n, p)) * scale + rng.normal(0, 5, p) * scale
    if rng.random() < 0.3:
        return X, (X[:, 0] > np.median(X[:, 0])).astype(float)
    return X, (rng.random(n) < 1 / (1 + np.exp(-(X / scale) @ rng.normal(0, 2, p)))).astype(float)


# seeds of unstandardized_problem on which undamped Newton steps give NaN weights
UNSTANDARDIZED_SEEDS = (77, 79, 89, 154, 248, 251)


def scaled_gradient(X, y, model):
    """The gradient of mean cross-entropy plus ``_L2/2·‖w‖²`` at ``model``, each weight's
    entry divided by the RMS of its feature, so its size does not depend on the feature's."""
    r = predict_proba(model, X) - y
    grad_w = X.T @ r / len(y) + _L2 * model.weights
    return np.append(grad_w / np.sqrt((X**2).mean(axis=0)), r.mean())


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
        """The weights of a comparison-sized fit stay the recorded bits."""
        assert pinned_fit() == ("747e09a20e3f3307c203c336f6dca707b4dcb524cc43397071245efb07473244",
                                "0x1.55618730e23f2p-7")

    def test_weights_do_not_depend_on_blas_threads(self, run_python, tmp_path):
        """The pinned fit gives the same bits on one BLAS thread as in this process."""
        code = "import sys; sys.path.insert(0, sys.argv[1]); from test_classify import pinned_fit; print(*pinned_fit())"
        res = run_python(["-c", code, str(Path(__file__).parent)], tmp_path,
                         {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        assert res.returncode == 0, res.stderr
        assert tuple(res.stdout.split()) == pinned_fit()

    @pytest.mark.parametrize("problem", [
        pinned_problem,
        lambda: (np.concatenate([-np.ones((50, 1)), np.ones((50, 1))]) * 100,
                 np.concatenate([np.zeros(50), np.ones(50)])),
        # more features than rows: separable, so only the penalty bounds the weights
        lambda: (np.random.default_rng(4).standard_normal((60, 200)),
                 (np.random.default_rng(5).random(60) < 0.5).astype(float)),
        *[lambda seed=seed: unstandardized_problem(seed) for seed in UNSTANDARDIZED_SEEDS],
    ], ids=["pinned", "separable-x100", "p-over-n", *[f"unstandardized-{s}" for s in UNSTANDARDIZED_SEEDS]])
    def test_reaches_the_optimum(self, problem):
        X, y = problem()
        model = fit_logistic(X, y)
        assert np.isfinite(model.weights).all()
        assert np.abs(scaled_gradient(X, y, model)).max() < 1e-8

    def test_step_cap_raises(self, monkeypatch):
        """A fit that needs more Newton steps than allowed raises instead of returning."""
        monkeypatch.setattr(tsmote.classify, "_MAX_NEWTON_STEPS", 3)
        with pytest.raises(ValueError, match="did not converge in 3 Newton steps"):
            fit_logistic(*pinned_problem())

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
        model = fit_logistic(X[:n_train], y[:n_train])
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

    def test_bits_match_the_midrank_loop(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            scores = np.round(rng.random(n), int(rng.integers(0, 4)))  # rounding forces ties
            scores[rng.random(n) < 0.1] = -0.0  # ties with 0.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            n_pos = int(labels.sum())
            expected = (float(midranks_loop(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (
                n_pos * (n - n_pos))
            assert auc_score(scores, labels).hex() == expected.hex()

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc_score(scores, labels) == pytest.approx(brute_force_auc(scores, labels))


PROCESS_POOL = concurrent.futures.ProcessPoolExecutor

# noisy enough that every repetition scores differently, so a reordered or repeated one shows
NOISY_EXPERIMENT = ExperimentConfig(noise_sigma=1.0, n_train_a=40, n_train_b=30, n_test_a=8, n_test_b=6,
                                    n_slices=10)


def by_method(scores):
    """``{method: (accuracies, aucs)}`` of per-repetition scores, as the results read."""
    return {m: ([rep[k][0] for rep in scores], [rep[k][1] for rep in scores]) for k, m in enumerate(METHODS)}


class TestComparison:
    @pytest.mark.parametrize("feature_mode, smoothing", [
        ("flattened", SmoothingConfig(window=5, poly_order=2)),
        ("endpoint", SmoothingConfig(window=5, poly_order=2)),
        ("flattened", None),
    ])
    def test_fewer_repetitions_give_a_prefix(self, feature_mode, smoothing):
        """Repetition r depends only on seed + r, so ``n`` repetitions, split between this
        process and a worker, score as the first ``n`` serial calls of ``repetition_scores``."""
        config = ComparisonConfig(experiment=NOISY_EXPERIMENT, smoothing=smoothing, n_repetitions=4,
                                  feature_mode=feature_mode)
        expected = by_method([repetition_scores(7 + r, config) for r in range(4)])
        assert len(set(expected["tsmote"][1])) == 4
        for n in (1, 2, 3, 4):
            results = run_imputer_comparison(7, dataclasses.replace(config, n_repetitions=n))
            assert multiprocessing.active_children() == []
            assert {r.method: (r.accuracies, r.aucs) for r in results} == {
                m: (accs[:n], aucs[:n]) for m, (accs, aucs) in expected.items()}

    def test_split_under_spawn(self, monkeypatch):
        # a spawned worker shares no memory with this process: the repetitions it runs are sent by name
        started = []

        def spawning(*args, **kwargs):
            started.append(multiprocessing.get_context("spawn"))
            return PROCESS_POOL(*args, mp_context=started[-1], **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)
        config = ComparisonConfig(experiment=NOISY_EXPERIMENT, smoothing=SmoothingConfig(window=5, poly_order=2),
                                  n_repetitions=3, feature_mode="endpoint")
        results = run_imputer_comparison(7, config)
        assert len(started) == 1
        assert {r.method: (r.accuracies, r.aucs) for r in results} == by_method(
            [repetition_scores(7 + r, config) for r in range(3)])

    def test_one_repetition_starts_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("one repetition started a process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
        config = ComparisonConfig(experiment=NOISY_EXPERIMENT, smoothing=None, n_repetitions=1)
        assert {r.method: (r.accuracies, r.aucs) for r in run_imputer_comparison(7, config)} == by_method(
            [repetition_scores(7, config)])

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
