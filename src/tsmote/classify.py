"""Deterministic logistic regression and the imputer comparison harness.

The classifier is deliberately minimal: z-normalization fitted on training
data only, zero-initialized full-batch gradient descent on the L2-penalized
cross-entropy, accuracy at threshold 0.5, and AUC via the rank statistic
with midranks for ties. Everything is bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import ImputedTensor, run_split
from .imputation import METHODS, ImputationConfig, impute_dataset
from .oscillator import ExperimentConfig, generate_two_class_experiment
from .slicing import assign_slices
from .smoothing import SmoothingConfig, smooth_tensor
from .synthesis import SynthesisConfig


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-scaling learned from training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Normalizer":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        if np.any(std == 0):
            bad = np.flatnonzero(std == 0)
            raise ValueError(f"zero-variance feature(s) at columns {bad.tolist()}")
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    learning_rate: float = 0.1,
    n_iterations: int = 5000,
    l2: float = 1e-4,
) -> LogisticModel:
    """Full-batch gradient descent from zero init; deterministic."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(X).any():
        raise ValueError("features contain NaN")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise ValueError(f"labels must be binary 0/1 with both classes present, got {classes}")

    n, _ = X.shape
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(n_iterations):
        r = _sigmoid(X @ w + b) - y
        grad_w = X.T @ r / n + l2 * w
        grad_b = float(r.sum() / n)
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return LogisticModel(weights=w, bias=b)


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(np.asarray(X, dtype=float) @ model.weights + model.bias)


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for tied scores."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: test set contains a single class")
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
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(model: LogisticModel, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy at threshold 0.5, AUC)."""
    p = predict_proba(model, X)
    y = np.asarray(y)
    accuracy = float(np.mean((p >= 0.5) == (y == 1)))
    return accuracy, auc_score(p, y)


# ---------------------------------------------------------------------------
# Imputer comparison
# ---------------------------------------------------------------------------

FLATTENED = "flattened"
ENDPOINT = "endpoint"


@dataclass(frozen=True)
class ComparisonConfig:
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    smoothing: Optional[SmoothingConfig] = field(default_factory=SmoothingConfig)  # None: no smoothing
    n_repetitions: int = 10
    feature_mode: str = FLATTENED  # or ENDPOINT: classify on the last slot only
    smooth_test: bool = True  # apply the identical filter to the test tensor

    def __post_init__(self):
        if self.feature_mode not in (FLATTENED, ENDPOINT):
            raise ValueError("feature_mode must be 'flattened' or 'endpoint'")
        if self.n_repetitions < 1:
            raise ValueError(f"n_repetitions must be at least 1, not {self.n_repetitions}")


@dataclass
class ImputerResult:
    method: str
    accuracies: list[float]
    aucs: list[float]

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def auc_mean(self) -> float:
        return float(np.mean(self.aucs))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "accuracy_mean": self.accuracy_mean,
            "accuracy_std": float(np.std(self.accuracies)),
            "auc_mean": self.auc_mean,
            "auc_std": float(np.std(self.aucs)),
            "accuracies": self.accuracies,
            "aucs": self.aucs,
        }


def _features(tensor: ImputedTensor, mode: str) -> np.ndarray:
    if mode == ENDPOINT:
        return tensor.data[:, -1, :]
    n = tensor.data.shape[0]
    return tensor.data.reshape(n, -1)


def _binary_labels(tensor: ImputedTensor) -> np.ndarray:
    if tensor.class_labels is None:
        raise ValueError("tensor carries no class labels")
    labels = sorted(set(tensor.class_labels))
    if len(labels) != 2:
        raise ValueError(f"expected exactly 2 classes, got {labels}")
    return np.array([labels.index(c) for c in tensor.class_labels], dtype=float)


def _comparison_reps(seed: int, reps: range, config: ComparisonConfig) -> list[list[tuple[float, float]]]:
    """For each repetition in ``reps``, the ``(accuracy, AUC)`` of each method in ``METHODS``."""
    scores = []
    for rep in reps:
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

        scores.append([])
        for method in METHODS:
            train_tensor = impute_dataset(exp.train, exp.grid, assignment, SynthesisConfig(seed=rep_seed),
                                          ImputationConfig(method=method))
            if config.smoothing is not None:
                train_tensor = smooth_tensor(train_tensor, config.smoothing)
            X_train = _features(train_tensor, config.feature_mode)
            y_train = _binary_labels(train_tensor)

            norm = Normalizer.fit(X_train)
            model = fit_logistic(norm.transform(X_train), y_train)
            scores[-1].append(evaluate(model, norm.transform(X_test_raw), y_test))
    return scores


def run_imputer_comparison(seed: int, config: ComparisonConfig = ComparisonConfig()) -> list[ImputerResult]:
    """Train-on-imputed / test-on-grid comparison of the three imputers.

    For each repetition a fresh two-class oscillator experiment is generated;
    each imputer completes the training trajectories, which are smoothed
    (unless ``config.smoothing`` is None), z-normalized with training
    statistics, and classified with logistic regression. The grid-generated
    test set is already complete, so imputers differ only through the
    training data they produce.

    Repetition ``rep`` depends only on ``seed + rep`` and ``config``, so this process
    runs the first half of the repetitions while one worker process runs the rest
    (:func:`~tsmote.data.run_split`); the results do not depend on the split.
    """
    n = config.n_repetitions
    mid = (n + 1) // 2
    tail = (seed, range(mid, n), config) if n > 1 else ()
    scores = [s for part in run_split(_comparison_reps, (seed, range(mid), config), tail) for s in part]
    return [ImputerResult(m, [rep[k][0] for rep in scores], [rep[k][1] for rep in scores])
            for k, m in enumerate(METHODS)]
