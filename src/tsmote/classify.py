"""Deterministic logistic regression and the imputer comparison harness.

The classifier is deliberately minimal: z-normalization fitted on training
data only, logistic regression solved to the optimum of the L2-penalized
cross-entropy by damped Newton steps from zero, accuracy at threshold 0.5,
and AUC via the rank statistic with midranks for ties. Everything is
bit-for-bit reproducible, whatever the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .data import ImputedTensor, run_beside
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


_L2 = 1e-4  # penalty on the weights; the bias is not penalised
_MAX_NEWTON_STEPS = 100


def fit_logistic(X: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Minimise mean cross-entropy plus ``_L2/2·‖w‖²`` by damped Newton steps from zero.

    Each Newton step ``d`` (IRLS; Hastie, Tibshirani and Friedman, *ESL* §4.4.1) is
    halved until the objective falls by ``t·g·d/4`` at step length ``t`` (Armijo).
    The fit stops at the optimum, ``g·d <= 1e-16``, or raises :class:`ValueError` after
    ``_MAX_NEWTON_STEPS`` steps. BLAS runs only the matrix-vector products, whose bits
    do not depend on the thread count; the Hessian and its solve are elementwise numpy.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(X).any():
        raise ValueError("features contain NaN")
    if not (((y == 0) | (y == 1)).all() and 0 < y.sum() < len(y)):  # np.unique imports numpy.ma
        raise ValueError(f"labels must be binary 0/1 with both classes present, got {sorted(set(y.tolist()))}")

    n = len(y)
    A = np.column_stack((X, np.ones(n)))  # the bias is the last coefficient
    penalty = np.append(np.full(X.shape[1], _L2), 0.0)
    sign = 1.0 - 2.0 * y  # the loss of a row is log(1 + exp(sign·z))

    def objective(theta):
        return np.logaddexp(0.0, sign * (A @ theta)).mean() + (penalty * theta * theta).sum() / 2

    theta = np.zeros(A.shape[1])
    f = objective(theta)
    for _ in range(_MAX_NEWTON_STEPS):
        z = A @ theta
        e = np.exp(-np.abs(z))  # sigmoid·(1 − sigmoid) is e/(1 + e)², not 0 once sigmoid rounds to 1
        grad = A.T @ (np.where(z >= 0, 1.0, e) / (1.0 + e) - y) / n + penalty * theta
        hess = np.einsum("ni,nj->ij", A * (e / (1.0 + e) ** 2 / n)[:, None], A) + np.diag(penalty)
        # Gauss–Jordan on [hess | grad] in elementwise numpy; hess is SPD, so no pivoting
        M = np.column_stack((hess, grad))
        for j in range(len(grad)):
            pivot = M[j] / M[j, j]
            M -= np.outer(M[:, j], pivot)
            M[j] = pivot
        step = M[:, -1]
        decrement = (grad * step).sum()
        if decrement <= 1e-16:
            return LogisticModel(weights=theta[:-1], bias=float(theta[-1]))
        t = 1.0
        while not (f_new := objective(theta - t * step)) <= f - t * decrement / 4 and t > 1e-10:
            t /= 2
        theta, f = theta - t * step, f_new
    raise ValueError(f"logistic regression did not converge in {_MAX_NEWTON_STEPS} Newton steps")


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    z = np.asarray(X, dtype=float) @ model.weights + model.bias
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for tied scores."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: test set contains a single class")
    s = np.sort(scores)
    # a score's midrank: the mean of the 1-based positions that its ties take in s
    ranks = (np.searchsorted(s, scores, "left") + np.searchsorted(s, scores, "right") + 1) / 2.0
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


def repetition_scores(rep_seed: int, config: ComparisonConfig) -> list[tuple[float, float]]:
    """One repetition of the comparison: the ``(accuracy, AUC)`` of each method in ``METHODS``.

    The experiment and the tsmote pool are both seeded with ``rep_seed``.
    """
    exp = generate_two_class_experiment(rep_seed, config.experiment)
    assignment = assign_slices(exp.train, exp.grid)
    test_tensor = impute_dataset(exp.test, exp.grid, imputation_config=ImputationConfig(method="slice_mean"))
    if config.smoothing is not None:
        test_tensor = smooth_tensor(test_tensor, config.smoothing)
    X_test_raw = _features(test_tensor, config.feature_mode)
    y_test = _binary_labels(test_tensor)

    scores = []
    for method in METHODS:
        train_tensor = impute_dataset(exp.train, exp.grid, assignment, SynthesisConfig(seed=rep_seed),
                                      ImputationConfig(method=method))
        if config.smoothing is not None:
            train_tensor = smooth_tensor(train_tensor, config.smoothing)
        X_train = _features(train_tensor, config.feature_mode)
        y_train = _binary_labels(train_tensor)

        norm = Normalizer.fit(X_train)
        model = fit_logistic(norm.transform(X_train), y_train)
        scores.append(evaluate(model, norm.transform(X_test_raw), y_test))
    return scores


def _scores_of(rep_seeds: range, config: ComparisonConfig) -> list[list[tuple[float, float]]]:
    return [repetition_scores(s, config) for s in rep_seeds]


def run_imputer_comparison(seed: int, config: ComparisonConfig = ComparisonConfig()) -> list[ImputerResult]:
    """Train-on-imputed / test-on-grid comparison of the three imputers.

    For each repetition a fresh two-class oscillator experiment is generated;
    each imputer completes the training trajectories, which are smoothed
    (unless ``config.smoothing`` is None), z-normalized with training
    statistics, and classified with logistic regression. The grid-generated
    test set is already complete, so imputers differ only through the
    training data they produce. Repetition ``rep`` depends only on
    ``seed + rep`` and ``config``, so fewer repetitions give a prefix of the
    scores of more, and the split does not move them: this process runs the
    first half of the repetitions while one worker process runs the rest
    (:func:`~tsmote.data.run_beside`). One repetition starts no process.
    """
    rep_seeds = range(seed, seed + config.n_repetitions)
    if len(rep_seeds) == 1:
        scores = _scores_of(rep_seeds, config)
    else:
        half = (len(rep_seeds) + 1) // 2
        rest, scores = run_beside(partial(_scores_of, rep_seeds[half:], config),
                                  partial(_scores_of, rep_seeds[:half], config))
        scores += rest
    return [ImputerResult(m, [rep[k][0] for rep in scores], [rep[k][1] for rep in scores])
            for k, m in enumerate(METHODS)]
