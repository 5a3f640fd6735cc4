"""Acceptance criteria, one test per criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them live) and enforces both the criterion and its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from tsmote.data import read_long_csv
from tsmote.moments import (
    _check_covariance_factor,
    _check_edge_counts,
    _check_mean_preservation,
    _check_variance_laws,
)
from tsmote.classify import ComparisonConfig, run_imputer_comparison
from tsmote.data import TimeSeriesDataset
from tsmote.oscillator import ExperimentConfig, generate_two_class_experiment
from tsmote.slicing import SliceGrid, assign_slices, build_slice_grid
from tsmote.smoothing import SmoothingConfig, smoothing_matrix
from tsmote.synthesis import _neighbor_table


def verdict(number: int, name: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    line = f"[{status}] criterion {number} ({name}): {detail} [{elapsed:.2f}s / budget {budget:.0f}s]"
    print(line)
    assert passed, line
    assert elapsed < budget, line


def random_dataset(rng):
    n_d = int(rng.integers(2, 25))
    dist = rng.choice(["uniform", "exponential", "lognormal"])
    times, values = [], []
    for i in range(n_d):
        m = int(rng.integers(2, 15))
        if dist == "uniform":
            t = rng.uniform(0, 100, m)
        elif dist == "exponential":
            t = rng.exponential(10.0, m)
        else:
            t = rng.lognormal(1.0, 1.0, m)
        times.append(np.sort(t))
        values.append([[rng.normal()] for _ in range(m)])
    return TimeSeriesDataset.from_segments([f"s{i}" for i in range(n_d)], times, values)


def test_criterion_1_slice_balance():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    worst = 0
    for _ in range(200):
        ds = random_dataset(rng)
        total = ds.total_observations()
        n_t = int(rng.integers(1, max(2, total // 2)))
        if total < 2 * n_t:
            n_t = max(1, total // 2)
        grid = build_slice_grid(ds, n_t)
        a = assign_slices(ds, grid)
        counts = np.bincount(a, minlength=n_t)
        spread = int(counts.max() - counts.min())
        worst = max(worst, spread)
        checked += 1
        # continuous draws: duplicate timestamps have probability zero
        assert spread <= 1, f"spread {spread} at n_t={n_t}"
    elapsed = time.perf_counter() - t0
    verdict(1, "slice balance", checked == 200 and worst <= 1,
            f"200 random datasets, max occupancy spread {worst}", elapsed, 5.0)


@pytest.fixture(scope="module")
def demo(tmp_path_factory, run_cli):
    """Demo data plus two same-seed and one different-seed imputation runs."""
    root = tmp_path_factory.mktemp("acceptance")
    res = run_cli(["demo-oscillator", "--seed", "0", "-o", str(root / "demo")], root)
    assert res.returncode == 0, res.stderr
    timings = {}
    for name, seed in (("run1", "11"), ("run2", "11"), ("run3", "12")):
        t0 = time.perf_counter()
        res = run_cli(
            ["impute", str(root / "demo" / "train.csv"), "--seed", seed,
             "-o", str(root / name)],
            root,
        )
        timings[name] = time.perf_counter() - t0
        assert res.returncode == 0, res.stderr
    return root, timings


def test_criterion_2_completeness(demo, observed_grid, tensor_from_json):
    root, timings = demo
    t0 = time.perf_counter()
    tensor = tensor_from_json((root / "run1" / "imputed.json").read_text())
    train = read_long_csv(root / "demo" / "train.csv")
    grid = SliceGrid.from_json((root / "run1" / "grid.json").read_text())
    assignment = assign_slices(train, grid)

    shape_ok = tensor.shape == (450, 50, 2)
    no_nulls = not np.isnan(tensor.data).any()
    expected = observed_grid(train, assignment, grid.n_slices)
    mask = ~np.isnan(expected)
    overwritten = int(np.sum(tensor.data[mask] != expected[mask]))
    elapsed = timings["run1"] + (time.perf_counter() - t0)
    verdict(2, "completeness", shape_ok and no_nulls and overwritten == 0,
            f"shape {tensor.shape}, nulls {np.isnan(tensor.data).sum()}, "
            f"overwritten originals {overwritten}", elapsed, 10.0)


def test_criterion_3_mean_preservation():
    t0 = time.perf_counter()
    checks = _check_mean_preservation(seed=0)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.passed]
    verdict(3, "mean preservation", len(checks) == 9 and not bad,
            f"9 data/weight combinations within 3 SE{'; failed: ' + str(bad) if bad else ''}",
            elapsed, 60.0)


def test_criterion_4_covariance_factor():
    t0 = time.perf_counter()
    checks = _check_covariance_factor(seed=0)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.passed]
    verdict(4, "covariance factor", len(checks) == 6 and not bad,
            "synthesize_slice: variance factor_n for uniform/beta/point, correlation kept at k=5, "
            "copy identities exact"
            + (f"; failed: {bad}" if bad else ""), elapsed, 60.0)


def test_criterion_5_edge_count_identity():
    t0 = time.perf_counter()
    check = _check_edge_counts(seed=0)
    elapsed = time.perf_counter() - t0
    verdict(5, "edge-count identity", check.passed, check.detail, elapsed, 1.0)


def test_criterion_6_variance_laws():
    t0 = time.perf_counter()
    checks = _check_variance_laws(seed=0)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.passed]
    verdict(6, "imputation variance laws", not bad,
            "; ".join(c.detail for c in checks), elapsed, 10.0)


def savgol(t, y, config):
    """One series through the filter's matrix, the operator ``smooth_tensor`` applies."""
    return smoothing_matrix(t, config.window, config.poly_order) @ y


def test_criterion_7_savgol_exactness():
    rng = np.random.default_rng(7)
    config = SmoothingConfig(window=25, poly_order=5)
    t0 = time.perf_counter()
    max_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 90))
        t = np.sort(rng.uniform(0, 20, n))
        while np.any(np.diff(t) <= 0):
            t = np.sort(rng.uniform(0, 20, n))
        coeffs = rng.uniform(-3, 3, 6)
        y = np.polynomial.polynomial.polyval(t - t.mean(), coeffs)
        out = savgol(t, y, config)
        scale = max(1.0, np.abs(y).max())
        max_rel = max(max_rel, float(np.abs(out - y).max() / scale))
    # linearity on a fresh grid
    t = np.sort(rng.uniform(0, 5, 60))
    x, y = rng.standard_normal(60), rng.standard_normal(60)
    lin_dev = float(
        np.abs(
            savgol(t, 2 * x - 3 * y, config)
            - (2 * savgol(t, x, config) - 3 * savgol(t, y, config))
        ).max()
    )
    elapsed = time.perf_counter() - t0
    verdict(7, "Savitzky-Golay exactness", max_rel <= 1e-8 and lin_dev <= 1e-8,
            f"max poly error {max_rel:.2e}, linearity dev {lin_dev:.2e}", elapsed, 5.0)


def test_criterion_8_knn_oracle():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    for case in range(1000):
        n = int(rng.integers(2, 201))
        if case % 2:  # integer lattices force ties
            values = rng.integers(-5, 6, n).astype(float)
        else:
            values = rng.normal(0, 10, n)
        q = int(rng.integers(n))
        k = int(rng.integers(1, min(10, n - 1) + 1))
        got = _neighbor_table(values, k)[q].tolist()
        oracle = sorted(
            (i for i in range(n) if i != q),
            key=lambda i: (abs(values[i] - values[q]), i),
        )[:k]
        assert got == oracle, f"case {case}: {got} != {oracle}"
    elapsed = time.perf_counter() - t0
    verdict(8, "kNN oracle equivalence", True, "1000 random instances incl. ties", elapsed, 5.0)


def test_criterion_9_imputer_comparison():
    t0 = time.perf_counter()
    results = run_imputer_comparison(0, ComparisonConfig(n_repetitions=10))
    elapsed = time.perf_counter() - t0
    by_method = {r.method: r for r in results}
    tsmote_acc = by_method["tsmote"].accuracy_mean
    tsmote_auc = by_method["tsmote"].auc_mean
    best_baseline = max(by_method["slice_mean"].accuracy_mean, by_method["slice_median"].accuracy_mean)
    gap = tsmote_acc - best_baseline
    verdict(
        9, "imputer comparison",
        gap >= 0.10 and tsmote_auc >= 0.80,
        f"tsmote acc {tsmote_acc:.4f} auc {tsmote_auc:.4f}; best baseline acc "
        f"{best_baseline:.4f}; gap {gap:+.4f} (need >= +0.10)",
        elapsed, 300.0,
    )


def test_criterion_10_determinism(demo, observed_grid, tensor_from_json):
    root, timings = demo
    t0 = time.perf_counter()
    run1 = (root / "run1" / "imputed.csv").read_bytes()
    run2 = (root / "run2" / "imputed.csv").read_bytes()
    identical = run1 == run2

    t_a = tensor_from_json((root / "run1" / "imputed.json").read_text())
    t_b = tensor_from_json((root / "run3" / "imputed.json").read_text())
    train = read_long_csv(root / "demo" / "train.csv")
    grid = SliceGrid.from_json((root / "run1" / "grid.json").read_text())
    assignment = assign_slices(train, grid)
    any_diff = bool((t_a.data != t_b.data).any())
    observed_mask = ~np.isnan(observed_grid(train, assignment, grid.n_slices))
    off_mask_diffs = int(np.sum((t_a.data != t_b.data) & observed_mask))
    elapsed = timings["run2"] + timings["run3"] + (time.perf_counter() - t0)
    verdict(10, "determinism", identical and any_diff and off_mask_diffs == 0,
            f"same-seed byte-identical: {identical}; cross-seed diffs outside "
            f"missing mask: {off_mask_diffs}", elapsed, 10.0)


def test_criterion_11_exponential_pathology():
    t0 = time.perf_counter()
    exp = generate_two_class_experiment(0, ExperimentConfig(time_dist="exponential"))
    widths = np.diff(exp.grid.boundaries)
    ratio = float(widths[-1] / np.median(widths))
    elapsed = time.perf_counter() - t0
    verdict(11, "exponential-sampling pathology", ratio >= 5.0,
            f"final slice width {widths[-1]:.3f} = {ratio:.1f}x median (need >= 5x)",
            elapsed, 5.0)
