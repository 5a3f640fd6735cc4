"""Tests for the dataset-level fill: null replacement, slot averaging, slot filling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsmote.imputation
from tsmote.data import TimeSeriesDataset, write_tensor_csv
from tsmote.imputation import METHODS, ImputationConfig, impute_dataset
from tsmote.oscillator import generate_two_class_experiment
from tsmote.slicing import MIDPOINT, SliceGrid, SliceGridError, assign_slices, build_slice_grid
from tsmote.synthesis import PoolUnderflowError, SynthesisConfig, SynthesisError, generate_pool

# five unit slices over [0, 5): an observation at time t lands in slice floor(t)
GRID5 = SliceGrid(5, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (0.5, 1.5, 2.5, 3.5, 4.5), MIDPOINT, 0.0, 5.0)


def dataset_of(samples, label="c", fixed=0):
    """Dataset of (id, [(time, values), ...]) samples, all in one class; None marks a null."""
    return TimeSeriesDataset.from_segments(
        [sid for sid, _ in samples],
        [[t for t, _ in recs] for _, recs in samples],
        [[v for _, v in recs] for _, recs in samples],
        labels=[label] * len(samples),
        fixed_prefix_len=fixed,
    )


def with_background(*samples, n_background=3, age=None):
    """``samples`` plus complete samples holding (10 k, 10 k + 1) in every slice k of GRID5.

    With ``age``, every background row starts with that constant prefix value.
    """
    background = [
        (f"b{j}", [(k + 0.5, ((age,) if age is not None else ()) + (10.0 * k, 10.0 * k + 1)) for k in range(5)])
        for j in range(n_background)
    ]
    return dataset_of([*samples, *background], fixed=int(age is not None))


def slice_mean(ds, grid=GRID5):
    return impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean")).data


class TestReplaceNulls:
    def test_identity_without_nulls(self):
        ds = with_background()
        for method in METHODS:
            t = impute_dataset(ds, GRID5, imputation_config=ImputationConfig(method=method))
            np.testing.assert_array_equal(t.data, ds.values.reshape(3, 5, 2))

    def test_componentwise_substitution(self):
        ds = with_background(("a", [(2.5, (None, 4.0))]))
        # slice 2 of feature 0 holds 20.0 in every background row
        np.testing.assert_array_equal(slice_mean(ds)[0, 2], [20.0, 4.0])

    def test_underflow_when_pool_exhausted(self, monkeypatch):
        build = tsmote.imputation.generate_pool

        def short_pool(*args):
            pool = build(*args)
            return dataclasses.replace(pool, sizes=np.maximum(pool.sizes - 1, 0))

        monkeypatch.setattr(tsmote.imputation, "generate_pool", short_pool)
        ds = with_background(("a", [(0.5, (1.0, 2.0))]))
        syn = SynthesisConfig(surplus_factor=1.0)
        with pytest.raises(PoolUnderflowError, match="no synthetic vectors for class='c' slice=1"):
            impute_dataset(ds, GRID5, synthesis_config=syn)


class TestReshape:
    def test_slots_follow_assignment(self):
        data = slice_mean(with_background(("x", [(0.5, (1.0, 2.0)), (3.5, (3.0, 4.0))])))
        np.testing.assert_array_equal(data[0, 0], [1.0, 2.0])
        np.testing.assert_array_equal(data[0, 3], [3.0, 4.0])
        np.testing.assert_array_equal(data[0, [1, 2, 4]], [[10.0, 11.0], [20.0, 21.0], [40.0, 41.0]])

    def test_degenerate_slots_averaged(self):
        x = ("x", [(2.1, (1.0, 1.0)), (2.6, (3.0, 5.0)), (4.2, (1.0, 1.0)), (4.4, (2.0, 2.0)), (4.9, (4.0, 4.0))])
        data = slice_mean(with_background(x))
        np.testing.assert_array_equal(data[0, 2], [2.0, 3.0])
        # the running mean (row * c + x) / (c + 1), in observation order
        assert data[0, 4, 0] == ((1.0 + 2.0) / 2 * 2 + 4.0) / 3

    def test_complete_sample_fully_populated(self):
        x = ("x", [(k + 0.25, (float(k), -float(k))) for k in range(5)])
        data = slice_mean(with_background(x))
        np.testing.assert_array_equal(data[0], [[k, -k] for k in range(5)])

    def test_rejects_lingering_nulls(self):
        # a null component that no source can replace is an error, never a NaN in the tensor
        ds = dataset_of([
            ("a", [(0.5, (None, 1.0)), (1.5, (None, 2.0))]),
            ("b", [(0.6, (None, 3.0)), (1.6, (None, 4.0))]),
        ])
        grid = build_slice_grid(ds, 2)
        with pytest.raises(ValueError, match="slice=0 has a feature with no observed values"):
            impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        with pytest.raises(SynthesisError, match="feature 0 in class='c' slice=0 has 0 non-null values"):
            impute_dataset(ds, grid, imputation_config=ImputationConfig(allow_null_feature_imputation=True))


class TestFillMissing:
    def test_draws_fill_missing_slots(self):
        # each background cell is constant, so every synthetic vector equals it
        x = ("x", [(0.5, (1.0, 2.0)), (3.5, (5.0, 6.0))])
        t = impute_dataset(with_background(x), GRID5, synthesis_config=SynthesisConfig(k_neighbors=1))
        np.testing.assert_array_equal(t.data[0, [1, 2, 4]], [[10.0, 11.0], [20.0, 21.0], [40.0, 41.0]])
        np.testing.assert_array_equal(t.data[0, [0, 3]], [[1.0, 2.0], [5.0, 6.0]])  # real data untouched

    def test_fixed_prefix_overwrites_drawn_vector(self):
        ds = with_background(("x", [(0.5, (67.0, 1.0, 2.0))]), age=52.0)
        for method in METHODS:
            data = impute_dataset(ds, GRID5, imputation_config=ImputationConfig(method=method)).data
            np.testing.assert_array_equal(data[0, 1], [67.0, 10.0, 11.0])

    def test_no_missing_consumes_nothing(self):
        ds = with_background()
        for policy in ("with", "without"):
            syn = SynthesisConfig(surplus_factor=1.0, replacement_policy=policy)
            # an empty pool serves no request without raising PoolUnderflowError
            assert generate_pool(ds, GRID5, assign_slices(ds, GRID5), syn).sizes.sum() == 0
            t = impute_dataset(ds, GRID5, synthesis_config=syn)
            np.testing.assert_array_equal(t.data, ds.values.reshape(3, 5, 2))


def grid_world(seed=0, n_samples=30, n_obs=3, n_slices=4, label_all="c"):
    """Small labeled dataset with predictable structure."""
    rng = np.random.default_rng(seed)
    times, values = [], []
    for _ in range(n_samples):
        times.append(np.sort(rng.uniform(0, 10, n_obs)))
        values.append([(rng.normal(), rng.normal()) for _ in range(n_obs)])
    ds = TimeSeriesDataset.from_segments(
        [f"s{i:03d}" for i in range(n_samples)], times, values, labels=[label_all] * n_samples
    )
    grid = build_slice_grid(ds, n_slices)
    return ds, grid


class TestImputeDataset:
    def test_tensor_shape_and_no_nulls(self):
        ds, grid = grid_world()
        t = impute_dataset(ds, grid, synthesis_config=SynthesisConfig(seed=1))
        assert t.shape == (30, 4, 2)
        assert not np.isnan(t.data).any()

    def test_real_observations_preserved(self, observed_grid):
        ds, grid = grid_world(seed=3)
        a = assign_slices(ds, grid)
        t = impute_dataset(ds, grid, a, SynthesisConfig(seed=1))
        expected = observed_grid(ds, a, grid.n_slices)
        mask = ~np.isnan(expected)
        np.testing.assert_array_equal(t.data[mask], expected[mask])

    def test_slice_mean_fill_value(self):
        # slice 0 holds observed values {2, 4, 6} -> missing slots get 4.0
        ds = dataset_of([
            ("a", [(0.0, (2.0,)), (2.0, (6.0,)), (9.0, (1.0,))]),
            ("b", [(1.0, (4.0,)), (10.0, (1.5,))]),
            ("miss", [(9.5, (1.2,))]),
        ])
        grid = build_slice_grid(ds, 2)
        assert grid.occupancy == (3, 3)
        t = impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        pos = 2  # "miss" has no observation in slice 0
        assert t.data[pos, 0, 0] == 4.0

    def test_complete_dataset_identical_across_methods(self):
        ds = dataset_of([
            (f"s{i}", [(float(j), (float(i + j), float(i - j))) for j in range(6)]) for i in range(4)
        ])
        grid = build_slice_grid(ds, 3)
        tensors = [
            impute_dataset(ds, grid, imputation_config=ImputationConfig(method=m)).data
            for m in METHODS
        ]
        np.testing.assert_array_equal(tensors[0], tensors[1])
        np.testing.assert_array_equal(tensors[0], tensors[2])

    def test_nulls_require_explicit_permission(self):
        ds = dataset_of([
            ("a", [(0.0, (None, 1.0)), (1.0, (2.0, 3.0))]),
            ("b", [(0.5, (4.0, 5.0)), (1.5, (6.0, 7.0))]),
        ])
        grid = build_slice_grid(ds, 1)
        with pytest.raises(ValueError, match="destroys cross-feature correlations"):
            impute_dataset(ds, grid, imputation_config=ImputationConfig())
        t = impute_dataset(
            ds,
            grid,
            synthesis_config=SynthesisConfig(seed=0),
            imputation_config=ImputationConfig(allow_null_feature_imputation=True),
        )
        assert not np.isnan(t.data).any()

    def test_fixed_features_constant_across_slots(self):
        rng = np.random.default_rng(9)
        samples = []
        for i in range(20):
            times = np.sort(rng.uniform(0, 10, 3))
            samples.append((f"p{i}", [(t, (40.0 + i, rng.normal())) for t in times]))
        ds = dataset_of(samples, fixed=1)
        grid = build_slice_grid(ds, 4)
        for method in ("tsmote", "slice_mean"):
            t = impute_dataset(
                ds, grid,
                synthesis_config=SynthesisConfig(seed=2),
                imputation_config=ImputationConfig(method=method),
            )
            for pos in range(20):
                assert np.all(t.data[pos, :, 0] == 40.0 + pos)

    def test_mean_collapse_variance_law_exact(self):
        # N samples, one observation each, occupancy exactly N / n_slices:
        # after slice_mean imputation each slot's variance is sigma^2 / n_slices
        rng = np.random.default_rng(4)
        n_slices, per_slice = 4, 8
        samples = []
        for i in range(n_slices * per_slice):
            slot = i % n_slices
            t = slot + 0.1 + 0.8 * rng.random()
            samples.append((f"s{i:02d}", [(t, (rng.normal(),))]))
        ds = dataset_of(samples)
        grid = build_slice_grid(ds, n_slices, bounds=(0.0, float(n_slices)))
        a = assign_slices(ds, grid)
        assert np.all(np.bincount(a, minlength=n_slices) == per_slice)

        t = impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        for si in range(n_slices):
            sigma2 = np.var(ds.values[a == si, 0])
            observed_var = np.var(t.data[:, si, 0])
            assert observed_var == pytest.approx(sigma2 / n_slices, abs=1e-12)

    def test_rows_distinct_under_continuous_noise(self):
        exp = generate_two_class_experiment(2)
        t = impute_dataset(exp.train, exp.grid, synthesis_config=SynthesisConfig(seed=3))
        flat = t.data.reshape(t.data.shape[0], -1)
        assert len(np.unique(flat, axis=0)) == flat.shape[0]

    def test_null_fixed_feature_resolved_consistently(self):
        # the fixed value is missing in the first observation but known later
        rng = np.random.default_rng(12)
        samples = [("gap", [(0.5, (None, 1.0)), (3.0, (55.0, 2.0)), (8.0, (55.0, 3.0))])]
        for i in range(15):
            times = np.sort(rng.uniform(0, 10, 3))
            samples.append((f"p{i}", [(t, (50.0 + i, rng.normal())) for t in times]))
        ds = dataset_of(samples, fixed=1)
        grid = build_slice_grid(ds, 3)
        t = impute_dataset(
            ds, grid,
            synthesis_config=SynthesisConfig(seed=1),
            imputation_config=ImputationConfig(allow_null_feature_imputation=True),
        )
        assert np.all(t.data[0, :, 0] == 55.0)

    def test_determinism_and_seed_isolation(self, observed_grid):
        exp = generate_two_class_experiment(5)
        a = assign_slices(exp.train, exp.grid)
        t1 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=7))
        t2 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=7))
        np.testing.assert_array_equal(t1.data, t2.data)

        t3 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=8))
        changed = t1.data != t3.data
        # differences are confined to slots with no original observation
        observed_mask = ~np.isnan(observed_grid(exp.train, a, exp.grid.n_slices))
        assert not changed[observed_mask].any()
        assert changed.any()


def reference_impute(dataset, grid, syn, imp, reshape):
    """The per-sample fill loop that the request table replaced, kept as its oracle.

    Draws one vector at a time: for each sample, its null-bearing rows in row
    order, then its empty slots in slice order.
    """
    a = assign_slices(dataset, grid)
    n_t, n_fix = grid.n_slices, dataset.fixed_prefix_len
    labels = dataset.class_labels() or [None]
    rng = np.random.default_rng(syn.seed)
    if imp.method == "tsmote":
        pool = generate_pool(dataset, grid, a, syn)
        cursor = np.zeros_like(pool.sizes)
    else:
        reduce = np.nanmean if imp.method == "slice_mean" else np.nanmedian
        stats = {}
        for lab in labels:
            for si in range(n_t):
                cell = dataset.values[(np.array(dataset.labels) == lab)[dataset.row_sample] & (a == si)]
                if len(cell) == 0:
                    raise ValueError(
                        f"class={lab!r} has no observations in slice {si}; cannot compute baseline statistic"
                    )
                if np.isnan(cell).all(axis=0).any():
                    raise ValueError(f"class={lab!r} slice={si} has a feature with no observed values")
                stats[lab, si] = reduce(cell, axis=0)

    def draw(lab, si):
        if imp.method != "tsmote":
            return stats[lab, si]
        c = labels.index(lab) * n_t + si
        size = int(pool.sizes[c])
        if size == 0:
            raise PoolUnderflowError(
                f"pool underflow: no synthetic vectors for class={lab!r} slice={si}"
                " (increase surplus_factor or use replacement_policy='with')"
            )
        if syn.replacement_policy == "with":
            return pool.vectors[pool.starts[c] + int(rng.integers(size))]
        if cursor[c] >= size:
            raise PoolUnderflowError(
                f"pool underflow: class={lab!r} slice={si} exhausted after "
                f"{size} draws (increase surplus_factor)"
            )
        cursor[c] += 1
        return pool.vectors[pool.starts[c] + cursor[c] - 1]

    def pin(mat):
        head = mat[:, :n_fix]
        fixed = head[np.isnan(head).argmin(axis=0), np.arange(n_fix)]
        known = ~np.isnan(fixed)
        head[:, known] = fixed[known]
        return fixed

    rows = np.empty((dataset.n_samples, n_t, dataset.n_features))
    for i, lab in enumerate(dataset.labels):
        lo, hi = dataset.offsets[i], dataset.offsets[i + 1]
        idx = a[lo:hi]
        mat = dataset.values[lo:hi].copy()
        pin(mat)
        nulls = np.isnan(mat)
        for r in np.flatnonzero(nulls.any(axis=1)):
            mat[r, nulls[r]] = draw(lab, int(idx[r]))[nulls[r]]
        fixed = pin(mat)
        row = reshape(mat, idx, n_t)
        empty = np.flatnonzero(np.isnan(row).any(axis=1))
        for si in empty:
            row[si] = draw(lab, int(si))
        row[np.ix_(empty, np.arange(n_fix))] = fixed
        rows[i] = row
    return rows


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(2, 9),
    n_features=st.integers(1, 3),
    fixed=st.booleans(),
    labeled=st.booleans(),
    null_rate=st.sampled_from([0.0, 0.15, 0.4]),
    n_slices=st.integers(1, 3),
    method=st.sampled_from(METHODS),
    policy=st.sampled_from(["with", "without"]),
    surplus=st.sampled_from([1.0, 1.01, 1.5]),
    k=st.integers(1, 3),
)
def test_fill_matches_per_sample_reference(
    reshape_reference, seed, n_samples, n_features, fixed, labeled, null_rate, n_slices, method,
    policy, surplus, k,
):
    """Same tensor bytes as the per-sample loop, or the same error."""
    rng = np.random.default_rng(seed)
    n_fix = int(fixed)
    times, values = [], []
    for i in range(n_samples):
        m = int(rng.integers(1, 6))
        times.append(np.sort(rng.integers(0, 8, m)).astype(float))  # duplicate times
        vals = rng.choice([-1.0, 0.0, 0.5, 2.0, 3.25], size=(m, n_features)) + rng.normal(0, 0.1, (m, n_features)).round(1)
        vals[:, :n_fix] = 40.0 + i
        vals[rng.random((m, n_features)) < null_rate] = np.nan
        if n_fix and i == 0:
            vals[:, 0] = np.nan  # a fixed feature never recorded
        values.append(vals)
    labels = [("a", "b")[i % 2] if labeled else None for i in range(n_samples)]
    ds = TimeSeriesDataset.from_segments(
        [f"s{i}" for i in range(n_samples)], times, values, labels=labels, fixed_prefix_len=n_fix
    )
    try:
        grid = build_slice_grid(ds, n_slices)
    except SliceGridError:
        assume(False)
    syn = SynthesisConfig(k_neighbors=k, surplus_factor=surplus, seed=seed % 97, replacement_policy=policy)
    imp = ImputationConfig(method=method, allow_null_feature_imputation=True)

    def run(fill):
        try:
            return fill()
        except (ValueError, RuntimeError) as e:
            return type(e), str(e)

    got = run(lambda: impute_dataset(ds, grid, synthesis_config=syn, imputation_config=imp).data.tobytes())
    want = run(lambda: reference_impute(ds, grid, syn, imp, reshape_reference).tobytes())
    assert got == want
    # generate_pool sizes every cell to cover its requests, so no cell runs short
    assert not (isinstance(got, tuple) and got[0] is PoolUnderflowError), got


# sha256 of write_tensor_csv(impute_dataset(...)) on the demo training set,
# keyed by (seed, replacement policy, method)
GOLDEN_DEMO_SHA256 = {
    (0, "with", "tsmote"): "74ccc9d81ab6bff4d40fdd7eed0b7bfb4da79620e1932e3b547545b131f641b0",
    (0, "with", "slice_mean"): "4ec821aeaa2e077967f4e6836b7409ec02900a2a3fc62d003e15fd094939eca7",
    (0, "with", "slice_median"): "12744d9901bbcad6a22e34e83e805612944fd3f41b32804fb9bde55cf3595476",
    (0, "without", "tsmote"): "54b1cb1643c23b0fe57d692c0c300a66d044c68a88f3c4afdcfdd65e68a0e66a",
    (0, "without", "slice_mean"): "4ec821aeaa2e077967f4e6836b7409ec02900a2a3fc62d003e15fd094939eca7",
    (0, "without", "slice_median"): "12744d9901bbcad6a22e34e83e805612944fd3f41b32804fb9bde55cf3595476",
    (1, "with", "tsmote"): "834530e785c06e3bcf4be45cc429bec2779804d351245d1927a4f0756f8548a7",
    (1, "with", "slice_mean"): "fa002ee6791e3cc1f1641ca6eba96e092cd7d563d8b207a213faf2e530cf413f",
    (1, "with", "slice_median"): "4002d0f4af047a126f8e4037396239ac94ccc32d87bbf23af31f30c572eb509e",
    (1, "without", "tsmote"): "3e93120e0f9919c52730133df9a69263ab09ed9b3100c8fe5d88b3a1de901570",
    (1, "without", "slice_mean"): "fa002ee6791e3cc1f1641ca6eba96e092cd7d563d8b207a213faf2e530cf413f",
    (1, "without", "slice_median"): "4002d0f4af047a126f8e4037396239ac94ccc32d87bbf23af31f30c572eb509e",
}


@pytest.fixture(scope="module")
def demo_experiments():
    return {seed: generate_two_class_experiment(seed) for seed in (0, 1)}


@pytest.mark.parametrize("seed, policy, method", sorted(GOLDEN_DEMO_SHA256))
def test_demo_output_bytes_pinned(demo_experiments, tmp_path, seed, policy, method):
    """Imputed CSV bytes on the demo training set stay what they were.

    The hashes were recorded with numpy 2.4.6. A refactor of imputation or
    synthesis must leave them unchanged; a deliberate change of draw order or
    arithmetic updates them and says why.
    """
    exp = demo_experiments[seed]
    tensor = impute_dataset(
        exp.train, exp.grid,
        synthesis_config=SynthesisConfig(seed=seed, replacement_policy=policy),
        imputation_config=ImputationConfig(method=method),
    )
    path = tmp_path / "imputed.csv"
    write_tensor_csv(tensor, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DEMO_SHA256[(seed, policy, method)]
