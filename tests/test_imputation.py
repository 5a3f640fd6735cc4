"""Tests for null replacement, grid reshaping, slot filling, and the pipeline."""

import hashlib

import numpy as np
import pytest

from tsmote.data import Observation, Sample, TimeSeriesDataset, write_tensor_csv
from tsmote.imputation import (
    ImputationConfig,
    fill_missing_slices,
    impute_dataset,
    replace_nulls,
    reshape_to_grid,
)
from tsmote.oscillator import generate_two_class_experiment
from tsmote.slicing import assign_slices, build_slice_grid
from tsmote.synthesis import PoolUnderflowError, SynthesisConfig, SyntheticPool


class FixedPool(SyntheticPool):
    """Pool stub returning queued vectors in order."""

    def __init__(self, queue, policy="without"):
        vectors = {k: np.asarray(v, dtype=float) for k, v in queue.items()}
        super().__init__(vectors, policy)


def sample_of(sid, recs, label=None, nfix=0):
    obs = tuple(Observation(t, tuple(v)) for t, v in recs)
    return Sample(id=sid, observations=obs, class_label=label, fixed_prefix_len=nfix)


def draw_from(pool, label, log=None):
    """``draw(slice_index)`` over one class of ``pool``; appends each slice drawn to ``log``."""
    rng = np.random.default_rng(0)

    def draw(si):
        if log is not None:
            log.append(si)
        return pool.draw(label, si, rng)

    return draw


class TestReplaceNulls:
    def test_identity_without_nulls(self):
        mat = np.array([[1.0, 2.0]])
        drawn = []
        out = replace_nulls(mat, (0,), draw_from(FixedPool({}), "c", drawn))
        np.testing.assert_array_equal(out, mat)
        assert drawn == []

    def test_componentwise_substitution(self):
        pool = FixedPool({("c", 2): [[7.5, 9.9]]})
        out = replace_nulls(np.array([[np.nan, 4.0]]), (2,), draw_from(pool, "c"))
        np.testing.assert_array_equal(out, [[7.5, 4.0]])

    def test_underflow_when_pool_exhausted(self):
        pool = FixedPool({("c", 0): [[7.5, 9.9]]})
        with pytest.raises(PoolUnderflowError, match="slice=0"):
            replace_nulls(np.array([[np.nan, 4.0], [np.nan, 5.0]]), (0, 0), draw_from(pool, "c"))


class TestReshape:
    def test_slots_follow_assignment(self):
        row = reshape_to_grid(np.array([[1.0, 2.0], [3.0, 4.0]]), (0, 3), 5)
        np.testing.assert_array_equal(row[0], [1.0, 2.0])
        np.testing.assert_array_equal(row[3], [3.0, 4.0])
        assert np.isnan(row[[1, 2, 4]]).all()

    def test_degenerate_slots_averaged(self):
        row = reshape_to_grid(np.array([[1.0, 1.0], [3.0, 5.0]]), (2, 2), 4)
        np.testing.assert_array_equal(row[2], [2.0, 3.0])

    def test_complete_sample_fully_populated(self):
        row = reshape_to_grid(np.arange(4.0).reshape(4, 1), (0, 1, 2, 3), 4)
        assert not np.isnan(row).any()

    def test_rejects_lingering_nulls(self):
        with pytest.raises(ValueError, match="still contains nulls"):
            reshape_to_grid(np.array([[np.nan]]), (0,), 2)


class TestFillMissing:
    def test_draws_fill_missing_slots(self):
        row = np.array([[1.0, 2.0], [np.nan, np.nan], [np.nan, np.nan], [5.0, 6.0]])
        pool = FixedPool({("c", 1): [[10.0, 11.0]], ("c", 2): [[20.0, 21.0]]})
        out = fill_missing_slices(row, draw_from(pool, "c"), np.array([]))
        np.testing.assert_array_equal(out[1], [10.0, 11.0])
        np.testing.assert_array_equal(out[2], [20.0, 21.0])
        np.testing.assert_array_equal(out[0], [1.0, 2.0])  # real data untouched

    def test_fixed_prefix_overwrites_drawn_vector(self):
        row = np.array([[67.0, 1.0], [np.nan, np.nan]])
        pool = FixedPool({("c", 1): [[52.0, 9.0]]})
        out = fill_missing_slices(row, draw_from(pool, "c"), np.array([67.0]))
        np.testing.assert_array_equal(out[1], [67.0, 9.0])

    def test_no_missing_consumes_nothing(self):
        row = np.array([[1.0], [2.0]])
        pool = FixedPool({("c", 0): [[9.0]], ("c", 1): [[9.0]]})
        drawn = []
        out = fill_missing_slices(row, draw_from(pool, "c", drawn), np.array([]))
        np.testing.assert_array_equal(out, row)
        assert drawn == []


def grid_world(seed=0, n_samples=30, n_obs=3, n_slices=4, label_all="c"):
    """Small labeled dataset with predictable structure."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        times = np.sort(rng.uniform(0, 10, n_obs))
        obs = tuple(
            Observation(float(t), (float(rng.normal()), float(rng.normal()))) for t in times
        )
        samples.append(Sample(id=f"s{i:03d}", observations=obs, class_label=label_all))
    ds = TimeSeriesDataset(tuple(samples), n_features=2)
    grid = build_slice_grid(ds, n_slices)
    return ds, grid


class TestImputeDataset:
    def test_tensor_shape_and_no_nulls(self):
        ds, grid = grid_world()
        t = impute_dataset(ds, grid, synthesis_config=SynthesisConfig(seed=1))
        assert t.shape == (30, 4, 2)
        assert not np.isnan(t.data).any()

    def test_real_observations_preserved(self):
        ds, grid = grid_world(seed=3)
        a = assign_slices(ds, grid)
        t = impute_dataset(ds, grid, a, SynthesisConfig(seed=1), ImputationConfig(seed=1))
        for pos, s in enumerate(ds.samples):
            expected = reshape_to_grid(s.value_matrix(), a.indices[pos], grid.n_slices)
            mask = ~np.isnan(expected)
            np.testing.assert_array_equal(t.data[pos][mask], expected[mask])

    def test_slice_mean_fill_value(self):
        # slice 0 holds observed values {2, 4, 6} -> missing slots get 4.0
        samples = (
            sample_of("a", [(0.0, (2.0,)), (2.0, (6.0,)), (9.0, (1.0,))], label="c"),
            sample_of("b", [(1.0, (4.0,)), (10.0, (1.5,))], label="c"),
            sample_of("miss", [(9.5, (1.2,))], label="c"),
        )
        ds = TimeSeriesDataset(samples, n_features=1)
        grid = build_slice_grid(ds, 2)
        assert grid.occupancy == (3, 3)
        t = impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        pos = 2  # "miss" has no observation in slice 0
        assert t.data[pos, 0, 0] == 4.0

    def test_complete_dataset_identical_across_methods(self):
        samples = tuple(
            sample_of(
                f"s{i}",
                [(float(j), (float(i + j), float(i - j))) for j in range(6)],
                label="c",
            )
            for i in range(4)
        )
        ds = TimeSeriesDataset(samples, n_features=2)
        grid = build_slice_grid(ds, 3)
        tensors = [
            impute_dataset(ds, grid, imputation_config=ImputationConfig(method=m)).data
            for m in ("tsmote", "slice_mean", "slice_median")
        ]
        np.testing.assert_array_equal(tensors[0], tensors[1])
        np.testing.assert_array_equal(tensors[0], tensors[2])

    def test_nulls_require_explicit_permission(self):
        samples = (
            sample_of("a", [(0.0, (None, 1.0)), (1.0, (2.0, 3.0))], label="c"),
            sample_of("b", [(0.5, (4.0, 5.0)), (1.5, (6.0, 7.0))], label="c"),
        )
        ds = TimeSeriesDataset(samples, n_features=2)
        grid = build_slice_grid(ds, 1)
        with pytest.raises(ValueError, match="destroys cross-feature correlations"):
            impute_dataset(ds, grid, imputation_config=ImputationConfig())
        t = impute_dataset(
            ds,
            grid,
            synthesis_config=SynthesisConfig(seed=0),
            imputation_config=ImputationConfig(allow_null_feature_imputation=True, seed=0),
        )
        assert not np.isnan(t.data).any()

    def test_fixed_features_constant_across_slots(self):
        rng = np.random.default_rng(9)
        samples = []
        for i in range(20):
            age = float(40 + i)
            times = np.sort(rng.uniform(0, 10, 3))
            obs = tuple(Observation(float(t), (age, float(rng.normal()))) for t in times)
            samples.append(
                Sample(id=f"p{i}", observations=obs, class_label="c", fixed_prefix_len=1)
            )
        ds = TimeSeriesDataset(tuple(samples), n_features=2)
        grid = build_slice_grid(ds, 4)
        for method in ("tsmote", "slice_mean"):
            t = impute_dataset(
                ds, grid,
                synthesis_config=SynthesisConfig(seed=2),
                imputation_config=ImputationConfig(method=method, seed=2),
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
            samples.append(
                sample_of(f"s{i:02d}", [(float(t), (float(rng.normal()),))], label="c")
            )
        ds = TimeSeriesDataset(tuple(samples), n_features=1)
        grid = build_slice_grid(ds, n_slices, bounds=(0.0, float(n_slices)))
        a = assign_slices(ds, grid)
        occupancy = np.zeros(n_slices, int)
        originals = {i: [] for i in range(n_slices)}
        for pos, idx in enumerate(a.indices):
            occupancy[idx[0]] += 1
            originals[idx[0]].append(ds.samples[pos].observations[0].values[0])
        assert np.all(occupancy == per_slice)

        t = impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        for si in range(n_slices):
            sigma2 = np.var(originals[si])
            observed = np.var(t.data[:, si, 0])
            assert observed == pytest.approx(sigma2 / n_slices, abs=1e-12)

    def test_rows_distinct_under_continuous_noise(self):
        exp = generate_two_class_experiment(2)
        t = impute_dataset(exp.train, exp.grid, synthesis_config=SynthesisConfig(seed=3),
                           imputation_config=ImputationConfig(seed=3))
        flat = t.data.reshape(t.data.shape[0], -1)
        assert len(np.unique(flat, axis=0)) == flat.shape[0]

    def test_null_fixed_feature_resolved_consistently(self):
        # the fixed value is missing in the first observation but known later
        rng = np.random.default_rng(12)
        samples = [
            sample_of(
                "gap",
                [(0.5, (None, 1.0)), (3.0, (55.0, 2.0)), (8.0, (55.0, 3.0))],
                label="c",
                nfix=1,
            )
        ]
        for i in range(15):
            times = np.sort(rng.uniform(0, 10, 3))
            obs = tuple(Observation(float(t), (50.0 + i, float(rng.normal()))) for t in times)
            samples.append(Sample(id=f"p{i}", observations=obs, class_label="c", fixed_prefix_len=1))
        ds = TimeSeriesDataset(tuple(samples), n_features=2)
        grid = build_slice_grid(ds, 3)
        t = impute_dataset(
            ds, grid,
            synthesis_config=SynthesisConfig(seed=1),
            imputation_config=ImputationConfig(seed=1, allow_null_feature_imputation=True),
        )
        assert np.all(t.data[0, :, 0] == 55.0)

    def test_replacement_policy_override(self):
        ds, grid = grid_world(seed=8, n_samples=12)
        syn = SynthesisConfig(seed=4, surplus_factor=1.0, replacement_policy="without")
        imp = ImputationConfig(seed=4, replacement_policy="with")
        t = impute_dataset(ds, grid, synthesis_config=syn, imputation_config=imp)
        assert not np.isnan(t.data).any()

    def test_determinism_and_seed_isolation(self):
        exp = generate_two_class_experiment(5)
        a = assign_slices(exp.train, exp.grid)
        t1 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=7), ImputationConfig(seed=7))
        t2 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=7), ImputationConfig(seed=7))
        np.testing.assert_array_equal(t1.data, t2.data)

        t3 = impute_dataset(exp.train, exp.grid, a, SynthesisConfig(seed=8), ImputationConfig(seed=8))
        changed = t1.data != t3.data
        # differences are confined to slots with no original observation
        for pos in range(exp.train.n_samples):
            expected = reshape_to_grid(
                exp.train.samples[pos].value_matrix(), a.indices[pos], exp.grid.n_slices
            )
            observed_mask = ~np.isnan(expected)
            assert not changed[pos][observed_mask].any()
        assert changed.any()


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
        imputation_config=ImputationConfig(method=method, seed=seed),
    )
    path = tmp_path / "imputed.csv"
    write_tensor_csv(tensor, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DEMO_SHA256[(seed, policy, method)]
