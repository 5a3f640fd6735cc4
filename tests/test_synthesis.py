"""Tests for nearest-neighbor search, slice synthesis, and pool generation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsmote.data import TimeSeriesDataset
from tsmote.slicing import assign_slices, build_slice_grid
from tsmote.synthesis import (
    LambdaSpec,
    PoolUnderflowError,
    SynthesisConfig,
    SynthesisError,
    SyntheticPool,
    _neighbor_table,
    generate_pool,
    knn_1d,
    synthesize_slice,
)


ROUNDING_VALUES = [1.0, 0.0, -1e-17, -2e-17, 2.0, 2.0 + 2**-51, 1.0 + 2**-52, 3.0]


def brute_force_knn(values, query, k):
    """Oracle: exhaustive distances, ties by smaller index."""
    order = sorted(
        (i for i in range(len(values)) if i != query),
        key=lambda i: (abs(values[i] - values[query]), i),
    )
    return order[:k]


class TestKnn1d:
    def test_basic(self):
        idx = knn_1d(np.array([1.0, 2.0, 5.0, 9.0]), 1, 2)
        assert sorted(idx.tolist()) == [0, 2]  # values 1 and 5

    def test_two_element_slice(self):
        assert knn_1d(np.array([4.0, 7.0]), 0, 1).tolist() == [1]

    def test_tie_breaks_to_smaller_index(self):
        idx = knn_1d(np.array([0.0, 1.0, 1.0, 3.0]), 0, 1)
        assert idx.tolist() == [1]

    def test_k_reduced_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            idx = knn_1d(np.array([1.0, 2.0, 3.0]), 0, 10)
        assert len(idx) == 2
        assert any("reducing" in r.message for r in caplog.records)

        # the pool's slice synthesis reduces k the same way and names the cell
        caplog.clear()
        cfg = SynthesisConfig(k_neighbors=10, lambda_dist=LambdaSpec.point_mass(1.0))
        with caplog.at_level("WARNING"):
            out = synthesize_slice(np.array([[1.0], [2.0], [3.0]]), cfg, 6,
                                   np.random.default_rng(0), label="class='c' slice=4")
        assert out[:, 0].tolist() == [2.0, 1.0, 2.0, 3.0, 3.0, 1.0]  # ranks 0 then 1
        assert any("reducing to 2" in r.message and "slice=4" in r.message for r in caplog.records)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(min_value=-20, max_value=20).map(float), min_size=2, max_size=40),
            # 2-dp-rounded values: tie groups longer than the window, inexact distances
            st.lists(st.floats(min_value=-0.5, max_value=0.5).map(lambda x: round(x, 2)),
                     min_size=2, max_size=40),
            # distinct values at the same float distance from 1.0 or 2.0
            st.lists(st.sampled_from(ROUNDING_VALUES), min_size=2, max_size=40),
        ),
        q=st.integers(min_value=0, max_value=39),
        k=st.integers(min_value=1, max_value=10),
    )
    # 0.0 sits inside the window and -2e-17 just past it, at the same distance
    @example(values=[1.0 + 2**-52, -2e-17, 0.0], q=0, k=1)
    # the distance 1e308 - -1e308 overflows to inf; the row is still not its own neighbor
    @example(values=[-1e308, 1e308, 0.0], q=0, k=2)
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_oracle(self, values, q, k):
        q = q % len(values)
        k = min(k, len(values) - 1)
        got = knn_1d(np.array(values), q, k).tolist()
        assert got == brute_force_knn(values, q, k)
        table = _neighbor_table(np.array(values), k)
        assert table.tolist() == [brute_force_knn(values, i, k) for i in range(len(values))]

    def test_table_memory_is_linear(self):
        values = np.round(np.random.default_rng(0).normal(size=4000), 2)
        tracemalloc.start()
        try:
            _neighbor_table(values, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # a dense 4000 x 4000 distance table alone is 128 MB


class TestSynthesizeSlice:
    def _single_column(self, vals):
        return np.asarray(vals, dtype=float).reshape(-1, 1)

    def test_lambda_zero_copies_seed(self):
        cfg = SynthesisConfig(k_neighbors=1, lambda_dist=LambdaSpec.point_mass(0.0))
        out = synthesize_slice(self._single_column([1.0, 3.0]), cfg, 2, np.random.default_rng(0))
        assert out[:, 0].tolist() == [1.0, 3.0]

    def test_lambda_one_copies_neighbor(self):
        cfg = SynthesisConfig(k_neighbors=1, lambda_dist=LambdaSpec.point_mass(1.0))
        out = synthesize_slice(self._single_column([1.0, 3.0]), cfg, 2, np.random.default_rng(0))
        assert out[:, 0].tolist() == [3.0, 1.0]

    def test_lambda_half_is_midpoint(self):
        cfg = SynthesisConfig(k_neighbors=1, lambda_dist=LambdaSpec.point_mass(0.5))
        out = synthesize_slice(self._single_column([1.0, 3.0]), cfg, 1, np.random.default_rng(0))
        assert out[0, 0] == 2.0

    def test_range_containment(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(0, 5, (40, 3))
        obs[5, 1] = np.nan  # independent-column path
        cfg = SynthesisConfig(k_neighbors=4)
        out = synthesize_slice(obs, cfg, 500, rng)
        for f in range(3):
            col = obs[:, f]
            col = col[~np.isnan(col)]
            assert out[:, f].min() >= col.min() - 1e-12
            assert out[:, f].max() <= col.max() + 1e-12

    def test_too_few_values_error_names_feature_and_slice(self):
        obs = np.array([[1.0, np.nan], [2.0, 3.0]])
        cfg = SynthesisConfig()
        with pytest.raises(SynthesisError, match=r"feature 1 in class='c' slice=4"):
            synthesize_slice(obs, cfg, 5, np.random.default_rng(0), label="class='c' slice=4")

    def test_deterministic_given_rng_seed(self):
        obs = np.random.default_rng(1).normal(size=(20, 2))
        cfg = SynthesisConfig(k_neighbors=3)
        a = synthesize_slice(obs, cfg, 50, np.random.default_rng(42))
        b = synthesize_slice(obs, cfg, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_correlated_assembly_preserves_correlation_sign(self):
        # Null-free path: components of one vector share a seed observation,
        # so strong correlations survive (contracted, not destroyed).
        rng = np.random.default_rng(7)
        z = rng.standard_normal(200)
        obs = np.column_stack([z, z + 0.1 * rng.standard_normal(200)])
        cfg = SynthesisConfig(k_neighbors=5)
        out = synthesize_slice(obs, cfg, 2000, rng)
        corr = np.corrcoef(out.T)[0, 1]
        assert corr > 0.9

    def test_mean_preserved_over_full_enumeration(self):
        rng = np.random.default_rng(11)
        obs = rng.standard_normal((60, 2))
        cfg = SynthesisConfig(k_neighbors=59)
        reps = 30
        errs = np.empty((reps, 2))
        for r in range(reps):
            out = synthesize_slice(obs, cfg, 60 * 59, np.random.default_rng(r))
            errs[r] = out.mean(axis=0) - obs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(errs.mean(axis=0)) <= 3 * se)


class TestLambdaSpec:
    def test_uniform_moments(self):
        lam = LambdaSpec.uniform()
        assert lam.mean == 0.5
        assert lam.variance == pytest.approx(1 / 12)
        assert lam.second_moment == pytest.approx(1 / 3)

    def test_beta_moments(self):
        lam = LambdaSpec.beta(2, 5)
        assert lam.mean == pytest.approx(2 / 7)
        assert lam.second_moment == pytest.approx(3 / 28)

    def test_point_mass_bounds(self):
        with pytest.raises(ValueError):
            LambdaSpec.point_mass(1.5)

    def test_parse(self):
        assert LambdaSpec.parse("uniform") == LambdaSpec.uniform()
        assert LambdaSpec.parse("beta:2,5") == LambdaSpec.beta(2, 5)
        assert LambdaSpec.parse("point:0.3") == LambdaSpec.point_mass(0.3)
        with pytest.raises(ValueError):
            LambdaSpec.parse("gaussian")

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.2, max_value=10),
        b=st.floats(min_value=0.2, max_value=10),
    )
    def test_moment_consistency_and_support(self, a, b):
        lam = LambdaSpec.beta(a, b)
        assert lam.variance == pytest.approx(lam.second_moment - lam.mean**2)
        draws = lam.sample(np.random.default_rng(0), 100)
        assert np.all((draws >= 0) & (draws <= 1))


def two_class_dataset(n_per_class=50, n_obs=4, seed=0, with_null=False):
    rng = np.random.default_rng(seed)
    ids, times, values, labels = [], [], [], []
    for label in ("u", "v"):
        for i in range(n_per_class):
            times.append(np.sort(rng.uniform(0, 10, n_obs)))
            vals = rng.normal(size=(n_obs, 2))
            if with_null and i == 0:
                vals[0, 0] = np.nan
            values.append(vals)
            ids.append(f"{label}{i}")
            labels.append(label)
    return TimeSeriesDataset.from_segments(ids, times, values, labels=labels)


def sequential_serve(pool, cells, rng):
    """Oracle: one request at a time, as the pool served draws one by one."""
    cursor = np.zeros_like(pool.sizes)
    out = []
    for c in cells:
        c = int(c)
        lab, si = pool.labels[c // pool.n_slices], c % pool.n_slices
        size = int(pool.sizes[c])
        if size == 0:
            raise PoolUnderflowError(
                f"pool underflow: no synthetic vectors for class={lab!r} slice={si}"
                " (increase surplus_factor or use replacement_policy='with')"
            )
        if pool.replacement_policy == "with":
            pick = int(rng.integers(size))
        else:
            if cursor[c] >= size:
                raise PoolUnderflowError(
                    f"pool underflow: class={lab!r} slice={si} exhausted after "
                    f"{size} draws (increase surplus_factor)"
                )
            pick = cursor[c]
            cursor[c] += 1
        out.append(pool.vectors[pool.starts[c] + pick])
    return np.array(out).reshape(len(cells), pool.vectors.shape[1])


def outcome(fn, *args):
    """``fn(*args)``'s result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


class TestGeneratePool:
    def test_pool_size_matches_missing_count(self):
        # 100 samples, one observation each; a slice covers 40 of them
        rng = np.random.default_rng(5)
        times = [[rng.uniform(0, 1) if i < 40 else rng.uniform(1, 2)] for i in range(100)]
        values = [[[rng.normal()]] for _ in range(100)]
        ds = TimeSeriesDataset.from_segments([f"s{i}" for i in range(100)], times, values)
        grid = build_slice_grid(ds, 2, bounds=(0.0, 2.0))
        # grid split is count-based; rebuild membership from the assignment
        a = assign_slices(ds, grid)
        in_slice0 = int(np.sum(a == 0))
        cfg = SynthesisConfig(surplus_factor=1.0, seed=1)
        pool = generate_pool(ds, grid, a, cfg)
        assert len(pool.cell(None, 0)) >= 100 - in_slice0
        cfg2 = SynthesisConfig(surplus_factor=2.0, seed=1)
        pool2 = generate_pool(ds, grid, a, cfg2)
        assert len(pool2.cell(None, 0)) == 2 * (100 - in_slice0)

    def test_no_missing_means_empty_pool(self):
        # every sample observes every slice: nothing to draw
        ds = TimeSeriesDataset.from_segments(
            [f"s{i}" for i in range(6)],
            [[0.0, 1.0, 2.0, 3.0]] * 6,
            [[[i + t] for t in (0.0, 1.0, 2.0, 3.0)] for i in range(6)],
        )
        grid = build_slice_grid(ds, 2)
        a = assign_slices(ds, grid)
        pool = generate_pool(ds, grid, a, SynthesisConfig(surplus_factor=1.0))
        assert len(pool.cell(None, 0)) == 0 and len(pool.cell(None, 1)) == 0

    def test_pool_deterministic_from_seed(self):
        ds = two_class_dataset()
        grid = build_slice_grid(ds, 5)
        a = assign_slices(ds, grid)
        p1 = generate_pool(ds, grid, a, SynthesisConfig(seed=9))
        p2 = generate_pool(ds, grid, a, SynthesisConfig(seed=9))
        np.testing.assert_array_equal(p1.vectors, p2.vectors)
        np.testing.assert_array_equal(p1.sizes, p2.sizes)

    def test_without_replacement_consumes_and_underflows(self):
        ds = two_class_dataset()
        grid = build_slice_grid(ds, 5)
        a = assign_slices(ds, grid)
        pool = generate_pool(ds, grid, a, SynthesisConfig(seed=3, surplus_factor=1.0))
        rng = np.random.default_rng(0)
        n = len(pool.cell("u", 0))
        assert n > 0
        cells = np.zeros(n, dtype=np.intp)  # cell 0 is ("u", slice 0)
        np.testing.assert_array_equal(pool.serve(cells, rng), pool.cell("u", 0))
        with pytest.raises(PoolUnderflowError, match="slice=0 exhausted after"):
            pool.serve(np.zeros(n + 1, dtype=np.intp), rng)

    def test_with_replacement_never_underflows(self):
        ds = two_class_dataset()
        grid = build_slice_grid(ds, 5)
        a = assign_slices(ds, grid)
        pool = generate_pool(
            ds, grid, a, SynthesisConfig(seed=3, surplus_factor=1.0, replacement_policy="with")
        )
        n = len(pool.cell("u", 0))
        drawn = pool.serve(np.zeros(3 * n, dtype=np.intp), np.random.default_rng(0))
        assert len(drawn) == 3 * n
        assert {tuple(v) for v in drawn} <= {tuple(v) for v in pool.cell("u", 0)}

    def test_null_bearing_observations_reserve_draws(self):
        ds = two_class_dataset(with_null=True)
        grid = build_slice_grid(ds, 5)
        a = assign_slices(ds, grid)
        base = generate_pool(two_class_dataset(), grid, assign_slices(two_class_dataset(), grid),
                             SynthesisConfig(surplus_factor=1.0))
        with_null = generate_pool(ds, grid, a, SynthesisConfig(surplus_factor=1.0))
        # one null-bearing observation per class reserves one extra draw each
        assert with_null.sizes.sum() == base.sizes.sum() + 2


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    requests=st.lists(st.integers(0, 5), max_size=30),
    policy=st.sampled_from(["with", "without"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_serve_matches_one_request_at_a_time(sizes, requests, policy, seed):
    """Batched serving gives the vectors, the underflow and the RNG state of one-by-one draws."""
    sizes = np.array(sizes, dtype=np.intp)
    pool = SyntheticPool(
        labels=("a", "b"), n_slices=len(sizes), vectors=np.arange(2 * sizes.sum(), dtype=float)[:, None],
        starts=np.concatenate(([0], np.cumsum(np.tile(sizes, 2))[:-1])), sizes=np.tile(sizes, 2),
        replacement_policy=policy,
    )
    cells = np.array([r % (2 * len(sizes)) for r in requests], dtype=np.intp)
    rng_batch, rng_one = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = outcome(pool.serve, cells, rng_batch), outcome(sequential_serve, pool, cells, rng_one)
    if isinstance(want, tuple):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)
        assert rng_batch.bit_generator.state == rng_one.bit_generator.state
