"""Tests for nearest-neighbor search, slice synthesis, and pool generation."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tsmote.data import TimeSeriesDataset
from tsmote.slicing import Requests, assign_slices, build_slice_grid
from tsmote.synthesis import (
    LambdaSpec,
    SynthesisConfig,
    SynthesisError,
    _neighbor_table,
    generate_pool,
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
    """One value's neighbors: row ``q`` of ``_neighbor_table``."""

    def test_basic(self):
        idx = _neighbor_table(np.array([1.0, 2.0, 5.0, 9.0]), 2)[1]
        assert sorted(idx.tolist()) == [0, 2]  # values 1 and 5

    def test_two_element_slice(self):
        assert _neighbor_table(np.array([4.0, 7.0]), 1)[0].tolist() == [1]

    def test_tie_breaks_to_smaller_index(self):
        idx = _neighbor_table(np.array([0.0, 1.0, 1.0, 3.0]), 1)[0]
        assert idx.tolist() == [1]

    def test_k_reduced_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            idx = _neighbor_table(np.array([1.0, 2.0, 3.0]), 10)[0]
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
        table = _neighbor_table(np.array(values), k)
        assert table[q].tolist() == brute_force_knn(values, q, k)
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

    @pytest.mark.parametrize("args, cause", [
        (("Uniform",), "lambda kind must be uniform01, beta or point_mass, not 'Uniform'"),
        (("uniform01", 0.5), "uniform01 takes no parameters"),
        (("point_mass", 2.0), "point mass must lie in"),
        (("point_mass", 0.3, 1.0), "point mass must lie in"),
        (("beta", 0, 0), "beta parameters must be positive and finite"),
    ], ids=["unknown-kind", "uniform-with-parameter", "point-above-1", "point-with-b", "beta-zero"])
    def test_direct_construction_is_checked(self, args, cause):
        # a spec that gets past construction would sample outside [0, 1] or only at sampling time
        with pytest.raises(ValueError, match=re.escape(cause)):
            LambdaSpec(*args)

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


def reference_pool(ds, n_slices, assignment, cells, config):
    """Oracle: each cell's vectors from ``synthesize_slice`` on the cell's own
    ``SeedSequence``, then the order its requests take them from the same stream,
    served one request at a time."""
    labels = ds.classes
    row_class = np.array(ds.labels, dtype=object)[ds.row_sample]
    sizes = np.bincount(cells, minlength=len(labels) * n_slices)
    pools = []
    for c, size in enumerate(sizes):
        rows = ds.values[(row_class == labels[c // n_slices]) & (assignment == c % n_slices)]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(c // n_slices, c % n_slices))
        )
        pool = synthesize_slice(rows, config, size, rng)
        if config.replacement_policy == "with":
            pools.append([pool[int(rng.integers(size))] for _ in range(size)])
        else:
            pools.append(pool[rng.permutation(size)])
    cursor = np.zeros_like(sizes)
    out = []
    for c in cells:
        out.append(pools[c][cursor[c]])
        cursor[c] += 1
    return np.array(out).reshape(len(cells), ds.n_features)


def serving_order(ds, n_slices, a):
    """Oracle: each request's buffer row and (class, slice) cell, sample by sample: the rows
    that hold a null once the prefix is pinned, in row order, then the empty slots in slice order."""
    n_slots, rows, cells = ds.n_samples * n_slices, [], []
    pinned = ds.values.copy()
    pinned[:, : ds.fixed_prefix_len] = ds.fixed_values[ds.row_sample]
    null_rows = list(np.flatnonzero(np.isnan(pinned).any(axis=1)))
    for i in range(ds.n_samples):
        cell = ds.class_codes[i] * n_slices
        for r in range(ds.offsets[i], ds.offsets[i + 1]):
            if r in null_rows:
                rows.append(n_slots + null_rows.index(r))
                cells.append(cell + a[r])
        for si in sorted(set(range(n_slices)) - set(a[ds.offsets[i] : ds.offsets[i + 1]])):
            rows.append(i * n_slices + si)
            cells.append(cell + si)
    return np.array(rows, dtype=np.intp), np.array(cells, dtype=np.intp)


def pool_for(ds, grid, config):
    """The requests' cells in a tsmote impute, and the vectors the pool serves them, in serving order."""
    a = assign_slices(ds, grid)
    requests = Requests(ds, grid.n_slices, a)
    out = np.full((requests.n_rows, ds.n_features), np.inf)
    generate_pool(requests, out, config)
    rows, cells = serving_order(ds, grid.n_slices, a)
    return cells, out[rows]


def with_nulls(ds, rate, seed):
    """``ds`` with each row's x or y (never both) left null with probability ``rate``."""
    rng = np.random.default_rng(seed)
    values = ds.values.copy()
    hit = np.flatnonzero(rng.random(len(values)) < rate)
    values[hit, rng.integers(0, 2, hit.size)] = np.nan
    return dataclasses.replace(ds, values=values)


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
        cells, drawn = pool_for(ds, grid, SynthesisConfig(seed=1))
        # each sample misses one slice and asks it for one vector
        np.testing.assert_array_equal(np.bincount(cells), [100 - in_slice0, in_slice0])
        assert drawn.shape == (100, 1)
        # every request is served from its own cell: inside that slice's value range
        for si in (0, 1):
            col = ds.values[a == si, 0]
            assert col.min() <= drawn[cells == si].min() and drawn[cells == si].max() <= col.max()

    def test_no_missing_means_empty_pool(self):
        # every sample observes every slice: nothing to draw
        ds = TimeSeriesDataset.from_segments(
            [f"s{i}" for i in range(6)],
            [[0.0, 1.0, 2.0, 3.0]] * 6,
            [[[i + t] for t in (0.0, 1.0, 2.0, 3.0)] for i in range(6)],
        )
        cells, drawn = pool_for(ds, build_slice_grid(ds, 2), SynthesisConfig())
        assert cells.size == 0 and drawn.shape == (0, 1)

    def test_pool_deterministic_from_seed(self):
        ds = two_class_dataset()
        grid = build_slice_grid(ds, 5)
        c1, p1 = pool_for(ds, grid, SynthesisConfig(seed=9))
        c2, p2 = pool_for(ds, grid, SynthesisConfig(seed=9))
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(p1, p2)

    def test_without_replacement_serves_in_order(self):
        ds = two_class_dataset()
        grid = build_slice_grid(ds, 5)
        config = SynthesisConfig(seed=3)
        cells, drawn = pool_for(ds, grid, config)
        assert (cells == 0).any()  # cell 0 is ("u", slice 0)
        np.testing.assert_array_equal(drawn, reference_pool(ds, 5, assign_slices(ds, grid), cells, config))

    def test_null_bearing_observations_reserve_draws(self):
        base_ds, ds = two_class_dataset(), two_class_dataset(with_null=True)
        grid = build_slice_grid(ds, 5)
        a = assign_slices(base_ds, grid)
        base_cells, base = pool_for(base_ds, grid, SynthesisConfig())
        null_cells, with_null = pool_for(ds, grid, SynthesisConfig())
        # without nulls each sample asks once for every slice it misses
        observed_slots = np.unique(base_ds.row_sample * 5 + a).size
        assert len(base) == base_ds.n_samples * 5 - observed_slots
        # the first row of u0 and of v0 holds a null: one more draw from each of their cells
        null_cells_added = [a[0], 5 + a[base_ds.offsets[50]]]
        np.testing.assert_array_equal(
            np.bincount(null_cells, minlength=10) - np.bincount(base_cells, minlength=10),
            np.bincount(null_cells_added, minlength=10),
        )
        assert len(with_null) == len(base) + 2


@settings(max_examples=200, deadline=None)
@given(
    n_obs=st.integers(2, 4),
    null_rate=st.sampled_from([0.0, 0.2]),
    policy=st.sampled_from(["with", "without"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_serve_matches_one_request_at_a_time(n_obs, null_rate, policy, seed):
    """Serving a cell at a time gives the vectors of one-by-one draws in serving order."""
    ds = with_nulls(two_class_dataset(n_per_class=8, n_obs=n_obs, seed=seed % 5), null_rate, seed)
    grid = build_slice_grid(ds, 3)
    config = SynthesisConfig(k_neighbors=2, seed=seed, replacement_policy=policy)
    try:
        cells, got = pool_for(ds, grid, config)
        want = reference_pool(ds, 3, assign_slices(ds, grid), cells, config)
    except SynthesisError:
        assume(False)
    np.testing.assert_array_equal(got, want)


def test_requests_list_the_serving_order():
    """``rows`` lists each cell's share of the requests in serving order, and ``sizes`` counts
    them; a row whose never-recorded prefix is pinned to NaN asks too, and its cell reads the prefix.
    Iterating yields every cell in cell order with its observations in dataset order and its rows."""
    ds = with_nulls(two_class_dataset(n_per_class=40, n_obs=6), 0.2, 1)
    values = ds.values.copy()
    values[ds.offsets[3] : ds.offsets[4], 0] = np.nan  # sample 3 never records its prefix
    ds = dataclasses.replace(ds, values=values, fixed_prefix_len=1)
    grid = build_slice_grid(ds, 10)
    a = assign_slices(ds, grid)
    rows, cells = serving_order(ds, 10, a)
    requests = Requests(ds, 10, a)
    np.testing.assert_array_equal(requests.sizes, np.bincount(cells, minlength=20))
    for c in range(20):
        np.testing.assert_array_equal(requests.rows(c), rows[cells == c])
    in_cell = ds.class_codes[ds.row_sample] * 10 + a
    assert [c for c, *_ in requests] == list(range(20))
    for c, name, obs, cell_rows in requests:
        assert name == f"class={ds.classes[c // 10]!r} slice={c % 10}"
        np.testing.assert_array_equal(obs, ds.values[in_cell == c])
        np.testing.assert_array_equal(cell_rows, rows[cells == c])
    assert requests.n_rows == ds.n_samples * 10 + len(requests.null_rows)
    assert set(range(ds.offsets[3], ds.offsets[4])) <= set(requests.null_rows)
    # only the cells of sample 3's rows read the prefix
    reads = {ds.class_codes[3] * 10 + si for si in a[ds.offsets[3] : ds.offsets[4]]}
    np.testing.assert_array_equal(requests.unrecorded, np.isin(np.arange(20), list(reads))[:, None])
