"""Tests for the dataset-level fill: null replacement, slot averaging, slot filling."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tsmote import imputation, synthesis
from tsmote.data import TimeSeriesDataset, write_tensor_csv
from tsmote.imputation import METHODS, ImputationConfig, impute_dataset
from tsmote.oscillator import generate_two_class_experiment
from tsmote.slicing import (
    MIDPOINT, Requests, SliceGrid, SliceGridError, assign_slices, build_slice_grid, cell_blocks,
)
from tsmote.synthesis import SynthesisConfig, SynthesisError, synthesize_slice

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

    def test_rejects_assignment_going_down_within_a_sample(self, monkeypatch):
        # rows are time-sorted within a sample, so no slice grid assigns them a lower slice later;
        # the check comes before any fill work
        def fill(*args):
            pytest.fail("the fill ran before the assignment was checked")

        monkeypatch.setattr(imputation, "generate_pool", fill)
        monkeypatch.setattr(imputation, "_slice_statistics", fill)
        ds = with_background(("x", [(0.5, (1.0, 2.0)), (3.5, (3.0, 4.0))]))
        assignment = assign_slices(ds, GRID5)
        assignment[[0, 1]] = assignment[[1, 0]]
        for method in METHODS:
            with pytest.raises(ValueError, match="assignment goes down within a sample"):
                impute_dataset(ds, GRID5, assignment, imputation_config=ImputationConfig(method=method))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("row, value", [(1, 5), (0, -1)])
    def test_rejects_assignment_outside_the_grid(self, method, row, value):
        # still non-decreasing within the sample: slice 5 would be the next sample's slot 0
        ds = with_background(("x", [(0.5, (1.0, 2.0)), (3.5, (3.0, 4.0))]))
        assignment = assign_slices(ds, GRID5)
        assignment[row] = value
        with pytest.raises(ValueError, match=rf"assignment {value} at row {row} is outside \[0, 5\)"):
            impute_dataset(ds, GRID5, assignment, imputation_config=ImputationConfig(method=method))

    @pytest.mark.parametrize("method, error, message", [
        ("slice_mean", ValueError, "slice=0 has a feature with no observed values"),
        ("slice_median", ValueError, "slice=0 has a feature with no observed values"),
        ("tsmote", SynthesisError, "feature 0 in class='c' slice=0 has 0 non-null values"),
    ], ids=["slice_mean", "slice_median", "tsmote"])
    def test_rejects_lingering_nulls(self, method, error, message):
        # a null component that no source can replace is an error, never a NaN in the tensor;
        # both slices lack feature 0, and the first in cell order is named
        ds = dataset_of([
            ("a", [(0.5, (None, 1.0)), (1.5, (None, 2.0))]),
            ("b", [(0.6, (None, 3.0)), (1.6, (None, 4.0))]),
        ])
        grid = build_slice_grid(ds, 2)
        with pytest.raises(error, match=message):
            impute_dataset(ds, grid, imputation_config=ImputationConfig(method, allow_null_feature_imputation=True))


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
            syn = SynthesisConfig(replacement_policy=policy)
            # nothing is requested, so the pool is built empty
            assert Requests(ds, GRID5.n_slices, assign_slices(ds, GRID5)).sizes.sum() == 0
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

    @pytest.mark.parametrize("n_slices", [50, 200])
    def test_fixed_prefix_kept_in_averaged_slots(self, n_slices):
        # ages that are not whole numbers: a running mean over a slot of three or
        # more rows of one age can change its last bits, so no slot may average them
        train = generate_two_class_experiment(0).train
        ages = 20.0 + np.arange(train.n_samples) / 7.0
        ds = TimeSeriesDataset(
            train.ids, train.offsets, train.times, np.column_stack((ages[train.row_sample], train.values)),
            train.labels, ("age", "x", "y"), fixed_prefix_len=1,
        )
        grid = build_slice_grid(ds, n_slices)
        assert np.bincount(train.row_sample * n_slices + assign_slices(ds, grid)).max() >= 3
        t = impute_dataset(ds, grid, imputation_config=ImputationConfig(method="slice_mean"))
        np.testing.assert_array_equal(t.data[:, :, 0], np.repeat(ages[:, None], n_slices, axis=1))

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


def test_another_class_leaves_the_draws_alone():
    """Every cell draws from its own stream under replacement too: prepending samples of
    a new class to the file leaves every other sample's rows bit for bit."""
    exp = generate_two_class_experiment(0)
    train = exp.train
    copies = [i for i, lab in enumerate(train.labels) if lab == "w4"]
    bounds = list(zip(train.offsets[:-1], train.offsets[1:]))
    order = copies + list(range(train.n_samples))
    ds = TimeSeriesDataset.from_segments(
        [f"copy-{train.ids[i]}" for i in copies] + list(train.ids),
        [train.times[a:b] for a, b in (bounds[i] for i in order)],
        [train.values[a:b] for a, b in (bounds[i] for i in order)],
        labels=["w9"] * len(copies) + list(train.labels),
    )
    syn = SynthesisConfig(replacement_policy="with")
    alone = impute_dataset(train, exp.grid, synthesis_config=syn).data
    beside = impute_dataset(ds, exp.grid, synthesis_config=syn).data
    assert ds.classes == ("w2", "w4", "w9") and len(copies) > 0
    assert beside[len(copies):].tobytes() == alone.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_prefix_recorded_once_needs_no_flag(method):
    """An age recorded at each sample's first visit only is pinned like one recorded on every
    row: no flag, and the same tensor bytes, though many cells hold fewer than two ages."""
    train = generate_two_class_experiment(0).train
    age = np.repeat(40.0 + np.arange(train.n_samples), train.counts)
    every = dataclasses.replace(train, values=np.column_stack((age, train.values)),
                                feature_names=("age", *train.feature_names), fixed_prefix_len=1)
    age[np.setdiff1d(np.arange(len(age)), train.offsets[:-1])] = np.nan
    once = dataclasses.replace(every, values=np.column_stack((age, train.values)))
    grid = build_slice_grid(every, 20)
    imp = ImputationConfig(method=method)
    want = impute_dataset(every, grid, imputation_config=imp).data
    assert impute_dataset(once, grid, imputation_config=imp).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("policy", ["with", "without"])
def test_pool_sized_to_the_requests_served(monkeypatch, policy):
    """Each cell makes as many vectors as the fill draws from it.

    Without replacement every vector is drawn once. The input's fixed prefix
    has nulls that pinning fills; those rows ask for nothing.
    """
    made, served = [], []
    synthesize, generate = synthesis.synthesize_slice, synthesis.generate_pool

    def record_made(*args, **kwargs):
        made.append(synthesize(*args, **kwargs))
        return made[-1]

    def record_served(dataset, n_slices, assignment, requests, out, config):
        generate(dataset, n_slices, assignment, requests, out, config)
        cells = np.arange(len(requests.sizes))
        served.append((np.repeat(cells, requests.sizes), out[np.concatenate([requests.rows(c) for c in cells])]))

    monkeypatch.setattr(synthesis, "synthesize_slice", record_made)
    monkeypatch.setattr(imputation, "generate_pool", record_served)
    train = generate_two_class_experiment(1).train
    values = train.values.copy()
    values[1::7, 0] = np.nan  # nulls in the fixed prefix, each one filled by pinning
    values[::11, 1] = np.nan
    ds = dataclasses.replace(train, values=values, fixed_prefix_len=1)
    grid = build_slice_grid(ds, 20)
    impute_dataset(ds, grid, synthesis_config=SynthesisConfig(seed=4, replacement_policy=policy),
                   imputation_config=ImputationConfig(allow_null_feature_imputation=True))

    (cells, drawn), = served
    n_requests = np.isnan(values[:, 1]).sum() + ds.n_samples * 20 - np.unique(
        ds.row_sample * 20 + assign_slices(ds, grid)).size
    assert len(made) == 2 * 20
    assert len(cells) == len(drawn) == n_requests
    np.testing.assert_array_equal(np.bincount(cells, minlength=len(made)), [len(v) for v in made])
    if policy == "without":
        # every sample records its prefix, so the pool leaves that column NaN, which sorts last
        def by_rows(v):
            return v[np.lexsort(v.T[::-1])]

        assert np.isnan(drawn[:, 0]).all()
        np.testing.assert_array_equal(by_rows(drawn), by_rows(np.concatenate(made)))


def fill_peak(ds, grid, method, policy):
    """The tracemalloc peak of one ``impute_dataset`` call, and the tensor it returns."""
    syn = SynthesisConfig(replacement_policy=policy)
    imp = ImputationConfig(method=method, allow_null_feature_imputation=True)
    impute_dataset(ds, grid, synthesis_config=syn, imputation_config=imp)  # the dataset's cached arrays
    tracemalloc.start()
    try:
        tensor = impute_dataset(ds, grid, synthesis_config=syn, imputation_config=imp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, tensor


FILL_CASES = [("tsmote", "with"), ("tsmote", "without"), ("slice_median", "with")]


@pytest.mark.parametrize("method, policy", FILL_CASES)
def test_fill_holds_about_one_tensor(method, policy):
    """The draws go straight into the tensor's buffer, and no request-length table is kept.

    1 000 samples of 6 rows in 100 slices, 2 classes, an age prefix and 20% of
    rows with a null: 94% of the 100 000 slots are requests. Under tracemalloc
    the peak was 3.8-4.0 times the tensor's 2.4 MB when the draws were gathered
    into a request-ordered copy and scattered, 1.9-2.5 times with a request
    table beside the buffer, and 1.2-1.4 times with each cell's rows listed
    from the slot mask.
    """
    n, m = 1000, 6
    rng = np.random.default_rng(0)
    values = rng.normal(size=(n * m, 3))
    values[:, 0] = np.repeat(rng.integers(20, 80, n), m)
    values[rng.random(n * m) < 0.2, 1 + rng.integers(0, 2)] = np.nan
    ds = TimeSeriesDataset(tuple(f"s{i}" for i in range(n)), np.arange(0, n * m + 1, m),
                           np.sort(rng.uniform(0, 10, (n, m)), axis=1).ravel(), values,
                           labels=tuple("ab"[i % 2] for i in range(n)), fixed_prefix_len=1)
    peak, tensor = fill_peak(ds, build_slice_grid(ds, 100), method, policy)
    assert tensor.data.nbytes == 2_400_000
    assert peak < 1.6 * tensor.data.nbytes, peak


@pytest.mark.parametrize("method, policy", FILL_CASES)
def test_dense_fill_holds_about_two_tensors(method, policy):
    """The tsmote-dense benchmark's shape: 5 000 samples of 5 to 20 rows in 50 slices, 2 features.

    The dataset's values are a quarter of the tensor's 4 MB. Under tracemalloc
    the peak was 2.8-3.6 times the tensor with a request table beside the
    buffer, and 2.1 times without.
    """
    rng = np.random.default_rng(1)
    m = rng.integers(5, 21, 5000)
    ds = TimeSeriesDataset(tuple(f"s{i}" for i in range(5000)), np.concatenate(([0], np.cumsum(m))),
                           np.concatenate([np.sort(rng.uniform(0, 2 * np.pi, k)) for k in m]),
                           rng.normal(size=(m.sum(), 2)), labels=tuple(("w2", "w4")[i % 2] for i in range(5000)))
    peak, tensor = fill_peak(ds, build_slice_grid(ds, 50), method, policy)
    assert tensor.data.nbytes == 4_000_000
    assert peak < 2.5 * tensor.data.nbytes, peak


def reference_impute(dataset, grid, syn, imp, reshape):
    """The per-sample fill loop that the request table replaced, kept as its oracle.

    Draws one vector at a time: for each sample, its null-bearing rows in row
    order, then its empty slots in slice order. Under tsmote a first pass
    counts each cell's draws, and each cell's pool is built from
    ``synthesize_slice`` with exactly that many vectors, on the cell's own
    ``SeedSequence``, which then picks the vector each draw takes; the second
    pass checks it draws each cell that often. A cell reads a fixed-prefix
    column only where one of its samples never records that feature, so only
    there must the column hold values.
    """
    a = assign_slices(dataset, grid)
    n_t, n_fix = grid.n_slices, dataset.fixed_prefix_len
    labels = dataset.classes
    reads = np.ones((len(labels) * n_t, dataset.n_features), dtype=bool)  # the columns each cell's fill reads
    reads[:, :n_fix] = False
    for i, lab in enumerate(dataset.labels):
        lo, hi = dataset.offsets[i], dataset.offsets[i + 1]
        for si in a[lo:hi]:
            reads[labels.index(lab) * n_t + si, :n_fix] |= np.isnan(dataset.values[lo:hi, :n_fix]).all(axis=0)

    def cells():
        for c in range(len(labels) * n_t):
            lab, si = labels[c // n_t], c % n_t
            rows = dataset.values[(np.array(dataset.labels) == lab)[dataset.row_sample] & (a == si)]
            if len(rows) == 0:
                raise ValueError(
                    f"class={lab!r} has no observations in slice {si}; reduce n_slices or provide more data"
                )
            yield c, lab, si, rows

    if imp.method != "tsmote":
        reduce = np.nanmean if imp.method == "slice_mean" else np.nanmedian
        stats = {}
        for c, lab, si, rows in cells():
            if np.isnan(rows[:, reads[c]]).all(axis=0).any():
                raise ValueError(f"class={lab!r} slice={si} has a feature with no observed values")
            stats[lab, si] = reduce(np.where(reads[c], rows, 0.0), axis=0)
        return fill_per_sample(dataset, a, n_t, reshape, lambda lab, si: stats[lab, si])

    counts = np.zeros(len(labels) * n_t, dtype=np.intp)

    def count(lab, si):
        counts[labels.index(lab) * n_t + si] += 1
        return np.zeros(dataset.n_features)

    fill_per_sample(dataset, a, n_t, reshape, count)
    pools = []
    for c, lab, si, rows in cells():
        rng = np.random.default_rng(np.random.SeedSequence(entropy=syn.seed, spawn_key=(c // n_t, si)))
        pool = synthesize_slice(rows, syn, counts[c], rng, label=f"class={lab!r} slice={si}",
                                unread=np.flatnonzero(~reads[c]))
        if syn.replacement_policy == "with":
            pools.append([pool[int(rng.integers(counts[c]))] for _ in range(counts[c])])
        else:
            pools.append(pool[rng.permutation(counts[c])])
    cursor = np.zeros_like(counts)

    def draw(lab, si):
        c = labels.index(lab) * n_t + si
        cursor[c] += 1
        return pools[c][cursor[c] - 1]

    rows = fill_per_sample(dataset, a, n_t, reshape, draw)
    np.testing.assert_array_equal(cursor, counts)  # every cell drawn exactly its size
    return rows


def fill_per_sample(dataset, a, n_t, reshape, draw):
    """Each sample's slot grid, with ``draw(label, slice)`` filling nulls, then empty slots;
    every slot holds the sample's fixed prefix as pinned, not an average of it."""
    n_fix = dataset.fixed_prefix_len

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
        row[:, :n_fix] = fixed
        rows[i] = row
    return rows


@pytest.mark.parametrize("n_samples, n_slices, null_rate", [(301, 2, 0.0), (2000, 200, 0.1), (2000, 40, 0.1)])
def test_cell_medians_match_nanmedian(n_samples, n_slices, null_rate):
    """Each cell's median has np.nanmedian's bits, on its paths for cells under and over 600 rows."""
    rng = np.random.default_rng(n_slices)
    m = 11
    values = rng.integers(-10**6, 10**6, (n_samples * m, 2)) / 4.0  # no -0.0, whose place among zeros would show
    nulls = np.flatnonzero(rng.random(n_samples * m) < null_rate)
    values[nulls, rng.integers(0, 2, nulls.size)] = np.nan
    ds = TimeSeriesDataset(tuple(f"s{i}" for i in range(n_samples)), np.arange(0, n_samples * m + 1, m),
                           np.sort(rng.uniform(0, 10, (n_samples, m)), axis=1).ravel(), values,
                           labels=tuple("ab"[i % 2] for i in range(n_samples)))
    grid = build_slice_grid(ds, n_slices)
    a = assign_slices(ds, grid)
    expected = np.array([np.nanmedian(rows, axis=0) for _, _, rows in cell_blocks(ds, n_slices, a)])
    sizes = [len(rows) for _, _, rows in cell_blocks(ds, n_slices, a)]
    assert {n % 2 for n in sizes} == {0, 1} and (min(sizes) >= 600) == (n_slices == 2)
    median = imputation._slice_statistics(ds, n_slices, a, "slice_median", Requests(ds, n_slices, a).unrecorded)
    assert median.tobytes() == expected.tobytes()


def test_cell_median_of_signed_zeros_keeps_dataset_order():
    """Equal values keep dataset order, so an odd run of mixed 0.0 and -0.0 takes its middle row's sign.

    The run is longer than 16 rows, past the sort's insertion-sort range, where
    an unstable sort reorders equal keys.
    """
    n = 247
    for seed in range(10):
        zeros = np.where(np.random.default_rng(seed).random(n) < 0.5, 0.0, -0.0)
        ds = TimeSeriesDataset(("s",), np.array([0, n]), np.arange(n, dtype=float), zeros[:, None], labels=("c",))
        a = np.zeros(n, dtype=int)
        median = imputation._slice_statistics(ds, 1, a, "slice_median", Requests(ds, 1, a).unrecorded)
        assert median.shape == (1, 1) and np.signbit(median[0, 0]) == np.signbit(zeros[n // 2])


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
    k=st.integers(1, 3),
)
# a cell with one row, whose only column is a prefix that no sample there leaves unrecorded
@example(seed=8495, n_samples=3, n_features=1, fixed=True, labeled=False, null_rate=0.0, n_slices=3,
         method="tsmote", policy="without", k=1)
def test_fill_matches_per_sample_reference(
    reshape_reference, seed, n_samples, n_features, fixed, labeled, null_rate, n_slices, method,
    policy, k,
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
    syn = SynthesisConfig(k_neighbors=k, seed=seed % 97, replacement_policy=policy)
    imp = ImputationConfig(method=method, allow_null_feature_imputation=True)

    def run(fill):
        try:
            return fill()
        except (ValueError, RuntimeError) as e:
            return type(e), str(e)

    got = run(lambda: impute_dataset(ds, grid, synthesis_config=syn, imputation_config=imp).data.tobytes())
    want = run(lambda: reference_impute(ds, grid, syn, imp, reshape_reference).tobytes())
    assert got == want


# sha256 of the imputed.csv write_tensor_csv writes for impute_dataset(...) on the demo training set,
# keyed by (seed, replacement policy, method)
GOLDEN_DEMO_SHA256 = {
    (0, "with", "tsmote"): "fbee8e37d5676082f35a3b42dfbf6665acfd18dca368749d66d45d6e1e2ef99e",
    (0, "with", "slice_mean"): "4ec821aeaa2e077967f4e6836b7409ec02900a2a3fc62d003e15fd094939eca7",
    (0, "with", "slice_median"): "12744d9901bbcad6a22e34e83e805612944fd3f41b32804fb9bde55cf3595476",
    (0, "without", "tsmote"): "7e986a6242f0287107bb7084e528d050b273692cd5b5a80b4d1bb38cfc18b9f0",
    (0, "without", "slice_mean"): "4ec821aeaa2e077967f4e6836b7409ec02900a2a3fc62d003e15fd094939eca7",
    (0, "without", "slice_median"): "12744d9901bbcad6a22e34e83e805612944fd3f41b32804fb9bde55cf3595476",
    (1, "with", "tsmote"): "592223f02dc737a45e88586401b96cdea758e4fcee1af9305c10a79977998f1d",
    (1, "with", "slice_mean"): "fa002ee6791e3cc1f1641ca6eba96e092cd7d563d8b207a213faf2e530cf413f",
    (1, "with", "slice_median"): "4002d0f4af047a126f8e4037396239ac94ccc32d87bbf23af31f30c572eb509e",
    (1, "without", "tsmote"): "ed179a33965dd6bc91a49d949407986407705298e2ff6d76954422a12f0a88f3",
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
    write_tensor_csv(tensor, path, tmp_path / "imputed.json", exp.grid.to_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DEMO_SHA256[(seed, policy, method)]
