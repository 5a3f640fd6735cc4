"""Tests for the 2D oscillator generators."""

import math

import numpy as np
import pytest

from tsmote.data import validate_dataset
from tsmote.oscillator import (
    EXPONENTIAL,
    ExperimentConfig,
    OscillatorConfig,
    curve_values,
    generate_oscillator_dataset,
    generate_two_class_experiment,
)


class TestCurve:
    def test_origin_value(self):
        cfg = OscillatorConfig(noise_sigma=0.0)
        v = curve_values(cfg, np.array([0.0]))[0]
        assert v[0] == 0.0
        assert v[1] == 0.0

    def test_quarter_period(self):
        cfg = OscillatorConfig(omega_y=2.0)
        v = curve_values(cfg, np.array([math.pi / 2]))[0]
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_period_from_slowest_frequency(self):
        assert OscillatorConfig(omega_y=2.0).t_max == pytest.approx(2 * math.pi)
        assert OscillatorConfig(omega_y=0.5).t_max == pytest.approx(4 * math.pi)


class TestGenerate:
    def test_shapes_and_validity(self):
        cfg = OscillatorConfig(n_samples=40, seed=3)
        ds = generate_oscillator_dataset(cfg)
        assert ds.n_samples == 40
        assert validate_dataset(ds).ok
        assert np.all((5 <= ds.counts) & (ds.counts <= 20))
        for times in np.split(ds.times, ds.offsets[1:-1]):
            assert times.min() >= 0 and times.max() <= cfg.t_max
            assert np.all(np.diff(times) >= 0)

    def test_noise_free_values_on_unit_square(self):
        ds = generate_oscillator_dataset(OscillatorConfig(noise_sigma=0.0, n_samples=30, seed=1))
        assert np.all(ds.values**2 <= 1.0 + 1e-12)

    def test_deterministic_per_seed(self):
        a = generate_oscillator_dataset(OscillatorConfig(seed=5))
        b = generate_oscillator_dataset(OscillatorConfig(seed=5))
        assert a == b
        c = generate_oscillator_dataset(OscillatorConfig(seed=6))
        assert a != c

    def test_exponential_sampling_piles_up_early(self):
        cfg = OscillatorConfig(n_samples=200, time_dist=EXPONENTIAL, seed=7)
        ds = generate_oscillator_dataset(cfg)
        times = ds.times
        assert np.median(times) < cfg.t_max / 2
        assert times.max() <= cfg.t_max


class TestTwoClassExperiment:
    def test_default_counts(self):
        exp = generate_two_class_experiment(0)
        labels_train = list(exp.train.labels)
        assert labels_train.count("w2") == 270
        assert labels_train.count("w4") == 180
        labels_test = list(exp.test.labels)
        assert labels_test.count("w2") == 30
        assert labels_test.count("w4") == 20

    def test_test_samples_cover_grid(self):
        exp = generate_two_class_experiment(1)
        assert np.all(exp.test.counts == exp.grid.n_slices)
        expected_times = exp.grid.t_min + np.asarray(exp.grid.grid_times)
        np.testing.assert_allclose(exp.test.times[: exp.grid.n_slices], expected_times)

    def test_noise_free_test_on_curves(self):
        cfg = ExperimentConfig(noise_sigma=0.0, n_train_a=30, n_train_b=30, n_test_a=3,
                               n_test_b=2, n_slices=10)
        exp = generate_two_class_experiment(2, cfg)
        times = exp.grid.t_min + np.asarray(exp.grid.grid_times)
        for label, values in zip(exp.test.labels, np.split(exp.test.values, exp.test.offsets[1:-1])):
            omega_y = 2.0 if label == "w2" else 4.0
            np.testing.assert_allclose(
                values,
                np.column_stack([np.sin(times), np.sin(omega_y * times)]),
                atol=1e-12,
            )

    def test_validates_clean(self):
        exp = generate_two_class_experiment(3)
        assert validate_dataset(exp.train, n_slices=50).ok
        assert validate_dataset(exp.test).ok

    def test_generator_output_validates_across_seeds(self):
        for seed in (0, 17, 91, 404):
            ds = generate_oscillator_dataset(OscillatorConfig(n_samples=25, seed=seed))
            assert validate_dataset(ds).ok
