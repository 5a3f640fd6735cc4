"""Shared fixtures: the subprocess runner for the CLI tests and the reference reshape.

The child runs with ``cwd`` set to a temporary directory, so a relative
``PYTHONPATH`` (``PYTHONPATH=src``) would not resolve there. The runner
prepends the directory of the ``tsmote`` package this test process imported,
so the child always runs the same copy of the code as the in-process tests,
whether it comes from ``src/`` or from an installed package.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="session")
def run_python():
    """``run_python(argv, cwd)`` runs ``python *argv`` against the ``tsmote`` under test."""
    # imported here, not at module level, so a missing package fails only the
    # tests that use the runner instead of aborting the whole session
    import tsmote

    env = os.environ.copy()
    package_root = str(Path(tsmote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(argv, cwd):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, cwd=cwd, env=env
        )

    return run


@pytest.fixture(scope="session")
def run_cli(run_python):
    """``run_cli(args, cwd)`` runs ``python -m tsmote.cli *args`` in ``cwd``."""

    def run(args, cwd):
        return run_python(["-m", "tsmote.cli", *args], cwd)

    return run


@pytest.fixture(scope="session")
def reshape_reference():
    """``reshape_reference(mat, slice_indices, n_slices)``: one sample's slot grid.

    The per-sample reshape that the dataset-level fill replaced, kept as a
    reference: ``mat`` is the sample's ``(m, F)`` rows, each slot holds the
    running mean of the rows assigned to it, and empty slots are NaN.
    """

    def reshape(mat, slice_indices, n_slices):
        row = np.full((n_slices, mat.shape[1]), np.nan)
        counts = np.zeros(n_slices, dtype=int)
        for obs_vals, si in zip(mat, slice_indices):
            if counts[si] == 0:
                row[si] = obs_vals
            else:
                row[si] = (row[si] * counts[si] + obs_vals) / (counts[si] + 1)
            counts[si] += 1
        return row

    return reshape


@pytest.fixture(scope="session")
def observed_grid(reshape_reference):
    """``observed_grid(dataset, assignment, n_slices)``: every sample's reference slot grid.

    An ``(n_samples, n_slices, F)`` array of averaged observations, NaN
    where a slot has none.
    """

    def grid(dataset, assignment, n_slices):
        bounds = dataset.offsets
        return np.stack([
            reshape_reference(dataset.values[a:b], assignment[a:b], n_slices)
            for a, b in zip(bounds[:-1], bounds[1:])
        ])

    return grid
