"""The benchmark's output checks catch tampered outputs.

Run from the root of a source checkout: ``python3 perfbench/test_checks.py``.
One real ``tsmote impute`` output on a small input must pass every check;
each copy with one planted defect must fail the check meant to catch it.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from inputs import InputSpec, write_input  # noqa: E402

N_SLICES = 10


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TamperedOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.root = Path(cls.tmp.name)
        write_input(InputSpec(n_w2=40, n_w4=30, with_age=True), 0, cls.root / "input.csv")
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        subprocess.run(
            [sys.executable, "-m", "tsmote.cli", "impute", str(cls.root / "input.csv"),
             "--slices", str(N_SLICES), "--fixed", "1", "-o", str(cls.root / "clean")],
            env=env, check=True, capture_output=True,
        )
        cls.obs = checks.read_input(cls.root / "input.csv")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def failures(self, edit=None) -> list[str]:
        out = self.root / self.id().rsplit(".", 1)[-1]
        shutil.copytree(self.root / "clean", out)
        if edit:
            edit(out)
        return checks.check_impute(out, self.obs, smoothed=False, fixed=1)[0]

    def assertCaughtBy(self, failures: list[str], check: str) -> None:
        self.assertTrue(any(f.startswith(check + ":") for f in failures), failures)

    def test_untampered_output_passes(self):
        self.assertEqual(self.failures(), [])

    def test_one_nan(self):
        def plant_nan(out):
            edit_csv(out / "imputed.csv", lambda rows: rows[5].__setitem__(5, "nan"))

        self.assertCaughtBy(self.failures(plant_nan), "finite")

    def test_one_overwritten_observed_value(self):
        grid = checks.read_grid(self.root / "clean" / "grid.json")
        counts = checks.slot_counts(self.obs, grid)
        sample, slot = map(int, next(zip(*(counts == 1).nonzero())))

        def overwrite(out):
            # the same new value in both files, so only the observed-value check can see it
            edit_csv(out / "imputed.csv", lambda rows: rows[1 + sample * N_SLICES + slot].__setitem__(5, "9.0"))
            payload = json.loads((out / "imputed.json").read_text())
            payload["data"][sample][slot][1] = 9.0
            (out / "imputed.json").write_text(json.dumps(payload))

        failures = self.failures(overwrite)
        self.assertCaughtBy(failures, "observed")
        self.assertNotIn("json", " ".join(failures))

    def test_one_dropped_row(self):
        self.assertCaughtBy(self.failures(lambda out: edit_csv(out / "imputed.csv", lambda rows: rows.pop(7))), "rows")

    def test_changed_fixed_column(self):
        def change_age(out):
            edit_csv(out / "imputed.csv", lambda rows: rows[3].__setitem__(4, "200.0"))
            payload = json.loads((out / "imputed.json").read_text())
            payload["data"][0][2][0] = 200.0
            (out / "imputed.json").write_text(json.dumps(payload))

        self.assertCaughtBy(self.failures(change_age), "fixed")

    def test_layer_counts_names(self):
        grid = checks.read_grid(self.root / "clean" / "grid.json")
        for pool in (True, False):
            self.assertEqual(tuple(checks.layer_counts(self.obs, grid, pool=pool)), checks.COUNT_NAMES)

    def test_comparison_metric_out_of_range(self):
        out = self.root / "comparison"
        out.mkdir()
        rows = [{"method": m, "accuracy_mean": 0.9, "auc_mean": 0.95, "accuracies": [0.9], "aucs": [0.95]}
                for m in checks.METHODS]
        (out / "comparison.json").write_text(json.dumps(rows))
        self.assertEqual(checks.check_comparison(out, reps=1), [])
        rows[0]["aucs"] = [1.5]
        (out / "comparison.json").write_text(json.dumps(rows))
        self.assertCaughtBy(checks.check_comparison(out, reps=1), "comparison")


if __name__ == "__main__":
    unittest.main()
