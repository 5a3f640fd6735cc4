"""CLI behavior: outputs, exit codes, reproducibility."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

import tsmote

TOY_CSV = "sample_id,time,x\na,0,0.0\na,1,0.1\na,2,0.2\nb,3,0.3\nb,4,0.4\nb,5,0.5\n"


# one nan cell (line 5) and one inf cell (line 7); sample a has no non-finite
# input, but its null y sits in the slice of b's inf
NONFINITE_CSV = (
    "sample_id,time,class,x,y\n"
    "a,0,c,0.0,1.0\na,1,c,0.1,1.1\na,2,c,0.2,\n"
    "b,0.5,c,nan,2.0\nb,1.5,c,1.0,2.1\nb,2.5,c,2.0,inf\n"
    "d,0.2,c,0.4,3.0\nd,1.2,c,0.5,3.1\nd,2.2,c,0.6,3.2\n"
)
# leading `age` column, never recorded for sample g; the slices hold
# different mixes of the other samples' ages
AGE_CSV = (
    "sample_id,time,age,x\n"
    "a,0,40,0.1\na,1,40,0.2\na,2,40,0.3\n"
    "b,0.1,50,1.1\nb,0.15,50,1.2\nb,2.1,50,1.3\n"
    "c,1.1,70,2.1\nc,2.15,70,2.2\nc,2.2,70,2.3\n"
    "g,0.3,,3.1\ng,1.3,,3.2\ng,2.3,,3.3\n"
)

# 8 samples x 6 rows of x, y in {+1e308, -1e308, 0.5}: every value is finite,
# but the two rows that share a slot sum past the float64 range
HUGE_CSV = "sample_id,time,x,y\n" + "".join(
    f"s{i},{j},{(0.5, (-1e308, 1e308)[i % 2])[j < 4]!r},{(0.5, (1e308, -1e308)[i % 2])[j >= 4]!r}\n"
    for i in range(8)
    for j in range(6)
)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return path


def test_subprocess_imports_package_under_test(tmp_path, run_python):
    # a relative PYTHONPATH or a stale installed copy must not stand in for this code
    res = run_python(["-c", "import tsmote; print(tsmote.__file__)"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve() == Path(tsmote.__file__).resolve()


class TestSlice:
    def test_grid_boundaries_on_toy(self, toy_csv, tmp_path, run_cli):
        out = tmp_path / "out"
        res = run_cli(["slice", str(toy_csv), "--slices", "3", "-o", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        grid = json.loads((out / "grid.json").read_text())
        assert grid["boundaries"] == [0.0, 1.5, 3.5, 5.0]
        assert (out / "assignment.csv").exists()
        assert (out / "validation.json").exists()

    def test_missing_header_exits_2(self, tmp_path, run_cli):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        res = run_cli(["slice", str(bad), "--slices", "2"], tmp_path)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert "missing header" in err["error"]

    def test_zero_slices_exits_2(self, toy_csv, tmp_path, run_cli):
        res = run_cli(["slice", str(toy_csv), "--slices", "0"], tmp_path)
        assert res.returncode == 2
        assert "at least 1" in json.loads(res.stderr)["error"]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory, run_cli):
    out = tmp_path_factory.mktemp("demo")
    res = run_cli(["demo-oscillator", "--seed", "0", "-o", str(out)], out)
    assert res.returncode == 0, res.stderr
    return out


class TestDemoAndImpute:
    def test_demo_outputs(self, demo_dir):
        train = (demo_dir / "train.csv").read_text().splitlines()
        test = (demo_dir / "test.csv").read_text().splitlines()
        # header + one row per observation; sample counts come from the labels
        train_ids = {line.split(",")[0] for line in train[1:]}
        test_ids = {line.split(",")[0] for line in test[1:]}
        assert len(train_ids) == 450
        assert len(test_ids) == 50
        assert (demo_dir / "grid.json").exists()
        assert (demo_dir / "slices.csv").exists()
        assert (demo_dir / "pool.csv").exists()

    def test_impute_deterministic_and_seed_sensitive(self, demo_dir, tmp_path, run_cli):
        runs = {}
        for name, seed in (("r1", "11"), ("r2", "11"), ("r3", "12")):
            out = tmp_path / name
            res = run_cli(
                ["impute", str(demo_dir / "train.csv"), "--seed", seed, "-o", str(out)],
                tmp_path,
            )
            assert res.returncode == 0, res.stderr
            runs[name] = (out / "imputed.csv").read_bytes()
        assert runs["r1"] == runs["r2"]  # byte-identical at equal seeds
        assert runs["r1"] != runs["r3"]

    def test_demo_reproducible_per_seed(self, demo_dir, tmp_path, run_cli):
        out = tmp_path / "demo2"
        res = run_cli(["demo-oscillator", "--seed", "0", "-o", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        for name in ("train.csv", "test.csv", "grid.json", "pool.csv"):
            assert (out / name).read_bytes() == (demo_dir / name).read_bytes()

    def test_impute_reuses_exported_grid(self, demo_dir, tmp_path, run_cli):
        out = tmp_path / "reuse"
        res = run_cli(
            [
                "impute", str(demo_dir / "train.csv"),
                "--grid", str(demo_dir / "grid.json"),
                "--seed", "1", "-o", str(out),
            ],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        grid_in = json.loads((demo_dir / "grid.json").read_text())
        grid_out = json.loads((out / "grid.json").read_text())
        assert grid_in == grid_out


# sha256 of the CSV files each command writes, keyed by (run, file); recorded
# with numpy 2.4.6. The imputed CSV is pinned in test_imputation.py.
GOLDEN_OUTPUT_SHA256 = {
    ("demo-0", "train.csv"): "9d1f8f1280f8d453317e6ffc247a8ca06ac33e6511246a4ceab3b4f953ca94d9",
    ("demo-0", "test.csv"): "409fa59d7ef035b7804ee80859a23dcbf3ec1ec089b9973887aa1b7f4645b293",
    ("demo-0", "slices.csv"): "8f5909ee9cba5e52fd6ef03bd6c8c1d24b4a8ee7743cece5c79f0a6224458bed",
    ("demo-0", "pool.csv"): "1171f4224d04aca9feb54717816b004c3699f3706d2c1a68c16b78c4b03f36d3",
    ("demo-1", "train.csv"): "8cf38395aefbd3d4d001310f43659bddc93fa72fe6dacb7a74d44d4cac27166b",
    ("demo-1", "test.csv"): "37f57fcb39e97e8021b05548c76dafc9078704d2a7dfc2c4afce4e1c571c1dd3",
    ("demo-1", "slices.csv"): "32ebfcdd1f2fc78efbac66db8ff6af2325a2e2012da144fe48db55313be09290",
    ("demo-1", "pool.csv"): "b266323a0ea719e5fec826ec56a0983c8223d40f08b6b6b621f3464ca557b417",
    ("slice", "assignment.csv"): "8a5270f9e374555ff1f706d3e68514e11a0a686f7e99f240addbbfa26c0b2bbc",
    ("compare", "comparison.csv"): "8d675527cfe267e2506d6995613f05cdb2398f5657632aa7407c681265c354c5",
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory, run_cli):
    """Directory holding one output directory per pinned run."""
    root = tmp_path_factory.mktemp("golden")
    commands = {
        "demo-0": ["demo-oscillator", "--seed", "0"],
        "demo-1": ["demo-oscillator", "--seed", "1"],
        "slice": ["slice", str(root / "demo-0" / "train.csv")],
        "compare": ["compare-imputers", "--seed", "0", "--reps", "1"],
    }
    for name, args in commands.items():
        res = run_cli([*args, "-o", str(root / name)], root)
        assert res.returncode == 0, res.stderr
    return root


@pytest.mark.parametrize("run, name", sorted(GOLDEN_OUTPUT_SHA256))
def test_output_bytes_pinned(golden_runs, run, name):
    """The CSV bytes of demo-oscillator, slice and compare-imputers stay what they were."""
    digest = hashlib.sha256((golden_runs / run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUT_SHA256[(run, name)]


def test_impute_quotes_ids_and_labels(tmp_path, run_cli):
    ids = ['a,"b', "plain", 'x"y,\nz']
    labels = ["class,0", "class,1", "class,0"]
    rows = [[sid, t, label, t + i] for i, (sid, label) in enumerate(zip(ids, labels)) for t in range(4)]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["sample_id", "time", "class", "x"], *rows])
    (tmp_path / "in.csv").write_text(buf.getvalue(), newline="")
    res = run_cli(["impute", "in.csv", "--slices", "2", "--method", "slice_mean", "-o", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "out" / "imputed.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][:3] == ["sample_id", "class", "slice_index"]
    assert [r[:3] for r in table[1:]] == [[sid, label, str(j)] for sid, label in zip(ids, labels) for j in range(2)]


class TestConfigFile:
    def test_file_fills_defaults_but_flags_win(self, toy_csv, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slices": 3, "seed": 99, "grid_time": "midpoint"}))
        out = tmp_path / "o1"
        res = run_cli(
            ["slice", str(toy_csv), "--config", str(cfg), "-o", str(out)], tmp_path
        )
        assert res.returncode == 0, res.stderr
        grid = json.loads((out / "grid.json").read_text())
        assert (grid["n_slices"], grid["grid_time_policy"]) == (3, "midpoint")

        out2 = tmp_path / "o2"
        res = run_cli(
            ["slice", str(toy_csv), "--config", str(cfg), "--slices", "2", "-o", str(out2)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads((out2 / "grid.json").read_text())["n_slices"] == 2

        # a flag that repeats its default still wins over the file
        out3 = tmp_path / "o3"
        res = run_cli(
            ["slice", str(toy_csv), "--config", str(cfg), "--grid-time", "median", "-o", str(out3)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads((out3 / "grid.json").read_text())["grid_time_policy"] == "median_of_observations"

    def test_unknown_config_key_exits_2(self, toy_csv, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slise": 3}))
        res = run_cli(["slice", str(toy_csv), "--config", str(cfg)], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("key", ["func", "parser", "command", "help"])
    def test_key_naming_no_option_exits_2(self, toy_csv, tmp_path, run_cli, key):
        # attributes argparse sets that are not options of the subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        res = run_cli(["slice", str(toy_csv), "--slices", "2", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == f"unknown config key {key!r}"


class TestVerifyAndCompare:
    def test_verify_moments_passes(self, tmp_path, run_cli):
        out = tmp_path / "vm"
        res = run_cli(["verify-moments", "--seed", "0", "-o", str(out)], tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        report = json.loads((out / "moments_report.json").read_text())
        assert report["passed"] is True
        assert "[PASS]" in res.stdout

    def test_compare_imputers_table_shape(self, tmp_path, run_cli):
        out = tmp_path / "cmp"
        res = run_cli(
            ["compare-imputers", "--seed", "0", "--reps", "1", "--slices", "10",
             "--window", "5", "--order", "2", "-o", str(out)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0].startswith("method,")
        assert len(rows) == 4  # header + three imputers


class TestRejectedInput:
    @pytest.mark.parametrize("method", ["tsmote", "slice_mean"])
    def test_nonfinite_cell_exits_2(self, tmp_path, run_cli, method):
        path = tmp_path / "nonfinite.csv"
        path.write_text(NONFINITE_CSV)
        out = tmp_path / "out"
        res = run_cli(
            ["impute", str(path), "--slices", "3", "--method", method,
             "--allow-null-imputation", "-o", str(out)],
            tmp_path,
        )
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"].endswith("nonfinite.csv:5: non-finite value 'nan'")
        assert not (out / "imputed.csv").exists()

    @pytest.mark.parametrize("command", ["slice", "impute"])
    def test_fixed_feature_checked_before_use(self, tmp_path, run_cli, command):
        path = tmp_path / "age.csv"
        path.write_text(AGE_CSV.replace("a,1,40,", "a,1,41,").replace("a,2,40,", "a,2,42,"))
        res = run_cli([command, str(path), "--slices", "3", "--fixed", "1"], tmp_path)
        assert res.returncode == 2
        violations = json.loads(res.stderr)["report"]["violations"]
        # one entry for sample a's age, not one per differing row
        assert [(v["kind"], v["sample_id"]) for v in violations] == [("inconsistent-fixed-feature", "a")]

    @pytest.mark.parametrize("command", ["slice", "impute"])
    def test_fixed_beyond_feature_count_exits_2(self, tmp_path, run_cli, command):
        path = tmp_path / "age.csv"
        path.write_text(AGE_CSV)
        out = tmp_path / "out"
        res = run_cli([command, str(path), "--slices", "3", "--fixed", "5", "-o", str(out)], tmp_path)
        assert res.returncode == 2
        assert "fixed_prefix_len 5 must lie between 0 and the 2 features" in json.loads(res.stderr)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["tsmote", "slice_mean", "slice_median"])
    def test_values_that_overflow_exit_2(self, tmp_path, run_cli, method):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_CSV)
        out = tmp_path / "out"
        res = run_cli(["impute", str(path), "--slices", "3", "--method", method, "-o", str(out)], tmp_path)
        assert res.returncode == 2
        violations = json.loads(res.stderr)["report"]["violations"]
        assert {v["kind"] for v in violations} == {"value-out-of-range"}
        assert not (out / "imputed.csv").exists()


def test_unrecorded_fixed_feature_constant_under_baseline(tmp_path, run_cli):
    path = tmp_path / "age.csv"
    path.write_text(AGE_CSV)
    out = tmp_path / "out"
    res = run_cli(
        ["impute", str(path), "--slices", "3", "--fixed", "1", "--method", "slice_mean",
         "-o", str(out)],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in (out / "imputed.csv").read_text().splitlines()[1:]]
    ages = {sid: {r[4] for r in rows if r[0] == sid} for sid in ("a", "b", "c", "g")}
    assert ages["a"] == {"40.0"} and ages["b"] == {"50.0"} and ages["c"] == {"70.0"}
    assert len(ages["g"]) == 1, ages["g"]
