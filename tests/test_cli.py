"""CLI behavior: outputs, exit codes, reproducibility."""

import ast
import csv
import hashlib
import importlib
import io
import json
import math
import multiprocessing
from pathlib import Path

import pytest

import tsmote
import tsmote.classify
import tsmote.cli

TOY_CSV = "sample_id,time,x\na,0,0.0\na,1,0.1\na,2,0.2\nb,3,0.3\nb,4,0.4\nb,5,0.5\n"
TOY_GRID = {"n_slices": 3, "boundaries": [0.0, 1.5, 3.5, 5.0], "grid_times": [0.5, 2.5, 4.5],
            "grid_time_policy": "median_of_observations", "t_min": 0.0, "t_max": 5.0}


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

# the only nulls are ages that pinning the fixed prefix fills, and every
# (sample, slice) slot of a 2-slice grid holds a row: nothing is drawn
PINNED_AGE_CSV = (
    "sample_id,time,class,age,x\n"
    "a,0,c,1,1\na,0.1,c,1,1.5\na,1,c,,2\n"
    "b,0,c,3,1\nb,0.2,c,3,1.2\nb,1,c,,2\n"
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


def test_benchmark_span_names_are_exported():
    """Every (module, function) pair ``perfbench/traced.py`` wraps a span through resolves.

    The file is read, not run. The one pair allowed to be missing is
    ``tsmote.cli.tensor_to_json``, whose function was deleted; the benchmark
    lists it as missing itself.
    """
    traced = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "traced.py").read_text())
    targets, = (ast.literal_eval(node.value) for node in traced.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TARGETS")
    missing = [f"{module}.{span.split('.')[1]}" for span, modules in targets.items() for module in modules
               if not hasattr(importlib.import_module(module), span.split(".")[1])]
    assert missing == ["tsmote.cli.tensor_to_json"]


def test_every_export_has_a_caller_in_the_package():
    """Each name in ``tsmote.__all__`` is read somewhere in the package's modules other
    than ``__init__.py``, outside the name's own definition. An export that nothing in
    the package uses fails here."""
    used = set()
    for path in Path(tsmote.__file__).resolve().parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text()).body:
            loaded = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(statement)
                      if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
            used |= loaded - {getattr(statement, "name", None)}  # a def or class does not use itself
    assert sorted(set(tsmote.__all__) - {"__version__"} - used) == []


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


# sha256 of the files each command writes, keyed by (run, file); recorded
# with numpy 2.4.6. The imputed CSV of every method is also pinned in
# test_imputation.py; the impute runs here pin the smoothed output and
# imputed.json.
GOLDEN_OUTPUT_SHA256 = {
    ("demo-0", "train.csv"): "9d1f8f1280f8d453317e6ffc247a8ca06ac33e6511246a4ceab3b4f953ca94d9",
    ("demo-0", "test.csv"): "409fa59d7ef035b7804ee80859a23dcbf3ec1ec089b9973887aa1b7f4645b293",
    ("demo-0", "slices.csv"): "8f5909ee9cba5e52fd6ef03bd6c8c1d24b4a8ee7743cece5c79f0a6224458bed",
    ("demo-0", "pool.csv"): "408fdae1ee3308aadc784b0823228f2ceb07fd180672051cb5bcc97af58b8940",
    ("demo-1", "train.csv"): "8cf38395aefbd3d4d001310f43659bddc93fa72fe6dacb7a74d44d4cac27166b",
    ("demo-1", "test.csv"): "37f57fcb39e97e8021b05548c76dafc9078704d2a7dfc2c4afce4e1c571c1dd3",
    ("demo-1", "slices.csv"): "32ebfcdd1f2fc78efbac66db8ff6af2325a2e2012da144fe48db55313be09290",
    ("demo-1", "pool.csv"): "3d49add8ddbe4c16c2be048a0029a80bd386939fafbbfe52fe489fe5ee0fd403",
    ("slice", "assignment.csv"): "8a5270f9e374555ff1f706d3e68514e11a0a686f7e99f240addbbfa26c0b2bbc",
    ("compare", "comparison.csv"): "8d675527cfe267e2506d6995613f05cdb2398f5657632aa7407c681265c354c5",
    ("impute-smooth", "imputed.csv"): "2ceb6159517d0fdbd146d24a0d60cb875cc196b68862bb0f1e4652c313848b38",
    ("impute-smooth", "imputed.json"): "07a731a31d1a580e3abcf20773ed91feb29494c71c47bd09b15255e94ade1759",
    ("impute-mean", "imputed.csv"): "4ec821aeaa2e077967f4e6836b7409ec02900a2a3fc62d003e15fd094939eca7",
    ("impute-mean", "imputed.json"): "44588f0a592ac350cd6b0173573ae9a2bd0a8ef0ceb12ff091595a98c1cfa400",
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
        "impute-smooth": ["impute", str(root / "demo-0" / "train.csv"), "--smooth", "--replacement", "with"],
        "impute-mean": ["impute", str(root / "demo-0" / "train.csv"), "--method", "slice_mean"],
    }
    for name, args in commands.items():
        res = run_cli([*args, "-o", str(root / name)], root)
        assert res.returncode == 0, res.stderr
    return root


@pytest.mark.parametrize("run, name", sorted(GOLDEN_OUTPUT_SHA256))
def test_output_bytes_pinned(golden_runs, run, name):
    """The output bytes of demo-oscillator, slice, compare-imputers and impute stay what they were."""
    digest = hashlib.sha256((golden_runs / run / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUT_SHA256[(run, name)]


def test_pool_grid_times_match_the_imputed_tensors(golden_runs):
    """``pool.csv`` and ``imputed.csv`` give a slice the same grid time, in data units."""
    def grid_times(path):
        with open(path, newline="") as fh:
            return {(row["slice_index"], row["grid_time"]) for row in csv.DictReader(fh)}

    pool = grid_times(golden_runs / "demo-0" / "pool.csv")
    imputed = grid_times(golden_runs / "impute-mean" / "imputed.csv")
    assert len(imputed) == 50
    assert pool and pool <= imputed


def test_smoothed_bytes_do_not_depend_on_blas_threads(golden_runs, run_cli):
    """The smoothing matmul gives the pinned bytes on one BLAS thread too."""
    res = run_cli(
        ["impute", str(golden_runs / "demo-0" / "train.csv"), "--smooth", "--replacement", "with",
         "-o", str(golden_runs / "impute-smooth-1thread")],
        golden_runs,
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert res.returncode == 0, res.stderr
    digest = hashlib.sha256((golden_runs / "impute-smooth-1thread" / "imputed.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUT_SHA256[("impute-smooth", "imputed.csv")]


def test_in_process_impute_leaves_no_process(golden_runs, tmp_path):
    """The tensor writer's worker is joined before ``main`` returns; the bytes are the pinned ones."""
    out = tmp_path / "out"
    assert tsmote.cli.main(["impute", str(golden_runs / "demo-0" / "train.csv"), "--method", "slice_mean",
                            "-o", str(out)]) == 0
    assert multiprocessing.active_children() == []
    for name in ("imputed.csv", "imputed.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_OUTPUT_SHA256[("impute-mean", name)]
    assert sorted(p.name for p in out.iterdir()) == ["grid.json", "imputed.csv", "imputed.json"]


@pytest.mark.parametrize("args", [
    *(["impute", "TRAIN", "--method", method] for method in ("tsmote", "slice_mean", "slice_median")),
    ["compare-imputers", "--reps", "1"],
], ids=["tsmote", "slice_mean", "slice_median", "compare-imputers"])
def test_impute_does_not_import_numpy_ma(golden_runs, tmp_path, run_python, args):
    # np.unique, np.median and np.nanmedian import numpy.ma, about 13 ms and 0.6 MB of every run;
    # a baseline draws nothing, and numpy.random costs 5.5 MB of RSS (secrets -> hashlib -> libcrypto)
    argv = [str(golden_runs / "demo-0" / "train.csv") if a == "TRAIN" else a for a in args] + ["-o", "out"]
    res = run_python(["-c", "import sys; from tsmote import cli; "
                      f"code = cli.main({argv!r}); print(code, 'numpy.ma' in sys.modules, "
                      "'numpy.random' in sys.modules)"], tmp_path)
    assert res.returncode == 0, res.stderr
    draws = args[0] == "compare-imputers" or args[-1] == "tsmote"
    assert res.stdout.splitlines()[-1] == f"0 False {draws}"


def fit_logistic_but_fail(X, y):
    raise ValueError("logistic regression did not converge in 100 Newton steps")


_FIT_LOGISTIC = tsmote.classify.fit_logistic


def fit_logistic_but_fail_in_worker(X, y):
    """``fit_logistic`` in this process, an error in the comparison's worker process."""
    if multiprocessing.parent_process() is not None:
        raise ValueError("planted failure in the worker")
    return _FIT_LOGISTIC(X, y)


def test_comparison_worker_failure_exits_2(tmp_path, monkeypatch, capsys):
    """A repetition that fails in the worker exits 2 with the JSON error; the worker is joined
    and nothing is written."""
    monkeypatch.setattr(tsmote.classify, "fit_logistic", fit_logistic_but_fail_in_worker)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        tsmote.cli.main(["compare-imputers", "--reps", "2", "--slices", "10", "--window", "5", "--order", "2",
                         "-o", str(out)])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err) == {"error": "planted failure in the worker"}
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_comparison_failure_exits_2(tmp_path, monkeypatch, capsys):
    """A classifier that fails mid-comparison exits 2 with the JSON error, and writes nothing."""
    monkeypatch.setattr(tsmote.classify, "fit_logistic", fit_logistic_but_fail)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        tsmote.cli.main(["compare-imputers", "--reps", "2", "--slices", "10", "--window", "5", "--order", "2",
                         "-o", str(out)])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "logistic regression did not converge in 100 Newton steps"}
    assert not out.exists()


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
        cfg.write_text(json.dumps({"slices": 3, "fixed": 0, "grid_time": "midpoint"}))
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

    @pytest.mark.parametrize("key", ["func", "parser", "command", "help", "k"])
    def test_key_naming_no_option_exits_2(self, toy_csv, tmp_path, run_cli, key):
        # attributes argparse sets, and an option of impute, that are not options of slice
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        res = run_cli(["slice", str(toy_csv), "--slices", "2", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == f"unknown config key {key!r}"

    @pytest.mark.parametrize("text", [None, "{"])
    def test_unreadable_file_exits_2(self, toy_csv, tmp_path, run_cli, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        res = run_cli(["slice", str(toy_csv), "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"].startswith("cannot read config file: ")

    def test_file_not_an_object_exits_2(self, toy_csv, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[3]")
        res = run_cli(["slice", str(toy_csv), "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == "config file must hold a JSON object, not list"

    @pytest.mark.parametrize("key, value, what", [
        ("slices", None, "an integer"),
        ("slices", "3", "an integer"),
        ("slices", 3.0, "an integer"),
        ("t_max", True, "a number"),
        ("smooth", 1, "true or false"),
        ("lambda_dist", 0, "a string"),
        ("grid_time", "weekly", "one of ['midpoint', 'median']"),
    ])
    def test_value_of_wrong_type_exits_2(self, toy_csv, tmp_path, run_cli, key, value, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        res = run_cli(["impute", str(toy_csv), "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == f"config key {key!r} must be {what}, not {json.dumps(value)}"

    def test_null_allowed_where_default_is_null(self, toy_csv, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_min": None, "slices": 2}))
        res = run_cli(["slice", str(toy_csv), "--config", str(cfg), "-o", "out"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert json.loads((tmp_path / "out" / "grid.json").read_text())["n_slices"] == 2


# argparse's own errors: a bad type, an unknown flag (also one of another
# subcommand), a bad choice, a missing positional
@pytest.mark.parametrize("argv, error", [
    (["impute", "{csv}", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
    (["impute", "{csv}", "--bogus"], "unrecognized arguments: --bogus"),
    (["slice", "{csv}", "--smooth"], "unrecognized arguments: --smooth"),
    (["impute", "{csv}", "--method", "mode"], "argument --method: invalid choice: 'mode'"),
    (["impute"], "the following arguments are required: input"),
], ids=["type", "unknown-flag", "flag-of-impute", "choice", "missing-input"])
def test_usage_error_prints_json_error(toy_csv, capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        tsmote.cli.main([a.format(csv=toy_csv) for a in argv])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(error)


class _Reads:
    """Parsed arguments that record the name of each attribute read from them."""

    def __init__(self, args):
        self.args, self.names = args, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.args, name)


@pytest.mark.parametrize("argv", [
    ["slice", "{csv}", "--slices", "3"],
    ["impute", "{csv}", "--slices", "3", "--method", "slice_mean", "--smooth", "--window", "3", "--order", "1"],
    ["demo-oscillator", "--slices", "10"],
    ["verify-moments"],
    ["compare-imputers"],
], ids=lambda argv: argv[0])
def test_each_subcommand_reads_every_option_it_declares(toy_csv, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(tsmote.cli, "run_moment_verification", lambda seed: {"checks": [], "passed": True})
    monkeypatch.setattr(tsmote.cli, "run_imputer_comparison", lambda seed, config: [])
    args = tsmote.cli.build_parser().parse_args([a.format(csv=toy_csv) for a in argv] + ["-o", str(tmp_path)])
    reads = _Reads(args)
    assert args.func(reads) == 0
    declared = {action.dest for action in args.parser._actions if action.dest != "help"}
    assert declared - reads.names == {"config"}  # main reads --config


class TestVerifyAndCompare:
    def test_verify_moments_passes(self, tmp_path, run_cli):
        out = tmp_path / "vm"
        res = run_cli(["verify-moments", "--seed", "0", "-o", str(out)], tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        report = json.loads((out / "moments_report.json").read_text())
        assert set(report) == {"passed", "checks"}
        assert report["passed"] is True
        assert "[PASS]" in res.stdout
        # the checks that run the neighbor table, the slice kernel and the fill
        names = {check["name"] for check in report["checks"]}
        assert {"neighbor-table-edge-counts", "covariance-factor[uniform]", "covariance-factor[beta(2,5)]",
                "covariance-factor[point(0.3)]", "correlation-kept[k=5]", "kernel-copy-identity[point(0)]",
                "kernel-copy-identity[point(1)]", "impute-mean-collapse[hand]",
                "impute-mean-collapse[random]", "impute-tsmote-variance[uniform]"} <= names

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

    def test_nonfinite_time_exits_2(self, tmp_path, run_cli):
        path = tmp_path / "span.csv"
        path.write_text(TOY_CSV.replace("b,4,", "b,inf,"))
        out = tmp_path / "out"
        res = run_cli(["impute", str(path), "--slices", "2", "-o", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == f"{path}:6: non-finite time 'inf'"
        assert not out.exists()

    def test_partial_labels_exit_2(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,time,class,x\na,0,u,0.0\na,1,,0.1\na,2,,0.2\nb,3,,0.3\nb,4,,0.4\nb,5,,0.5\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            tsmote.cli.main(["impute", str(path), "--slices", "2", "-o", str(out)])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "sample 'b' has no class label, but other samples do"}
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exit_2(self, tmp_path, run_cli, reps):
        out = tmp_path / "out"
        res = run_cli(["compare-imputers", "--reps", reps, "-o", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == f"n_repetitions must be at least 1, not {reps}"
        assert not (out / "comparison.csv").exists()

    # every method and subcommand, from argv or a config file, before any work
    @pytest.mark.parametrize("argv", [
        ["impute", "{csv}", "--slices", "3", "--method", "slice_mean"],
        ["impute", "{csv}", "--slices", "3", "--method", "tsmote"],
        ["demo-oscillator"],
        ["verify-moments"],
        ["compare-imputers"],
    ], ids=["slice_mean", "tsmote", "demo-oscillator", "verify-moments", "compare-imputers"])
    @pytest.mark.parametrize("source", ["argv", "config"])
    def test_negative_seed_exits_2(self, toy_csv, tmp_path, capsys, argv, source):
        config, out = tmp_path / "cfg.json", tmp_path / "out"
        config.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if source == "argv" else ["--config", str(config)]
        with pytest.raises(SystemExit) as exc:
            tsmote.cli.main([*(a.format(csv=toy_csv) for a in argv), "-o", str(out), *seed])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "--seed must be a non-negative integer, not -1"}
        assert not out.exists()

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

    # each header would repeat a column name in the header of imputed.csv
    @pytest.mark.parametrize("header, row, error", [
        ("sample_id,time,class,x,x", "c,{v},{v}", "column 'x' appears twice in the header"),
        ("sample_id,time,class,class", "c,{v}", "column 'class' appears twice in the header"),
        ("sample_id,time,x,class", "{v},{v}", "feature column 'class' has the name of an imputed.csv column"),
    ])
    def test_ambiguous_header_exits_2(self, tmp_path, run_cli, header, row, error):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n" + "".join(
            f"s{i},{t}," + row.format(v=i + t / 4) + "\n" for i in range(4) for t in range(3)))
        out = tmp_path / "out"
        res = run_cli(["impute", str(path), "--slices", "2", "-o", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == f"{path}: {error}"
        assert not out.exists()

    # TOY_GRID is the grid `slice --slices 3` builds for TOY_CSV; each file breaks one entry
    @pytest.mark.parametrize("grid, error", [
        ([0.0, 1.5, 3.5, 5.0], "a slice grid must be a JSON object, not list"),
        ({k: v for k, v in TOY_GRID.items() if k != "boundaries"},
         "slice grid entry 'boundaries' is missing or malformed: None"),
        ({**TOY_GRID, "t_max": None}, "slice grid entry 't_max' is missing or malformed: None"),
        ({**TOY_GRID, "grid_times": [float("nan"), 2.5, 4.5]}, "slice grid entries must be finite"),
        ({**TOY_GRID, "boundaries": [0.0, float("nan"), 3.5, 5.0]}, "slice grid entries must be finite"),
        ({**TOY_GRID, "n_slices": "3"}, "slice grid entry 'n_slices' is missing or malformed: '3'"),
    ])
    def test_malformed_grid_file_exits_2(self, toy_csv, tmp_path, run_cli, grid, error):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out = tmp_path / "out"
        res = run_cli(["impute", str(toy_csv), "--grid", str(path), "-o", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == error
        assert not out.exists()

    # each option that builds a grid, given with --grid: --slices repeats its default, and
    # a config file repeats --grid-time's
    @pytest.mark.parametrize("argv, option", [
        (["--slices", "50"], "--slices"),
        (["--grid-time", "midpoint"], "--grid-time"),
        (["--t-min", "0"], "--t-min"),
        (["--t-max", "99"], "--t-max"),
        (["--config", "{config}"], "--grid-time"),
    ], ids=["slices", "grid-time", "t-min", "t-max", "config-key"])
    def test_grid_excludes_grid_options(self, toy_csv, tmp_path, capsys, argv, option):
        grid, config, out = tmp_path / "grid.json", tmp_path / "cfg.json", tmp_path / "out"
        grid.write_text(json.dumps(TOY_GRID))
        config.write_text(json.dumps({"grid_time": "median"}))
        with pytest.raises(SystemExit) as exc:
            tsmote.cli.main(["impute", str(toy_csv), "--grid", str(grid), "-o", str(out),
                             *[a.format(config=config) for a in argv]])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"--grid excludes {option}: the grid file sets the slices and their times"}
        assert not out.exists()

    # a negative bound written with an exponent is a value, not a flag
    @pytest.mark.parametrize("command", ["slice", "impute"])
    def test_negative_exponent_t_max_reaches_the_grid(self, toy_csv, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            tsmote.cli.main([command, str(toy_csv), "--t-max", "-1e-3", "-o", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "t_max (-0.001) must exceed t_min (0.0)"}

    def test_negative_exponent_t_min_is_accepted(self, toy_csv, tmp_path):
        out = tmp_path / "out"
        assert tsmote.cli.main(["slice", str(toy_csv), "--slices", "3", "--t-min", "-1e-3", "-o", str(out)]) == 0
        assert json.loads((out / "grid.json").read_text())["t_min"] == -1e-3

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("bound", ["t_min", "t_max"])
    def test_nonfinite_bound_named_exits_2(self, toy_csv, tmp_path, capsys, bound, value, form):
        given = ["--" + bound.replace("_", "-"), repr(value)]
        if form == "config":
            given = ["--config", str(tmp_path / "cfg.json")]
            (tmp_path / "cfg.json").write_text(json.dumps({bound: value}))
        with pytest.raises(SystemExit) as exc:
            tsmote.cli.main(["slice", str(toy_csv), "--slices", "3", "-o", str(tmp_path / "out"), *given])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err) == {"error": f"{bound} must be a finite number, not {value!r}"}
        assert not (tmp_path / "out" / "grid.json").exists()

    # 4 samples, each observed at every time; twice the span is not a finite float
    @pytest.mark.parametrize("times, slices", [
        ((-1.7e308, -1.0, 1.0, 1.7e308), 2),
        ((-9e307, -1.0, 1.0, 9e307), 2),
        ((0.0, 1.0, 2.0, 1.7e308), 4),
    ])
    def test_time_span_that_overflows_exits_2(self, tmp_path, run_cli, times, slices):
        path = tmp_path / "span.csv"
        path.write_text("sample_id,time,x\n" + "".join(
            f"s{i},{t!r},{i + j / 2}\n" for i in range(4) for j, t in enumerate(times)))
        out = tmp_path / "out"
        res = run_cli(["impute", str(path), "--slices", str(slices), "-o", str(out)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr)["error"] == (
            f"time span from {times[0]!r} to {times[-1]!r} is too wide: 2 * (t_max - t_min) overflows")
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


def test_age_recorded_at_the_first_visit_imputes(golden_runs, tmp_path, run_cli):
    # the demo training set with an age column recorded at each sample's first row only:
    # most cells hold fewer than two ages, and none is read
    with open(golden_runs / "demo-0" / "train.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    ages, out_rows = {}, []
    for sid, time, label, *xy in rows:
        age = "" if sid in ages else ages.setdefault(sid, str(40 + len(ages)))
        out_rows.append([sid, time, label, age, *xy])
    path = tmp_path / "age.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[*header[:3], "age", *header[3:]], *out_rows])
    out = tmp_path / "out"
    res = run_cli(["impute", str(path), "--fixed", "1", "-o", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    with open(out / "imputed.csv", newline="") as fh:
        imputed = list(csv.DictReader(fh))
    assert len(imputed) == 50 * len(ages)
    assert {(r["sample_id"], r["age"]) for r in imputed} == {(sid, f"{age}.0") for sid, age in ages.items()}


def test_pinned_nulls_need_no_draws(tmp_path, run_cli):
    # slice 1 has one recorded age, too few to synthesize from, but no draw asks for one
    path = tmp_path / "pinned.csv"
    path.write_text(PINNED_AGE_CSV)
    out = tmp_path / "out"
    res = run_cli(["impute", str(path), "--slices", "2", "--fixed", "1", "--allow-null-imputation",
                   "-o", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in (out / "imputed.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[2], r[4], r[5]) for r in rows] == [
        ("a", "0", "1.0", "1.25"), ("a", "1", "1.0", "2.0"),
        ("b", "0", "3.0", "1.0"), ("b", "1", "3.0", "1.6"),
    ]


@pytest.mark.parametrize("spec, cause", [
    ("beta:nan,1", "beta parameters must be positive and finite, not a=nan, b=1.0"),
    ("beta:inf,1", "beta parameters must be positive and finite, not a=inf, b=1.0"),
    ("beta:1", "lambda distribution 'beta:1' must have the form beta:a,b"),
    ("beta:1,2,3", "lambda distribution 'beta:1,2,3' must have the form beta:a,b"),
])
def test_bad_beta_lambda_exits_2(toy_csv, tmp_path, run_cli, spec, cause):
    out = tmp_path / "out"
    res = run_cli(["impute", str(toy_csv), "--slices", "2", "--lambda", spec, "-o", str(out)], tmp_path)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == cause
    assert not out.exists()


@pytest.mark.parametrize("spec, form", [
    ("beta:x,1", "beta:a,b"), ("beta:1,", "beta:a,b"), ("point:x", "point:c"), ("point:", "point:c"),
])
def test_unparsable_lambda_number_names_the_form(toy_csv, tmp_path, run_cli, spec, form):
    out = tmp_path / "out"
    res = run_cli(["impute", str(toy_csv), "--slices", "2", "--lambda", spec, "-o", str(out)], tmp_path)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == f"lambda distribution {spec!r} must have the form {form}"
    assert not out.exists()
