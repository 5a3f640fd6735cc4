"""Batch command-line front end.

Subcommands::

    tsmote slice            build a slice grid from a long CSV
    tsmote impute           impute a long CSV onto a grid
    tsmote demo-oscillator  write the two-class oscillator experiment
    tsmote verify-moments   run the moment-law verification battery
    tsmote compare-imputers run the imputer comparison experiment

Exit codes: 0 success, 1 verification failure, 2 usage or validation error
(with a machine-readable JSON error on stderr). Options may also be supplied
via ``--config file.json``; explicit flags win over the file. All outputs are
written inside ``--output-dir``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .classify import ENDPOINT, FLATTENED, ComparisonConfig, run_imputer_comparison
from .data import (
    read_long_csv,
    validate_dataset,
    write_csv,
    write_long_csv,
    write_tensor_csv,
)
from .imputation import METHODS, TSMOTE, ImputationConfig, impute_dataset
from .moments import run_moment_verification
from .oscillator import EXPONENTIAL, UNIFORM, ExperimentConfig, generate_two_class_experiment
from .slicing import (
    MEDIAN_OF_OBSERVATIONS,
    MIDPOINT,
    Requests,
    SliceGrid,
    assign_slices,
    build_slice_grid,
)
from .smoothing import SmoothingConfig, smooth_tensor
from .synthesis import LambdaSpec, SynthesisConfig, generate_pool


def _fail(message: str, **extra) -> NoReturn:
    payload = {"error": message, **extra}
    print(json.dumps(payload), file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An argparse usage error exits 2 with the JSON error too; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -.5 for negative numbers, so -1e-3 or -inf read as a flag
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    def error(self, message: str) -> NoReturn:
        _fail(message)


# the JSON values a config file may give an option, by the option's type; a
# flag (store_true) takes a boolean, and null is allowed where the default is null
_CONFIG_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string")}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Make the file's values the subcommand's defaults, so a flag given in argv wins."""
    try:
        file_values = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read config file: {e}") from e
    if not isinstance(file_values, dict):
        _fail(f"config file must hold a JSON object, not {type(file_values).__name__}")
    # only the subcommand's own options: not --help, nor what set_defaults adds
    options = {a.dest: a for a in args.parser._actions if a.dest != "help"}
    for key, value in file_values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            _fail(f"unknown config key {key!r}")
        kind = bool if action.nargs == 0 else action.type if action.type in (int, float) else str
        types, what = _CONFIG_TYPES[kind]
        if value is None and action.default is None:
            continue
        if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
            _fail(f"config key {key!r} must be {what}, not {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            _fail(f"config key {key!r} must be one of {list(action.choices)}, not {json.dumps(value)}")
    args.parser.set_defaults(**{key.replace("-", "_"): value for key, value in file_values.items()})


# --grid-time's choices and the grid-time policy each names
_GRID_TIMES = {MIDPOINT: MIDPOINT, "median": MEDIAN_OF_OBSERVATIONS}


def _load_dataset(args, n_slices=None):
    """Read (with ``--fixed``) and validate ``args.input``; ``n_slices`` sizes a warning."""
    dataset = read_long_csv(args.input, fixed_prefix_len=args.fixed)
    report = validate_dataset(dataset, n_slices=n_slices)
    if not report.ok:
        _fail("dataset failed validation", report=report.to_dict())
    return dataset, report


def _out(args, name: str) -> Path:
    args.output_dir.mkdir(parents=True, exist_ok=True)
    return args.output_dir / name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_slice(args) -> int:
    dataset, report = _load_dataset(args, args.slices)
    grid = build_slice_grid(dataset, args.slices, _GRID_TIMES[args.grid_time], (args.t_min, args.t_max))
    assignment = assign_slices(dataset, grid)

    _out(args, "grid.json").write_text(grid.to_json())
    write_csv(_out(args, "assignment.csv"), ["sample_id", "time", "slice_index"],
              [np.array(dataset.ids, dtype=object)[dataset.row_sample], dataset.times, assignment])
    _out(args, "validation.json").write_text(report.to_json())
    print(f"grid: {args.slices} slices over [{grid.t_min:g}, {grid.t_max:g}], "
          f"occupancy spread {grid.occupancy_spread}")
    return 0


def cmd_impute(args) -> int:
    dataset, _ = _load_dataset(args)
    syn = SynthesisConfig(k_neighbors=args.k, lambda_dist=LambdaSpec.parse(args.lambda_dist),
                          seed=args.seed, replacement_policy=args.replacement)
    imp = ImputationConfig(method=args.method, allow_null_feature_imputation=args.allow_null_imputation)
    smo = SmoothingConfig(window=args.window, poly_order=args.order)

    if args.grid:
        grid = SliceGrid.from_json(Path(args.grid).read_text())
    else:
        grid = build_slice_grid(dataset, args.slices, _GRID_TIMES[args.grid_time], (args.t_min, args.t_max))
    tensor = impute_dataset(dataset, grid, synthesis_config=syn, imputation_config=imp)
    if args.smooth:
        tensor = smooth_tensor(tensor, smo)

    write_tensor_csv(tensor, _out(args, "imputed.csv"), _out(args, "imputed.json"), grid.to_dict())
    _out(args, "grid.json").write_text(grid.to_json())
    n_d, n_t, n_f = tensor.shape
    print(f"imputed tensor: {n_d} samples x {n_t} slices x {n_f} features")
    return 0


def cmd_demo_oscillator(args) -> int:
    config = ExperimentConfig(n_slices=args.slices, time_dist=args.time_dist)
    exp = generate_two_class_experiment(args.seed, config)
    write_long_csv(exp.train, _out(args, "train.csv"))
    write_long_csv(exp.test, _out(args, "test.csv"))
    _out(args, "grid.json").write_text(exp.grid.to_json())

    assignment = assign_slices(exp.train, exp.grid)
    train, owner = exp.train, exp.train.row_sample
    write_csv(_out(args, "slices.csv"),
              ["sample_id", "class", "time", "elapsed", "slice_index", "x", "y"],
              [np.array(train.ids, dtype=object)[owner], np.array(train.labels, dtype=object)[owner],
               train.times, train.times - exp.grid.t_min, assignment, *train.values.T])

    # the vectors a tsmote impute of the training set draws, cell by cell, in the order its requests take them
    n_slices = exp.grid.n_slices
    requests = Requests(train, n_slices, assignment)
    buf = np.empty((requests.n_rows, train.n_features))
    generate_pool(requests, buf, SynthesisConfig(seed=args.seed))
    rows = [requests.rows(c) for c in range(len(requests.ends))]
    pool = buf[np.concatenate(rows)]
    position, si = np.divmod(np.repeat(np.arange(len(rows)), [len(r) for r in rows]), n_slices)
    write_csv(_out(args, "pool.csv"), ["class", "slice_index", "grid_time", *train.feature_names],
              [np.array(train.classes, dtype=object)[position], si,
               exp.grid.data_grid_times()[si], *pool.T])
    print(f"wrote train ({exp.train.n_samples} samples), test ({exp.test.n_samples} samples), "
          f"grid, slices.csv, pool.csv")
    return 0


def cmd_verify_moments(args) -> int:
    summary = run_moment_verification(seed=args.seed)
    _out(args, "moments_report.json").write_text(json.dumps(summary, indent=2))
    for check in summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    if not summary["passed"]:
        print("verification FAILED", file=sys.stderr)
        return 1
    print("all moment checks passed")
    return 0


def cmd_compare_imputers(args) -> int:
    smoothing = SmoothingConfig(window=args.window, poly_order=args.order)  # checked even when unused
    config = ComparisonConfig(
        experiment=ExperimentConfig(n_slices=args.slices, time_dist=args.time_dist),
        smoothing=None if args.no_smoothing else smoothing,
        n_repetitions=args.reps,
        feature_mode=args.features,
    )
    results = run_imputer_comparison(args.seed, config)
    rows = [r.to_dict() for r in results]
    _out(args, "comparison.json").write_text(json.dumps(rows, indent=2))
    header = ["method", "accuracy_mean", "accuracy_std", "auc_mean", "auc_std"]
    write_csv(_out(args, "comparison.csv"), header,
              [[r["method"] for r in rows], *([f"{r[k]:.5f}" for r in rows] for k in header[1:])])
    print(f"{'method':<14}{'accuracy':>10}{'auc':>10}")
    for r in rows:
        print(f"{r['method']:<14}{r['accuracy_mean']:>10.5f}{r['auc_mean']:>10.5f}")
    return 0


# every option once, by its dest: the flags, then add_argument's keywords
_OPTIONS = {
    "input": (["input"], dict(type=Path)),
    "config": (["--config"], dict(type=Path, help="JSON file with default option values")),
    "output_dir": (["--output-dir", "-o"], dict(type=Path, default=Path("."), help="directory for all outputs")),
    "seed": (["--seed"], dict(type=int, default=0)),
    "grid": (["--grid"], dict(type=Path, help="reuse a previously exported grid JSON")),
    "slices": (["--slices"], dict(type=int, default=50, help="number of time slices")),
    "grid_time": (["--grid-time"], dict(choices=list(_GRID_TIMES), default="median")),
    "k": (["--k"], dict(type=int, default=5, help="nearest neighbors per feature")),
    "lambda_dist": (["--lambda"], dict(dest="lambda_dist", default="uniform",
                                       help="interpolation weight distribution: uniform | beta:a,b | point:c")),
    "replacement": (["--replacement"], dict(choices=["with", "without"], default="without")),
    "method": (["--method"], dict(choices=METHODS, default=TSMOTE)),
    "allow_null_imputation": (["--allow-null-imputation"], dict(
        action="store_true", help="permit per-feature null replacement (features must be independent)")),
    "fixed": (["--fixed"], dict(type=int, default=0, help="number of leading time-independent features")),
    "t_min": (["--t-min"], dict(type=float, default=None)),
    "t_max": (["--t-max"], dict(type=float, default=None)),
    "smooth": (["--smooth"], dict(action="store_true", help="apply Savitzky-Golay smoothing")),
    "window": (["--window"], dict(type=int, default=25)),
    "order": (["--order"], dict(type=int, default=5)),
    "time_dist": (["--time-dist"], dict(choices=[UNIFORM, EXPONENTIAL], default=UNIFORM)),
    "reps": (["--reps"], dict(type=int, default=10)),
    "no_smoothing": (["--no-smoothing"], dict(action="store_true")),
    "features": (["--features"], dict(choices=[FLATTENED, ENDPOINT], default=FLATTENED)),
}

# each subcommand: its command, its help, and the options the command reads
_COMMANDS = {
    "slice": (cmd_slice, "build a slice grid from a long CSV",
              "input config output_dir slices grid_time fixed t_min t_max"),
    "impute": (cmd_impute, "impute a long CSV onto the slice grid",
               "input grid config output_dir seed slices grid_time k lambda_dist replacement method "
               "allow_null_imputation fixed t_min t_max smooth window order"),
    "demo-oscillator": (cmd_demo_oscillator, "write the two-class oscillator experiment",
                        "config output_dir seed slices time_dist"),
    "verify-moments": (cmd_verify_moments, "run the moment-law verification battery", "config output_dir seed"),
    "compare-imputers": (cmd_compare_imputers, "compare tsmote with mean/median baselines",
                         "config output_dir seed slices time_dist reps window order no_smoothing features"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsmote", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args)
            args = parser.parse_args(argv)  # string defaults go through the option's type, as flags do
        if vars(args).get("seed", 0) < 0:  # numpy's own error would name no option
            _fail(f"--seed must be a non-negative integer, not {args.seed}")
        if vars(args).get("grid"):
            # parsed again without option defaults, args hold only what argv or the config file set
            # (the file's values are the parser's own defaults, which stay)
            for action in args.parser._actions:
                action.default = argparse.SUPPRESS
            given = vars(parser.parse_args(argv))
            excluded = [_OPTIONS[d][0][0] for d in ("slices", "grid_time", "t_min", "t_max") if d in given]
            if excluded:
                _fail(f"--grid excludes {', '.join(excluded)}: the grid file sets the slices and their times")
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as e:
        _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
