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
import dataclasses
import json
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .classify import ComparisonConfig, run_imputer_comparison
from .data import (
    read_long_csv,
    tensor_to_json,
    validate_dataset,
    write_csv,
    write_long_csv,
    write_tensor_csv,
)
from .imputation import ImputationConfig, impute_dataset
from .moments import run_moment_verification
from .oscillator import ExperimentConfig, generate_two_class_experiment
from .slicing import (
    MEDIAN_OF_OBSERVATIONS,
    MIDPOINT,
    SliceGrid,
    assign_slices,
    build_slice_grid,
)
from .smoothing import SmoothingConfig, smooth_tensor
from .synthesis import LambdaSpec, SynthesisConfig, generate_pool, write_pool_csv


def _fail(message: str, **extra) -> NoReturn:
    payload = {"error": message, **extra}
    print(json.dumps(payload), file=sys.stderr)
    raise SystemExit(2)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file with default option values")
    p.add_argument("--output-dir", "-o", type=Path, default=Path("."), help="directory for all outputs")
    p.add_argument("--seed", type=int, default=0)


def _add_pipeline(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slices", type=int, default=50, help="number of time slices")
    p.add_argument("--grid-time", choices=[MIDPOINT, "median"], default="median")
    p.add_argument("--k", type=int, default=5, help="nearest neighbors per feature")
    p.add_argument("--surplus", type=float, default=1.5, help="synthetic surplus factor")
    p.add_argument("--lambda", dest="lambda_dist", default="uniform",
                   help="interpolation weight distribution: uniform | beta:a,b | point:c")
    p.add_argument("--replacement", choices=["with", "without"], default="without")
    p.add_argument("--method", choices=["tsmote", "slice_mean", "slice_median"], default="tsmote")
    p.add_argument("--allow-null-imputation", action="store_true",
                   help="permit per-feature null replacement (features must be independent)")
    p.add_argument("--fixed", type=int, default=0, help="number of leading time-independent features")
    p.add_argument("--class-column", default="class")
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--smooth", action="store_true", help="apply Savitzky-Golay smoothing")
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--order", type=int, default=5)


def _apply_config_file(args: argparse.Namespace) -> None:
    """Make the file's values the subcommand's defaults, so a flag given in argv wins."""
    try:
        file_values = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        _fail(f"cannot read config file: {e}")
    # only the subcommand's own options: not --help, nor what set_defaults adds
    options = {a.dest for a in args.parser._actions if a.dest != "help"}
    for key in file_values:
        if key.replace("-", "_") not in options:
            _fail(f"unknown config key {key!r}")
    args.parser.set_defaults(**{key.replace("-", "_"): value for key, value in file_values.items()})


def _grid_policy(name: str) -> str:
    return MEDIAN_OF_OBSERVATIONS if name == "median" else MIDPOINT


def _load_dataset(args):
    """Read and validate ``args.input``; ``--fixed`` applies before validation."""
    try:
        dataset = read_long_csv(args.input, class_column=args.class_column)
    except (OSError, ValueError) as e:
        _fail(str(e))
    if args.fixed:
        dataset = dataclasses.replace(dataset, fixed_prefix_len=args.fixed)
    report = validate_dataset(dataset, n_slices=args.slices)
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
    dataset, report = _load_dataset(args)
    bounds = (args.t_min, args.t_max)
    grid = build_slice_grid(dataset, args.slices, _grid_policy(args.grid_time), bounds)
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
    try:
        lam = LambdaSpec.parse(args.lambda_dist)
        syn = SynthesisConfig(k_neighbors=args.k, lambda_dist=lam, surplus_factor=args.surplus,
                              seed=args.seed, replacement_policy=args.replacement)
        imp = ImputationConfig(method=args.method, allow_null_feature_imputation=args.allow_null_imputation)
        smo = SmoothingConfig(window=args.window, poly_order=args.order)

        if args.grid:
            grid = SliceGrid.from_json(Path(args.grid).read_text())
        else:
            grid = build_slice_grid(dataset, args.slices, _grid_policy(args.grid_time),
                                    (args.t_min, args.t_max))
        tensor = impute_dataset(dataset, grid, synthesis_config=syn, imputation_config=imp)
        if args.smooth:
            tensor = smooth_tensor(tensor, smo, fixed_prefix_len=args.fixed)
    except (ValueError, RuntimeError, OSError) as e:
        _fail(str(e))

    write_tensor_csv(tensor, _out(args, "imputed.csv"))
    _out(args, "imputed.json").write_text(tensor_to_json(tensor, grid.to_dict()))
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

    syn = SynthesisConfig(seed=args.seed)
    pool = generate_pool(exp.train, exp.grid, assignment, syn)
    write_pool_csv(pool, exp.grid, exp.train.feature_names, _out(args, "pool.csv"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsmote", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="build a slice grid from a long CSV")
    p.add_argument("input", type=Path)
    _add_common(p)
    _add_pipeline(p)
    p.set_defaults(func=cmd_slice, parser=p)

    p = sub.add_parser("impute", help="impute a long CSV onto the slice grid")
    p.add_argument("input", type=Path)
    p.add_argument("--grid", type=Path, help="reuse a previously exported grid JSON")
    _add_common(p)
    _add_pipeline(p)
    p.set_defaults(func=cmd_impute, parser=p)

    p = sub.add_parser("demo-oscillator", help="write the two-class oscillator experiment")
    _add_common(p)
    p.add_argument("--slices", type=int, default=50)
    p.add_argument("--time-dist", choices=["uniform", "exponential"], default="uniform")
    p.set_defaults(func=cmd_demo_oscillator, parser=p)

    p = sub.add_parser("verify-moments", help="run the moment-law verification battery")
    _add_common(p)
    p.set_defaults(func=cmd_verify_moments, parser=p)

    p = sub.add_parser("compare-imputers", help="compare tsmote with mean/median baselines")
    _add_common(p)
    p.add_argument("--slices", type=int, default=50)
    p.add_argument("--time-dist", choices=["uniform", "exponential"], default="uniform")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--no-smoothing", action="store_true")
    p.add_argument("--features", choices=["flattened", "endpoint"], default="flattened")
    p.set_defaults(func=cmd_compare_imputers, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config_file(args)
        args = parser.parse_args(argv)  # string defaults go through the option's type, as flags do
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, OSError) as e:
        _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
