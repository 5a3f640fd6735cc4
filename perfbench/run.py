"""Benchmark of the ``tsmote`` command-line program.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its input from ``--seed``, times ``python -m tsmote.cli``
child processes (with ``src/`` on ``PYTHONPATH``) for about ``--seconds``,
checks every output outside the timer, and prints one JSON object as the
last line of standard output. With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from one
extra, traced in-process run (``traced.py``) plus counts derived from the
input. See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import traced  # noqa: E402
from inputs import EXPONENTIAL, OBS_MAX, OBS_MIN, InputSpec, write_input  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
RUN_BUDGET_S = 150.0  # every run must end well inside 180 s

DENSE = InputSpec(n_w2=3000, n_w4=2000)
SPARSE = InputSpec(n_w2=1200, n_w4=800, time_dist=EXPONENTIAL, null_frac=0.1, with_age=True)
EXPERIMENT_TRAIN = InputSpec(n_w2=270, n_w4=180)  # the size of one compare-imputers training set
EXPERIMENT_REPS = 2


@dataclass(frozen=True)
class Workload:
    """An input and the CLI arguments run on it; every setting is read from ``args``."""

    spec: InputSpec
    args: list[str]  # CLI arguments; for impute the input path goes after the subcommand

    def _value(self, flag: str, default: str) -> str:
        return self.args[self.args.index(flag) + 1] if flag in self.args else default

    @property
    def experiment(self) -> bool:
        return self.args[0] == "compare-imputers"

    @property
    def smoothed(self) -> bool:
        return "--smooth" in self.args

    @property
    def fixed(self) -> int:
        return int(self._value("--fixed", "0"))

    @property
    def pool(self) -> bool:
        """Only the tsmote method builds a synthetic pool; compare-imputers runs it too."""
        return self._value("--method", "tsmote") == "tsmote"


# README.md says why each workload exists
WORKLOADS = {
    "tsmote-dense": Workload(DENSE, ["impute", "--method", "tsmote"]),
    "mean-baseline": Workload(DENSE, ["impute", "--method", "slice_mean"]),
    "sparse-nulls": Workload(
        SPARSE,
        ["impute", "--slices", "200", "--allow-null-imputation", "--fixed", "1", "--smooth",
         "--replacement", "with"]),
    "experiment": Workload(EXPERIMENT_TRAIN, ["compare-imputers", "--reps", str(EXPERIMENT_REPS)]),
}
# compare-imputers writes no tensor: its curve RMSE and counts come from one
# untimed impute of a training set of the experiment's size
COMPANION = Workload(EXPERIMENT_TRAIN, ["impute", "--method", "tsmote"])
CLI = [sys.executable, "-m", "tsmote.cli"]


@dataclass
class Invocation:
    wall_s: float
    code: int
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(argv: list[str], log: Path, limit_s: float) -> Invocation:
    """Run one child through ``launch.py``; see there why it does not fork from here."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(log), str(max(limit_s, 1.0)), *argv],
        capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=max(limit_s, 1.0) + 30,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed: {proc.stderr.strip()}")
    return Invocation(**json.loads(proc.stdout))


class Run:
    """One benchmark run: its input, its CLI invocations and their failures."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.w = WORKLOADS[name]
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed: set[int] = set()  # invocation numbers that failed
        self.failures: list[str] = []
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.input = self.dir / "input.csv"
        self.info = write_input(self.w.spec, seed, self.input)
        self.obs = checks.read_input(self.input)

    def left_s(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, message: str) -> None:
        self.failed.add(self.attempted)
        self.failures.append(message)

    def invoke(self, argv: list[str], out: Path) -> Invocation:
        """One child with a fresh output directory; a non-zero exit is a failure."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.attempted += 1
        inv = spawn(argv, out / "log.txt", self.left_s())
        if inv.code != 0:
            self.fail(f"exit: code {inv.code}, see {out / 'log.txt'}")
        return inv

    def cli(self, w: Workload, out: Path, prefix: list[str] | None = None) -> Invocation:
        """Invoke the CLI (or ``prefix`` + CLI arguments) on workload ``w``."""
        if w.experiment:
            args = [*w.args, "--seed", str(self.seed)]
        else:
            args = [w.args[0], str(self.input), *w.args[1:]]
        return self.invoke([*(prefix or CLI), *args, "-o", str(out)], out)

    def check(self, w: Workload, out: Path):
        """Check one output directory; returns the imputed tensor, if any."""
        try:
            if w.experiment:
                found, tensor = checks.check_comparison(out, EXPERIMENT_REPS), None
            else:
                found, tensor = checks.check_impute(out, self.obs, smoothed=w.smoothed, fixed=w.fixed)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            found, tensor = [f"output: unreadable ({type(e).__name__}: {e})"], None
        for message in found:
            self.fail(message)
        return tensor

    def setup_s(self) -> float:
        """Median wall time of a fresh ``python -m tsmote.cli --version``."""
        walls = []
        out = self.dir / "version"
        for _ in range(SETUP_REPEATS):
            inv = self.invoke([*CLI, "--version"], out)
            text = (out / "log.txt").read_text().strip()
            if inv.code == 0 and not text.startswith("tsmote "):
                self.fail(f"version: unexpected output {text!r}")
            walls.append(inv.wall_s)
        return statistics.median(walls)

    def timed(self) -> tuple[list[Invocation], object]:
        """Untraced invocations for about ``seconds``, each checked after its timer stops.

        Returns the invocations and the last checked tensor.
        """
        runs: list[Invocation] = []
        tensor = None
        out = self.dir / "out"
        while sum(r.wall_s for r in runs) < self.seconds \
                and self.left_s() > 2 * max([r.wall_s for r in runs], default=0.0):
            inv = self.cli(self.w, out)
            runs.append(inv)
            if inv.code != 0:
                return runs, None
            tensor = self.check(self.w, out)
        return runs, tensor

    def quality(self, tensor):
        """The tensor and grid whose curve RMSE and counts the run reports."""
        out = self.dir / "out"
        if self.w.experiment:
            out = self.dir / "companion"
            tensor = self.check(COMPANION, out) if self.cli(COMPANION, out).code == 0 else None
        grid = checks.read_grid(out / "grid.json") if tensor is not None else None
        return tensor, grid

    def obs_per_invocation(self) -> tuple[float, str]:
        if not self.w.experiment:
            return float(self.info.n_obs), "input observations"
        spec = self.w.spec
        mean_obs = (OBS_MIN + OBS_MAX) / 2
        return (spec.n_w2 + spec.n_w4) * mean_obs * 3 * EXPERIMENT_REPS, (
            f"({spec.n_w2}+{spec.n_w4}) training samples x {mean_obs} mean observations"
            f" x 3 methods x {EXPERIMENT_REPS} reps")


def metadata() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "src_lines": src_lines}


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, details: dict) -> dict:
    setup = run.setup_s()
    timed, tensor = run.timed()
    tensor, _ = run.quality(tensor)
    walls = [r.wall_s for r in timed]
    wall = statistics.median(walls)
    n_obs, formula = run.obs_per_invocation()
    rmse = None if tensor is None else checks.curve_rmse(tensor, run.w.fixed)
    if rmse is not None and not math.isfinite(rmse):
        rmse = None  # null, never NaN, in the result; the finite check has already failed the run
    details.update(wall_s={"median": wall, "max": max(walls), "samples": len(walls)},
                   obs_formula=formula)
    return {
        "wall_s": metric(wall, "s"),
        "obs_per_s": metric(n_obs / wall, "obs/s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in timed), "MB"),
        "setup_s": metric(setup, "s"),
        "curve_rmse": metric(rmse, "rmse"),
        "ok_frac": metric(1.0 - len(run.failed) / run.attempted, "ratio"),
    }


def per_layer(run: Run, details: dict) -> dict:
    timed, tensor = run.timed()
    wall = statistics.median(r.wall_s for r in timed)
    cpu = statistics.median(r.cpu_s for r in timed)
    n_out = sum(f.stat().st_size for f in (run.dir / "out").iterdir() if f.suffix in (".csv", ".json"))
    tensor, grid = run.quality(tensor)
    counts = dict.fromkeys(checks.COUNT_NAMES)  # null when no grid could be read (a failed run)
    if grid is not None:
        counts.update(checks.layer_counts(run.obs, grid, pool=run.w.pool))

    out = run.dir / "traced"
    spans_path = run.dir / "spans.json"
    inv = run.cli(run.w, out, prefix=[sys.executable, str(HERE / "traced.py"), str(spans_path)])
    if inv.code == 0:
        run.check(run.w, out)
    trace = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": [], "missing": []}
    summary = traced.summarize(trace["spans"])
    root_s = sum(end - start for _, start, end, parent, _ in trace["spans"] if parent < 0)
    details.update(missing_spans=trace["missing"], traced_wall_s=inv.wall_s, untraced_wall_s=wall)

    metrics = {}
    for name in traced.SPAN_NAMES:
        row = summary[name]
        metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
        metrics[f"{name}.calls"] = metric(row["calls"], "count")
        metrics[f"{name}.rss_mb"] = metric(row["rss_mb"], "MB")
    metrics["cli.cpu_s"] = metric(cpu, "s")
    metrics["cli.cpu_per_wall"] = metric(cpu / wall, "ratio")
    metrics["trace.overhead_s"] = metric(inv.wall_s - wall, "s")
    metrics["trace.unattributed_s"] = metric(inv.wall_s - root_s, "s")
    metrics["data.input_bytes"] = metric(run.info.n_bytes, "bytes")
    metrics["data.output_bytes"] = metric(n_out, "bytes")
    for name, value in counts.items():
        metrics[name] = metric(value, "ratio" if name.endswith("ratio") else "count")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tsmote" / "cli.py").is_file():
        print(f"error: no tsmote sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "input": {"sha256": run.info.sha256, "bytes": run.info.n_bytes,
                         "observations": run.info.n_obs, "samples": run.info.n_samples},
               "meta": metadata()}
    metrics = per_layer(run, details) if args.trace else end_to_end(run, details)
    details["failures"] = run.failures
    print(json.dumps(details, allow_nan=False))
    print(json.dumps({"correct": not run.failed, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
