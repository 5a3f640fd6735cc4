"""Traced in-process CLI run: ``python3 traced.py SPANS.json <tsmote args...>``.

Wraps the public names that ``tsmote.cli``, ``tsmote.imputation`` and
``tsmote.classify`` import, calls ``tsmote.cli.main`` once, and keeps every
span (name, start, end, parent, high-water RSS at its end) in memory until
``main`` returns. Then it writes the spans to SPANS.json and exits with
``main``'s exit code. A name that no longer exists is listed as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

ROOT_SPAN = "cli.main"

# span name -> the module attributes the CLI reaches it through
TARGETS = {
    "data.read_long_csv": ["tsmote.cli"],
    "data.validate_dataset": ["tsmote.cli"],
    "data.write_tensor_csv": ["tsmote.cli"],
    "data.tensor_to_json": ["tsmote.cli"],
    "slicing.build_slice_grid": ["tsmote.cli"],
    "slicing.assign_slices": ["tsmote.cli", "tsmote.imputation", "tsmote.classify"],
    "synthesis.generate_pool": ["tsmote.cli", "tsmote.imputation"],
    "imputation.impute_dataset": ["tsmote.cli", "tsmote.classify"],
    "smoothing.smooth_tensor": ["tsmote.cli", "tsmote.classify"],
    "oscillator.generate_two_class_experiment": ["tsmote.cli", "tsmote.classify"],
    "classify.fit_logistic": ["tsmote.classify"],
    "classify.evaluate": ["tsmote.classify"],
}
SPAN_NAMES = [ROOT_SPAN, *TARGETS]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rss_mb]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
                self.spans[idx][4] = _rss_mb()

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in place; returns the names that could not be found."""
    missing = []
    for span, modules in TARGETS.items():
        attr = span.split(".", 1)[1]
        for mod_name in modules:
            try:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(span, fn))
    return missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import tsmote.cli

    tracer = Tracer()
    missing = install(tracer)
    run = tracer.wrap(ROOT_SPAN, tsmote.cli.main)
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": missing, "exit_code": code}, fh)
    return code


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time (duration minus direct children) and RSS."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "self_s": 0.0, "rss_mb": 0.0} for name in SPAN_NAMES}
    for (name, start, end, _, rss), inner in zip(spans, child_time):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - inner
        row["rss_mb"] = max(row["rss_mb"], rss)
    return out


if __name__ == "__main__":
    sys.exit(main())
