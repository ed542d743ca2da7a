"""Spans around calls into the library's layers, recorded from outside.

Run as a script, this is the traced child: it wraps the names that the
library's callers bind, runs `intradayvol.cli.main`, and writes the spans
to a JSON file when main returns:

    python3 perfbench/spans.py SPANS.json -- report panel.csv --out OUT

Nothing under src/ changes. A span is (name, start, end, parent, thread,
error); the parent is the innermost open span on the same thread, so work
run on a pool thread starts its own tree there.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time

# (module, attribute path, span name). Each entry is patched where the
# caller looks it up: the pipeline and CLI bind functions by name at import,
# while the pipeline reaches metrics through the module object.
WRAPPED = (
    ("intradayvol.cli", "main", "cli.main"),
    ("intradayvol.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("intradayvol.cli", "load_minute_bars", "panel.load_minute_bars"),
    ("intradayvol.cli", "validate_panel", "panel.validate_panel"),
    ("intradayvol.cli", "write_panel_csv", "panel.write_panel_csv"),
    ("intradayvol.pipeline", "load_minute_bars", "panel.load_minute_bars"),
    ("intradayvol.pipeline", "validate_panel", "panel.validate_panel"),
    ("intradayvol.pipeline", "cumulants_over_days", "cumulants.cumulants_over_days"),
    ("intradayvol.pipeline", "cumulants_over_companies",
     "cumulants.cumulants_over_companies"),
    ("intradayvol.pipeline", "aggregate_ticker_profiles", "cumulants.aggregate"),
    ("intradayvol.pipeline", "aggregate_day_profiles", "cumulants.aggregate"),
    ("intradayvol.pipeline", "variance_ratio", "cumulants.aggregate"),
    ("intradayvol.pipeline", "mean_kurtosis_tail", "cumulants.aggregate"),
    ("intradayvol.pipeline", "fit_kurtosis_relaxation", "fits.fit_kurtosis_relaxation"),
    ("intradayvol.pipeline", "fit_opening_powerlaw", "fits.linear"),
    ("intradayvol.pipeline", "fit_closing_powerlaw", "fits.linear"),
    ("intradayvol.pipeline", "fit_quartic", "fits.linear"),
    ("intradayvol.pipeline", "scatter_relation", "fits.linear"),
    ("intradayvol.pipeline", "shape_functionals", "fits.linear"),
    ("intradayvol.pipeline", "welch_test", "stats_tests"),
    ("intradayvol.pipeline", "mww_test", "stats_tests"),
    ("intradayvol.pipeline", "ReportBundle.files", "pipeline.ReportBundle.files"),
    ("intradayvol.pipeline", "ReportBundle.write", "pipeline.ReportBundle.write"),
    ("intradayvol.metrics", "daily_ohlc", "metrics.daily_ohlc"),
    ("intradayvol.metrics", "activity", "metrics.other"),
    ("intradayvol.metrics", "garman_klass_volatility", "metrics.other"),
    ("intradayvol.metrics", "semester_return", "metrics.other"),
    ("intradayvol.metrics", "semester_endpoint_prices", "metrics.other"),
    ("intradayvol.metrics", "concavity_activity_regression", "metrics.other"),
)

# Span names whose peak-RSS growth is recorded (ru_maxrss after - before).
RSS_SPANS = {"panel.load_minute_bars"}


class Recorder:
    """Holds the spans of one process in memory until they are dumped."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, fn, name: str):
        measure_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            record = [name, time.perf_counter(), None, stack[-1] if stack else None,
                      threading.get_ident(), None, None]
            self.spans.append(record)
            stack.append(record)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if measure_rss else 0
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if measure_rss:
                    record[6] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0

        return wrapper

    def install(self) -> None:
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def to_json(self) -> list[dict]:
        position = {id(r): k for k, r in enumerate(self.spans)}
        return [{"name": name, "start": start, "end": end,
                 "parent": None if parent is None else position[id(parent)],
                 "thread": thread, "error": error, "rss_growth_kb": rss}
                for name, start, end, parent, thread, error, rss in self.spans]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover. Children
    run on the parent's thread, so per-thread self times add up to the
    thread's covered time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 1
    recorder = Recorder()
    recorder.install()
    from intradayvol import cli

    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump({"main_thread": threading.main_thread().ident,
                       "spans": recorder.to_json()}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
