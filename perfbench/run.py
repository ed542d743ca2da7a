"""Benchmark for the intradayvol CLI.

    python3 perfbench/run.py --workload long_history --seed 1 --seconds 30 --trace 0

From the root of a checkout: builds the workload's inputs from the seed,
runs the real CLI on them in fresh child processes, one at a time, checks
every output, and prints the metrics named in BENCHMARK.json. The last
line of standard output is one JSON object. `--trace 0` gives the
end-to-end metrics, `--trace 1` adds one traced child and gives the
per-layer ones. `--workload all` runs every workload in turn. The exit
code is 0 only when every check passed.

Every workload is a closed loop: one caller runs one CLI job to completion,
then the next. Timed jobs repeat for `--seconds` (at least three of them),
and set-up is repeated three times. Each job and each set-up follows a run
of perfbench/calibrate.py, a fixed job outside the library. The reported
`run_s` and `setup_s` are medians of measured time x (CALIBRATION_REF_S /
the adjacent calibration time): seconds at the speed of a machine on which
the calibration job takes CALIBRATION_REF_S. On a shared machine whose speed
drifts by a third or more over minutes, this keeps runs comparable; the raw
medians are reported with `--trace 1`.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so bundle bytes do not depend on it
REFERENCE = HERE / "reference.json"

if not (SRC / "intradayvol" / "cli.py").is_file():
    raise SystemExit(f"no intradayvol sources under {SRC}: run from a full checkout")
sys.path.insert(0, str(SRC))  # the checkout's library, never an installed one
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import tree_hashes  # noqa: E402

SETUP_REPEATS = 3
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 120.0
CALIBRATION_REF_S = 0.5


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    runtime_warnings: int


class Spawner:
    """Runs children through perfbench/spawner.py, whose small footprint
    keeps the benchmark's own memory out of each child's peak RSS."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, cmd: list[str], log: Path) -> Child:
        """Run one child from spawn to exit, its output going to log.*."""
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)  # default warning filters
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        err_path = log.with_name(log.name + ".stderr")
        request = {"cmd": cmd, "stdout": str(log.with_name(log.name + ".stdout")),
                   "stderr": str(err_path), "env": env, "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        warnings = sum("RuntimeWarning" in line
                       for line in err_path.read_text(errors="replace").splitlines())
        return Child(reply["returncode"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                     warnings)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "intradayvol.cli", *args]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, spawner: Spawner, workload, seed: int, seconds: float, trace: bool):
        self.spawner = spawner
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / workload.name
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.last: Path | None = None  # output directory of the last timed job

    def job(self, cmd: list[str], out: Path, inputs) -> Child:
        """Run one CLI job and check what it wrote."""
        shutil.rmtree(out, ignore_errors=True)
        child = self.spawner.run(cmd, out)
        self.attempted += 1
        if child.returncode != 0:
            found = [f"{out.name}: exit code {child.returncode}"]
        else:
            found = [f"{out.name}: {p}" for p in self.wl.check(inputs, out)]
        if found:
            self.failed += 1
            self.problems += found
        return child

    def calibration(self) -> float:
        """Wall time of one calibration job, run just before the work it scales."""
        cmd = [sys.executable, str(HERE / "calibrate.py")]
        child = self.spawner.run(cmd, self.dir / "calibration")
        if child.returncode != 0:
            raise RuntimeError(f"calibration job failed with exit code {child.returncode}")
        return child.wall_s

    def execute(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        setups, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            cal = self.calibration()
            setups.append(self.wl.setup(self.dir / "input", self.seed))
            setup_scaled.append(setups[-1].timings["total"] * CALIBRATION_REF_S / cal)
        inputs = setups[-1]

        timed: list[Child] = []
        scaled: list[float] = []
        calibrations: list[float] = []
        out = None
        start = time.perf_counter()
        while len(timed) < MIN_TIMED_RUNS or time.perf_counter() - start < self.seconds:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)
            out = self.dir / f"run{len(timed)}"
            calibrations.append(self.calibration())
            timed.append(self.job(cli_command(self.wl.argv(inputs, out)), out, inputs))
            scaled.append(timed[-1].wall_s * CALIBRATION_REF_S / calibrations[-1])
            if timed[-1].returncode != 0:
                break
        self.last = last = out

        if getattr(self.wl, "jobs", 1) > 1 and not self.problems:
            # untimed: the threaded bundle must equal a single-threaded one
            serial = self.dir / "serial"
            self.job(cli_command(self.wl.argv(inputs, serial, jobs=1)), serial, inputs)
            if tree_hashes(serial) != tree_hashes(last):
                self.failed += 1
                self.problems.append(f"--jobs {self.wl.jobs} bundle differs from --jobs 1")

        run_s = statistics.median(scaled)
        median = {
            "run_s": run_s,
            "rows_per_s": inputs.rows / run_s,
            "peak_rss_mb": statistics.median(c.maxrss_mb for c in timed),
            "setup_s": statistics.median(setup_scaled),
            "pass_rate": (self.attempted - self.failed) / self.attempted,
        }
        raw = {
            "raw.run_s": statistics.median(c.wall_s for c in timed),
            "raw.setup_s": statistics.median(s.timings["total"] for s in setups),
            "calibration.job_s": statistics.median(calibrations),
        }
        print(f"{self.wl.name} seed={self.seed}: {inputs.rows} input rows, "
              f"{len(timed)} timed jobs (raw s / calibration s): "
              + ", ".join(f"{c.wall_s:.3f}/{k:.3f}" for c, k in zip(timed, calibrations)))
        if not self.problems:
            self.compare_reference(last)
        if not self.trace:
            return median

        traced = self.traced_job(inputs, setups, timed, raw["raw.run_s"])
        # -1 when a check failed: the outputs it would be read from may be absent
        traced["failed_slices"] = (self.wl.failed_slices(inputs, last)
                                   if not self.problems else -1)
        traced.update(raw)
        return traced

    def traced_job(self, inputs, setups, timed: list[Child], raw_run_s: float) -> dict:
        out = self.dir / "traced"
        spans_path = self.dir / "spans.json"
        cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path), "--",
               *self.wl.argv(inputs, out)]
        child = self.job(cmd, out, inputs)
        doc = json.loads(spans_path.read_text())
        own = spans.self_times(doc["spans"])
        by_name: dict[str, list[tuple[dict, float]]] = {}
        for s, t in zip(doc["spans"], own):
            by_name.setdefault(s["name"], []).append((s, t))

        def self_s(name):
            return sum(t for _, t in by_name.get(name, []))

        def calls(name):
            return len(by_name.get(name, []))

        setup_write = statistics.median(s.timings["write_panel_csv"] for s in setups)
        write_s = setup_write + self_s("panel.write_panel_csv")
        # set-up writes the canonical CSV once; `ingest` writes it again
        write_rows = self.wl.shape.cells * (1 + calls("panel.write_panel_csv"))
        load = by_name.get("panel.load_minute_bars", [])
        main_roots = sum(s["end"] - s["start"] for s in doc["spans"]
                         if s["parent"] is None and s["thread"] == doc["main_thread"])
        bundle_bytes = (sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                        if (out / "manifest.json").is_file() else 0)
        metrics = {
            "panel.load_minute_bars.self_s": self_s("panel.load_minute_bars"),
            "panel.load_minute_bars.us_per_row":
                1e6 * self_s("panel.load_minute_bars") / inputs.rows,
            "panel.load_minute_bars.rss_growth_mb":
                sum(s["rss_growth_kb"] for s, _ in load) / 1024.0,
            "panel.write_panel_csv.self_s": write_s,
            "panel.write_panel_csv.us_per_row": 1e6 * write_s / write_rows,
            "panel.validate_panel.self_s": self_s("panel.validate_panel"),
        }
        for name in ("cumulants.cumulants_over_days", "cumulants.cumulants_over_companies",
                     "metrics.daily_ohlc", "fits.fit_kurtosis_relaxation"):
            metrics[f"{name}.self_s"] = self_s(name)
            metrics[f"{name}.calls"] = calls(name)
        metrics["fits.fit_kurtosis_relaxation.failures"] = sum(
            s["error"] is not None for s, _ in by_name.get("fits.fit_kurtosis_relaxation", []))
        for name in ("cumulants.aggregate", "metrics.other", "fits.linear", "stats_tests",
                     "pipeline.run_pipeline", "pipeline.ReportBundle.files",
                     "pipeline.ReportBundle.write", "cli.main"):
            metrics[f"{name}.self_s"] = self_s(name)
        metrics.update({
            "pipeline.bytes_written": bundle_bytes,
            "synth.generate_panel.s":
                statistics.median(s.timings["generate_panel"] for s in setups),
            "cli.runtime_warnings": max(c.runtime_warnings for c in timed),
            "trace.overhead_s": child.wall_s - raw_run_s,
            "trace.uncovered_s": child.wall_s - main_roots,
        })
        print(f"traced job: {child.wall_s:.3f}s, {len(doc['spans'])} spans")
        return metrics

    def compare_reference(self, out: Path) -> None:
        """Report, without gating, which output files differ from the
        recorded reference for this seed."""
        ref = load_reference()["workloads"].get(self.wl.name, {}).get(str(self.seed))
        if ref is None:
            print(f"reference: none recorded for seed {self.seed}")
            return
        got = tree_hashes(out)
        differ = sorted(k for k in set(ref) | set(got) if ref.get(k) != got.get(k))
        if differ:
            print(f"reference: {len(differ)} files differ from seed {self.seed}: "
                  + ", ".join(differ))
        else:
            print(f"reference: all {len(got)} files identical (seed {self.seed})")

    def record_reference(self) -> None:
        doc = load_reference()
        doc["workloads"].setdefault(self.wl.name, {})[str(self.seed)] = \
            tree_hashes(self.last)
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, units: dict[str, str], correct: bool,
                attempted: int, failed: int) -> str:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: default_seed in perfbench/reference.json)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's output hashes as the seed's reference")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    compileall.compile_dir(str(SRC / "intradayvol"), quiet=1)
    seed = load_reference()["default_seed"] if args.seed is None else args.seed
    units = declared_metrics(bool(args.trace))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    ok = True
    lines = []
    for name in names:
        with Spawner() as spawner:
            run = Run(spawner, workloads.WORKLOADS[name], seed, args.seconds,
                      bool(args.trace))
            metrics = run.execute()
        correct = run.failed == 0 and not run.problems
        ok = ok and correct
        for problem in run.problems:
            print(f"CHECK FAILED {name}: {problem}")
        for k, unit in units.items():
            print(f"  {name:15s} {k:45s} {metrics[k]:>16.6g} {unit}")
        if correct and args.write_reference:
            run.record_reference()
        lines.append(result_line(metrics, units, correct, run.attempted, run.failed))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
