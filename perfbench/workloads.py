"""The benchmark's workloads: seeded inputs, the CLI job each runs, and
the checks on that job's outputs.

Inputs come from `intradayvol.synth.generate_panel`, whose Philox streams
are keyed on the seed, so one seed always gives the same input bytes. The
program under test only ever sees the files written here.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from intradayvol.panel import CANONICAL_COLUMNS, write_panel_csv
from intradayvol.pipeline import PipelineConfig
from intradayvol.synth import (
    GeneratorSpec,
    IntensitySpec,
    NoiseSpec,
    cv_to_sigma_l,
    generate_panel,
)

SESSION_OPEN = 9 * 60 + 30

# The CLI's default synthetic intensity, with the paper's opening exponent.
BASE_INTENSITY = IntensitySpec(
    opening_amplitude=2000.0, opening_exponent=0.29,
    closing_amplitude=1000.0, closing_exponent=0.4, baseline=50.0)


@dataclass(frozen=True)
class Shape:
    companies: int
    semesters: int
    days: int  # per semester

    @property
    def cells(self) -> int:
        return self.companies * self.semesters * self.days * 391


@dataclass
class Inputs:
    """What one set-up produced: paths, sizes, timings and planted truth."""

    root: Path
    rows: int  # data rows the CLI reads
    timings: dict[str, float] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def generator_spec(shape: Shape, cv: float, seed: int, overrides=None) -> GeneratorSpec:
    """Lognormal volume noise with coefficient of variation cv, GBM prices."""
    return GeneratorSpec(
        n_companies=shape.companies, n_days=shape.days, seed=seed,
        n_semesters=shape.semesters, intensity=BASE_INTENSITY,
        overrides=overrides or {}, noise=NoiseSpec(sigma_l=cv_to_sigma_l(cv)),
        price_model="gbm")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_hashes(root: Path) -> dict[str, str]:
    """relpath -> SHA-256 of every file under root."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


@dataclass(frozen=True)
class ReportWorkload:
    """`intradayvol report` on one canonical CSV written by set-up."""

    name: str
    shape: Shape
    cv: float
    jobs: int
    regime_boundary: int
    post_exponent: float | None  # opening exponent after the boundary
    alpha_tol: float  # |alpha - estimator on the planted curve|, per semester
    expect_regime_shift: bool

    def spec(self, seed: int) -> GeneratorSpec:
        overrides = {}
        if self.post_exponent is not None:
            late = replace(BASE_INTENSITY, opening_exponent=self.post_exponent)
            overrides = {s: late for s in range(self.regime_boundary + 1,
                                                self.shape.semesters + 1)}
        return generator_spec(self.shape, self.cv, seed, overrides)

    def setup(self, root: Path, seed: int) -> Inputs:
        root.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        panel, truth = generate_panel(self.spec(seed))
        t1 = time.perf_counter()
        write_panel_csv(panel, root / "panel.csv")
        t2 = time.perf_counter()
        config = {
            "semester_boundaries": [[a.isoformat(), b.isoformat()]
                                    for a, b in truth.boundaries],
            "regime_boundary_semester": self.regime_boundary,
        }
        (root / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        t3 = time.perf_counter()
        oracle = {s: planted_alpha(curve) for s, curve in truth.intensity_curves.items()}
        return Inputs(root, self.shape.cells,
                      {"generate_panel": t1 - t0, "write_panel_csv": t2 - t1,
                       "total": t3 - t0},
                      {"alpha": oracle})

    def argv(self, inputs: Inputs, out: Path, jobs: int | None = None) -> list[str]:
        return ["report", str(inputs.root / "panel.csv"),
                "--config", str(inputs.root / "config.json"),
                "--jobs", str(jobs or self.jobs), "--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> list[str]:
        problems = check_manifest(out)
        if problems:
            return problems
        fits = json.loads((out / "fits.json").read_text())
        for s, want in sorted(inputs.expected["alpha"].items()):
            opening = fits.get(str(s), {}).get("opening", {})
            got = opening.get("coefficients", {}).get("alpha")
            if got is None:
                problems.append(f"semester {s}: no opening fit ({opening})")
            elif not abs(got - want) <= self.alpha_tol:
                problems.append(f"semester {s}: alpha {got:.4f}, planted-curve "
                                f"estimate {want:.4f}, tolerance {self.alpha_tol}")
        if self.expect_regime_shift:
            tests = json.loads((out / "tests.json").read_text())
            for name in ("welch", "mww"):
                if tests.get(name, {}).get("reject_null") is not True:
                    problems.append(f"{name} did not reject: {tests.get(name)}")
        return problems

    def failed_slices(self, inputs: Inputs, out: Path) -> int:
        return len(json.loads((out / "run_log.json").read_text())["events"])


def planted_alpha(curve) -> float:
    """The opening-exponent estimator (log-log least squares over the
    configured window), written independently of the library's and applied
    to a noiseless planted curve."""
    defaults = PipelineConfig()
    lo, hi = defaults.opening_window
    t = np.arange(lo, hi + 1)
    slope = np.polyfit(np.log(t + defaults.opening_time_offset), np.log(curve[t]), 1)[0]
    return float(-slope)


def check_manifest(out: Path) -> list[str]:
    """Every bundle file is listed in manifest.json with its SHA-256."""
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return [f"{manifest_path} missing"]
    listed = json.loads(manifest_path.read_text())["files"]
    on_disk = tree_hashes(out)
    on_disk.pop("manifest.json")
    problems = [f"{rel}: manifest {digest[:12]}, disk {on_disk.get(rel, 'missing')[:12]}"
                for rel, digest in sorted(listed.items()) if on_disk.get(rel) != digest]
    problems += [f"{rel}: not in manifest" for rel in sorted(set(on_disk) - set(listed))]
    return problems


# Rows planted in the per-symbol files that the loader must skip. The
# malformed ones are fixed, not drawn from the seed: (symbol, day, clock
# time, field to corrupt).
MALFORMED = (
    (0, 0, "12:00", "high_below_low"),
    (0, 1, "12:00", "negative_volume"),
    (1, 0, "13:15", "high_below_low"),
    (1, 2, "14:45", "negative_volume"),
)


def canonical_csv_problems(path: Path, panel) -> list[str]:
    """Parse a canonical panel CSV of a fully present panel and compare
    every key and value, bit for bit, with the panel it was written from."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header != CANONICAL_COLUMNS:
        return [f"{path.name}: header {header}"]
    cols = list(zip(*rows))
    n_c, n_d, n_t = panel.volume.shape
    keys = (np.repeat(panel.companies, n_d * n_t),
            np.tile(np.repeat([d.isoformat() for d in panel.days], n_t), n_c),
            np.tile(np.arange(n_t).astype(str), n_c * n_d))
    problems = [f"{path.name}: column {name} out of canonical order"
                for name, col, want in zip(CANONICAL_COLUMNS, cols, keys)
                if len(col) != len(want) or np.any(np.asarray(col) != want)]
    for name, col in zip(CANONICAL_COLUMNS[3:], cols[3:]):
        got = np.array(col, dtype=float)
        want = getattr(panel, name).reshape(-1)
        if got.shape != want.shape or np.any(got != want):
            problems.append(f"{path.name}: {name} values do not round-trip")
    return problems


def _clock(t: int) -> str:
    m = SESSION_OPEN + t
    return f"{m // 60:02d}:{m % 60:02d}"


_CLOCK = [_clock(t) for t in range(391)]


@dataclass(frozen=True)
class IngestWorkload:
    """`intradayvol ingest DIR` on one headered file per symbol, with no
    ticker column, HH:MM stamps and planted rows the loader must skip."""

    name: str
    shape: Shape
    cv: float

    def spec(self, seed: int) -> GeneratorSpec:
        return generator_spec(self.shape, self.cv, seed)

    def setup(self, root: Path, seed: int) -> Inputs:
        symbols = root / "symbols"
        symbols.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        panel, _ = generate_panel(self.spec(seed))
        t1 = time.perf_counter()
        write_panel_csv(panel, root / "reference_panel.csv")
        t2 = time.perf_counter()
        bad = {(i, j): (clock, kind) for i, j, clock, kind in MALFORMED}
        fmt = "{:.17g}".format
        for i, ticker in enumerate(panel.companies):
            lines = ["date,time,volume,open,high,low,close"]
            for j, day in enumerate(panel.days):
                date = day.isoformat()
                o, c = panel.open[i, j], panel.close[i, j]
                # one pre-market bar per symbol-day, just before the open
                lines.append(f"{date},09:29,100,{fmt(o[0])},{fmt(o[0])},"
                             f"{fmt(o[0])},{fmt(o[0])}")
                if (i, j) in bad:
                    clock, kind = bad[(i, j)]
                    bad_hl = "1.0,2.0" if kind == "high_below_low" else "2.0,1.0"
                    bad_vol = -5 if kind == "negative_volume" else 5
                    lines.append(f"{date},{clock},{bad_vol},1.5,{bad_hl},1.5")
                v, h, lo = panel.volume[i, j], panel.high[i, j], panel.low[i, j]
                lines += [f"{date},{_CLOCK[t]},{fmt(v[t])},{fmt(o[t])},{fmt(h[t])},"
                          f"{fmt(lo[t])},{fmt(c[t])}" for t in range(391)]
            (symbols / f"{ticker}.csv").write_text("\n".join(lines) + "\n")
        t3 = time.perf_counter()
        reference_problems = canonical_csv_problems(root / "reference_panel.csv", panel)
        planted = {"out-of-session": panel.n_companies * panel.n_days,
                   "malformed": len(MALFORMED)}
        rows = self.shape.cells + sum(planted.values())
        return Inputs(root, rows,
                      {"generate_panel": t1 - t0, "write_panel_csv": t2 - t1,
                       "total": t3 - t0},
                      {"rows_loaded": self.shape.cells, "skipped_by_reason": planted,
                       "panel_sha256": sha256(root / "reference_panel.csv"),
                       "reference_problems": reference_problems})

    def argv(self, inputs: Inputs, out: Path, jobs: int | None = None) -> list[str]:
        return ["ingest", str(inputs.root / "symbols"), "--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> list[str]:
        problems = list(inputs.expected["reference_problems"])
        panel = out / "panel.csv"
        if not panel.is_file() or sha256(panel) != inputs.expected["panel_sha256"]:
            problems.append("panel.csv differs from write_panel_csv of the generated panel")
        report = json.loads((out / "load_report.json").read_text())
        for key in ("rows_loaded", "skipped_by_reason"):
            if report[key] != inputs.expected[key]:
                problems.append(f"{key}: got {report[key]}, planted {inputs.expected[key]}")
        return problems

    def failed_slices(self, inputs: Inputs, out: Path) -> int:
        report = json.loads((out / "load_report.json").read_text())
        planted = sum(inputs.expected["skipped_by_reason"].values())
        return len(report["rows_skipped"]) - planted


# Shapes are set by the run-time budget. On a shared two-core machine one
# job's wall time varies by about 10% from job to job, so a run times many
# short jobs (1-2 s each) and reports their median. Noise levels are set so
# that the morning kurtosis fit fails in every semester on every seed (checked
# on seeds 1-40): where it succeeds, the afternoon Gauss-Newton fit that
# follows costs 0.1-1 s depending on the seed, which would swamp the
# comparison between runs on these shapes.
WORKLOADS = {
    w.name: w for w in (
        ReportWorkload("wide_report", Shape(12, 2, 6), cv=0.3, jobs=1,
                       regime_boundary=2, post_exponent=None, alpha_tol=0.025,
                       expect_regime_shift=False),
        ReportWorkload("long_history", Shape(3, 16, 4), cv=0.6, jobs=2,
                       regime_boundary=10, post_exponent=0.37, alpha_tol=0.1,
                       expect_regime_shift=True),
        IngestWorkload("symbols_ingest", Shape(6, 2, 6), cv=0.3),
    )
}
