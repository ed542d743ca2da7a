"""End-to-end orchestration: panel in, plot-ready report bundle out.

The bundle is assembled fully in memory and written in one pass, so a
failed run leaves no partial output, and two runs with the same inputs
and config produce byte-identical directories regardless of the worker
count (workers only schedule pure per-slice computations; assembly
always reduces in sorted key order). manifest.json is written last and
lists a content hash for every other file plus the config hash.
"""
from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import metrics as metrics_mod
from .cumulants import (
    AggregatedProfile,
    CONVENTIONS,
    PROFILE_COLUMNS,
    aggregate_day_profiles,
    aggregate_ticker_profiles,
    cumulants_over_companies,
    cumulants_over_days,
    mean_kurtosis_tail,
    variance_ratio,
)
from .errors import DataError, MissingUpstream, NumericalError, UnknownFigure
from .fits import (
    FitResult,
    fit_closing_powerlaw,
    fit_kurtosis_relaxation,
    fit_opening_powerlaw,
    fit_quartic,
    scatter_relation,
    shape_functionals,
)
from .panel import (
    SESSION_MINUTES,
    MinutePanel,
    SemesterIndex,
    assign_semesters,
    default_semester_boundaries,
    load_minute_bars,
    semester_day_indices,
    validate_panel,
)
from .stats_tests import mww_test, welch_test

FIGURE_IDS = tuple(f"fig{k}" for k in range(1, 17))


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _jsonify(obj):
    """Recursively make an object JSON-clean; non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _dump_json(obj) -> bytes:
    return (json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n").encode()


@dataclass
class PipelineConfig:
    input_paths: list[str] = field(default_factory=list)
    schema: dict[str, str] = field(default_factory=dict)
    time_format: str = "auto"
    semester_boundaries: list[tuple[str, str]] | None = None
    min_day_coverage: float = 0.5
    ticker_exclusions: dict[int, list[str]] = field(default_factory=dict)
    opening_window: tuple[int, int] = (1, 100)
    opening_time_offset: float = 0.0
    closing_window: tuple[int, int] = (331, 390)
    kurtosis_morning_window: tuple[int, int] = (1, 99)
    kurtosis_afternoon_window: tuple[int, int] = (291, 390)
    kurtosis_tail_t_min: int = 60
    kurtosis_tail_excluded_semesters: list[int] = field(
        default_factory=lambda: list(range(11, 17)))
    regime_boundary_semester: int = 10
    confidence: float = 0.95
    return_convention: str = "close-denominator"
    literal_kurtosis: bool = False
    jobs: int = 1
    out_dir: str = "report"

    def __post_init__(self):
        for name in ("opening_window", "closing_window", "kurtosis_morning_window",
                     "kurtosis_afternoon_window"):
            lo, hi = getattr(self, name)
            if not (0 <= lo < hi <= 390):
                raise DataError(f"{name} {(lo, hi)} outside the session or reversed")
        if self.jobs < 1:
            raise DataError("jobs must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise DataError("confidence must be in (0, 1)")

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for name in ("opening_window", "closing_window", "kurtosis_morning_window",
                     "kurtosis_afternoon_window"):
            if name in doc:
                doc[name] = tuple(doc[name])
        if "ticker_exclusions" in doc:
            doc["ticker_exclusions"] = {int(k): list(v)
                                        for k, v in doc["ticker_exclusions"].items()}
        if doc.get("semester_boundaries") is not None:
            doc["semester_boundaries"] = [tuple(b) for b in doc["semester_boundaries"]]
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise DataError(f"config file {path} not found") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"config file {path} is not valid JSON: {exc}") from None
        return cls.from_json(doc)

    def to_json(self) -> dict:
        doc = asdict(self)
        for name in ("opening_window", "closing_window", "kurtosis_morning_window",
                     "kurtosis_afternoon_window"):
            doc[name] = list(doc[name])
        doc["ticker_exclusions"] = {str(k): sorted(v)
                                    for k, v in self.ticker_exclusions.items()}
        if self.semester_boundaries is not None:
            doc["semester_boundaries"] = [list(b) for b in self.semester_boundaries]
        return doc

    def analysis_json(self) -> dict:
        """The fields that can change bundle content. Scheduling and the
        output location are dropped so that --jobs/--out never break the
        byte-identical-bundle contract."""
        doc = self.to_json()
        doc.pop("jobs", None)
        doc.pop("out_dir", None)
        return doc

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.analysis_json(), sort_keys=True).encode()).hexdigest()


def _fit_or_error(fn, *args, **kwargs):
    """(result, None), or (None, message) for a per-slice data or numerical
    failure, which is recorded and not fatal. Any other exception is a bug
    and propagates."""
    try:
        return fn(*args, **kwargs), None
    except (DataError, NumericalError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class ReportBundle:
    config: PipelineConfig
    semesters: list[int]
    ticker_mean: dict[int, AggregatedProfile]
    day_mean: dict[int, AggregatedProfile]
    semester_fits: dict[int, dict[str, Any]]
    metrics_rows: list[metrics_mod.SemesterMetrics]
    regressions: dict[str, Any]
    var_ratio: dict[int, np.ndarray]
    kurt_tail: dict[int, float]
    kurt_curve: np.ndarray | None
    tests: dict
    normalizers: dict[str, int]
    load_report: dict
    validation: dict
    run_log: list[str]

    def alpha_series(self) -> dict[int, float]:
        out = {}
        for s in self.semesters:
            fit = self.semester_fits[s].get("opening")
            if isinstance(fit, FitResult):
                out[s] = fit.coefficients["alpha"]
        return out

    def files(self) -> dict[str, bytes]:
        """Every bundle file except the manifest, as relpath -> bytes."""
        out: dict[str, bytes] = {}
        out["config.json"] = _dump_json(self.config.analysis_json())
        out["load_report.json"] = _dump_json(self.load_report)
        out["validation.json"] = _dump_json(self.validation)

        profile_index = []
        for s in self.semesters:
            for kind, prof in (("ticker_mean", self.ticker_mean.get(s)),
                               ("day_mean", self.day_mean.get(s))):
                if prof is None:
                    continue
                rel = f"profiles/s{s:02d}_{kind}.csv"
                out[rel] = _profile_csv_bytes(prof)
                profile_index.append({"file": rel, "semester": s, "kind": kind})
        out["profiles/index.json"] = _dump_json(
            {"profiles": profile_index, "conventions": dict(CONVENTIONS)})

        fits_doc: dict[str, Any] = {}
        flat_rows = []
        for s in self.semesters:
            entry: dict[str, Any] = {}
            for name, value in sorted(self.semester_fits[s].items()):
                if isinstance(value, FitResult):
                    entry[name] = value.to_json()
                    flat_rows.append(_flat_fit_row(s, name, value))
                elif hasattr(value, "to_json"):
                    entry[name] = value.to_json()
                else:
                    entry[name] = value  # {"error": ...}
            fits_doc[str(s)] = entry
        out["fits.json"] = _dump_json(fits_doc)
        out["fits.csv"] = _csv_bytes(
            ["semester", "model", "fit", "primary_param", "primary_value",
             "primary_se", "r", "n_points"], flat_rows)

        out["metrics.csv"] = _csv_bytes(
            ["ticker", "semester", "activity", "volatility", "price_variation",
             "concavity", "symmetry"],
            [[m.ticker, m.semester, _fmt(m.activity), _fmt(m.volatility),
              _fmt(m.price_variation), _fmt(m.concavity), _fmt(m.symmetry)]
             for m in self.metrics_rows])

        out["regressions.json"] = _dump_json(
            {t: (v.to_json() if isinstance(v, FitResult) else v)
             for t, v in self.regressions.items()})

        ratio_rows = []
        for s in self.semesters:
            ratio = self.var_ratio.get(s)
            if ratio is None:
                continue
            for t in range(SESSION_MINUTES):
                ratio_rows.append([s, t, _fmt(ratio[t])])
        out["xsection/variance_ratio.csv"] = _csv_bytes(
            ["semester", "t", "variance_ratio"], ratio_rows)
        out["xsection/kurtosis_tail.csv"] = _csv_bytes(
            ["semester", "tail_mean_kurtosis"],
            [[s, _fmt(v)] for s, v in sorted(self.kurt_tail.items())])
        if self.kurt_curve is not None:
            out["xsection/kurtosis_curve.csv"] = _csv_bytes(
                ["t", "mean_kurtosis"],
                [[t, _fmt(self.kurt_curve[t])] for t in range(SESSION_MINUTES)])

        out["tests.json"] = _dump_json(self.tests)

        for fig in FIGURE_IDS:
            try:
                out[f"figures/{fig}.csv"] = emit_figure_series(self, fig).encode()
            except MissingUpstream as exc:
                self.run_log.append(f"figure {fig} skipped: {exc}")
        # last: figure emission may have logged skips
        out["run_log.json"] = _dump_json({"events": self.run_log})
        return out

    def write(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        files = self.files()
        manifest = {
            "config_hash": self.config.config_hash(),
            "normalizers": self.normalizers,
            "files": {rel: hashlib.sha256(data).hexdigest()
                      for rel, data in sorted(files.items())},
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        for rel, data in sorted(files.items()):
            target = out_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        (out_dir / "manifest.json").write_bytes(_dump_json(manifest))
        return out_dir


def _profile_csv_bytes(profile) -> bytes:
    counts = profile.counts()
    buf = io.StringIO()
    buf.write(",".join(PROFILE_COLUMNS) + "\r\n")
    for t in range(SESSION_MINUTES):
        buf.write(",".join([
            str(t), _fmt(profile.mean[t]), _fmt(profile.median[t]),
            _fmt(profile.variance[t]), _fmt(profile.skewness[t]),
            _fmt(profile.kurtosis[t]), str(int(counts[t]))]) + "\r\n")
    return buf.getvalue().encode()


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(str(c) for c in row) + "\r\n")
    return buf.getvalue().encode()


_PRIMARY_PARAM = {
    "opening": "alpha",
    "closing": "alpha_prime",
    "kurtosis_morning": "beta_m",
    "kurtosis_afternoon": "beta_a",
    "quartic": "c4",
    "quartic_cross": "c4",
}


def _flat_fit_row(s: int, fit_name: str, fit: FitResult) -> list:
    primary = _PRIMARY_PARAM.get(fit_name)
    if primary is None:
        primary = sorted(fit.coefficients)[-1]
    return [s, fit.model, fit_name, primary, _fmt(fit.coefficients[primary]),
            _fmt(fit.standard_errors[primary]), _fmt(fit.r), fit.n_points]


def run_pipeline(config: PipelineConfig, write: bool = True) -> ReportBundle:
    """Execute every stage and (by default) write the bundle to
    config.out_dir. Per-ticker failures are logged and skipped; the run
    fails outright only when nothing succeeds."""
    if not config.input_paths:
        raise DataError("config.input_paths is empty")
    panel, load_report = load_minute_bars(
        config.input_paths, config.schema or None, time_format=config.time_format)

    if config.semester_boundaries is not None:
        boundaries = [(dt.date.fromisoformat(a), dt.date.fromisoformat(b))
                      for a, b in config.semester_boundaries]
    else:
        boundaries = default_semester_boundaries(panel.days[0], panel.days[-1])
    index = assign_semesters(panel, boundaries)
    if not 1 <= config.regime_boundary_semester <= index.n_semesters:
        raise DataError(
            f"regime boundary {config.regime_boundary_semester} outside 1..{index.n_semesters}")

    validation = validate_panel(panel, index, config.min_day_coverage)
    index = index.with_exclusions(validation.exclusions())
    if config.ticker_exclusions:
        index = index.with_exclusions(config.ticker_exclusions)

    semesters = [s for s in index.labels if len(semester_day_indices(panel, index, s))]
    run_log: list[str] = []

    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        bundle = _run_stages(config, panel, index, semesters, pool, run_log)
    bundle.load_report = load_report.to_json()
    bundle.validation = validation.to_json()
    if write:
        bundle.write(config.out_dir)
    return bundle


def _run_stages(config, panel: MinutePanel, index: SemesterIndex, semesters,
                pool: ThreadPoolExecutor, run_log: list[str]) -> ReportBundle:
    lk = config.literal_kurtosis

    # per-(ticker, semester) day-axis profiles, in parallel
    pair_keys = [(s, t) for s in semesters for t in panel.companies
                 if not index.is_excluded(t, s)]

    def day_axis_task(key):
        s, ticker = key
        return _fit_or_error(cumulants_over_days, panel, index, ticker, s,
                             literal_kurtosis=lk)

    profiles = {}
    for key, (result, err) in zip(pair_keys, pool.map(day_axis_task, pair_keys)):
        if err:
            run_log.append(f"{key[1]} s={key[0]} cumulants: {err}")
        else:
            profiles[key] = result
    pair_keys = [k for k in pair_keys if k in profiles]

    # per-day cross-sections, then both aggregate kinds
    ticker_mean: dict[int, AggregatedProfile] = {}
    day_mean: dict[int, AggregatedProfile] = {}
    var_ratio: dict[int, np.ndarray] = {}
    for s in semesters:
        day_profs = [profiles[(s, t)] for t in panel.companies
                     if (s, t) in profiles]
        agg, err = _fit_or_error(aggregate_ticker_profiles, day_profs, s)
        if err:
            run_log.append(f"s={s} ticker_mean: {err}")
        else:
            ticker_mean[s] = agg

        days = [panel.days[j] for j in semester_day_indices(panel, index, s)]

        def cross_task(day, s=s):
            return _fit_or_error(cumulants_over_companies, panel, index, day, s,
                                 literal_kurtosis=lk)

        cross = []
        for day, (result, err) in zip(days, pool.map(cross_task, days)):
            if err:
                run_log.append(f"s={s} day={day.isoformat()} cross-section: {err}")
            else:
                cross.append(result)
        agg, err = _fit_or_error(aggregate_day_profiles, cross, s)
        if err:
            run_log.append(f"s={s} day_mean: {err}")
        else:
            day_mean[s] = agg
        if s in ticker_mean and s in day_mean:
            var_ratio[s] = variance_ratio(ticker_mean[s], day_mean[s])

    # per-ticker scalar metrics and shape functionals, in parallel
    def metrics_task(key):
        s, ticker = key
        prof = profiles[key]
        row: dict[str, float] = {}
        quartic, err = _fit_or_error(fit_quartic, prof.mean)
        if err:
            row["concavity"] = row["symmetry"] = float("nan")
            row["error_quartic"] = err
        else:
            sf = shape_functionals(quartic)
            row["concavity"], row["symmetry"] = sf.concavity, sf.symmetry
        for name, fn in (
                ("activity", lambda: metrics_mod.activity(panel, index, ticker, s)),
                ("volatility", lambda: metrics_mod.garman_klass_volatility(
                    metrics_mod.daily_ohlc(panel, index, ticker, s))),
                ("price_variation", lambda: metrics_mod.semester_return(
                    *metrics_mod.semester_endpoint_prices(panel, index, ticker, s),
                    convention=config.return_convention))):
            value, err = _fit_or_error(fn)
            row[name] = float("nan") if err else value
            if err:
                row[f"error_{name}"] = err
        return row

    metrics_rows = []
    n_pair_failures = 0
    for key, row in zip(pair_keys, pool.map(metrics_task, pair_keys)):
        s, ticker = key
        for k, v in sorted(row.items()):
            if k.startswith("error_"):
                run_log.append(f"{ticker} s={s} {k[6:]}: {v}")
        if all(math.isnan(row[k]) for k in
               ("activity", "volatility", "price_variation", "concavity", "symmetry")):
            n_pair_failures += 1
            continue
        metrics_rows.append(metrics_mod.SemesterMetrics(
            ticker, s, row["activity"], row["volatility"], row["price_variation"],
            row["concavity"], row["symmetry"]))
    if pair_keys and not metrics_rows and not ticker_mean:
        raise DataError("every (ticker, semester) computation failed")

    # semester-level fits on the aggregated profiles
    semester_fits: dict[int, dict[str, Any]] = {}
    for s in semesters:
        entry: dict[str, Any] = {}
        tm, dm = ticker_mean.get(s), day_mean.get(s)
        if tm is not None:
            for name, fn in (
                    ("opening", lambda: fit_opening_powerlaw(
                        tm.mean, config.opening_window, config.opening_time_offset)),
                    ("closing", lambda: fit_closing_powerlaw(tm.mean, config.closing_window)),
                    ("quartic", lambda: fit_quartic(tm.mean)),
                    ("scatter_variance_morning", lambda: scatter_relation(
                        tm.mean, tm.variance, "morning", 2)),
                    ("scatter_variance_afternoon", lambda: scatter_relation(
                        tm.mean, tm.variance, "afternoon", 2)),
                    ("scatter_skewness_morning", lambda: scatter_relation(
                        tm.mean, tm.skewness, "morning", 1)),
                    ("scatter_skewness_afternoon", lambda: scatter_relation(
                        tm.mean, tm.skewness, "afternoon", 1))):
                value, err = _fit_or_error(fn)
                entry[name] = value if value is not None else {"error": err}
                if err:
                    run_log.append(f"s={s} {name}: {err}")
            if isinstance(entry.get("quartic"), FitResult):
                entry["shapes"] = shape_functionals(entry["quartic"])
            relax, err = _fit_or_error(
                fit_kurtosis_relaxation, tm.kurtosis,
                config.kurtosis_morning_window, config.kurtosis_afternoon_window)
            if err:
                entry["kurtosis_morning"] = entry["kurtosis_afternoon"] = {"error": err}
                run_log.append(f"s={s} kurtosis_relaxation: {err}")
            else:
                entry["kurtosis_morning"], entry["kurtosis_afternoon"] = relax
        if dm is not None:
            value, err = _fit_or_error(fit_quartic, dm.mean)
            entry["quartic_cross"] = value if value is not None else {"error": err}
            if isinstance(value, FitResult):
                entry["shapes_cross"] = shape_functionals(value)
            value, err = _fit_or_error(scatter_relation, dm.mean, dm.kurtosis, "morning", 2)
            entry["scatter_kurtosis_morning"] = value if value is not None else {"error": err}
        semester_fits[s] = entry

    # cross-semester pieces
    kurt_tail: dict[int, float] = {}
    kurt_curve = None
    if day_mean:
        try:
            kurt_tail, kurt_curve = mean_kurtosis_tail(
                day_mean, config.kurtosis_tail_t_min,
                set(config.kurtosis_tail_excluded_semesters))
        except DataError as exc:
            run_log.append(f"kurtosis tail: {type(exc).__name__}: {exc}")

    regressions: dict[str, Any] = {}
    by_ticker: dict[str, list[metrics_mod.SemesterMetrics]] = {}
    for m in metrics_rows:
        if math.isfinite(m.activity) and math.isfinite(m.concavity):
            by_ticker.setdefault(m.ticker, []).append(m)
    for ticker in sorted(by_ticker):
        value, err = _fit_or_error(
            metrics_mod.concavity_activity_regression, by_ticker[ticker])
        regressions[ticker] = value if value is not None else {"error": err}
        if err:
            run_log.append(f"{ticker} concavity regression: {err}")

    bundle = ReportBundle(
        config=config, semesters=semesters, ticker_mean=ticker_mean,
        day_mean=day_mean, semester_fits=semester_fits, metrics_rows=metrics_rows,
        regressions=regressions, var_ratio=var_ratio, kurt_tail=kurt_tail,
        kurt_curve=kurt_curve, tests={}, normalizers={}, load_report={},
        validation={}, run_log=run_log)
    bundle.tests = _regime_tests(bundle, config)
    return bundle


def _regime_tests(bundle: ReportBundle, config: PipelineConfig) -> dict:
    alpha = bundle.alpha_series()
    rb = config.regime_boundary_semester
    pre = [alpha[s] for s in sorted(alpha) if s <= rb]
    post = [alpha[s] for s in sorted(alpha) if s > rb]
    doc = {
        "series": {str(s): alpha[s] for s in sorted(alpha)},
        "regime_boundary_semester": rb,
        "n_pre": len(pre),
        "n_post": len(post),
    }
    if len(pre) < 2 or len(post) < 2:
        doc["error"] = "need at least two opening exponents on each side of the boundary"
        return doc
    welch, err = _fit_or_error(welch_test, pre, post, config.confidence)
    doc["welch"] = welch.to_json() if welch is not None else {"error": err}
    mww, err = _fit_or_error(mww_test, pre, post, config.confidence)
    doc["mww"] = mww.to_json() if mww is not None else {"error": err}
    return doc


# --- figure series -------------------------------------------------------

def _need(condition, what: str):
    if not condition:
        raise MissingUpstream(what)


def _wide_profile_csv(bundle: ReportBundle, attr: str) -> str:
    profs = {s: getattr(bundle.ticker_mean[s], attr)
             for s in bundle.semesters if s in bundle.ticker_mean}
    _need(profs, "no aggregated day-axis profiles")
    cols = sorted(profs)
    lines = [",".join(["t"] + [f"s{s:02d}" for s in cols])]
    for t in range(SESSION_MINUTES):
        lines.append(",".join([str(t)] + [_fmt(profs[s][t]) for s in cols]))
    return "\r\n".join(lines) + "\r\n"


def _semester_fit_series(bundle: ReportBundle, fit_name: str, coeff: str) -> dict[int, float]:
    out = {}
    for s in bundle.semesters:
        fit = bundle.semester_fits.get(s, {}).get(fit_name)
        if isinstance(fit, FitResult):
            out[s] = fit.coefficients[coeff]
    return out


def _normalized_series(bundle: ReportBundle, fig: str, series: dict[int, float]) -> tuple[dict[int, float], int]:
    usable = [s for s in sorted(series) if math.isfinite(series[s]) and series[s] != 0]
    _need(usable, "no usable normalizer semester")
    s0 = usable[0]
    bundle.normalizers[fig] = s0
    return {s: series[s] / series[s0] for s in sorted(series)}, s0


def _scatter_csv(bundle: ReportBundle, which: str, y_attr: str) -> str:
    rows = ["semester,t,x_mean," + which]
    got = False
    source = bundle.ticker_mean if y_attr != "kurtosis_cross" else bundle.day_mean
    attr = "kurtosis" if y_attr == "kurtosis_cross" else y_attr
    for s in bundle.semesters:
        prof = source.get(s)
        if prof is None:
            continue
        got = True
        for t in range(SESSION_MINUTES):
            rows.append(f"{s},{t},{_fmt(prof.mean[t])},{_fmt(getattr(prof, attr)[t])}")
    _need(got, "no aggregated profiles")
    return "\r\n".join(rows) + "\r\n"


def emit_figure_series(bundle: ReportBundle, figure_id: str) -> str:
    """CSV text for one figure's data series (see FIGURE_IDS)."""
    if figure_id not in FIGURE_IDS:
        raise UnknownFigure(f"{figure_id!r}; known ids: {', '.join(FIGURE_IDS)}")

    if figure_id == "fig1":
        return _wide_profile_csv(bundle, "mean")
    if figure_id == "fig7":
        return _wide_profile_csv(bundle, "median")
    if figure_id == "fig10":
        return _wide_profile_csv(bundle, "kurtosis")

    if figure_id == "fig2":
        alpha = bundle.alpha_series()
        _need(alpha, "no opening power-law fits")
        rb = bundle.config.regime_boundary_semester
        pre = [alpha[s] for s in sorted(alpha) if s <= rb]
        post = [alpha[s] for s in sorted(alpha) if s > rb]
        pre_mean = sum(pre) / len(pre) if pre else float("nan")
        post_mean = sum(post) / len(post) if post else float("nan")
        lines = ["semester,alpha,branch,branch_mean"]
        for s in sorted(alpha):
            branch = "pre" if s <= rb else "post"
            mean = pre_mean if s <= rb else post_mean
            lines.append(f"{s},{_fmt(alpha[s])},{branch},{_fmt(mean)}")
        return "\r\n".join(lines) + "\r\n"

    if figure_id == "fig3":
        series = _semester_fit_series(bundle, "closing", "alpha_prime")
        _need(series, "no closing power-law fits")
        lines = ["semester,alpha_prime"]
        lines += [f"{s},{_fmt(series[s])}" for s in sorted(series)]
        return "\r\n".join(lines) + "\r\n"

    if figure_id in ("fig4", "fig5"):
        attr = "concavity" if figure_id == "fig4" else "symmetry"
        per_s: dict[int, list[float]] = {}
        for m in bundle.metrics_rows:
            v = getattr(m, attr)
            if math.isfinite(v):
                per_s.setdefault(m.semester, []).append(v)
        _need(per_s, f"no per-ticker {attr} values")
        series = {s: sum(v) / len(v) for s, v in per_s.items()}
        normalized, _ = _normalized_series(bundle, figure_id, series)
        lines = [f"semester,mean_{attr},normalized"]
        lines += [f"{s},{_fmt(series[s])},{_fmt(normalized[s])}" for s in sorted(series)]
        return "\r\n".join(lines) + "\r\n"

    if figure_id == "fig6":
        rows = ["ticker,semester,activity_rescaled,concavity"]
        got = False
        for m in bundle.metrics_rows:
            if math.isfinite(m.activity) and math.isfinite(m.concavity):
                got = True
                rows.append(f"{m.ticker},{m.semester},"
                            f"{_fmt(m.activity / metrics_mod.MINUTES_PER_RESCALED_UNIT)},"
                            f"{_fmt(m.concavity)}")
        _need(got, "no (activity, concavity) pairs")
        return "\r\n".join(rows) + "\r\n"

    if figure_id == "fig8":
        return _scatter_csv(bundle, "y_variance", "variance")
    if figure_id == "fig9":
        return _scatter_csv(bundle, "y_skewness", "skewness")
    if figure_id == "fig12":
        return _scatter_csv(bundle, "y_kurtosis_cross", "kurtosis_cross")

    if figure_id == "fig11":
        bm = _semester_fit_series(bundle, "kurtosis_morning", "beta_m")
        ba = _semester_fit_series(bundle, "kurtosis_afternoon", "beta_a")
        _need(bm or ba, "no kurtosis relaxation fits")
        lines = ["semester,beta_m,beta_a"]
        for s in sorted(set(bm) | set(ba)):
            lines.append(f"{s},{_fmt(bm.get(s, float('nan')))},{_fmt(ba.get(s, float('nan')))}")
        return "\r\n".join(lines) + "\r\n"

    if figure_id == "fig13":
        _need(bundle.var_ratio, "no variance-ratio series")
        lines = ["semester,t,variance_ratio"]
        for s in sorted(bundle.var_ratio):
            ratio = bundle.var_ratio[s]
            lines += [f"{s},{t},{_fmt(ratio[t])}" for t in range(SESSION_MINUTES)]
        return "\r\n".join(lines) + "\r\n"

    if figure_id == "fig14":
        conc = {}
        sym = {}
        for s in bundle.semesters:
            sf = bundle.semester_fits.get(s, {}).get("shapes_cross")
            if sf is not None and hasattr(sf, "concavity"):
                conc[s] = sf.concavity
                sym[s] = sf.symmetry
        _need(conc, "no cross-sectional quartic shapes")
        conc_n, _ = _normalized_series(bundle, "fig14_concavity", conc)
        sym_n, _ = _normalized_series(bundle, "fig14_symmetry", sym)
        lines = ["semester,concavity,concavity_normalized,symmetry,symmetry_normalized"]
        for s in sorted(conc):
            lines.append(f"{s},{_fmt(conc[s])},{_fmt(conc_n[s])},"
                         f"{_fmt(sym[s])},{_fmt(sym_n[s])}")
        return "\r\n".join(lines) + "\r\n"

    if figure_id == "fig15":
        _need(bundle.kurt_tail, "no kurtosis tail averages")
        lines = ["semester,tail_mean_kurtosis"]
        lines += [f"{s},{_fmt(v)}" for s, v in sorted(bundle.kurt_tail.items())]
        return "\r\n".join(lines) + "\r\n"

    # fig16
    _need(bundle.kurt_curve is not None, "no semester-averaged kurtosis curve")
    lines = ["t,mean_kurtosis"]
    lines += [f"{t},{_fmt(bundle.kurt_curve[t])}" for t in range(SESSION_MINUTES)]
    return "\r\n".join(lines) + "\r\n"


def load_figure_csv(report_dir, figure_id: str) -> bytes:
    """Fetch one figure CSV from a written bundle directory."""
    if figure_id not in FIGURE_IDS:
        raise UnknownFigure(f"{figure_id!r}; known ids: {', '.join(FIGURE_IDS)}")
    path = Path(report_dir) / "figures" / f"{figure_id}.csv"
    if not path.exists():
        raise MissingUpstream(
            f"{path} not in bundle (upstream fits may have failed; see run_log.json)")
    return path.read_bytes()
