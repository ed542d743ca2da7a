"""End-to-end orchestration: panel in, plot-ready report bundle out.

The bundle is an ordered list of file jobs, each formatting one file's
bytes (a figure that copies a cross-section file is written by that
file's job). `ReportBundle.files` does them one after another in memory
and is the byte reference. `ReportBundle.write` shares them with a forked
helper through the loader's in-order queue (`panel._in_order`): each
process formats, writes and hashes one file at a time into a sibling
temporary directory, which is renamed into place once run_log.json and
manifest.json are written. So a failed run leaves the previous bundle (or
nothing) and never a partial or mixed one; two runs with the same inputs
and analysis config produce byte-identical directories, with the helper
or without. manifest.json lists a content hash for every other file plus
the config hash, and `load_figure_csv` serves only files it lists.

Each stage has one implementation, a method of `Stages`; `run_pipeline`
composes all of them and the single-stage CLI commands select from them.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import metrics as metrics_mod
from .cumulants import (
    AggregatedProfile,
    CONVENTIONS,
    CumulantProfile,
    aggregate_day_profiles,
    aggregate_ticker_profiles,
    cumulants_over_companies,
    cumulants_over_days,
    mean_kurtosis_tail,
    profile_csv_bytes,
    variance_ratio,
)
from .errors import (
    CorruptBundle,
    DataError,
    MissingUpstream,
    NumericalError,
    UnknownFigure,
)
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
    LoadReport,
    MinutePanel,
    SemesterIndex,
    ValidationReport,
    _Helper,
    _in_order,
    assign_semesters,
    check_load_options,
    default_semester_boundaries,
    load_minute_bars,
    parse_date,
    semester_day_indices,
    validate_panel,
)
from .stats_tests import mww_test, welch_test

# The interpreter's built-in SHA-256, as random.py takes _sha512: hashlib
# loads OpenSSL's libcrypto, about 3.5 MB resident, for these few digests.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

#: the PipelineConfig fields that hold a (first, last) minute window
WINDOW_FIELDS = ("opening_window", "closing_window", "kurtosis_morning_window",
                 "kurtosis_afternoon_window")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _jsonify(obj):
    """Recursively make an object JSON-clean: non-finite floats -> None,
    and an object with a to_json method -> its to_json()."""
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
    if hasattr(obj, "to_json"):
        return _jsonify(obj.to_json())
    return obj


def dump_json(obj) -> bytes:
    """The bundle's JSON encoding: sorted keys, indent 2, NaN as null."""
    return (json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n").encode()


def read_json(path, what: str):
    """The JSON document in the file at path; DataError, naming the file as
    `what`, when it is missing, unreadable or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} {path} not found") from None
    except OSError as exc:
        raise DataError(f"{what} {path} is not readable: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def _csv_text(header: list[str], rows) -> str:
    """The bundle's CSV encoding: comma-joined cells, CRLF line endings."""
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\r\n".join(lines) + "\r\n"


def _minute_csv(header: list[str], blocks) -> str:
    """_csv_text of per-minute columns: for each (key, columns) block,
    one row per minute t of `key,` (omitted when key is None), t and the
    columns' 17-digit floats. `%.17g` gives the same text as _fmt."""
    parts = [",".join(header) + "\r\n"]
    for key, columns in blocks:
        prefix = "" if key is None else f"{key},"
        row = prefix + "%d" + ",%.17g" * len(columns) + "\r\n"
        parts.append("".join(map(row.__mod__, zip(range(SESSION_MINUTES),
                                                  *(c.tolist() for c in columns)))))
    return "".join(parts)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_iso_date(value) -> bool:
    try:
        parse_date(value)
    except (TypeError, ValueError):
        return False
    return True


def _is_list_of(check, length=None):
    return lambda v: (isinstance(v, list) and all(map(check, v))
                      and (length is None or len(v) == length))


#: a PipelineConfig field's annotation -> (check of a JSON value for the
#: field, what that value must be)
_JSON_TYPES = {
    "str": (_is_str, "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "list[str]": (_is_list_of(_is_str), "a list of strings"),
    "list[int]": (_is_list_of(_is_int), "a list of integers"),
    "tuple[int, int]": (_is_list_of(_is_int, 2), "a [first, last] pair of minutes"),
    "dict[str, str]": (lambda v: isinstance(v, dict) and all(map(_is_str, v.values())),
                       "an object of strings"),
    "dict[int, list[str]]": (lambda v: isinstance(v, dict) and all(
        _is_str(k) and k.isdecimal() and _is_list_of(_is_str)(x) for k, x in v.items()),
        "an object of semester numbers -> lists of tickers"),
    "str | None": (lambda v: v is None or _is_str(v), "a string or null"),
    "list[tuple[str, str]] | None": (
        lambda v: v is None or _is_list_of(_is_list_of(_is_iso_date, 2))(v),
        "null or a list of [first, last] ISO dates (YYYY-MM-DD)"),
}


def json_fields(cls, doc, what: str) -> dict:
    """The fields of dataclass cls that the JSON value doc sets; DataError
    unless doc is an object whose keys are fields of cls, each holding a
    value of its type. Fields of a type _JSON_TYPES does not list, such as
    another dataclass, are left to the caller."""
    if not isinstance(doc, dict):
        raise DataError(f"a {what} must be a JSON object, not {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown {what} keys: {sorted(unknown)}")
    for name, value in doc.items():
        check, kind = _JSON_TYPES.get(cls.__dataclass_fields__[name].type, (None, None))
        if check is not None and not check(value):
            raise DataError(f"{what} field {name} must be {kind}, not {value!r}")
    return dict(doc)


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
    jobs: int = 1  # accepted for compatibility; stages run on one thread
    out_dir: str = "report"

    def __post_init__(self):
        for name in WINDOW_FIELDS:
            lo, hi = getattr(self, name)
            if not (0 <= lo < hi <= 390):
                raise DataError(f"{name} {(lo, hi)} outside the session or reversed")
        # the opening and morning-kurtosis fits take the log of the minute
        if self.kurtosis_morning_window[0] == 0:
            raise DataError(f"kurtosis_morning_window {self.kurtosis_morning_window} "
                            "must start after minute 0")
        if not (math.isfinite(self.opening_time_offset)
                and self.opening_window[0] + self.opening_time_offset > 0):
            raise DataError(f"opening_window {self.opening_window} with opening_time_offset "
                            f"{self.opening_time_offset} must start after minute 0")
        if self.kurtosis_afternoon_window[0] <= 290:
            raise DataError(f"kurtosis_afternoon_window {self.kurtosis_afternoon_window} "
                            "must sit inside (290, 390]")
        if not 0 <= self.kurtosis_tail_t_min <= 389:
            raise DataError(f"kurtosis_tail_t_min {self.kurtosis_tail_t_min} outside 0..389")
        if self.jobs < 1:
            raise DataError("jobs must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise DataError("confidence must be in (0, 1)")
        if not 0.0 <= self.min_day_coverage <= 1.0:
            raise DataError(f"min_day_coverage {self.min_day_coverage} outside [0, 1]")
        check_load_options(self.schema, self.time_format)
        if self.return_convention not in metrics_mod.RETURN_CONVENTIONS:
            raise DataError(f"return_convention {self.return_convention!r} is not one of "
                            f"{', '.join(metrics_mod.RETURN_CONVENTIONS)}")

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineConfig":
        """The config a JSON document describes; DataError unless it is an
        object whose keys are config fields holding values of their type."""
        doc = json_fields(cls, doc, "config")
        for name in WINDOW_FIELDS:
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
        return cls.from_json(read_json(path, "config file"))

    def to_json(self) -> dict:
        doc = asdict(self)
        for name in WINDOW_FIELDS:
            doc[name] = list(doc[name])
        doc["ticker_exclusions"] = {str(k): sorted(v)
                                    for k, v in self.ticker_exclusions.items()}
        if self.semester_boundaries is not None:
            doc["semester_boundaries"] = [list(b) for b in self.semester_boundaries]
        return doc

    def analysis_json(self) -> dict:
        """The fields that can change bundle content. `jobs` (accepted for
        compatibility, it selects nothing) and the output location are
        dropped so that --jobs/--out never break the byte-identical-bundle
        contract."""
        doc = self.to_json()
        doc.pop("jobs", None)
        doc.pop("out_dir", None)
        return doc

    def config_hash(self) -> str:
        return sha256(
            json.dumps(self.analysis_json(), sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class PreparedPanel:
    """The loaded panel and its semester index, as every stage reads them."""

    panel: MinutePanel
    index: SemesterIndex  # with coverage and config exclusions applied
    semesters: list[int]  # labels that hold at least one panel day
    load_report: LoadReport
    validation: ValidationReport


def load_panel(config: PipelineConfig,
               minute_prices: bool = True) -> tuple[MinutePanel, LoadReport]:
    """Load config.input_paths with the config's schema and time format;
    without minute_prices the panel holds volume and daily OHLC only."""
    if not config.input_paths:
        raise DataError("no input: pass input paths or set input_paths in the config")
    return load_minute_bars(config.input_paths, config.schema or None,
                            time_format=config.time_format, minute_prices=minute_prices)


def prepare_panel(config: PipelineConfig) -> PreparedPanel:
    """Load the panel (minute volume and daily OHLC: what the stages read),
    label its semesters, validate coverage and apply the coverage and config
    exclusions."""
    panel, load_report = load_panel(config, minute_prices=False)
    if config.semester_boundaries is not None:
        boundaries = [(parse_date(a), parse_date(b)) for a, b in config.semester_boundaries]
    else:
        boundaries = default_semester_boundaries(panel.days[0], panel.days[-1])
    index = assign_semesters(panel, boundaries)
    validation = validate_panel(panel, index, config.min_day_coverage)
    index = index.with_exclusions(validation.exclusions())
    if config.ticker_exclusions:
        index = index.with_exclusions(config.ticker_exclusions)
    semesters = [s for s in index.labels if len(semester_day_indices(panel, index, s))]
    return PreparedPanel(panel, index, semesters, load_report, validation)


#: fits of a semester's ticker-mean profile, name -> fit(config, profile),
#: in the order their failures are logged
TICKER_MEAN_FITS = {
    "opening": lambda c, p: fit_opening_powerlaw(p.mean, c.opening_window, c.opening_time_offset),
    "closing": lambda c, p: fit_closing_powerlaw(p.mean, c.closing_window),
    "quartic": lambda c, p: fit_quartic(p.mean),
    "scatter_variance_morning": lambda c, p: scatter_relation(p.mean, p.variance, "morning", 2),
    "scatter_variance_afternoon": lambda c, p: scatter_relation(p.mean, p.variance, "afternoon", 2),
    "scatter_skewness_morning": lambda c, p: scatter_relation(p.mean, p.skewness, "morning", 1),
    "scatter_skewness_afternoon": lambda c, p: scatter_relation(p.mean, p.skewness, "afternoon", 1),
    # -> (morning, afternoon) fits
    "kurtosis_relaxation": lambda c, p: fit_kurtosis_relaxation(
        p.kurtosis, c.kurtosis_morning_window, c.kurtosis_afternoon_window),
}


def _or_error(value, err: str | None):
    """An attempt's value, or {"error": message} when it failed."""
    return {"error": err} if err else value


class Stages:
    """The pipeline's stages over one prepared panel. Each stage computes its
    slices one after another in key order, each through `attempt`."""

    def __init__(self, config: PipelineConfig, prep: PreparedPanel):
        self.config = config
        self.prep = prep
        self.run_log: list[str] = []

    def attempt(self, event: str | None, fn, *args, **kwargs):
        """(fn(*args, **kwargs), None), or (None, "ErrorType: message") when
        fn raises DataError or NumericalError: a failed slice, which is
        logged to `run_log` as "event: ErrorType: message" (not at all when
        event is None) and is not fatal. Any other exception is a bug and
        propagates."""
        try:
            return fn(*args, **kwargs), None
        except (DataError, NumericalError) as exc:
            err = f"{type(exc).__name__}: {exc}"
            if event is not None:
                self.run_log.append(f"{event}: {err}")
            return None, err

    def day_axis_profiles(self, semesters, tickers=None) -> dict[tuple[int, str], CumulantProfile]:
        """Day-axis profile of every included (semester, ticker) pair, over
        the given tickers that are in the panel (default: all companies)."""
        panel, index = self.prep.panel, self.prep.index
        companies = [t for t in panel.companies if tickers is None or t in tickers]
        profiles = {}
        for s in semesters:
            for ticker in companies:
                if index.is_excluded(ticker, s):
                    continue
                result, err = self.attempt(
                    f"{ticker} s={s} cumulants", cumulants_over_days, panel, index,
                    ticker, s, literal_kurtosis=self.config.literal_kurtosis)
                if not err:
                    profiles[(s, ticker)] = result
        return profiles

    def ticker_mean(self, s: int, profiles) -> AggregatedProfile | None:
        """Semester s's day-axis profiles averaged over companies."""
        day_profs = [profiles[(s, t)] for t in self.prep.panel.companies
                     if (s, t) in profiles]
        return self.attempt(f"s={s} ticker_mean", aggregate_ticker_profiles, day_profs, s)[0]

    def day_mean(self, s: int) -> AggregatedProfile | None:
        """Semester s's per-day cross-sections averaged over days."""
        panel, index = self.prep.panel, self.prep.index
        cross = []
        for j in semester_day_indices(panel, index, s):
            day = panel.days[j]
            result, err = self.attempt(
                f"s={s} day={day.isoformat()} cross-section", cumulants_over_companies,
                panel, index, day, s, literal_kurtosis=self.config.literal_kurtosis)
            if not err:
                cross.append(result)
        return self.attempt(f"s={s} day_mean", aggregate_day_profiles, cross, s)[0]

    def aggregates(self, semesters, profiles):
        """(ticker_mean, day_mean, variance ratio), each keyed by semester."""
        both = {s: (self.ticker_mean(s, profiles), self.day_mean(s)) for s in semesters}
        ticker_mean = {s: tm for s, (tm, _) in both.items() if tm is not None}
        day_mean = {s: dm for s, (_, dm) in both.items() if dm is not None}
        var_ratio = {s: variance_ratio(tm, day_mean[s])
                     for s, tm in ticker_mean.items() if s in day_mean}
        return ticker_mean, day_mean, var_ratio

    def metrics_rows(self, profiles) -> list[metrics_mod.SemesterMetrics]:
        """Scalar metrics and shape functionals per profiled pair, attempted
        (and logged) in name order. A value that fails is NaN; a pair whose
        every value failed is dropped."""
        panel, index, config = self.prep.panel, self.prep.index, self.config
        nan = float("nan")
        rows = []
        for (s, ticker), profile in profiles.items():
            key = f"{ticker} s={s}"
            activity, _ = self.attempt(f"{key} activity",
                                       metrics_mod.activity, panel, index, ticker, s)
            price_variation, _ = self.attempt(
                f"{key} price_variation", lambda: metrics_mod.semester_return(
                    *metrics_mod.semester_endpoint_prices(panel, index, ticker, s),
                    convention=config.return_convention))
            quartic, err = self.attempt(f"{key} quartic", fit_quartic, profile.mean)
            shapes = None if err else shape_functionals(quartic)
            volatility, _ = self.attempt(
                f"{key} volatility", lambda: metrics_mod.garman_klass_volatility(
                    metrics_mod.daily_ohlc(panel, index, ticker, s)))
            values = [nan if v is None else v for v in (activity, volatility, price_variation)]
            values += [nan, nan] if shapes is None else [shapes.concavity, shapes.symmetry]
            if not all(math.isnan(v) for v in values):
                rows.append(metrics_mod.SemesterMetrics(ticker, s, *values))
        return rows

    def semester_fits(self, semesters, ticker_mean, day_mean) -> dict[int, dict[str, Any]]:
        """Per semester: the TICKER_MEAN_FITS and shapes of the ticker-mean
        profile, and the quartic, shapes and kurtosis scatter of the day-mean
        profile. A failed fit is stored as {"error": message}."""
        out: dict[int, dict[str, Any]] = {}
        for s in semesters:
            entry: dict[str, Any] = {}
            tm, dm = ticker_mean.get(s), day_mean.get(s)
            if tm is not None:
                for name, fit in TICKER_MEAN_FITS.items():
                    value, err = self.attempt(f"s={s} {name}", fit, self.config, tm)
                    value = _or_error(value, err)
                    if name == "kurtosis_relaxation":
                        entry["kurtosis_morning"], entry["kurtosis_afternoon"] = (
                            (value, value) if err else value)
                    else:
                        entry[name] = value
                if isinstance(entry["quartic"], FitResult):
                    entry["shapes"] = shape_functionals(entry["quartic"])
            if dm is not None:
                value, err = self.attempt(None, fit_quartic, dm.mean)
                entry["quartic_cross"] = _or_error(value, err)
                if not err:
                    entry["shapes_cross"] = shape_functionals(value)
                entry["scatter_kurtosis_morning"] = _or_error(*self.attempt(
                    None, scatter_relation, dm.mean, dm.kurtosis, "morning", 2))
            out[s] = entry
        return out

    def kurtosis_tail(self, day_mean) -> tuple[dict[int, float], np.ndarray | None]:
        """Per-semester tail mean of cross-sectional kurtosis and the curve
        averaged over the non-excluded semesters ({} and None on failure)."""
        if not day_mean:
            return {}, None
        value, err = self.attempt(
            "kurtosis tail", mean_kurtosis_tail, day_mean, self.config.kurtosis_tail_t_min,
            set(self.config.kurtosis_tail_excluded_semesters))
        return ({}, None) if err else value

    def regressions(self, metrics_rows) -> dict[str, Any]:
        """Per-ticker concavity-on-activity regression across semesters."""
        by_ticker: dict[str, list[metrics_mod.SemesterMetrics]] = {}
        for m in metrics_rows:
            if math.isfinite(m.activity) and math.isfinite(m.concavity):
                by_ticker.setdefault(m.ticker, []).append(m)
        return {ticker: _or_error(*self.attempt(
                    f"{ticker} concavity regression",
                    metrics_mod.concavity_activity_regression, by_ticker[ticker]))
                for ticker in sorted(by_ticker)}

    def regime_tests(self, alpha: dict[int, float]) -> dict:
        """Welch and MWW tests of the opening exponents up to the regime
        boundary semester against those after it. A failed test is stored
        as {"error": message}."""
        rb = self.config.regime_boundary_semester
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
        for name, test in (("welch", welch_test), ("mww", mww_test)):
            result, err = self.attempt(None, test, pre, post, self.config.confidence)
            doc[name] = {"error": err} if err else result.to_json()
        return doc


@dataclass(frozen=True)
class ReportBundle:
    """The stage results of one run, as plain data. Every file of the
    bundle is derived from them when `files()` or `write` asks for it.
    `run_log` holds the stage events only; run_log.json lists them and
    then the figures that were skipped, in FIGURE_IDS order."""

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
    load_report: dict
    validation: dict
    run_log: list[str]

    def alpha_series(self) -> dict[int, float]:
        return _semester_fit_series(self.semester_fits, "opening", "alpha")

    @property
    def normalizers(self) -> dict[str, int]:
        """Manifest normalizer key -> the first usable semester of its series."""
        return {key: s0 for key, series in _NORMALIZED_SERIES.items()
                if (s0 := _first_usable(series(self))) is not None}

    def _jobs(self) -> list[tuple[tuple[str, ...], Callable[[], bytes]]]:
        """Every bundle file except run_log.json and the manifest, as
        (relpaths, format) jobs in bundle order: format() gives the bytes
        of each of relpaths, or raises MissingUpstream for a skipped
        figure. A figure that is byte for byte a cross-section file (see
        _XSECTION_FIGURES) is written by that file's job, unless it is
        skipped."""
        jobs = [(("config.json",), lambda: dump_json(self.config.analysis_json())),
                (("load_report.json",), lambda: dump_json(self.load_report)),
                (("validation.json",), lambda: dump_json(self.validation))]
        profile_index = []
        for s in self.semesters:
            for kind, profiles in (("ticker_mean", self.ticker_mean),
                                   ("day_mean", self.day_mean)):
                if s in profiles:
                    rel = f"profiles/s{s:02d}_{kind}.csv"
                    jobs.append(((rel,), lambda p=profiles[s]: profile_csv_bytes(p)))
                    profile_index.append({"file": rel, "semester": s, "kind": kind})
        jobs += [
            (("profiles/index.json",), lambda: dump_json(
                {"profiles": profile_index, "conventions": dict(CONVENTIONS)})),
            (("fits.json",), lambda: dump_json(
                {str(s): self.semester_fits[s] for s in self.semesters})),
            (("fits.csv",), self._fits_csv),
            (("metrics.csv",), lambda: metrics_csv(self.metrics_rows).encode()),
            (("regressions.json",), lambda: dump_json(self.regressions)),
        ]
        copies = {name: (f"figures/{fig}.csv",) for fig, (name, series)
                  in _XSECTION_FIGURES.items() if not _missing(getattr(self, series))}
        for name, text in xsection_files(self.var_ratio, self.kurt_tail,
                                         self.kurt_curve).items():
            jobs.append(((f"xsection/{name}", *copies.get(name, ())),
                         lambda text=text: text().encode()))
        jobs.append((("tests.json",), lambda: dump_json(self.tests)))
        copied = {rel for rels in copies.values() for rel in rels}
        jobs += [((rel,), lambda emit=emit: emit(self).encode())
                 for fig, emit in _FIGURES.items()
                 if (rel := f"figures/{fig}.csv") not in copied]
        return jobs

    def _fits_csv(self) -> bytes:
        """fits.csv: one row per successful fit of each semester."""
        flat_rows = [_flat_fit_row(s, name, value) for s in self.semesters
                     for name, value in sorted(self.semester_fits[s].items())
                     if isinstance(value, FitResult)]
        return _csv_text(["semester", "model", "fit", "primary_param", "primary_value",
                          "primary_se", "r", "n_points"], flat_rows).encode()

    def _run_log(self, skipped: list[str]) -> bytes:
        """run_log.json: the stage events, then the skipped-figure lines."""
        return dump_json({"events": self.run_log + skipped})

    def files(self) -> dict[str, bytes]:
        """Every bundle file except the manifest, as relpath -> bytes: the
        jobs done one after another in this process. `write` writes the
        same bytes."""
        out, skipped = {}, []
        for job in self._jobs():
            data = _formatted(job)
            if isinstance(data, str):
                skipped.append(data)
            else:
                out.update(dict.fromkeys(job[0], data))
        out["run_log.json"] = self._run_log(skipped)
        return out

    def write(self, out_dir) -> Path:
        """Write the bundle as out_dir, replacing a bundle already there
        whole. The files are written and hashed into a sibling directory
        and that directory is renamed into place; the old bundle is moved
        aside first and removed last. Where fork and a second CPU are
        available, a _Helper does a share of the jobs (see _in_order);
        each process formats, writes and hashes one job's file at a time.
        The helper has exited and been waited for before the rename, or
        before a failed write removes the sibling. run_log.json and
        manifest.json are written last, by this process, so the bytes
        are those of `files()` whichever process did a job. A symlinked
        out_dir is followed, so its target is replaced. Only an empty
        directory or one `_is_bundle` accepts is replaced; the working
        directory, or one that holds it, never is. A run killed between
        the two renames leaves the previous bundle in the hidden sibling
        `.NAME.<pid>.old`, which a later write removes (see
        _remove_stale_siblings)."""
        out_dir = Path(out_dir).resolve()
        if Path.cwd().resolve().is_relative_to(out_dir):
            raise DataError(f"{out_dir} holds the working directory; not replacing it")
        if out_dir.exists() and not (out_dir.is_dir() and (
                not any(out_dir.iterdir()) or _is_bundle(out_dir))):
            raise DataError(f"{out_dir} exists and is not a report bundle; "
                            "not replacing it")
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        _remove_stale_siblings(out_dir)
        staging, aside = (out_dir.with_name(f".{out_dir.name}.{os.getpid()}.{end}")
                          for end in ("new", "old"))
        try:
            staging.mkdir()
            jobs = self._jobs()
            # made before the fork, so that neither process makes them
            folders = {(staging / rel).parent for rels, _ in jobs for rel in rels} - {staging}
            for folder in folders:
                folder.mkdir()
            work = partial(_write_job, staging)
            digests, skipped = {}, []
            helper = _Helper.start(jobs, work, lambda: len(jobs), 1)
            with helper or nullcontext():
                for _, done in _in_order(helper, jobs, work):
                    if isinstance(done, str):
                        skipped.append(done)
                    else:
                        digests.update(done)
            for folder in folders:
                if not any(folder.iterdir()):  # figures/, when every figure is skipped
                    folder.rmdir()
            run_log = self._run_log(skipped)
            (staging / "run_log.json").write_bytes(run_log)
            digests["run_log.json"] = sha256(run_log).hexdigest()
            (staging / "manifest.json").write_bytes(dump_json({
                "config_hash": self.config.config_hash(),
                "normalizers": self.normalizers,
                "files": digests,
            }))
            if out_dir.exists():
                out_dir.rename(aside)
            try:
                staging.rename(out_dir)
            except OSError:
                if aside.exists():
                    aside.rename(out_dir)
                raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(aside, ignore_errors=True)
        return out_dir


def _formatted(job) -> bytes | str:
    """The bytes of a bundle job, or the run_log.json line of its skipped
    figure."""
    relpaths, format = job
    try:
        return format()
    except MissingUpstream as exc:
        return f"figure {Path(relpaths[0]).stem} skipped: {exc}"


def _write_job(staging: Path, job) -> dict[str, str] | str:
    """Do a bundle job into staging: {relpath: SHA-256} of the files it
    wrote, or the run_log.json line of its skipped figure."""
    data = _formatted(job)
    if isinstance(data, str):
        return data
    for rel in job[0]:
        (staging / rel).write_bytes(data)
    return dict.fromkeys(job[0], sha256(data).hexdigest())


def _remove_stale_siblings(out_dir: Path) -> None:
    """Remove the `.NAME.<pid>.new` and `.NAME.<pid>.old` directories
    beside out_dir that writes killed between their renames left behind:
    those of a pid that no running process has, or that is this
    process's (so an earlier process's). A `.old` directory holds the
    bundle that was set aside, and is removed only if it is empty or
    `_is_bundle` accepts it."""
    name = re.compile(rf"\.{re.escape(out_dir.name)}\.(\d+)\.(new|old)")
    for sibling in out_dir.parent.iterdir():
        match = name.fullmatch(sibling.name)
        if (match is None or sibling.is_symlink() or not sibling.is_dir()
                or _running(int(match[1]))):
            continue
        if match[2] == "new" or not any(sibling.iterdir()) or _is_bundle(sibling):
            shutil.rmtree(sibling, ignore_errors=True)


def _running(pid: int) -> bool:
    """Whether a process other than this one has this pid."""
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass  # another user's process, or no pid at all: keep its files
    return True


def _is_bundle(directory: Path) -> bool:
    """Whether directory holds a report bundle and nothing else: a
    manifest.json with `config_hash` and a `files` table, and no file,
    symlink or other entry besides it and the files that table lists."""
    try:
        manifest = json.loads((directory / "manifest.json").read_bytes())
    except (OSError, ValueError):
        return False
    if not (isinstance(manifest, dict) and "config_hash" in manifest
            and isinstance(manifest.get("files"), dict)):
        return False
    listed = set(manifest["files"]) | {"manifest.json"}
    return all(path.relative_to(directory).as_posix() in listed
               for path in directory.rglob("*")
               if path.is_symlink() or not path.is_dir())


def metrics_csv(rows) -> str:
    """metrics.csv: one row per (ticker, semester) metrics record."""
    return _csv_text(
        ["ticker", "semester", "activity", "volatility", "price_variation",
         "concavity", "symmetry"],
        [[m.ticker, m.semester, _fmt(m.activity), _fmt(m.volatility),
          _fmt(m.price_variation), _fmt(m.concavity), _fmt(m.symmetry)]
         for m in rows])


def variance_ratio_csv(var_ratio: dict[int, np.ndarray]) -> str:
    """xsection/variance_ratio.csv: the per-minute ratio of each semester."""
    return _minute_csv(["semester", "t", "variance_ratio"],
                       [(s, [var_ratio[s]]) for s in sorted(var_ratio)])


def kurtosis_tail_csv(kurt_tail: dict[int, float]) -> str:
    """xsection/kurtosis_tail.csv: the tail mean kurtosis of each semester."""
    return _csv_text(["semester", "tail_mean_kurtosis"],
                     [[s, _fmt(v)] for s, v in sorted(kurt_tail.items())])


def kurtosis_curve_csv(curve: np.ndarray) -> str:
    """xsection/kurtosis_curve.csv: the semester-averaged kurtosis curve."""
    return _minute_csv(["t", "mean_kurtosis"], [(None, [curve])])


def xsection_files(var_ratio: dict[int, np.ndarray], kurt_tail: dict[int, float],
                   kurt_curve: np.ndarray | None) -> dict[str, Callable[[], str]]:
    """The cross-section files, name -> the function that formats its
    text: the variance ratio, the kurtosis tail means and, when there is
    one, the kurtosis curve."""
    out = {"variance_ratio.csv": partial(variance_ratio_csv, var_ratio),
           "kurtosis_tail.csv": partial(kurtosis_tail_csv, kurt_tail)}
    if kurt_curve is not None:
        out["kurtosis_curve.csv"] = partial(kurtosis_curve_csv, kurt_curve)
    return out


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
    config.out_dir. Per-slice failures are logged and skipped; the run
    fails outright only when nothing succeeds."""
    prep = prepare_panel(config)
    if not 1 <= config.regime_boundary_semester <= prep.index.n_semesters:
        raise DataError(
            f"regime boundary {config.regime_boundary_semester} outside "
            f"1..{prep.index.n_semesters}")
    stages = Stages(config, prep)
    semesters = prep.semesters
    profiles = stages.day_axis_profiles(semesters)
    ticker_mean, day_mean, var_ratio = stages.aggregates(semesters, profiles)
    metrics_rows = stages.metrics_rows(profiles)
    if profiles and not metrics_rows and not ticker_mean:
        raise DataError("every (ticker, semester) computation failed")
    del profiles  # not part of the bundle: freed before the bundle is encoded
    semester_fits = stages.semester_fits(semesters, ticker_mean, day_mean)
    kurt_tail, kurt_curve = stages.kurtosis_tail(day_mean)
    regressions = stages.regressions(metrics_rows)
    tests = stages.regime_tests(_semester_fit_series(semester_fits, "opening", "alpha"))

    bundle = ReportBundle(
        config=config, semesters=semesters, ticker_mean=ticker_mean,
        day_mean=day_mean, semester_fits=semester_fits, metrics_rows=metrics_rows,
        regressions=regressions, var_ratio=var_ratio, kurt_tail=kurt_tail,
        kurt_curve=kurt_curve, tests=tests, load_report=prep.load_report.to_json(),
        validation=prep.validation.to_json(), run_log=stages.run_log)
    # the panel is not part of the bundle: freed, so that the writer's
    # forked helper does not map it
    del prep, stages
    if write:
        bundle.write(config.out_dir)
    return bundle


# --- figure series -------------------------------------------------------

def _missing(value) -> bool:
    """Whether a figure's upstream value is None or empty."""
    return value is None or (not isinstance(value, np.ndarray) and not value)


def _need(value, what: str):
    """value, or MissingUpstream(what) when it is _missing."""
    if _missing(value):
        raise MissingUpstream(what)
    return value


def _wide_profile_csv(bundle: ReportBundle, attr: str) -> str:
    profs = _need({s: getattr(p, attr) for s, p in sorted(bundle.ticker_mean.items())},
                  "no aggregated day-axis profiles")
    return _minute_csv(["t"] + [f"s{s:02d}" for s in profs], [(None, list(profs.values()))])


def _semester_fit_series(semester_fits: dict[int, dict[str, Any]], fit_name: str,
                         coeff: str) -> dict[int, float]:
    return {s: fit.coefficients[coeff] for s, entry in semester_fits.items()
            if isinstance(fit := entry.get(fit_name), FitResult)}


def _metric_means(bundle: ReportBundle, attr: str) -> dict[int, float]:
    """Per-semester mean of a finite per-ticker metric."""
    per_s: dict[int, list[float]] = {}
    for m in bundle.metrics_rows:
        v = getattr(m, attr)
        if math.isfinite(v):
            per_s.setdefault(m.semester, []).append(v)
    return {s: sum(v) / len(v) for s, v in per_s.items()}


def _cross_shapes(bundle: ReportBundle, attr: str) -> dict[int, float]:
    """Per-semester shape functional of the day-mean profile's quartic."""
    out = {}
    for s in bundle.semesters:
        sf = bundle.semester_fits.get(s, {}).get("shapes_cross")
        if sf is not None:
            out[s] = getattr(sf, attr)
    return out


def _first_usable(series: dict[int, float]) -> int | None:
    return next((s for s in sorted(series)
                 if math.isfinite(series[s]) and series[s] != 0), None)


#: manifest normalizer key -> the series it normalizes; the normalizer is
#: the series' first semester with a finite nonzero value
_NORMALIZED_SERIES = {
    "fig4": lambda b: _metric_means(b, "concavity"),
    "fig5": lambda b: _metric_means(b, "symmetry"),
    "fig14_concavity": lambda b: _cross_shapes(b, "concavity"),
    "fig14_symmetry": lambda b: _cross_shapes(b, "symmetry"),
}


def _normalizer(bundle: ReportBundle, key: str) -> int:
    return _need(bundle.normalizers.get(key), "no usable normalizer semester")


def _regime_alpha_csv(bundle: ReportBundle) -> str:
    alpha = _need(bundle.alpha_series(), "no opening power-law fits")
    rb = bundle.config.regime_boundary_semester
    pre = [alpha[s] for s in sorted(alpha) if s <= rb]
    post = [alpha[s] for s in sorted(alpha) if s > rb]
    pre_mean = sum(pre) / len(pre) if pre else float("nan")
    post_mean = sum(post) / len(post) if post else float("nan")
    return _csv_text(["semester", "alpha", "branch", "branch_mean"],
                     [[s, _fmt(alpha[s]), "pre" if s <= rb else "post",
                       _fmt(pre_mean if s <= rb else post_mean)] for s in sorted(alpha)])


def _closing_csv(bundle: ReportBundle) -> str:
    series = _need(_semester_fit_series(bundle.semester_fits, "closing", "alpha_prime"),
                   "no closing power-law fits")
    return _csv_text(["semester", "alpha_prime"],
                     [[s, _fmt(series[s])] for s in sorted(series)])


def _normalized_metric_csv(bundle: ReportBundle, fig: str, attr: str) -> str:
    series = _need(_metric_means(bundle, attr), f"no per-ticker {attr} values")
    s0 = _normalizer(bundle, fig)
    return _csv_text(["semester", f"mean_{attr}", "normalized"],
                     [[s, _fmt(series[s]), _fmt(series[s] / series[s0])]
                      for s in sorted(series)])


def _activity_concavity_csv(bundle: ReportBundle) -> str:
    rows = [[m.ticker, m.semester,
             _fmt(m.activity / metrics_mod.MINUTES_PER_RESCALED_UNIT), _fmt(m.concavity)]
            for m in bundle.metrics_rows
            if math.isfinite(m.activity) and math.isfinite(m.concavity)]
    return _csv_text(["ticker", "semester", "activity_rescaled", "concavity"],
                     _need(rows, "no (activity, concavity) pairs"))


def _scatter_csv(profiles: dict[int, AggregatedProfile], column: str, attr: str) -> str:
    return _minute_csv(["semester", "t", "x_mean", column],
                       [(s, [p.mean, getattr(p, attr)])
                        for s, p in sorted(_need(profiles, "no aggregated profiles").items())])


def _kurtosis_relaxation_csv(bundle: ReportBundle) -> str:
    bm = _semester_fit_series(bundle.semester_fits, "kurtosis_morning", "beta_m")
    ba = _semester_fit_series(bundle.semester_fits, "kurtosis_afternoon", "beta_a")
    _need(bm or ba, "no kurtosis relaxation fits")
    nan = float("nan")
    return _csv_text(["semester", "beta_m", "beta_a"],
                     [[s, _fmt(bm.get(s, nan)), _fmt(ba.get(s, nan))]
                      for s in sorted(set(bm) | set(ba))])


def _cross_shapes_csv(bundle: ReportBundle) -> str:
    conc = _need(_cross_shapes(bundle, "concavity"), "no cross-sectional quartic shapes")
    sym = _cross_shapes(bundle, "symmetry")
    c0 = _normalizer(bundle, "fig14_concavity")
    y0 = _normalizer(bundle, "fig14_symmetry")
    return _csv_text(
        ["semester", "concavity", "concavity_normalized", "symmetry", "symmetry_normalized"],
        [[s, _fmt(conc[s]), _fmt(conc[s] / conc[c0]), _fmt(sym[s]), _fmt(sym[s] / sym[y0])]
         for s in sorted(conc)])


#: figure id -> emitter of its CSV text; an emitter raises MissingUpstream
#: when the results it plots are absent
_FIGURES = {
    "fig1": lambda b: _wide_profile_csv(b, "mean"),
    "fig2": _regime_alpha_csv,
    "fig3": _closing_csv,
    "fig4": lambda b: _normalized_metric_csv(b, "fig4", "concavity"),
    "fig5": lambda b: _normalized_metric_csv(b, "fig5", "symmetry"),
    "fig6": _activity_concavity_csv,
    "fig7": lambda b: _wide_profile_csv(b, "median"),
    "fig8": lambda b: _scatter_csv(b.ticker_mean, "y_variance", "variance"),
    "fig9": lambda b: _scatter_csv(b.ticker_mean, "y_skewness", "skewness"),
    "fig10": lambda b: _wide_profile_csv(b, "kurtosis"),
    "fig11": _kurtosis_relaxation_csv,
    "fig12": lambda b: _scatter_csv(b.day_mean, "y_kurtosis_cross", "kurtosis"),
    "fig13": lambda b: variance_ratio_csv(_need(b.var_ratio, "no variance-ratio series")),
    "fig14": _cross_shapes_csv,
    "fig15": lambda b: kurtosis_tail_csv(_need(b.kurt_tail, "no kurtosis tail averages")),
    "fig16": lambda b: kurtosis_curve_csv(_need(b.kurt_curve,
                                                "no semester-averaged kurtosis curve")),
}

FIGURE_IDS = tuple(_FIGURES)

#: figure id -> (the cross-section file it copies byte for byte, the
#: ReportBundle field both format); the figure is skipped when that field
#: is _missing, while the file is written as xsection_files says
_XSECTION_FIGURES = {
    "fig13": ("variance_ratio.csv", "var_ratio"),
    "fig15": ("kurtosis_tail.csv", "kurt_tail"),
    "fig16": ("kurtosis_curve.csv", "kurt_curve"),
}


def emit_figure_series(bundle: ReportBundle, figure_id: str) -> str:
    """CSV text for one figure's data series (see FIGURE_IDS)."""
    if figure_id not in _FIGURES:
        raise UnknownFigure(f"{figure_id!r}; known ids: {', '.join(FIGURE_IDS)}")
    return _FIGURES[figure_id](bundle)


def load_figure_csv(report_dir, figure_id: str) -> bytes:
    """Fetch one figure CSV from a written bundle directory: only a file
    that the bundle's manifest.json lists, and only with the listed hash."""
    if figure_id not in FIGURE_IDS:
        raise UnknownFigure(f"{figure_id!r}; known ids: {', '.join(FIGURE_IDS)}")
    rel = f"figures/{figure_id}.csv"
    path = Path(report_dir) / rel
    manifest = Path(report_dir) / "manifest.json"
    try:
        digest = json.loads(manifest.read_bytes())["files"].get(rel) \
            if manifest.exists() else None
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptBundle(f"{manifest}: unreadable ({exc!r})") from None
    if digest is None:
        raise MissingUpstream(
            f"{path} not in bundle (upstream fits may have failed; see run_log.json)")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorruptBundle(f"{path}: listed in manifest.json but unreadable ({exc})") from None
    if sha256(data).hexdigest() != digest:
        raise CorruptBundle(f"{path}: SHA-256 does not match manifest.json")
    return data
