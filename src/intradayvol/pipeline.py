"""End-to-end orchestration: panel in, plot-ready report bundle out.

The bundle is a list of file jobs, each formatting one file's bytes (a
figure that copies a cross-section file is written by that file's job).
`ReportBundle.files` does them one after another in memory and is the
byte reference. Most of the bundle is per-minute data that reads the
semester aggregates alone (`_minute_jobs`), so `run_pipeline` starts
writing it right after the aggregates: a helper forked with the numbers
of all those jobs in its pipe (`helper.start`) takes them while this
process runs the later stages and does the other jobs; `helper.in_order`
then gathers its answers, and this process takes the per-minute jobs left.
Each process formats, writes and hashes one file at a time into a sibling
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

import csv
import io
import json
import math
import os
import re
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import metrics as metrics_mod
# the config and the JSON helpers live in .config, which the commands that
# analyse nothing import alone; they are re-exported here
from .config import (  # noqa: F401
    WINDOW_FIELDS,
    PipelineConfig,
    _is_int,
    _is_iso_date,
    _is_list_of,
    _is_str,
    _jsonify,
    dump_json,
    json_fields,
    read_json,
    sha256,
)
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
    assign_semesters,
    default_semester_boundaries,
    load_minute_bars,
    parse_date,
    semester_day_indices,
    validate_panel,
)
from .helper import in_order, start as start_helper
from .stats_tests import mww_test, welch_test


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_text(header: list[str], rows) -> str:
    """The bundle's CSV encoding: the csv module's, as in the canonical CSV."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


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
    return load_minute_bars(**config.load_options(), minute_prices=minute_prices)


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

    def _other_jobs(self) -> list[Job]:
        """The jobs of the bundle files that _minute_jobs leaves out, but
        for run_log.json and the manifest."""
        profile_index = [{"file": rel, "semester": s, "kind": kind}
                         for rel, s, kind, _ in _profile_files(self)]
        jobs = [(("config.json",), lambda: dump_json(self.config.analysis_json())),
                (("load_report.json",), lambda: dump_json(self.load_report)),
                (("validation.json",), lambda: dump_json(self.validation)),
                (("profiles/index.json",), lambda: dump_json(
                    {"profiles": profile_index, "conventions": dict(CONVENTIONS)})),
                (("fits.json",), lambda: dump_json(
                    {str(s): self.semester_fits[s] for s in self.semesters})),
                (("fits.csv",), self._fits_csv),
                (("metrics.csv",), lambda: metrics_csv(self.metrics_rows).encode()),
                (("regressions.json",), lambda: dump_json(self.regressions)),
                (("tests.json",), lambda: dump_json(self.tests))]
        xsection = xsection_files(self.var_ratio, self.kurt_tail, self.kurt_curve)
        del xsection["variance_ratio.csv"]
        return jobs + _figure_jobs(self, [fig for fig in FIGURE_IDS
                                          if fig not in _MINUTE_FIGURES], xsection)

    def _fits_csv(self) -> bytes:
        """fits.csv: one row per successful fit of each semester."""
        flat_rows = [_flat_fit_row(s, name, value) for s in self.semesters
                     for name, value in sorted(self.semester_fits[s].items())
                     if isinstance(value, FitResult)]
        return _csv_text(["semester", "model", "fit", "primary_param", "primary_value",
                          "primary_se", "r", "n_points"], flat_rows).encode()

    def _run_log(self, skipped: list[str]) -> bytes:
        """run_log.json: the stage events, then the skipped-figure lines in
        FIGURE_IDS order."""
        order = {fig: k for k, fig in enumerate(FIGURE_IDS)}
        return dump_json({"events": self.run_log + sorted(
            skipped, key=lambda line: order[line.split()[1]])})

    def files(self) -> dict[str, bytes]:
        """Every bundle file except the manifest, as relpath -> bytes: the
        jobs done one after another in this process. `write` writes the
        same bytes."""
        out, skipped = {}, []
        for job in _minute_jobs(self) + self._other_jobs():
            data = _formatted(job)
            if isinstance(data, str):
                skipped.append(data)
            else:
                out.update(dict.fromkeys(job[0], data))
        out["run_log.json"] = self._run_log(skipped)
        return out

    def write(self, out_dir, started: Callable[[ReportBundle], Path] | None = None) -> Path:
        """Write the bundle as out_dir, replacing a bundle already there
        whole (see _writing): the per-minute jobs are started on a forked
        helper, where fork and a second CPU are available, and this process
        then does the other jobs and joins in. `started` is the finish of a
        write to out_dir that run_pipeline started with this bundle's
        aggregates before the fits; without it the write starts here."""
        if started is not None:
            return started(self)
        with _writing(out_dir, self) as finish:
            return finish(self)


#: a bundle job: (relpaths, format), where format() gives the bytes of each
#: of relpaths, or raises MissingUpstream for a skipped figure
Job = tuple[tuple[str, ...], Callable[[], bytes]]


@dataclass(frozen=True)
class _Aggregates:
    """The semester aggregates: all that the bundle's per-minute files read.
    A ReportBundle has the same fields."""

    semesters: list[int]
    ticker_mean: dict[int, AggregatedProfile]
    day_mean: dict[int, AggregatedProfile]
    var_ratio: dict[int, np.ndarray]


#: the figures whose emitters read only the fields of _Aggregates
_MINUTE_FIGURES = ("fig1", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13")


def _profile_files(results) -> list[tuple[str, int, str, AggregatedProfile]]:
    """(relpath, semester, kind, profile) of each profile file of results
    (an _Aggregates or a ReportBundle), in bundle order."""
    return [(f"profiles/s{s:02d}_{kind}.csv", s, kind, profiles[s])
            for s in results.semesters
            for kind, profiles in (("ticker_mean", results.ticker_mean),
                                   ("day_mean", results.day_mean))
            if s in profiles]


def _figure_jobs(results, figures, xsection: dict[str, Callable[[], str]]) -> list[Job]:
    """The jobs of the cross-section files in xsection (name -> format of
    its text) and of figures, a sequence of figure ids, for results. A
    figure that is byte for byte one of those files (see _XSECTION_FIGURES)
    is written by the file's job, unless the figure is skipped."""
    copies = {name: (f"figures/{fig}.csv",) for fig, (name, series)
              in _XSECTION_FIGURES.items()
              if name in xsection and not _missing(getattr(results, series))}
    jobs = [((f"xsection/{name}", *copies.get(name, ())), lambda text=text: text().encode())
            for name, text in xsection.items()]
    copied = {rel for rels in copies.values() for rel in rels}
    return jobs + [((rel,), lambda emit=_FIGURES[fig]: emit(results).encode())
                   for fig in figures if (rel := f"figures/{fig}.csv") not in copied]


def _minute_jobs(results) -> list[Job]:
    """The per-minute jobs of results (an _Aggregates or a ReportBundle):
    the cross-semester figures and the variance ratio, then the profiles,
    so that the last jobs are small ones."""
    jobs = _figure_jobs(results, _MINUTE_FIGURES,
                        {"variance_ratio.csv": partial(variance_ratio_csv, results.var_ratio)})
    return jobs + [((rel,), partial(profile_csv_bytes, profile))
                   for rel, _, _, profile in _profile_files(results)]


@contextmanager
def _writing(out_dir, aggregates) -> Iterator[Callable[[ReportBundle], Path]]:
    """Start writing a bundle as out_dir: check out_dir, make the staging
    directory beside it and start the per-minute jobs of aggregates (see
    _minute_jobs) on a forked helper with the numbers of all of them in its
    pipe (see helper.start). Yields finish(bundle), for the bundle of those
    aggregates, which does the other jobs in this process, then gathers
    the helper's answers in order (see helper.in_order), doing the
    per-minute jobs the helper has not taken, and writes run_log.json and
    manifest.json last, so that the bytes are those of `files()` whichever
    process did a job. Each process formats, writes and hashes one job's
    files at a time. The staging directory is then renamed into place; the
    old bundle is moved aside first and removed last. A write that the
    block does not finish leaves out_dir as it was, and the helper has
    exited, and been waited for, before the rename or the removal of the
    staging directory.

    A symlinked out_dir is followed, so its target is replaced. Only an
    empty directory or one `_is_bundle` accepts is replaced; the working
    directory, or one that holds it, never is. A run killed between the
    two renames leaves the previous bundle in the hidden sibling
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
    jobs = _minute_jobs(aggregates)
    work = partial(_write_job, staging)
    helper = None

    def finish(bundle: ReportBundle) -> Path:
        other = bundle._other_jobs()
        folders = _make_folders(staging, jobs + other)
        results = [work(job) for job in other]
        # only the helper started below shares these jobs: none forks this late
        with in_order(jobs, work, lambda: False, helper) as minute_results:
            results += [result for _, result in minute_results]
        digests, skipped = {}, []
        for result in results:
            if isinstance(result, str):
                skipped.append(result)
            else:
                digests.update(result)
        for folder in folders:
            if not any(folder.iterdir()):  # figures/, when every figure is skipped
                folder.rmdir()
        run_log = bundle._run_log(skipped)
        (staging / "run_log.json").write_bytes(run_log)
        digests["run_log.json"] = sha256(run_log).hexdigest()
        (staging / "manifest.json").write_bytes(dump_json({
            "config_hash": bundle.config.config_hash(),
            "normalizers": bundle.normalizers,
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
        shutil.rmtree(aside, ignore_errors=True)
        return out_dir

    try:
        staging.mkdir()
        _make_folders(staging, jobs)  # before the fork, so that neither process makes them
        helper = start_helper(jobs, work, lambda: True, len(jobs))
        yield finish
    finally:
        if helper is not None:
            helper.close()
        shutil.rmtree(staging, ignore_errors=True)


def _make_folders(staging: Path, jobs: list[Job]) -> set[Path]:
    """The folders of the jobs' files in staging, made where missing."""
    folders = {(staging / rel).parent for rels, _ in jobs for rel in rels} - {staging}
    for folder in folders:
        folder.mkdir(exist_ok=True)
    return folders


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
    fails outright, writing nothing, only when no (ticker, semester) pair
    yields a day-axis profile."""
    prep = prepare_panel(config)
    if not 1 <= config.regime_boundary_semester <= prep.index.n_semesters:
        raise DataError(
            f"regime boundary {config.regime_boundary_semester} outside "
            f"1..{prep.index.n_semesters}")
    stages = Stages(config, prep)
    semesters = prep.semesters
    profiles = stages.day_axis_profiles(semesters)
    if not profiles:
        raise DataError("every (ticker, semester) computation failed")
    ticker_mean, day_mean, var_ratio = stages.aggregates(semesters, profiles)
    # the per-minute files read these alone: their write starts now, on a
    # forked helper, while this process runs the later stages
    aggregates = _Aggregates(semesters, ticker_mean, day_mean, var_ratio)
    with _writing(config.out_dir, aggregates) if write else nullcontext() as finish:
        metrics_rows = stages.metrics_rows(profiles)
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
        del prep, stages  # the panel is not part of the bundle
        if write:
            bundle.write(config.out_dir, started=finish)
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
    report_dir = Path(report_dir)
    if not report_dir.is_dir():
        state = "not a directory" if report_dir.exists() else "missing"
        raise DataError(f"report bundle {report_dir} is {state}")
    rel = f"figures/{figure_id}.csv"
    path = report_dir / rel
    manifest = report_dir / "manifest.json"
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
