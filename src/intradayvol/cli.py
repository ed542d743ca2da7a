"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from .cumulants import (
    cumulants_over_companies,
    cumulants_over_days,
    profile_csv_bytes,
    profile_metadata,
)
from .errors import DataError, NumericalError
from .fits import shape_functionals
# load_minute_bars and validate_panel are not called here; perfbench/spans.py
# wraps these names in this module to time the CLI's layers
from .panel import (  # noqa: F401
    TIME_FORMATS,
    load_minute_bars,
    parse_date,
    validate_panel,
    write_panel_csv,
)
from .pipeline import (
    TICKER_MEAN_FITS,
    PipelineConfig,
    Stages,
    dump_json,
    json_fields,
    load_figure_csv,
    load_panel,
    metrics_csv,
    prepare_panel,
    read_json,
    run_pipeline,
    xsection_files,
)
from .stats_tests import mww_test, welch_test
from .synth import GeneratorSpec, IntensitySpec, NoiseSpec, generate_panel


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_json(doc) -> None:
    sys.stdout.write(dump_json(doc).decode())


#: command-line flag (argparse dest) -> the PipelineConfig field it overrides
_FLAG_FIELDS = (("input", "input_paths"), ("out", "out_dir"),
                ("time_format", "time_format"), ("jobs", "jobs"),
                ("min_day_coverage", "min_day_coverage"))


def _config_from_args(args) -> PipelineConfig:
    """The --config file (or the defaults) with the given flags applied;
    the result passes PipelineConfig's validation."""
    if getattr(args, "config", None):
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    overrides = {name: getattr(args, flag) for flag, name in _FLAG_FIELDS
                 if getattr(args, flag, None) not in (None, [])}
    return dataclasses.replace(config, **overrides)


@contextmanager
def _stages(args):
    """The pipeline's stages on the prepared input. The slices they skip
    are listed on stderr, as run_log.json lists them for `report`."""
    config = _config_from_args(args)
    stages = Stages(config, prepare_panel(config))
    try:
        yield stages
    finally:
        for event in stages.run_log:
            print(f"skipped: {event}", file=sys.stderr)


def _require(value, what: str):
    if value is None:
        raise DataError(f"no {what}: every slice it needs was skipped")
    return value


def _out_dir(args, default="out") -> Path:
    out = Path(getattr(args, "out", None) or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args) -> int:
    panel, report = load_panel(_config_from_args(args))
    out = _out_dir(args)
    write_panel_csv(panel, out / "panel.csv")
    (out / "load_report.json").write_bytes(dump_json(report.to_json()))
    print(f"loaded {report.n_loaded} rows "
          f"({len(report.skipped)} skipped) -> {out / 'panel.csv'}")
    return 0


def _cmd_validate(args) -> int:
    validation = prepare_panel(_config_from_args(args)).validation
    out = _out_dir(args)
    (out / "validation.json").write_bytes(dump_json(validation.to_json()))
    excluded = sum(1 for r in validation.records if not r.included)
    print(f"{len(validation.records)} (ticker, semester) pairs, "
          f"{excluded} excluded -> {out / 'validation.json'}")
    return 0


def _cmd_profile(args) -> int:
    try:
        day = parse_date(args.day) if args.day else None
    except ValueError:
        raise DataError(f"--day {args.day!r} is not an ISO date (YYYY-MM-DD)") from None
    with _stages(args) as st:
        panel, index = st.prep.panel, st.prep.index
        lk = st.config.literal_kurtosis
        if day:
            s = args.semester if args.semester else index.semester_of(day)
            prof = cumulants_over_companies(panel, index, day, s, literal_kurtosis=lk)
            name = f"profile_s{s:02d}_day_{day.isoformat()}.csv"
        elif args.ticker:
            if not args.semester:
                raise DataError("--ticker needs --semester")
            prof = cumulants_over_days(panel, index, args.ticker, args.semester,
                                       literal_kurtosis=lk)
            name = f"profile_s{args.semester:02d}_{args.ticker}.csv"
        else:
            if not args.semester:
                raise DataError("aggregate profiles need --semester")
            s = args.semester
            kind = args.kind.replace("-", "_")
            if kind == "day_mean":
                prof = st.day_mean(s)
            else:
                prof = st.ticker_mean(s, st.day_axis_profiles([s]))
            prof = _require(prof, f"semester {s} {args.kind} profile")
            name = f"profile_s{s:02d}_{kind}.csv"
    out = _out_dir(args)
    (out / name).write_bytes(profile_csv_bytes(prof))
    (out / (name[:-4] + ".json")).write_bytes(dump_json(profile_metadata(prof)))
    print(out / name)
    return 0


def _semester_fit(args, name: str):
    """One TICKER_MEAN_FITS entry on the semester's ticker-mean profile; a
    failed fit raises."""
    with _stages(args) as st:
        s = args.semester
        tm = _require(st.ticker_mean(s, st.day_axis_profiles([s])),
                      f"semester {s} ticker-mean profile")
        return TICKER_MEAN_FITS[name](st.config, tm)


def _cmd_fit(args) -> int:
    if args.model == "kurtosis":
        morning, afternoon = _semester_fit(args, "kurtosis_relaxation")
        _print_json({"morning": morning, "afternoon": afternoon})
    else:
        _print_json(_semester_fit(args, args.model))
    return 0


def _cmd_shapes(args) -> int:
    fit = _semester_fit(args, "quartic")
    _print_json({"quartic": fit, "shapes": shape_functionals(fit)})
    return 0


def _cmd_metrics(args) -> int:
    with _stages(args) as st:
        tickers = [args.ticker] if args.ticker else None
        rows = st.metrics_rows(st.day_axis_profiles(st.prep.semesters, tickers))
    out = _out_dir(args)
    (out / "metrics.csv").write_bytes(metrics_csv(rows).encode())
    print(f"{len(rows)} rows -> {out / 'metrics.csv'}")
    return 0


def _parse_samples(text: str) -> list[float]:
    if text.startswith("@"):
        try:
            raw = Path(text[1:]).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"sample file {text[1:]} is not readable: {exc}") from None
        parts = raw.replace(",", " ").split()
    else:
        parts = [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise DataError(f"could not parse sample values: {exc}") from None
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise DataError(f"sample values must be finite, got {bad[0]}")
    return values


def _cmd_tests(args) -> int:
    if not 0.0 < args.confidence < 1.0:
        raise DataError("--confidence must be in (0, 1)")
    a = _parse_samples(args.sample_1)
    b = _parse_samples(args.sample_2)
    doc = {}
    if args.test in ("welch", "both"):
        doc["welch"] = welch_test(a, b, args.confidence, tails=args.tails)
    if args.test in ("mww", "both"):
        doc["mww"] = mww_test(a, b, args.confidence, tails=args.tails)
    _print_json(doc)
    return 0


def _cmd_xsection(args) -> int:
    with _stages(args) as st:
        semesters = st.prep.semesters
        _, day_mean, var_ratio = st.aggregates(semesters, st.day_axis_profiles(semesters))
        kurt_tail, kurt_curve = st.kurtosis_tail(day_mean)
    out = _out_dir(args)
    for s, prof in sorted(day_mean.items()):
        (out / f"s{s:02d}_day_mean.csv").write_bytes(profile_csv_bytes(prof))
    for name, text in xsection_files(var_ratio, kurt_tail, kurt_curve).items():
        (out / name).write_bytes(text().encode())
    print(f"{len(day_mean)} semesters -> {out}")
    return 0


def _spec_from_json(doc) -> GeneratorSpec:
    """The GeneratorSpec a --spec document describes: an object of its
    fields, n_companies required, with `intensity` and `noise` objects of
    IntensitySpec and NoiseSpec fields and `overrides` an object of
    semester numbers -> intensity objects. DataError for anything else."""
    spec = json_fields(GeneratorSpec, doc, "spec")
    if "n_companies" not in spec:
        raise DataError("spec needs n_companies")
    if "intensity" in spec:
        spec["intensity"] = IntensitySpec(**json_fields(IntensitySpec, spec["intensity"],
                                                        "spec intensity"))
    if "noise" in spec:
        spec["noise"] = NoiseSpec(**json_fields(NoiseSpec, spec["noise"], "spec noise"))
    if "overrides" in spec:
        overrides = spec["overrides"]
        if not (isinstance(overrides, dict) and all(map(str.isdecimal, overrides))):
            raise DataError("spec overrides must be an object of semester numbers")
        spec["overrides"] = {
            int(s): IntensitySpec(**json_fields(IntensitySpec, v, f"spec override {s}"))
            for s, v in overrides.items()}
    return GeneratorSpec(**spec)


def _cmd_synth(args) -> int:
    if args.spec:
        spec = _spec_from_json(read_json(args.spec, "spec file"))
    else:
        spec = GeneratorSpec(
            n_companies=args.companies, n_days=args.days, seed=args.seed,
            n_semesters=args.semesters,
            intensity=IntensitySpec(
                opening_amplitude=args.opening_amplitude,
                opening_exponent=args.alpha,
                closing_amplitude=args.closing_amplitude,
                closing_exponent=args.alpha_prime,
                baseline=args.baseline),
            noise=NoiseSpec(kind=args.noise, sigma_l=args.sigma_l),
            price_model="gbm" if args.prices else None)
    panel, truth = generate_panel(spec)
    out = _out_dir(args)
    write_panel_csv(panel, out / "panel.csv")
    (out / "ground_truth.json").write_bytes(dump_json(truth.to_json()))
    print(f"{panel.n_companies} companies x {panel.n_days} days -> {out / 'panel.csv'}")
    return 0


def _cmd_report(args) -> int:
    config = _config_from_args(args)
    bundle = run_pipeline(config)
    print(f"report -> {config.out_dir}")
    tests = bundle.tests
    for name in ("welch", "mww"):
        result = tests.get(name)
        if isinstance(result, dict) and "reject_null" in result:
            verdict = "reject" if result["reject_null"] else "accept"
            print(f"{name}: statistic={result['statistic']:.6g} "
                  f"critical={result['critical_value']:.6g} -> {verdict}")
    if "error" in tests:
        print(f"tests skipped: {tests['error']}")
    return 0


def _cmd_figure(args) -> int:
    data = load_figure_csv(args.report, args.id)
    if args.out:
        out = _out_dir(args)
        (out / f"{args.id}.csv").write_bytes(data)
        print(out / f"{args.id}.csv")
    else:
        sys.stdout.write(data.decode())
    return 0


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="pipeline config JSON")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--time-format", choices=TIME_FORMATS,
                        help="time column format (HH:MM or minute index)")
    shared.add_argument("--jobs", type=int,
                        help="accepted for compatibility; stages run on one thread")

    parser = _Parser(prog="intradayvol",
                     description="Intraday volume profile analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, inputs=True):
        p = sub.add_parser(name, parents=[shared], help=help_)
        p.set_defaults(func=func)
        if inputs:
            p.add_argument("input", nargs="*", help="CSV files or directories")
        return p

    add("ingest", _cmd_ingest, "load CSVs and write the canonical panel")

    p = add("validate", _cmd_validate, "coverage report per (ticker, semester)")
    p.add_argument("--min-day-coverage", type=float, default=None)

    p = add("profile", _cmd_profile, "cumulant profile CSV for one slice")
    p.add_argument("--ticker")
    p.add_argument("--semester", type=int)
    p.add_argument("--day", help="ISO date: cross-sectional profile for that day")
    p.add_argument("--kind", choices=["ticker-mean", "day-mean"], default="ticker-mean")

    p = add("fit", _cmd_fit, "fit the semester's aggregated profile")
    p.add_argument("--model", choices=["opening", "closing", "quartic", "kurtosis"],
                   required=True)
    p.add_argument("--semester", type=int, required=True)

    p = add("shapes", _cmd_shapes, "quartic fit plus concavity/symmetry")
    p.add_argument("--semester", type=int, required=True)

    p = add("metrics", _cmd_metrics, "per-(ticker, semester) scalar metrics CSV")
    p.add_argument("--ticker")

    p = add("tests", _cmd_tests, "two-sample location tests", inputs=False)
    p.add_argument("--sample-1", required=True, help="comma-separated values or @file")
    p.add_argument("--sample-2", required=True)
    p.add_argument("--test", choices=["welch", "mww", "both"], default="both")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--tails", type=int, choices=[1, 2], default=2)

    add("xsection", _cmd_xsection, "cross-sectional profiles, variance ratio, kurtosis tail")

    p = add("synth", _cmd_synth, "generate a synthetic panel", inputs=False)
    p.add_argument("--spec", help="generator spec JSON")
    p.add_argument("--companies", type=int, default=30)
    p.add_argument("--days", type=int, default=126)
    p.add_argument("--semesters", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=["lognormal", "gamma", "constant"],
                   default="lognormal")
    p.add_argument("--sigma-l", type=float, default=0.3)
    p.add_argument("--opening-amplitude", type=float, default=2000.0)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--closing-amplitude", type=float, default=1000.0)
    p.add_argument("--alpha-prime", type=float, default=0.4)
    p.add_argument("--baseline", type=float, default=50.0)
    p.add_argument("--prices", action="store_true", help="geometric random-walk prices")

    add("report", _cmd_report, "run the full pipeline", inputs=True)

    p = add("figure", _cmd_figure, "extract a figure data series from a report",
            inputs=False)
    p.add_argument("--report", required=True, help="report bundle directory")
    p.add_argument("--id", required=True, help="fig1 .. fig16")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
