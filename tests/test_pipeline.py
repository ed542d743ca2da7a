"""End-to-end pipeline, report bundle, figure series, and CLI exit codes."""
from __future__ import annotations

import csv
import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import weakref
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import HELPER_RUNS, counting_answers, needs_helper, one_cpu, started_helpers
from intradayvol import metrics as metrics_mod
from intradayvol import pipeline as pipeline_mod
from intradayvol.cli import main
from intradayvol.cumulants import (
    cumulants_over_companies,
    cumulants_over_days,
    profile_csv_bytes,
    profile_metadata,
)
from intradayvol.errors import CorruptBundle, DataError, MissingUpstream, UnknownFigure
from intradayvol.panel import (
    SESSION_MINUTES,
    MinutePanel,
    semester_day_indices,
    write_panel_csv,
)
from intradayvol.fits import fit_kurtosis_relaxation
from intradayvol.pipeline import (
    FIGURE_IDS,
    PipelineConfig,
    _jsonify,
    dump_json,
    emit_figure_series,
    load_figure_csv,
    prepare_panel,
    run_pipeline,
)
from intradayvol.synth import GeneratorSpec, IntensitySpec, NoiseSpec, generate_panel


def synth_csv(tmp_path_factory, name="panel", **spec_kw):
    defaults = dict(n_companies=3, n_days=24, seed=42, n_semesters=4,
                    intensity=IntensitySpec(opening_amplitude=2000.0,
                                            opening_exponent=0.3,
                                            closing_amplitude=1000.0,
                                            closing_exponent=0.4,
                                            baseline=50.0),
                    price_model="gbm")
    defaults.update(spec_kw)
    spec = GeneratorSpec(**defaults)
    panel, truth = generate_panel(spec)
    path = tmp_path_factory.mktemp(name) / "panel.csv"
    write_panel_csv(panel, path)
    boundaries = [(a.isoformat(), b.isoformat()) for a, b in truth.boundaries]
    return path, boundaries


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    return synth_csv(tmp_path_factory)


@pytest.fixture(scope="module")
def base_config(panel_csv):
    path, boundaries = panel_csv
    return PipelineConfig(
        input_paths=[str(path)], semester_boundaries=boundaries,
        regime_boundary_semester=2, kurtosis_tail_excluded_semesters=[])


@pytest.fixture(scope="module")
def report(tmp_path_factory, base_config):
    out = tmp_path_factory.mktemp("report")
    config = PipelineConfig.from_json(base_config.to_json())
    config.out_dir = str(out)
    bundle = run_pipeline(config)
    return bundle, out


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.opening_window == (1, 100)
        assert config.regime_boundary_semester == 10
        assert config.kurtosis_tail_excluded_semesters == list(range(11, 17))
        assert config.jobs == 1

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="unknown config keys"):
            PipelineConfig.from_json({"opening_windw": [1, 100]})

    @pytest.mark.parametrize("kw", [
        dict(opening_window=(100, 1)),
        dict(closing_window=(331, 391)),
        dict(kurtosis_morning_window=(-1, 99)),
        dict(jobs=0),
        dict(confidence=1.0),
        dict(confidence=0.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(DataError):
            PipelineConfig(**kw)

    def test_opening_offset_moves_the_window_off_minute_0(self):
        config = PipelineConfig.from_json({"opening_window": [0, 100],
                                           "opening_time_offset": 1.0})
        assert config.opening_window == (0, 100)
        assert PipelineConfig(opening_window=(2, 100),
                              opening_time_offset=-1.5).opening_time_offset == -1.5

    def test_json_round_trip(self, base_config):
        doc = base_config.to_json()
        assert PipelineConfig.from_json(json.loads(json.dumps(doc))) == base_config

    def test_from_file(self, tmp_path, base_config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config.to_json()))
        assert PipelineConfig.from_file(path) == base_config

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            PipelineConfig.from_file(tmp_path / "nope.json")

    def test_from_file_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            PipelineConfig.from_file(path)

    def test_hash_ignores_scheduling_fields(self):
        a = PipelineConfig(jobs=1, out_dir="x")
        b = PipelineConfig(jobs=8, out_dir="y")
        assert a.config_hash() == b.config_hash()
        c = PipelineConfig(opening_window=(1, 90))
        assert c.config_hash() != a.config_hash()

    def test_analysis_json_drops_scheduling_fields(self):
        doc = PipelineConfig(jobs=4).analysis_json()
        assert "jobs" not in doc
        assert "out_dir" not in doc
        assert "opening_window" in doc


class TestJsonify:
    def test_non_finite_becomes_null(self):
        doc = _jsonify({"a": float("nan"), "b": [float("inf"), 1.5],
                        "c": np.float64(2.5), "d": np.int64(3),
                        "e": mock.Mock(to_json=lambda: {"x": np.float64("nan")})})
        assert doc == {"a": None, "b": [None, 1.5], "c": 2.5, "d": 3, "e": {"x": None}}
        assert json.dumps(doc)


class TestRunPipeline:
    def test_rejects_empty_inputs(self):
        with pytest.raises(DataError, match="input_paths"):
            run_pipeline(PipelineConfig(), write=False)

    def test_rejects_out_of_range_regime_boundary(self, panel_csv):
        path, boundaries = panel_csv
        config = PipelineConfig(input_paths=[str(path)],
                                semester_boundaries=boundaries,
                                regime_boundary_semester=7)
        with pytest.raises(DataError, match="regime boundary"):
            run_pipeline(config, write=False)

    def test_semesters_and_fits(self, report):
        bundle, _ = report
        assert bundle.semesters == [1, 2, 3, 4]
        for s in bundle.semesters:
            entry = bundle.semester_fits[s]
            assert entry["opening"].coefficients["alpha"] > 0
            assert entry["closing"].coefficients["alpha_prime"] > 0
            assert "c4" in entry["quartic"].coefficients
            assert math.isfinite(entry["shapes"].concavity)
        alpha = bundle.alpha_series()
        assert sorted(alpha) == [1, 2, 3, 4]

    def test_metrics_rows_cover_all_pairs(self, report):
        bundle, _ = report
        assert len(bundle.metrics_rows) == 12
        for m in bundle.metrics_rows:
            assert math.isfinite(m.activity)
            assert math.isfinite(m.volatility)

    def test_regime_tests_present(self, report):
        bundle, _ = report
        tests = bundle.tests
        assert tests["n_pre"] == 2 and tests["n_post"] == 2
        assert "reject_null" in tests["welch"]
        assert "reject_null" in tests["mww"]

    def test_expected_file_set(self, report):
        _, out = report
        for rel in ("manifest.json", "config.json", "load_report.json",
                    "validation.json", "fits.json", "fits.csv", "metrics.csv",
                    "regressions.json", "tests.json", "run_log.json",
                    "profiles/index.json", "profiles/s01_ticker_mean.csv",
                    "profiles/s04_day_mean.csv", "xsection/variance_ratio.csv",
                    "xsection/kurtosis_tail.csv", "xsection/kurtosis_curve.csv",
                    "figures/fig1.csv", "figures/fig2.csv"):
            assert (out / rel).exists(), rel

    def test_profile_csv_has_one_row_per_minute(self, report):
        _, out = report
        data = (out / "profiles/s01_ticker_mean.csv").read_bytes()
        assert data.count(b"\r\n") == SESSION_MINUTES + 1
        header = data.split(b"\r\n", 1)[0].decode()
        assert header == "t,mean,median,variance,skewness,kurtosis,n"

    def test_manifest_hashes_match_disk(self, report):
        bundle, out = report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == bundle.config.config_hash()
        assert manifest["files"]
        for rel, digest in manifest["files"].items():
            on_disk = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert on_disk == digest, rel

    def test_metrics_csv_matches_rows(self, report):
        bundle, out = report
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("ticker,semester,")
        assert len(lines) == 1 + len(bundle.metrics_rows)

    def test_config_json_has_no_scheduling_fields(self, report):
        _, out = report
        doc = json.loads((out / "config.json").read_text())
        assert "jobs" not in doc and "out_dir" not in doc

    def test_ticker_exclusions_respected(self, panel_csv):
        path, boundaries = panel_csv
        config = PipelineConfig(
            input_paths=[str(path)], semester_boundaries=boundaries,
            regime_boundary_semester=2, kurtosis_tail_excluded_semesters=[],
            ticker_exclusions={1: ["C00"]})
        bundle = run_pipeline(config, write=False)
        assert not any(m.ticker == "C00" and m.semester == 1
                       for m in bundle.metrics_rows)
        assert any(m.ticker == "C00" and m.semester == 2
                   for m in bundle.metrics_rows)

    def test_degenerate_panel_logs_failures(self, tmp_path_factory):
        # constant noise: day-axis variance is 0, kurtosis is undefined,
        # the relaxation fit fails per semester and is logged, not fatal
        path, boundaries = synth_csv(tmp_path_factory, name="flat",
                                     noise=NoiseSpec(kind="constant"),
                                     price_model=None, n_days=8, n_semesters=2)
        config = PipelineConfig(
            input_paths=[str(path)], semester_boundaries=boundaries,
            regime_boundary_semester=1, kurtosis_tail_excluded_semesters=[])
        bundle = run_pipeline(config, write=False)
        assert any("kurtosis_relaxation" in e for e in bundle.run_log)
        assert isinstance(bundle.semester_fits[1]["kurtosis_morning"], dict)
        assert "error" in bundle.semester_fits[1]["kurtosis_morning"]

    def test_failure_log_order_and_metrics(self, tmp_path):
        # C01 has only minutes < 190 in semester 1 (its quartic fails) and
        # C02 has no data in semester 2 (its four metrics fail, so its row
        # is dropped); the log lists failures in stage order, then in key
        # order, then each pair's metrics in name order
        panel, truth = generate_panel(GeneratorSpec(
            n_companies=4, n_days=8, n_semesters=2, seed=3, price_model="gbm",
            intensity=IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.3,
                                    closing_amplitude=1000.0, closing_exponent=0.4,
                                    baseline=50.0)))
        days = [[j for j, d in enumerate(panel.days) if a <= d <= b]
                for a, b in truth.boundaries]
        arrays = {name: getattr(panel, name).copy()
                  for name in ("volume", "open", "high", "low", "close")}
        for arr in arrays.values():
            arr[1, days[0], 190:] = np.nan
            arr[2, days[1], :] = np.nan
        write_panel_csv(MinutePanel(panel.companies, panel.days, **arrays),
                        tmp_path / "panel.csv")
        config = PipelineConfig(
            input_paths=[str(tmp_path / "panel.csv")], min_day_coverage=0.0,
            semester_boundaries=[(a.isoformat(), b.isoformat()) for a, b in truth.boundaries],
            regime_boundary_semester=1, kurtosis_tail_excluded_semesters=[])
        bundle = run_pipeline(config, write=False)
        # the figure skips follow the stage events in run_log.json only
        assert json.loads(bundle.files()["run_log.json"])["events"] == [
            "C01 s=1 quartic: InsufficientSpan: present minutes must span both "
            "halves of the session",
            "C02 s=2 activity: NoData: (C02, semester 2) has no present minutes",
            "C02 s=2 price_variation: NoData: (C02, semester 2) has no days with data",
            "C02 s=2 quartic: WindowTooSmall: 0 present minutes, need >= 6 for a quartic",
            "C02 s=2 volatility: NoData: (C02, semester 2) has no days with data",
            "s=1 kurtosis_relaxation: MorningNonPositive: log undefined at minutes "
            "[13, 18, 21, 24, 27, 29, 51, 53, 59, 73, 81, 84, 87, 90, 92, 93, 97, 98]",
            "s=2 kurtosis_relaxation: MorningNonPositive: log undefined at minutes "
            "[2, 7, 11, 24, 29, 43, 48, 60, 61, 71, 81, 94, 97]",
            "C00 concavity regression: TooFewPoints: 2 semesters, need >= 3",
            "C01 concavity regression: TooFewPoints: 1 semesters, need >= 3",
            "C02 concavity regression: TooFewPoints: 1 semesters, need >= 3",
            "C03 concavity regression: TooFewPoints: 2 semesters, need >= 3",
            "figure fig11 skipped: no kurtosis relaxation fits",
        ]
        assert bundle.files()["metrics.csv"] == (
            b"ticker,semester,activity,volatility,price_variation,concavity,symmetry\r\n"
            b"C00,1,262427.25,0.14272973031104838,1.6455174188650741,"
            b"2890.7759935388817,-55.239455779090292\r\n"
            b"C01,1,138452.125,0.10020702094808598,2.806973590084473,nan,nan\r\n"
            b"C02,1,263941.375,0.17228386206277121,-2.2900680833175633,"
            b"2729.5936644562853,-53.325292105321289\r\n"
            b"C03,1,263569.875,0.15159686106451153,-5.9257289779501701,"
            b"2836.1519496915221,-54.162013790074838\r\n"
            b"C00,2,261783.625,0.15119710253652335,1.3468899978315476,"
            b"2735.5684327013232,-58.226127096897386\r\n"
            b"C01,2,263212.625,0.15638662564125838,-1.9819403445170274,"
            b"2941.7785437542675,-60.762145888906872\r\n"
            b"C03,2,261374.875,0.14665339993307061,-4.705939377676903,"
            b"2942.7036208850254,-54.324156791860275\r\n")

    def test_metrics_on_days_missing_their_ends(self, tmp_path):
        # the report panel keeps one open, high, low and close per day:
        # days that miss their first or last minutes take the first and
        # last present ones, and wholly empty days (a semester's first
        # or last day among them) are dropped. Bytes as the minute-price
        # panel gave them.
        panel, truth = generate_panel(GeneratorSpec(
            n_companies=3, n_days=6, n_semesters=2, seed=11, price_model="gbm",
            intensity=IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.3,
                                    closing_amplitude=1000.0, closing_exponent=0.4,
                                    baseline=50.0)))
        arrays = {name: getattr(panel, name).copy()
                  for name in ("volume", "open", "high", "low", "close")}
        absent = [(0, 0, slice(0, 25)), (0, 5, slice(350, None)), (0, 8, slice(0, 1)),
                  (1, 2, slice(None)), (1, 3, slice(0, 100)), (1, 3, slice(200, None)),
                  (1, 11, slice(None)), (1, 10, slice(390, None)),
                  (2, 0, slice(None)), (2, 6, slice(0, 40)), (2, 9, slice(None)),
                  (2, 11, slice(150, None))]
        for i, j, minutes in absent:
            for arr in arrays.values():
                arr[i, j, minutes] = np.nan
        write_panel_csv(MinutePanel(panel.companies, panel.days, **arrays),
                        tmp_path / "panel.csv")
        config = PipelineConfig(
            input_paths=[str(tmp_path / "panel.csv")], min_day_coverage=0.0,
            semester_boundaries=[(a.isoformat(), b.isoformat()) for a, b in truth.boundaries],
            regime_boundary_semester=1, kurtosis_tail_excluded_semesters=[])
        assert run_pipeline(config, write=False).files()["metrics.csv"] == (
            b"ticker,semester,activity,volatility,price_variation,concavity,symmetry\r\n"
            b"C00,1,263479.43333333335,0.13002230375828633,-0.083668522441046111,"
            b"2601.0188942185573,-57.811194659948164\r\n"
            b"C01,1,260248.64999999999,0.13817623956833036,1.9062514136575763,"
            b"2885.7402008966974,-60.609751592672268\r\n"
            b"C02,1,266778.59999999998,0.14227259136153142,-1.3112208661115556,"
            b"2794.8054335588586,-64.802429947640093\r\n"
            b"C00,2,263078.43333333335,0.16877309518285236,-0.36098016118714332,"
            b"2604.634934019663,-62.427695816196902\r\n"
            b"C01,2,262930.59999999998,0.1325744095744725,-0.73432046721720035,"
            b"2754.9235256354896,-62.102077427487735\r\n"
            b"C02,2,263919.54999999999,0.12812239766859923,-0.0016727961497613594,"
            b"2712.0468753037894,-46.641876473415628\r\n")

    def test_report_panel_keeps_no_minute_prices(self, base_config):
        panel = pipeline_mod.prepare_panel(base_config).panel
        assert not panel.has_minute_prices
        assert (panel.open, panel.high, panel.low, panel.close) == (None,) * 4
        full, _ = pipeline_mod.load_panel(base_config)
        assert full.has_minute_prices
        assert panel.volume.tobytes() == full.volume.tobytes()
        assert panel.daily_ohlc.tobytes() == full.daily_ohlc.tobytes()

    def test_panel_is_freed_before_the_write(self, tmp_path, base_config, monkeypatch):
        # the write's helper forked while the panel was held, but this
        # process frees it before it formats the rest of the bundle
        real_prepare, real_write = pipeline_mod.prepare_panel, pipeline_mod.ReportBundle.write
        panels, alive = [], []

        def prepare_panel(config):
            prep = real_prepare(config)
            panels.append(weakref.ref(prep.panel))
            return prep

        def write(bundle, out_dir, **started):
            alive.append(panels[0]() is not None)
            return real_write(bundle, out_dir, **started)

        monkeypatch.setattr(pipeline_mod, "prepare_panel", prepare_panel)
        monkeypatch.setattr(pipeline_mod.ReportBundle, "write", write)
        config = PipelineConfig.from_json(base_config.to_json())
        config.out_dir = str(tmp_path / "report")
        run_pipeline(config)
        assert alive == [False]

    def test_unexpected_stage_error_propagates(self, base_config, monkeypatch):
        # only DataError and NumericalError are per-slice failures; a bug
        # in a stage must surface rather than land in run_log
        def broken(*args, **kwargs):
            raise TypeError("stage bug")

        monkeypatch.setattr("intradayvol.pipeline.cumulants_over_days", broken)
        with pytest.raises(TypeError, match="stage bug"):
            run_pipeline(base_config, write=False)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, base_config):
        files1 = run_pipeline(base_config, write=False).files()
        files2 = run_pipeline(base_config, write=False).files()
        assert files1.keys() == files2.keys()
        for rel in files1:
            assert files1[rel] == files2[rel], rel

    def test_jobs_do_not_change_bundle(self, base_config):
        serial = PipelineConfig.from_json(base_config.to_json())
        serial.jobs = 1
        threaded = PipelineConfig.from_json(base_config.to_json())
        threaded.jobs = 4
        files1 = run_pipeline(serial, write=False).files()
        files2 = run_pipeline(threaded, write=False).files()
        assert files1 == files2

    def test_slices_run_on_the_calling_thread(self, base_config, monkeypatch):
        threads = {}

        def record(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        record(pipeline_mod, "cumulants_over_days")
        record(pipeline_mod, "cumulants_over_companies")
        record(metrics_mod, "daily_ohlc")
        config = PipelineConfig.from_json(dict(base_config.to_json(), jobs=4))
        run_pipeline(config, write=False)
        caller = {threading.get_ident()}
        assert threads == {"cumulants_over_days": caller,
                           "cumulants_over_companies": caller,
                           "daily_ohlc": caller}


class TestPureEmission:
    def test_files_is_pure(self, base_config):
        bundle = run_pipeline(base_config, write=False)
        run_log, normalizers = list(bundle.run_log), dict(bundle.normalizers)
        first = bundle.files()
        events = json.loads(first["run_log.json"])["events"]
        assert any(e.startswith("figure ") for e in events)  # a skip is logged
        assert bundle.files() == first
        assert bundle.run_log == run_log
        assert bundle.normalizers == normalizers

    def test_figures_are_formatted_when_the_files_are(self, base_config, monkeypatch):
        calls = []
        emit = pipeline_mod._FIGURES["fig1"]
        monkeypatch.setitem(pipeline_mod._FIGURES, "fig1",
                            lambda b: calls.append(b) or emit(b))
        bundle = run_pipeline(base_config, write=False)
        assert len(calls) == 0
        assert "figures/fig1.csv" in bundle.files()
        assert len(calls) == 1
        bundle.files()
        assert len(calls) == 2

    def test_xsection_figures_equal_their_files(self, report):
        bundle, _ = report
        files = bundle.files()
        for fig, name in (("fig13", "variance_ratio.csv"), ("fig15", "kurtosis_tail.csv"),
                          ("fig16", "kurtosis_curve.csv")):
            assert files[f"figures/{fig}.csv"] == files[f"xsection/{name}"], fig
            # the figure's own emitter, which files() does not call for it
            assert emit_figure_series(bundle, fig).encode() == files[f"xsection/{name}"], fig

    def test_bundle_is_frozen(self, report):
        bundle, _ = report
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.tests = {}
        other = dataclasses.replace(bundle, run_log=["an event"])
        assert other.run_log == ["an event"] and other.tests is bundle.tests
        assert json.loads(other.files()["run_log.json"])["events"][0] == "an event"

    def test_unwritten_bundle_has_normalizers(self, report, base_config):
        _, out = report
        manifest = json.loads((out / "manifest.json").read_text())
        bundle = run_pipeline(base_config, write=False)
        assert bundle.normalizers
        assert bundle.normalizers == manifest["normalizers"]


class TestMinuteCsv:
    """The per-minute CSV writers against one _fmt call per cell."""

    @staticmethod
    def _columns(seed, n):
        rng = np.random.default_rng(seed)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 1 / 3, 123456789.0]
        out = []
        for _ in range(n):
            col = rng.normal(size=SESSION_MINUTES) * 10.0 ** rng.integers(-5, 6)
            col[rng.integers(0, SESSION_MINUTES, 20)] = rng.choice(special, 20)
            out.append(col)
        return out

    def test_keyed_and_unkeyed_blocks(self):
        fmt, csv_text = pipeline_mod._fmt, pipeline_mod._csv_text
        ratio = dict(zip((3, 1, 12), self._columns(1, 3)))
        assert pipeline_mod.variance_ratio_csv(ratio) == csv_text(
            ["semester", "t", "variance_ratio"],
            [[s, t, fmt(ratio[s][t])] for s in sorted(ratio) for t in range(SESSION_MINUTES)])
        (curve,) = self._columns(2, 1)
        assert pipeline_mod.kurtosis_curve_csv(curve) == csv_text(
            ["t", "mean_kurtosis"], [[t, fmt(curve[t])] for t in range(SESSION_MINUTES)])
        wide = self._columns(3, 4)
        header = ["t", "s01", "s02", "s03", "s04"]
        assert pipeline_mod._minute_csv(header, [(None, wide)]) == csv_text(
            header, [[t] + [fmt(c[t]) for c in wide] for t in range(SESSION_MINUTES)])


class TestFigures:
    def test_unknown_figure_id(self, report):
        bundle, out = report
        with pytest.raises(UnknownFigure):
            emit_figure_series(bundle, "fig99")
        with pytest.raises(UnknownFigure):
            load_figure_csv(out, "fig0")

    def test_regime_series_columns(self, report):
        bundle, _ = report
        text = emit_figure_series(bundle, "fig2")
        lines = text.strip().split("\r\n")
        assert lines[0] == "semester,alpha,branch,branch_mean"
        branches = [line.split(",")[2] for line in lines[1:]]
        assert branches == ["pre", "pre", "post", "post"]

    def test_wide_profile_columns(self, report):
        bundle, _ = report
        text = emit_figure_series(bundle, "fig1")
        header = text.split("\r\n", 1)[0]
        assert header == "t,s01,s02,s03,s04"
        assert text.count("\r\n") == SESSION_MINUTES + 1

    def test_load_round_trips_written_figure(self, report):
        bundle, out = report
        assert load_figure_csv(out, "fig3") == (out / "figures/fig3.csv").read_bytes()

    def test_missing_upstream_when_file_absent(self, report, tmp_path):
        _, out = report
        with pytest.raises(MissingUpstream, match="run_log"):
            load_figure_csv(tmp_path, "fig1")

    @pytest.mark.parametrize("kind, state", [("absent", "missing"),
                                             ("file", "not a directory")])
    def test_report_path_not_a_bundle_directory(self, tmp_path, capsys, kind, state):
        path = tmp_path / "report"
        if kind == "file":
            path.write_text("not a bundle\n")
        assert main(["figure", "--report", str(path), "--id", "fig1"]) == 2
        err = capsys.readouterr().err
        assert f"report bundle {path} is {state}" in err
        assert "run_log" not in err

    def test_all_emitted_figures_listed_in_manifest(self, report):
        _, out = report
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {rel for rel in manifest["files"] if rel.startswith("figures/")}
        assert emitted <= {f"figures/{f}.csv" for f in FIGURE_IDS}
        assert "figures/fig1.csv" in emitted


def _tree(root: Path) -> dict[str, tuple[bytes, int]]:
    """relpath -> (bytes, mtime in ns) of every file under root."""
    return {p.relative_to(root).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


class TestBundleDirectory:
    """A bundle directory holds exactly one run's files, or the previous run's."""

    _TAIL_FILES = {"figures/fig15.csv", "figures/fig16.csv", "xsection/kurtosis_curve.csv"}

    def test_rerun_drops_files_the_new_run_does_not_emit(self, capsys, tmp_path,
                                                         base_config):
        out = tmp_path / "report"
        config_file = tmp_path / "config.json"
        argv = ["report", "--config", str(config_file), "--out", str(out)]
        doc = base_config.to_json()
        config_file.write_text(json.dumps(doc))
        assert main(argv) == 0
        assert self._TAIL_FILES <= set(_tree(out))

        doc["kurtosis_tail_excluded_semesters"] = [1, 2, 3, 4]
        config_file.write_text(json.dumps(doc))
        assert main(argv) == 0
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert set(_tree(out)) == set(listed) | {"manifest.json"}
        assert not self._TAIL_FILES & set(listed)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report"]
        capsys.readouterr()
        assert main(["figure", "--report", str(out), "--id", "fig16"]) == 2
        assert "fig16.csv not in bundle" in capsys.readouterr().err

    def test_failed_write_leaves_the_previous_bundle(self, tmp_path, report):
        bundle, _ = report
        out = tmp_path / "report"
        bundle.write(out)
        before = _tree(out)
        config = PipelineConfig.from_json(bundle.config.to_json())
        config.kurtosis_tail_t_min += 1
        other = dataclasses.replace(bundle, config=config)
        real_write = Path.write_bytes
        written = []

        def write_bytes(path, data):
            written.append(path)
            if len(written) == 5:
                raise OSError("disk full")
            return real_write(path, data)

        with mock.patch.object(Path, "write_bytes", write_bytes), \
                pytest.raises(OSError, match="disk full"):
            other.write(out)
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_written_files_are_files_plus_the_manifest(self, tmp_path, report):
        bundle, _ = report
        out = bundle.write(tmp_path / "report")
        files = bundle.files()
        on_disk = {rel: data for rel, (data, _) in _tree(out).items()}
        manifest = json.loads(on_disk.pop("manifest.json"))
        assert on_disk == files
        assert manifest == {
            "config_hash": bundle.config.config_hash(),
            "normalizers": bundle.normalizers,
            "files": {rel: hashlib.sha256(data).hexdigest() for rel, data in files.items()}}

    def test_failed_formatting_leaves_the_previous_bundle(self, tmp_path, monkeypatch,
                                                          report):
        bundle, _ = report
        out = tmp_path / "report"
        bundle.write(out)
        before = _tree(out)
        real_format = pipeline_mod.profile_csv_bytes
        calls = []

        def profile_csv_bytes(profile):
            calls.append(profile)
            if len(calls) == 3:
                raise RuntimeError("formatting failed")
            return real_format(profile)

        monkeypatch.setattr(pipeline_mod, "profile_csv_bytes", profile_csv_bytes)
        with pytest.raises(RuntimeError, match="formatting failed"):
            bundle.write(out)
        assert len(calls) == 3
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_directory_that_is_not_a_bundle_is_kept(self, tmp_path, report):
        (tmp_path / "panel.csv").write_text("x\n")
        with pytest.raises(DataError, match="not a report bundle"):
            report[0].write(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["panel.csv"]

    @pytest.mark.parametrize("manifest", [
        b'{"name": "app", "version": "1.0"}',
        b"not json",
        b"[]",
        # bundle-shaped, but app.js is not one of its files
        b'{"config_hash": "x", "files": {"figures/fig1.csv": "0"}}',
    ])
    def test_directory_with_a_foreign_manifest_is_kept(self, tmp_path, report, manifest):
        out = tmp_path / "app"
        out.mkdir()
        (out / "manifest.json").write_bytes(manifest)
        (out / "app.js").write_text("x\n")
        with pytest.raises(DataError, match="not a report bundle"):
            report[0].write(out)
        assert _tree(out).keys() == {"manifest.json", "app.js"}
        assert (out / "manifest.json").read_bytes() == manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["app"]

    def test_file_added_to_a_bundle_keeps_it(self, tmp_path, report):
        out = report[0].write(tmp_path / "report")
        (out / "figures" / "notes.txt").write_text("mine\n")
        with pytest.raises(DataError, match="not a report bundle"):
            report[0].write(out)
        assert (out / "figures" / "notes.txt").read_text() == "mine\n"

    def test_symlinked_out_replaces_its_target(self, tmp_path, report):
        bundle, _ = report
        real, link = tmp_path / "real", tmp_path / "link"
        real.mkdir()
        link.symlink_to(real, target_is_directory=True)
        assert bundle.write(link) == real
        first = _tree(real)
        assert bundle.write(link) == real
        assert link.is_symlink() and link.resolve() == real
        assert {rel: data for rel, (data, _) in _tree(real).items()} == \
            {rel: data for rel, (data, _) in first.items()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    def test_working_directory_is_kept(self, tmp_path, monkeypatch, report):
        # replacing it would leave the process in a deleted directory
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        monkeypatch.chdir(tmp_path / "sub")
        for out in (".", "..", tmp_path / "link" / "sub", tmp_path / "link"):
            with pytest.raises(DataError, match="holds the working directory"):
                report[0].write(out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    def test_write_removes_what_killed_writes_left(self, tmp_path, report):
        bundle, _ = report
        dead = []
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)  # reaped: no process has this pid now
            dead.append(pid)
        live = os.getppid()
        old = bundle.write(tmp_path / "previous")
        for pid in (dead[0], live):
            shutil.copytree(old, tmp_path / f".report.{pid}.old")
            (tmp_path / f".report.{pid}.new" / "figures").mkdir(parents=True)
        shutil.copytree(old, tmp_path / f".report.{dead[1]}.old")
        (tmp_path / f".report.{dead[1]}.old" / "notes.txt").write_text("mine\n")
        (tmp_path / f".other.{dead[0]}.new").mkdir()
        bundle.write(tmp_path / "report")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            "previous", "report", f".report.{live}.old", f".report.{live}.new",
            f".report.{dead[1]}.old", f".other.{dead[0]}.new"])

    def test_figure_must_match_its_manifest_hash(self, tmp_path, report):
        out = report[0].write(tmp_path / "report")
        (out / "figures" / "fig3.csv").write_bytes(b"edited\r\n")
        with pytest.raises(CorruptBundle, match="SHA-256"):
            load_figure_csv(out, "fig3")
        (out / "manifest.json").write_text("{")
        with pytest.raises(CorruptBundle, match="manifest.json"):
            load_figure_csv(out, "fig2")


def _bundle_variant(bundle, variant: str):
    """The module's bundle (it skips a figure), or a copy of it without
    the cross-section series or without anything a figure plots."""
    if variant == "empty_xsection":
        return dataclasses.replace(bundle, var_ratio={}, kurt_tail={}, kurt_curve=None)
    if variant == "no_figures":
        return dataclasses.replace(
            bundle, ticker_mean={}, day_mean={}, metrics_rows=[], var_ratio={},
            kurt_tail={}, kurt_curve=None,
            semester_fits={s: {} for s in bundle.semesters})
    return bundle


def _skipped(files) -> list[str]:
    return [e.split()[1] for e in json.loads(files["run_log.json"])["events"]
            if e.startswith("figure ")]


class TestBundleHelper:
    """ReportBundle.write with and without the helper that does a share of
    its jobs (the autouse no_child_process_left fixture checks that the
    helper was reaped)."""

    @staticmethod
    def _written(out: Path) -> dict[str, bytes]:
        return {rel: data for rel, (data, _) in _tree(out).items()}

    @pytest.mark.parametrize("variant", ["report", "empty_xsection", "no_figures"])
    @pytest.mark.parametrize("helper", [False, pytest.param(True, marks=needs_helper)])
    def test_tree_is_files_plus_the_manifest(self, tmp_path, report, variant, helper,
                                             monkeypatch):
        bundle = _bundle_variant(report[0], variant)
        parent, real_job = os.getpid(), pipeline_mod._write_job

        def write_job(staging, job):
            # slowed in this process, so that the helper takes a job even
            # when its CPU is busy and the bundle has few jobs
            if os.getpid() == parent:
                time.sleep(0.01)
            return real_job(staging, job)

        monkeypatch.setattr(pipeline_mod, "_write_job", write_job)
        answered = []
        with (nullcontext() if helper else one_cpu()), counting_answers(answered):
            out = bundle.write(tmp_path / "report")
        assert any(answered) == helper
        files = bundle.files()
        on_disk = self._written(out)
        manifest = json.loads(on_disk.pop("manifest.json"))
        assert on_disk == files
        assert manifest["files"] == {rel: hashlib.sha256(data).hexdigest()
                                     for rel, data in files.items()}
        skipped = _skipped(files)
        assert skipped == [fig for fig in FIGURE_IDS if f"figures/{fig}.csv" not in files]
        if variant == "empty_xsection":
            assert skipped[-3:] == ["fig13", "fig15", "fig16"]
            assert files["xsection/variance_ratio.csv"] == b"semester,t,variance_ratio\r\n"
        if variant == "no_figures":
            assert skipped == list(FIGURE_IDS)
            assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
                "profiles", "xsection"]

    def test_bundle_is_whole_when_the_helper_dies(self, tmp_path, report, monkeypatch):
        # the helper dies after its third answer, holding its fourth job;
        # this process, slowed so that the helper takes them, does that job
        # again
        bundle, _ = report
        parent, real_job, taken = os.getpid(), pipeline_mod._write_job, []

        def write_job(staging, job):
            if os.getpid() == parent:
                time.sleep(0.01)
            elif len(taken) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            taken.append(job)  # the helper's own copy of the list
            return real_job(staging, job)

        monkeypatch.setattr(pipeline_mod, "_write_job", write_job)
        answered = []
        with counting_answers(answered):
            out = bundle.write(tmp_path / "report")
        if HELPER_RUNS:
            assert answered == [True] * 3 + [False]
        on_disk = self._written(out)
        on_disk.pop("manifest.json")
        assert on_disk == bundle.files()
        assert self._written(out) == self._written(report[1])

    def test_failed_job_leaves_the_previous_bundle(self, tmp_path, report):
        bundle, _ = report
        out = bundle.write(tmp_path / "report")
        before = _tree(out)
        real_write = Path.write_bytes

        def write_bytes(path, data):
            if path.name == "fig3.csv":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(path, data)

        # fig3 is a job of this process, which fails before it gathers the
        # helper's answers
        helpers = []
        with mock.patch.object(Path, "write_bytes", write_bytes), started_helpers(helpers), \
                pytest.raises(OSError, match="No space left"):
            bundle.write(out)
        assert len(helpers) == HELPER_RUNS
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_stage_error_after_the_helper_started(self, tmp_path, report, monkeypatch):
        # a bug in a later stage surfaces; the started write leaves the
        # previous bundle and no staging directory
        bundle, _ = report
        out = bundle.write(tmp_path / "report")
        before = _tree(out)

        def semester_fits(*args):
            raise RuntimeError("stage bug")

        monkeypatch.setattr(pipeline_mod.Stages, "semester_fits", semester_fits)
        config = PipelineConfig.from_json(bundle.config.to_json())
        config.out_dir = str(out)
        helpers = []
        with started_helpers(helpers), pytest.raises(RuntimeError, match="stage bug"):
            run_pipeline(config)
        assert len(helpers) == 2 * HELPER_RUNS  # the load's and the bundle's
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["report"]

    def test_unwritten_bundle_writes_the_report_tree(self, tmp_path, report, base_config):
        # a write started and finished with nothing between gives the tree
        # of one that overlapped the later stages
        out = run_pipeline(base_config, write=False).write(tmp_path / "report")
        assert self._written(out) == self._written(report[1])

    def test_no_file_or_pipe_left_open_in_either_process(self, tmp_path, report,
                                                          base_config):
        doc = base_config.to_json()
        doc["out_dir"] = str(tmp_path / "report")
        code = ("import json, sys\n"
                "from intradayvol.pipeline import PipelineConfig, run_pipeline\n"
                "run_pipeline(PipelineConfig.from_json(json.loads(sys.argv[1])))\n")
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-c", code, json.dumps(doc)], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr
        assert self._written(tmp_path / "report") == self._written(report[1])


def _cli_argv(tmp_path: Path, panel_csv, command: str, out: Path) -> list[str]:
    """The argv of `report` (with the panel's semester config) or `ingest`
    on the module's panel, writing to out."""
    path, boundaries = panel_csv
    argv = [command, str(path), "--out", str(out)]
    if command == "report":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"semester_boundaries": boundaries,
                                      "regime_boundary_semester": 2}))
        argv += ["--config", str(config)]
    return argv


class TestLeanFloor:
    """SHA-256 comes from the interpreter's own module, so a CLI process
    never loads OpenSSL."""

    # runs the CLI, then prints whether hashlib or libcrypto got loaded
    _CHILD = ("import json, os, sys\n"
              "from intradayvol.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "maps = '/proc/self/maps'\n"
              "text = open(maps).read() if os.path.exists(maps) else ''\n"
              "print(json.dumps({'code': code,\n"
              "                  'modules': sorted({'hashlib', '_hashlib'} & set(sys.modules)),\n"
              "                  'libcrypto': 'libcrypto' in text}))\n")

    def test_sha256_matches_hashlib(self):
        for data in (b"", b"\x00", bytes(range(256)) * 5000):
            assert pipeline_mod.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    @pytest.mark.skipif(pipeline_mod.sha256.__module__ not in ("_sha2", "_sha256"),
                        reason="this interpreter has no built-in SHA-256 module")
    @pytest.mark.parametrize("command", ["report", "ingest"])
    def test_cli_never_loads_openssl(self, tmp_path, panel_csv, command):
        argv = _cli_argv(tmp_path, panel_csv, command, tmp_path / "out")
        done = subprocess.run([sys.executable, "-c", self._CHILD, *argv],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"code": 0, "modules": [], "libcrypto": False}


class TestHeapFreeze:
    """Only the process entry, main() with no argv, freezes the heap; a
    caller that passes argv keeps its heap collectable."""

    # registers an exit hook that prints the freeze count, then runs the
    # CLI by sys.argv[1] entry ("module": as __main__ with no argv,
    # "argv": main(argv) in process) on the rest of sys.argv
    _CHILD = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
              "entry, sys.argv = sys.argv[1], ['intradayvol', *sys.argv[2:]]\n"
              "if entry == 'module':\n"
              "    runpy.run_module('intradayvol.cli', run_name='__main__')\n"
              "else:\n"
              "    from intradayvol.cli import main\n"
              "    sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("entry, frozen", [("module", True), ("argv", False)])
    def test_only_the_process_entry_freezes(self, entry, frozen):
        argv = ["tests", "--sample-1", "1,2,3", "--sample-2", "4,5,7"]
        done = subprocess.run([sys.executable, "-c", self._CHILD, entry, *argv],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert '"welch"' in done.stdout
        count = int(done.stdout.splitlines()[-1].removeprefix("frozen "))
        assert (count > 0) == frozen

    @pytest.mark.parametrize("command", ["report", "ingest"])
    def test_frozen_process_writes_the_in_process_bytes(self, tmp_path, panel_csv,
                                                        capsys, command):
        before = gc.get_freeze_count()
        assert main(_cli_argv(tmp_path, panel_csv, command, tmp_path / "in")) == 0
        assert gc.get_freeze_count() == before
        capsys.readouterr()
        argv = _cli_argv(tmp_path, panel_csv, command, tmp_path / "cli")
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-m", "intradayvol.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr
        written = TestBundleHelper._written
        assert written(tmp_path / "cli") == written(tmp_path / "in")


class TestCli:
    def test_usage_errors_exit_1(self, capsys):
        assert main([]) == 1
        assert main(["bogus"]) == 1
        assert main(["fit", "--model", "sigmoid", "--semester", "1"]) == 1
        capsys.readouterr()

    def test_missing_input_exits_2(self, capsys):
        assert main(["ingest"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unreadable_path_exits_2(self, capsys, tmp_path):
        assert main(["ingest", str(tmp_path / "absent.csv")]) == 2
        capsys.readouterr()

    def test_report_with_every_pair_excluded_exits_2(self, capsys, tmp_path, base_config):
        # no (ticker, semester) pair yields a profile: the run fails whole
        doc = base_config.to_json()
        doc["ticker_exclusions"] = {str(s): ["C00", "C01", "C02"] for s in range(1, 5)}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "report"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "data error: every (ticker, semester) computation failed\n"
        assert not out.exists()

    def test_numerical_failure_exits_3(self, capsys):
        code = main(["tests", "--sample-1", "1,1,1", "--sample-2", "1,1,1",
                     "--test", "welch"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, files, message", [
        (["report", "--config", "c.json"], {"c.json": '{"opening_window": 5}'},
         "opening_window must be a [first, last] pair"),
        (["report", "--config", "c.json"], {"c.json": '{"min_day_coverage": "high"}'},
         "min_day_coverage must be a number"),
        (["report", "--config", "c.json"], {"c.json": '{"confidence": "0.9"}'},
         "confidence must be a number"),
        (["report", "--config", "c.json"], {"c.json": '{"ticker_exclusions": {"x": ["C00"]}}'},
         "ticker_exclusions must be an object of semester numbers"),
        (["report", "--config", "c.json"],
         {"c.json": '{"semester_boundaries": [["2004-01-05", "2004-99-01"]]}'},
         "semester_boundaries must be null or a list of [first, last] ISO dates"),
        (["report", "--config", "c.json"], {"c.json": '["jobs"]'}, "must be a JSON object"),
        (["report", "--config", "c.json"], {"c.json": "[]"}, "must be a JSON object"),
        (["synth", "--spec", "missing.json"], {}, "spec file missing.json not found"),
        (["synth", "--spec", "s.json"], {"s.json": "{not json"}, "s.json is not valid JSON"),
        (["tests", "--sample-1", "@missing.txt", "--sample-2", "1,2"], {},
         "sample file missing.txt is not readable"),
        (["tests", "--sample-1", "1,2,3", "--sample-2", "4,5,6", "--confidence", "1.5"], {},
         "--confidence must be in (0, 1)"),
        (["tests", "--sample-1", "1,2,3", "--sample-2", "4,5,6", "--confidence", "nan"], {},
         "--confidence must be in (0, 1)"),
        (["profile", "--day", "2004-13-45"], {}, "'2004-13-45' is not an ISO date"),
        (["synth", "--spec", "s.json"], {"s.json": "[]"}, "spec must be a JSON object"),
        (["synth", "--spec", "s.json"], {"s.json": "{}"}, "spec needs n_companies"),
        (["synth", "--spec", "s.json"], {"s.json": '{"n_companies": 2, "intensity": {"bogus": 1}}'},
         "unknown spec intensity keys: ['bogus']"),
        (["synth", "--spec", "s.json"], {"s.json": '{"n_companies": "2"}'},
         "spec field n_companies must be an integer"),
        (["validate", "--config", "c.json"], {"c.json": '{"min_day_coverage": 7}'},
         "min_day_coverage 7 outside [0, 1]"),
        (["validate", "--config", "c.json"], {"c.json": '{"min_day_coverage": NaN}'},
         "min_day_coverage nan outside [0, 1]"),
        (["report", "--config", "c.json"], {"c.json": '{"kurtosis_tail_t_min": -5}'},
         "kurtosis_tail_t_min -5 outside 0..389"),
        (["report", "--config", "c.json"],
         {"c.json": '{"kurtosis_afternoon_window": [100, 200]}'},
         "kurtosis_afternoon_window (100, 200) must sit inside (290, 390]"),
        (["report", "--config", "c.json"], {"c.json": '{"kurtosis_morning_window": [0, 99]}'},
         "kurtosis_morning_window (0, 99) must start after minute 0"),
        (["report", "--config", "c.json"], {"c.json": '{"opening_window": [0, 100]}'},
         "opening_window (0, 100) with opening_time_offset 0.0 must start after minute 0"),
        (["report", "--config", "c.json"],
         {"c.json": '{"opening_window": [2, 100], "opening_time_offset": -2}'},
         "opening_window (2, 100) with opening_time_offset -2 must start after minute 0"),
        (["report", "--config", "c.json"], {"c.json": '{"opening_time_offset": NaN}'},
         "with opening_time_offset nan must start after minute 0"),
        (["validate", "--config", "c.json"], {"c.json": '{"opening_time_offset": Infinity}'},
         "with opening_time_offset inf must start after minute 0"),
        (["report", "--config", "c.json"], {"c.json": '{"return_convention": "open"}'},
         "return_convention 'open' is not one of close-denominator, open-denominator"),
        (["report", "--config", "c.json"], {"c.json": '{"time_format": "clok"}'},
         "time_format 'clok' is not one of auto, clock, index"),
        (["report", "--config", "c.json"], {"c.json": '{"schema": {"tiker": "symbol"}}'},
         "unknown schema fields ['tiker']; known: ticker, date, time, volume"),
        (["tests", "--sample-1", "1,2,nan", "--sample-2", "3,4,5"], {},
         "sample values must be finite, got nan"),
        (["tests", "--sample-1", "1,2,3", "--sample-2", "@s.txt"], {"s.txt": "3 4\n-inf\n"},
         "sample values must be finite, got -inf"),
        (["report", "--config", "c.json"],
         {"c.json": '{"semester_boundaries": [["20040101", "20040630"]]}'},
         "semester_boundaries must be null or a list of [first, last] ISO dates (YYYY-MM-DD)"),
        (["profile", "--day", "20040105"], {}, "'20040105' is not an ISO date (YYYY-MM-DD)"),
    ])
    def test_malformed_input_exits_2(self, capsys, tmp_path, monkeypatch, argv, files,
                                     message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert message in err

    def test_tests_command_prints_both_tests(self, capsys):
        code = main(["tests", "--sample-1", "0.29,0.30,0.28,0.29",
                     "--sample-2", "0.37,0.38,0.36,0.37"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"welch", "mww"}
        assert doc["welch"]["reject_null"] is True

    def test_tests_command_reads_sample_files(self, capsys, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("1 2 3\n4,5\n")
        code = main(["tests", "--sample-1", f"@{f}", "--sample-2", "6,7,8",
                     "--test", "welch"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["welch"]["sample_sizes"] == [5, 3]

    def test_synth_ingest_fit_chain(self, capsys, tmp_path):
        synth_dir = tmp_path / "synth"
        code = main(["synth", "--companies", "3", "--days", "10", "--seed", "9",
                     "--out", str(synth_dir)])
        assert code == 0
        assert (synth_dir / "panel.csv").exists()
        assert (synth_dir / "ground_truth.json").exists()

        out2 = tmp_path / "ingest"
        assert main(["ingest", str(synth_dir / "panel.csv"),
                     "--out", str(out2)]) == 0
        assert (out2 / "panel.csv").exists()

        capsys.readouterr()
        code = main(["fit", str(synth_dir / "panel.csv"), "--model", "opening",
                     "--semester", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "alpha" in doc["coefficients"]

    def test_ingest_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        # a one-ticker canonical file: with the mark hiding its ticker
        # column it would load as a per-symbol file named after its stem
        write_panel_csv(generate_panel(GeneratorSpec(
            n_companies=1, n_days=3, seed=4, price_model="gbm",
            intensity=IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.3)))[0],
            tmp_path / "want.csv")
        want = (tmp_path / "want.csv").read_bytes()
        (tmp_path / "panel.csv").write_bytes(b"\xef\xbb\xbf" + want)
        assert main(["ingest", str(tmp_path / "panel.csv"), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "panel.csv").read_bytes() == want

    def test_synth_spec_file(self, capsys, tmp_path):
        doc = {"n_companies": 2, "n_days": 4, "seed": 3, "n_semesters": 2,
               "price_model": "gbm", "start_price": 50,
               "intensity": {"opening_amplitude": 500.0, "opening_exponent": 0.3,
                             "baseline": 10},
               "noise": {"kind": "gamma", "shape": 4.0},
               "overrides": {"2": {"opening_amplitude": 900.0, "baseline": 10}}}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        spec = GeneratorSpec(
            n_companies=2, n_days=4, seed=3, n_semesters=2, price_model="gbm",
            start_price=50,
            intensity=IntensitySpec(opening_amplitude=500.0, opening_exponent=0.3, baseline=10),
            noise=NoiseSpec(kind="gamma", shape=4.0),
            overrides={2: IntensitySpec(opening_amplitude=900.0, baseline=10)})
        write_panel_csv(generate_panel(spec)[0], tmp_path / "want.csv")
        assert (tmp_path / "out" / "panel.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_validate_command(self, capsys, tmp_path):
        synth_dir = tmp_path / "synth"
        main(["synth", "--companies", "2", "--days", "6", "--out", str(synth_dir)])
        capsys.readouterr()
        out = tmp_path / "val"
        code = main(["validate", str(synth_dir / "panel.csv"),
                     "--min-day-coverage", "0.9", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "validation.json").read_text())
        assert doc["pairs"]
        capsys.readouterr()

    def test_report_and_figure_commands(self, capsys, tmp_path, panel_csv):
        path, boundaries = panel_csv
        config_doc = {
            "input_paths": [str(path)],
            "semester_boundaries": boundaries,
            "regime_boundary_semester": 2,
            "kurtosis_tail_excluded_semesters": [],
            "out_dir": str(tmp_path / "report"),
        }
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config_doc))
        assert main(["report", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "report ->" in out
        assert (tmp_path / "report" / "manifest.json").exists()

        assert main(["figure", "--report", str(tmp_path / "report"),
                     "--id", "fig2"]) == 0
        assert capsys.readouterr().out.startswith("semester,alpha")

        assert main(["figure", "--report", str(tmp_path / "report"),
                     "--id", "fig99"]) == 2
        capsys.readouterr()


class TestStageCommands:
    """The single-stage commands write the bytes of the matching bundle file."""

    @pytest.fixture(scope="class")
    def config_file(self, tmp_path_factory, base_config):
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(base_config.to_json()))
        return path

    def test_metrics(self, capsys, tmp_path, report, config_file):
        _, bundle_dir = report
        assert main(["metrics", "--config", str(config_file), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "metrics.csv").read_bytes() == \
            (bundle_dir / "metrics.csv").read_bytes()

    def test_metrics_for_one_ticker(self, capsys, tmp_path, report, config_file):
        _, bundle_dir = report
        assert main(["metrics", "--config", str(config_file), "--ticker", "C01",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        header, *rows = (bundle_dir / "metrics.csv").read_bytes().splitlines(keepends=True)
        expected = header + b"".join(r for r in rows if r.startswith(b"C01,"))
        assert (tmp_path / "metrics.csv").read_bytes() == expected

    @pytest.mark.parametrize("ticker, profiled", [("C01", {"C01"}), ("ZZZ", set())])
    def test_metrics_for_one_ticker_profiles_only_it(self, capsys, tmp_path, monkeypatch,
                                                     config_file, ticker, profiled):
        seen = set()
        over_days = pipeline_mod.cumulants_over_days

        def counting(panel, index, t, s, **kwargs):
            seen.add(t)
            return over_days(panel, index, t, s, **kwargs)
        monkeypatch.setattr(pipeline_mod, "cumulants_over_days", counting)
        assert main(["metrics", "--config", str(config_file), "--ticker", ticker,
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert seen == profiled
        if not profiled:  # an unknown ticker gives the header alone
            assert (tmp_path / "metrics.csv").read_bytes().count(b"\n") == 1

    @pytest.mark.parametrize("tail_excluded", [[], [1, 2, 3, 4]])
    def test_xsection(self, capsys, tmp_path, base_config, tail_excluded):
        # excluding every semester from the kurtosis tail is a logged,
        # skipped slice in both the bundle and the command
        config = PipelineConfig.from_json(dict(
            base_config.to_json(), kurtosis_tail_excluded_semesters=tail_excluded,
            out_dir=str(tmp_path / "bundle")))
        bundle = run_pipeline(config)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config.to_json()))
        out = tmp_path / "xsection"
        assert main(["xsection", "--config", str(config_file), "--out", str(out)]) == 0
        assert ("kurtosis tail" in capsys.readouterr().err) == bool(tail_excluded)
        expected = {f"s{s:02d}_day_mean.csv": f"profiles/s{s:02d}_day_mean.csv"
                    for s in bundle.semesters}
        expected.update({name: f"xsection/{name}" for name in (
            "variance_ratio.csv", "kurtosis_tail.csv", "kurtosis_curve.csv")
            if (tmp_path / "bundle" / "xsection" / name).exists()})
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, rel in expected.items():
            assert (out / name).read_bytes() == (tmp_path / "bundle" / rel).read_bytes(), name

    @pytest.mark.parametrize("kind", ["ticker-mean", "day-mean"])
    def test_aggregate_profile(self, capsys, tmp_path, report, config_file, kind):
        _, bundle_dir = report
        assert main(["profile", "--config", str(config_file), "--semester", "2",
                     "--kind", kind, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        name = f"s02_{kind.replace('-', '_')}.csv"
        assert (tmp_path / f"profile_{name}").read_bytes() == \
            (bundle_dir / "profiles" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["day", "ticker"])
    def test_slice_profile(self, capsys, tmp_path, base_config, config_file, kind):
        # the command's files are the library's profile of the slice
        prep = prepare_panel(base_config)
        if kind == "day":  # the semester is the day's
            day = prep.panel.days[semester_day_indices(prep.panel, prep.index, 3)[0]]
            flags = ["--day", day.isoformat()]
            name = f"profile_s03_day_{day.isoformat()}"
            want = cumulants_over_companies(prep.panel, prep.index, day, 3)
        else:
            flags = ["--ticker", "C01", "--semester", "2"]
            name = "profile_s02_C01"
            want = cumulants_over_days(prep.panel, prep.index, "C01", 2)
        assert main(["profile", "--config", str(config_file), *flags,
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == profile_csv_bytes(want)
        assert (tmp_path / f"{name}.json").read_bytes() == dump_json(profile_metadata(want))

    @pytest.mark.parametrize("model", ["opening", "closing", "quartic"])
    def test_fit(self, capsys, report, config_file, model):
        _, bundle_dir = report
        fits = json.loads((bundle_dir / "fits.json").read_text())
        assert main(["fit", "--config", str(config_file), "--semester", "3",
                     "--model", model]) == 0
        assert json.loads(capsys.readouterr().out) == fits["3"][model]

    def test_failed_fit_exits_3_with_the_bundle_error(self, capsys, report, config_file):
        # the morning kurtosis fit fails on this panel (fits.json records it)
        _, bundle_dir = report
        error = json.loads((bundle_dir / "fits.json").read_text())["3"]["kurtosis_morning"]
        error_type, message = error["error"].split(": ", 1)
        assert error_type == "MorningNonPositive"
        assert main(["fit", "--config", str(config_file), "--semester", "3",
                     "--model", "kurtosis"]) == 3
        assert capsys.readouterr().err.strip() == f"numerical failure: {message}"

    def test_shapes(self, capsys, report, config_file):
        _, bundle_dir = report
        entry = json.loads((bundle_dir / "fits.json").read_text())["1"]
        assert main(["shapes", "--config", str(config_file), "--semester", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"quartic": entry["quartic"], "shapes": entry["shapes"]}

    def test_semester_without_days_exits_2(self, capsys, config_file):
        assert main(["shapes", "--config", str(config_file), "--semester", "9"]) == 2
        assert "semester 9" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_invalid_jobs_flag_exits_2(self, capsys, tmp_path, config_file, jobs):
        assert main(["report", "--config", str(config_file), "--jobs", jobs,
                     "--out", str(tmp_path)]) == 2
        assert "data error: jobs must be >= 1" in capsys.readouterr().err

    def test_validate_applies_config_and_coverage_flag(self, capsys, tmp_path):
        panel, truth = generate_panel(GeneratorSpec(
            n_companies=2, n_days=6, n_semesters=3, seed=3,
            intensity=IntensitySpec(baseline=50.0)))
        first, last = truth.boundaries[1]
        thin_days = [j for j, d in enumerate(panel.days) if first <= d <= last]
        arrays = {name: getattr(panel, name).copy()
                  for name in ("volume", "open", "high", "low", "close")}
        for arr in arrays.values():  # (C00, semester 2) loses minutes 0..85
            arr[0, thin_days, :86] = np.nan
        csv_path = tmp_path / "panel.csv"
        write_panel_csv(MinutePanel(panel.companies, panel.days, **arrays), csv_path)
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"semester_boundaries": [
            [a.isoformat(), b.isoformat()] for a, b in truth.boundaries]}))
        out = tmp_path / "val"
        assert main(["validate", str(csv_path), "--config", str(config_file),
                     "--min-day-coverage", "0.9", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "validation.json").read_text())
        assert doc["min_day_coverage"] == 0.9
        pairs = {(p["ticker"], p["semester"]): p for p in doc["pairs"]}
        assert sorted({s for _, s in pairs}) == [1, 2, 3]
        thin = pairs[(panel.companies[0], 2)]
        assert thin["coverage"] == pytest.approx(305 / 391)
        assert not thin["included"]
        assert all(p["included"] for key, p in pairs.items()
                   if key != (panel.companies[0], 2))


class TestKurtosisFit:
    """A panel whose semester 1 reaches the kurtosis relaxation fits, while
    semester 2's afternoon fit fails."""

    @pytest.fixture(scope="class")
    def kurtosis_report(self, tmp_path_factory):
        path, boundaries = synth_csv(tmp_path_factory, name="kurtosis", n_days=24,
                                     n_semesters=2, seed=5, noise=NoiseSpec(sigma_l=0.6))
        config = PipelineConfig(
            input_paths=[str(path)], semester_boundaries=boundaries,
            regime_boundary_semester=1, kurtosis_tail_excluded_semesters=[],
            out_dir=str(tmp_path_factory.mktemp("kurtosis_report")))
        config_file = path.with_name("config.json")
        config_file.write_text(json.dumps(config.to_json()))
        return run_pipeline(config), config_file

    def test_fit_command(self, capsys, kurtosis_report):
        bundle, config_file = kurtosis_report
        morning, afternoon = fit_kurtosis_relaxation(
            bundle.ticker_mean[1].kurtosis, bundle.config.kurtosis_morning_window,
            bundle.config.kurtosis_afternoon_window)
        assert main(["fit", "--config", str(config_file), "--semester", "1",
                     "--model", "kurtosis"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            json.loads(dump_json({"morning": morning, "afternoon": afternoon}))

    def test_fig11_rows(self, kurtosis_report):
        bundle, _ = kurtosis_report
        fits = bundle.semester_fits
        assert "error" in fits[2]["kurtosis_morning"]  # no row for semester 2
        beta_m = fits[1]["kurtosis_morning"].coefficients["beta_m"]
        beta_a = fits[1]["kurtosis_afternoon"].coefficients["beta_a"]
        assert emit_figure_series(bundle, "fig11") == \
            f"semester,beta_m,beta_a\r\n1,{beta_m:.17g},{beta_a:.17g}\r\n"

    def test_figure_out_writes_the_bundle_file(self, capsys, tmp_path, kurtosis_report):
        bundle, _ = kurtosis_report
        out = tmp_path / "figures"
        assert main(["figure", "--report", bundle.config.out_dir, "--id", "fig11",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out / "fig11.csv")
        assert (out / "fig11.csv").read_bytes() == \
            emit_figure_series(bundle, "fig11").encode() == \
            load_figure_csv(bundle.config.out_dir, "fig11")


def test_bundle_csvs_quote_tickers(capsys, tmp_path, panel_csv):
    # the canonical writer quotes these tickers, and the loader reads them
    path, boundaries = panel_csv
    quoted = tmp_path / "panel.csv"
    quoted.write_bytes(path.read_bytes().replace(b"\nC00,", b'\n"A""B",')
                       .replace(b"\nC01,", b'\n"BRK,A",'))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"semester_boundaries": boundaries,
                                  "regime_boundary_semester": 2}))
    out = tmp_path / "report"
    assert main(["report", str(quoted), "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in sorted(out.rglob("*.csv")):
        with open(name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows), name
    tickers = {'A"B', "BRK,A", "C02"}
    for name in ("metrics.csv", "figures/fig6.csv"):
        with open(out / name, newline="") as fh:
            assert {row["ticker"] for row in csv.DictReader(fh)} == tickers, name


@pytest.mark.parametrize("ticker, name", [("BRK/A", "profile_s01_BRK%2FA"),
                                          ("../up", "profile_s01_..%2Fup"),
                                          ("C02", "profile_s01_C02")])
def test_profile_file_name_escapes_the_ticker(capsys, tmp_path, panel_csv, ticker, name):
    # the loader takes these tickers; the profile's file name percent-encodes
    # them, so it stays one file inside --out
    path, boundaries = panel_csv
    panel = tmp_path / "in" / "panel.csv"
    panel.parent.mkdir()
    panel.write_bytes(path.read_bytes().replace(b"\nC00,", b"\nBRK/A,")
                      .replace(b"\nC01,", b"\n../up,"))
    config = tmp_path / "in" / "config.json"
    config.write_text(json.dumps({"semester_boundaries": boundaries}))
    out = tmp_path / "a" / "out"
    assert main(["profile", str(panel), "--config", str(config), "--ticker", ticker,
                 "--semester", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out / f"{name}.csv")
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {"in/panel.csv", "in/config.json",
                       f"a/out/{name}.csv", f"a/out/{name}.json"}
    assert (out / f"{name}.csv").read_bytes().startswith(b"t,")
