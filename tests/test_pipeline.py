"""End-to-end pipeline, report bundle, figure series, and CLI exit codes."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from intradayvol import metrics as metrics_mod
from intradayvol import pipeline as pipeline_mod
from intradayvol.cli import main
from intradayvol.errors import CorruptBundle, DataError, MissingUpstream, UnknownFigure
from intradayvol.panel import SESSION_MINUTES, MinutePanel, write_panel_csv
from intradayvol.pipeline import (
    FIGURE_IDS,
    PipelineConfig,
    _jsonify,
    emit_figure_series,
    load_figure_csv,
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
                        "c": np.float64(2.5), "d": np.int64(3)})
        assert doc == {"a": None, "b": [None, 1.5], "c": 2.5, "d": 3}
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
        assert any(e.startswith("figure ") for e in run_log)  # a skip is logged
        first = bundle.files()
        assert bundle.files() == first
        assert bundle.run_log == run_log
        assert bundle.normalizers == normalizers

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

    def test_numerical_failure_exits_3(self, capsys):
        code = main(["tests", "--sample-1", "1,1,1", "--sample-2", "1,1,1",
                     "--test", "welch"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

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
