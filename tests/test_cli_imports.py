"""What each CLI command imports, the package's lazy exports, and the spans
that perfbench/spans.py records through the CLI's lazily bound names.

The import checks run in a fresh interpreter: in this process, earlier
tests have imported every module already.
"""
from __future__ import annotations

import collections
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

from unittest import mock

import pytest

import intradayvol
from conftest import needs_helper
from intradayvol import csvtext
from intradayvol import helper as helper_mod
from intradayvol.cli import main

REPO = Path(__file__).resolve().parents[1]

#: the modules that analyse a panel, as opposed to loading and writing it
ANALYSIS = {f"intradayvol.{m}" for m in
            ("cumulants", "fits", "metrics", "stats_tests", "pipeline", "synth")}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, with this checkout's src/ first on its path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(panel.csv, config.json) of a 4 x 4 x 20 synthetic panel with minute
    prices, its regime boundary after semester 2."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--companies", "4", "--days", "20", "--semesters", "4",
                 "--seed", "3", "--prices", "--out", str(root / "synth")]) == 0
    truth = json.loads((root / "synth" / "ground_truth.json").read_text())
    config = root / "config.json"
    config.write_text(json.dumps({"semester_boundaries": truth["boundaries"],
                                  "regime_boundary_semester": 2}))
    return root / "synth" / "panel.csv", config


def _modules(argv: list[str]) -> set[str]:
    """The modules loaded when `python -m intradayvol.cli argv` exits.
    runpy runs the CLI as __main__, as -m does, so intradayvol.cli itself
    is not among them."""
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: print(*sorted(sys.modules)))\n"
            "sys.argv = ['intradayvol', *sys.argv[1:]]\n"
            "runpy.run_module('intradayvol.cli', run_name='__main__')\n")
    done = _python("-c", code, *argv)
    return set(done.stdout.splitlines()[-1].split())


def _imported(argv: list[str]) -> set[str]:
    """The intradayvol modules among _modules(argv)."""
    return {m for m in _modules(argv) if m.startswith("intradayvol")}


class TestImportGraph:
    def test_ingest_imports_no_analysis_module(self, tmp_path, inputs):
        panel, _ = inputs
        imported = _imported(["ingest", str(panel.parent), "--out", str(tmp_path)])
        assert (tmp_path / "panel.csv").read_bytes() == panel.read_bytes()
        assert imported == {"intradayvol", "intradayvol.config", "intradayvol.csvtext",
                            "intradayvol.errors", "intradayvol.helper",
                            "intradayvol.panel"}

    def test_help_imports_no_analysis_module(self):
        assert not _imported(["--help"]) & ANALYSIS

    def test_help_imports_no_numpy(self):
        assert "numpy" not in _modules(["--help"])

    def test_report_does_not_import_synth(self, tmp_path, inputs):
        panel, config = inputs
        imported = _imported(["report", str(panel), "--config", str(config),
                              "--out", str(tmp_path / "report")])
        assert ANALYSIS - imported == {"intradayvol.synth"}

    def test_command_modules_are_frozen(self):
        # the process entry freezes the heap again once the command's
        # modules are imported: their functions leave the collected
        # generations (gc.get_objects does not list the permanent one)
        code = ("import atexit, gc, runpy, sys\n"
                "def check():\n"
                "    f = sys.modules['intradayvol.stats_tests'].welch_test\n"
                "    print('collected', any(o is f for o in gc.get_objects()))\n"
                "atexit.register(check)\n"
                "sys.argv = ['intradayvol', *sys.argv[1:]]\n"
                "runpy.run_module('intradayvol.cli', run_name='__main__')\n")
        done = _python("-c", code, "tests", "--sample-1", "1,2,3", "--sample-2", "4,5,7")
        assert done.stdout.splitlines()[-1] == "collected False"


class TestEarlyStart:
    """A command that reads input forks the load's helper before it
    imports numpy, and its outputs are those of a load on one process."""

    def _forks(self, argv: list[str]) -> list[str]:
        """For each fork of `python -m intradayvol.cli argv`, whether numpy
        was imported by then."""
        code = ("import atexit, os, runpy, sys\n"
                "seen = []\n"
                "os.register_at_fork(before=lambda: seen.append('numpy' in sys.modules))\n"
                "atexit.register(lambda: print('numpy at fork:', *seen))\n"
                "sys.argv = ['intradayvol', *sys.argv[1:]]\n"
                "runpy.run_module('intradayvol.cli', run_name='__main__')\n")
        line = _python("-c", code, *argv).stdout.splitlines()[-1]
        return line.split(":", 1)[1].split()

    @staticmethod
    def _one_process(argv: list[str]) -> None:
        with mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True), \
                mock.patch.object(helper_mod, "_fork", side_effect=AssertionError("forked")):
            assert main(argv) == 0

    @needs_helper
    def test_ingest(self, tmp_path, inputs):
        panel, _ = inputs
        assert panel.stat().st_size >= csvtext._HELPER_MIN_BYTES
        forks = self._forks(["ingest", str(panel), "--out", str(tmp_path / "two")])
        assert forks[0] == "False"  # the load's helper; the writer's follows
        self._one_process(["ingest", str(panel), "--out", str(tmp_path / "one")])
        for name in ("panel.csv", "load_report.json"):
            assert (tmp_path / "two" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes(), name
        assert (tmp_path / "two" / "panel.csv").read_bytes() == panel.read_bytes()

    @needs_helper
    def test_report(self, tmp_path, inputs):
        panel, config = inputs
        argv = ["report", str(panel), "--config", str(config)]
        forks = self._forks([*argv, "--out", str(tmp_path / "two")])
        assert forks[0] == "False"  # the load's helper; the bundle writer's follows
        self._one_process([*argv, "--out", str(tmp_path / "one")])
        one, two = ({str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
                    for root in (tmp_path / "one", tmp_path / "two"))
        assert one == two
        for name in one:
            assert (tmp_path / "two" / name).read_bytes() == \
                (tmp_path / "one" / name).read_bytes(), name


class TestLazyExports:
    def test_every_name_is_its_defining_modules_object(self):
        for name in intradayvol.__all__:
            module = f"intradayvol.{intradayvol._MODULE_OF[name]}"
            value = getattr(intradayvol, name)
            assert value is getattr(import_module(module), name), name
            assert getattr(value, "__module__", module) == module, name

    def test_star_import_and_dir(self):
        namespace: dict = {}
        exec("from intradayvol import *", namespace)
        assert set(intradayvol.__all__) <= set(namespace)
        assert set(intradayvol.__all__) <= set(dir(intradayvol))
        assert len(intradayvol.__all__) == 57

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            intradayvol.bogus

    def test_package_import_is_lazy_and_submodules_still_import(self):
        code = ("import sys\n"
                "import intradayvol\n"
                "print(sorted(m for m in sys.modules if m.startswith('intradayvol')))\n"
                "from intradayvol import helper, MinutePanel\n"
                "print(helper is sys.modules['intradayvol.helper'],\n"
                "      MinutePanel is sys.modules['intradayvol.panel'].MinutePanel)\n")
        first, second = _python("-c", code).stdout.splitlines()
        assert first == "['intradayvol']"
        assert second == "True True"

    def test_readme_library_snippet_runs(self):
        readme = (REPO / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        snippet = re.search(r"```python\n(.*?)```", section, re.S)[1]
        alpha, t_half = map(float, _python("-c", snippet).stdout.split())
        assert 0.0 < alpha < 1.0 and t_half > 0.0


class TestSpanParity:
    """perfbench/spans.py wraps names of intradayvol.cli and
    intradayvol.pipeline before main runs; the commands must call those
    names, so that a traced run records each layer."""

    def _spans(self, tmp_path, argv) -> collections.Counter:
        out = tmp_path / "spans.json"
        _python(str(REPO / "perfbench" / "spans.py"), str(out), "--", *argv)
        return collections.Counter(s["name"] for s in json.loads(out.read_text())["spans"])

    def test_ingest(self, tmp_path, inputs):
        panel, _ = inputs
        spans = self._spans(tmp_path, ["ingest", str(panel), "--out", str(tmp_path / "out")])
        assert spans == {"cli.main": 1, "panel.load_minute_bars": 1,
                         "panel.write_panel_csv": 1}

    def test_report(self, tmp_path, inputs):
        panel, config = inputs
        spans = self._spans(tmp_path, ["report", str(panel), "--config", str(config),
                                       "--out", str(tmp_path / "out")])
        once = {"cli.main", "pipeline.run_pipeline", "panel.load_minute_bars",
                "panel.validate_panel", "pipeline.ReportBundle.write"}
        assert {name: spans[name] for name in once} == dict.fromkeys(once, 1)
        assert set(spans) - once == {
            "cumulants.cumulants_over_days", "cumulants.cumulants_over_companies",
            "cumulants.aggregate", "fits.fit_kurtosis_relaxation", "fits.linear",
            "metrics.daily_ohlc", "metrics.other", "stats_tests"}
