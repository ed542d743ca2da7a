"""The benchmark's own tests: seeded inputs repeat byte for byte, and the
output checks pass on a clean run and fail on a corrupted one.

    python3 -m pytest perfbench -q

Each workload runs here at a tiny shape through the real CLI.
"""
from __future__ import annotations

import collections
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import spans
import workloads
from workloads import Shape

TINY = {
    "wide_report": Shape(4, 2, 2),
    "long_history": Shape(3, 16, 2),
    "symbols_ingest": Shape(2, 1, 3),
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], shape=TINY[name])


def flip_byte(path: Path, offset: int = 40) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_input_bytes(tmp_path, name):
    wl = tiny(name)
    wl.setup(tmp_path / "a", seed=3)
    wl.setup(tmp_path / "b", seed=3)
    wl.setup(tmp_path / "c", seed=4)
    a, b, c = (workloads.tree_hashes(tmp_path / k) for k in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.fixture(scope="module")
def spawner():
    with run.Spawner() as sp:
        yield sp


@pytest.fixture(scope="module", params=sorted(TINY))
def clean_run(request, tmp_path_factory, spawner):
    wl = tiny(request.param)
    root = tmp_path_factory.mktemp(request.param)
    inputs = wl.setup(root / "input", seed=1)
    out = root / "out"
    child = spawner.run(run.cli_command(wl.argv(inputs, out)), root / "cli")
    assert child.returncode == 0, (root / "cli.stderr").read_text()
    return wl, inputs, out


def test_clean_run_passes(clean_run):
    wl, inputs, out = clean_run
    assert wl.check(inputs, out) == []
    assert wl.failed_slices(inputs, out) >= 0


def test_flipped_byte_fails(clean_run, tmp_path):
    wl, inputs, out = clean_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    target = "panel.csv" if isinstance(wl, workloads.IngestWorkload) else "fits.csv"
    flip_byte(copy / target)
    assert wl.check(inputs, copy) != []


def test_ingest_counts_planted_skips(tmp_path):
    wl = tiny("symbols_ingest")
    inputs = wl.setup(tmp_path, seed=1)
    planted = inputs.expected["skipped_by_reason"]
    assert planted == {"out-of-session": 2 * 3, "malformed": len(workloads.MALFORMED)}
    assert inputs.rows == wl.shape.cells + sum(planted.values())


def test_self_times_subtract_children():
    doc = [
        {"name": "outer", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "inner", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "inner", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "leaf", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert spans.self_times(doc) == [6.0, 2.0, 1.0, 1.0]


def test_traced_child_counts_calls(tmp_path, spawner):
    wl = tiny("wide_report")  # 4 companies x 2 semesters x 2 days
    inputs = wl.setup(tmp_path / "input", seed=1)
    spans_path = tmp_path / "spans.json"
    cmd = [sys.executable, str(Path(spans.__file__)), str(spans_path), "--",
           *wl.argv(inputs, tmp_path / "out")]
    child = spawner.run(cmd, tmp_path / "traced")
    assert child.returncode == 0, (tmp_path / "traced.stderr").read_text()
    assert wl.check(inputs, tmp_path / "out") == []
    doc = json.loads(spans_path.read_text())
    calls = collections.Counter(s["name"] for s in doc["spans"])
    assert calls["cli.main"] == 1
    assert calls["cumulants.cumulants_over_days"] == 4 * 2
    assert calls["cumulants.cumulants_over_companies"] == 2 * 2
    assert calls["metrics.daily_ohlc"] == 2 * 4 * 2  # direct, and via endpoint prices
    assert calls["fits.fit_kurtosis_relaxation"] == 2
    assert child.maxrss_mb < 200  # the child's own peak, not the test process's
    assert all(t >= 0 for t in spans.self_times(doc["spans"]))
