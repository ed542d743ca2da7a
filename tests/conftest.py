"""Shared builders for panel-based tests.

Panels here are built directly from arrays (not through the CSV loader)
so each test controls exactly which cells are present.
"""
from __future__ import annotations

import datetime as dt
import os
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from intradayvol import helper as helper_mod
from intradayvol.panel import (
    SESSION_MINUTES,
    MinutePanel,
    SemesterIndex,
    assign_semesters,
)

FIRST_DAY = dt.date(2004, 1, 5)  # a Monday

HELPER_RUNS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
               and len(os.sched_getaffinity(0)) >= 2)
needs_helper = pytest.mark.skipif(not HELPER_RUNS,
                                  reason="the helper needs fork and a second CPU")

# the CPU mask of this process before any test, read with the real call:
# some tests patch os.sched_getaffinity
_sched_getaffinity = getattr(os, "sched_getaffinity", None)
START_MASK = (frozenset(_sched_getaffinity(0))
              if _sched_getaffinity and os.path.isdir("/proc/self/task") else None)


@contextmanager
def counting_answers(answered: list, kill_after: int | None = None):
    """Patch the helper's answer method to append to `answered` whether
    each call got an answer; with kill_after, the helper is killed with
    SIGKILL when that many calls have been made."""
    real_answer = helper_mod._Helper.answer

    def answer(helper):
        if len(answered) == kill_after:
            os.kill(helper.pid, signal.SIGKILL)
        got = real_answer(helper)
        answered.append(got is not None)
        return got

    with mock.patch.object(helper_mod._Helper, "answer", answer):
        yield


def started_helpers(pids: list):
    """Patch the helper class to append the pid of each helper it forks to
    `pids`."""
    real_init = helper_mod._Helper.__init__

    def init(helper, *args):
        real_init(helper, *args)
        pids.append(helper.pid)

    return mock.patch.object(helper_mod._Helper, "__init__", init)


def helper_takes_all():
    """Patch the helper's parent to take no number from the pipe, so that
    the helper works on every item, unless it exits."""
    return mock.patch.object(helper_mod._Helper, "take", return_value=None)


def one_cpu():
    """Patch the process's CPU set to one CPU, so that in_order forks no
    helper."""
    return mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True)


def weekdays(count: int, start: dt.date = FIRST_DAY) -> list[dt.date]:
    out = []
    day = start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def build_panel(volume: np.ndarray, companies=None, days=None,
                price: float = 100.0) -> MinutePanel:
    """Panel from a (companies, days, 391) volume array with flat prices.

    NaN volume cells stay absent (their OHLC is NaN too).
    """
    volume = np.asarray(volume, dtype=float)
    n_c, n_d, n_t = volume.shape
    assert n_t == SESSION_MINUTES
    if companies is None:
        companies = tuple(f"T{i:02d}" for i in range(n_c))
    if days is None:
        days = tuple(weekdays(n_d))
    present = np.isfinite(volume)
    flat = np.where(present, price, np.nan)
    return MinutePanel(tuple(companies), tuple(days), volume.copy(),
                       flat.copy(), flat.copy(), flat.copy(), flat.copy())


def contiguous_semesters(panel: MinutePanel, days_per_semester: int) -> SemesterIndex:
    """Label consecutive blocks of panel days as semesters 1..S."""
    days = panel.days
    bounds = []
    for k in range(0, len(days), days_per_semester):
        chunk = days[k:k + days_per_semester]
        first = chunk[0] if not bounds else bounds[-1][1] + dt.timedelta(days=1)
        bounds.append((first, chunk[-1]))
    return assign_semesters(panel, bounds)


@pytest.fixture
def rng():
    return np.random.default_rng(20040105)


@pytest.fixture
def small_panel():
    """3 tickers x 8 days of deterministic integer volumes, full coverage."""
    gen = np.random.default_rng(7)
    volume = np.rint(gen.uniform(1.0, 500.0, size=(3, 8, SESSION_MINUTES)))
    return build_panel(volume)


@pytest.fixture
def small_index(small_panel):
    return contiguous_semesters(small_panel, 4)  # two semesters of 4 days


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped, such as a loader
    helper that outlived load_minute_bars."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process ({pid or 'still running'}) was left unreaped")


def thread_masks() -> set[frozenset]:
    """The CPU masks of this process's threads."""
    masks = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            masks.add(frozenset(_sched_getaffinity(int(tid))))
        except OSError:
            pass  # the thread has exited
    return masks


@pytest.fixture(autouse=True)
def no_thread_left_pinned():
    """Fail a test after which a thread of this process is still pinned by
    a helper's fork (see helper._fork)."""
    yield
    if START_MASK is not None:
        assert thread_masks() == {START_MASK}, "a thread was left pinned"
