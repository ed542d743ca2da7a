"""Shared builders for panel-based tests.

Panels here are built directly from arrays (not through the CSV loader)
so each test controls exactly which cells are present.
"""
from __future__ import annotations

import datetime as dt
import os
from unittest import mock

import numpy as np
import pytest

from intradayvol import panel as panel_mod
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


def counting_answers(answered: list):
    """A _Helper.answer that appends to `answered` whether each call got
    the helper's answer."""
    real_answer = panel_mod._Helper.answer

    def answer(helper, request):
        got = real_answer(helper, request)
        answered.append(got is not panel_mod._PENDING)
        return got

    return mock.patch.object(panel_mod._Helper, "answer", answer)


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
