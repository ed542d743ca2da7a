"""Loader, panel construction, and semester calendar tests."""
from __future__ import annotations

import csv
import datetime as dt
import errno
import io
import os
import signal
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intradayvol.errors import (
    DataError,
    DuplicateCell,
    ExcludedPair,
    MissingColumn,
    OverlappingRanges,
    UncoveredDate,
)
from intradayvol import panel as panel_mod
from intradayvol.panel import (
    CANONICAL_COLUMNS,
    SESSION_MINUTES,
    MinuteBar,
    MinutePanel,
    SemesterIndex,
    assign_semesters,
    default_semester_boundaries,
    included_company_indices,
    load_minute_bars,
    require_included,
    semester_day_indices,
    validate_panel,
    write_panel_csv,
    _parse_minute,
)

from intradayvol.synth import GeneratorSpec, IntensitySpec, generate_panel

from conftest import (
    HELPER_RUNS,
    build_panel,
    contiguous_semesters,
    counting_answers,
    needs_helper,
    weekdays,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


HEADER = "ticker,date,minute,volume,open,high,low,close\n"

class TestMinuteBar:
    def test_valid_bar(self):
        bar = MinuteBar("A", dt.date(2004, 1, 5), 0, 100.0, 10.0, 11.0, 9.0, 10.5)
        assert bar.minute == 0

    @pytest.mark.parametrize("minute", [-1, 391, 1000])
    def test_minute_outside_session(self, minute):
        with pytest.raises(ValueError, match="session"):
            MinuteBar("A", dt.date(2004, 1, 5), minute, 1.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("volume", [-1.0, 0.5, float("nan")])
    def test_bad_volume(self, volume):
        with pytest.raises(ValueError, match="volume"):
            MinuteBar("A", dt.date(2004, 1, 5), 0, volume, 1.0, 1.0, 1.0, 1.0)

    def test_zero_volume_allowed(self):
        MinuteBar("A", dt.date(2004, 1, 5), 0, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_non_positive_price(self):
        with pytest.raises(ValueError, match="price"):
            MinuteBar("A", dt.date(2004, 1, 5), 0, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_ohlc_ordering(self):
        with pytest.raises(ValueError, match="OHLC"):
            MinuteBar("A", dt.date(2004, 1, 5), 0, 1.0, 10.0, 9.0, 8.0, 9.5)


class TestLoader:
    def test_single_file_round_trip(self, tmp_path, small_panel):
        path = tmp_path / "panel.csv"
        write_panel_csv(small_panel, path)
        loaded, report = load_minute_bars(path)
        assert loaded.companies == small_panel.companies
        assert loaded.days == small_panel.days
        np.testing.assert_array_equal(loaded.volume, small_panel.volume)
        np.testing.assert_array_equal(loaded.close, small_panel.close)
        assert report.n_loaded == int(small_panel.present().sum())
        assert not report.skipped

    def test_ticker_from_filename_stem(self, tmp_path):
        text = "date,minute,volume,open,high,low,close\n" \
               "2004-01-05,0,100,10,10,10,10\n"
        path = _write(tmp_path / "XYZ.csv", text)
        panel, _ = load_minute_bars(path)
        assert panel.companies == ("XYZ",)

    def test_clock_time_parsing(self, tmp_path):
        text = HEADER + ("A,2004-01-05,09:30,1,10,10,10,10\n"
                         "A,2004-01-05,16:00,2,10,10,10,10\n"
                         "A,2004-01-05,09:31:00,3,10,10,10,10\n")
        panel, _ = load_minute_bars(_write(tmp_path / "a.csv", text))
        assert panel.volume[0, 0, 0] == 1
        assert panel.volume[0, 0, 390] == 2
        assert panel.volume[0, 0, 1] == 3

    def test_index_time_parsing(self, tmp_path):
        text = HEADER + "A,2004-01-05,17,9,10,10,10,10\n"
        panel, _ = load_minute_bars(_write(tmp_path / "a.csv", text),
                                    time_format="index")
        assert panel.volume[0, 0, 17] == 9

    def test_out_of_session_rows_skipped(self, tmp_path):
        text = HEADER + ("A,2004-01-05,09:15,1,10,10,10,10\n"
                         "A,2004-01-05,16:01,1,10,10,10,10\n"
                         "A,2004-01-05,10:00,5,10,10,10,10\n")
        panel, report = load_minute_bars(_write(tmp_path / "a.csv", text))
        assert report.n_skipped_by_reason() == {"out-of-session": 2}
        assert panel.volume[0, 0, 30] == 5

    def test_malformed_rows_skipped(self, tmp_path):
        # the last two rows give 2004-01-05 in the ISO basic and week
        # forms, which date.fromisoformat takes from Python 3.11 on
        text = HEADER + ("A,2004-01-05,junk,1,10,10,10,10\n"
                         "A,not-a-date,09:30,1,10,10,10,10\n"
                         "A,2004-01-05,09:30,1,10,10,10\n"
                         "A,2004-01-05,09:31,2,10,10,10,10\n"
                         "A,20040105,09:31,3,10,10,10,10\n"
                         "A,2004-W02-1,09:31,4,10,10,10,10\n")
        path = _write(tmp_path / "a.csv", text)
        panel, report = load_minute_bars(path)
        assert report.n_skipped_by_reason() == {"malformed": 5}
        assert panel.days == (dt.date(2004, 1, 5),)
        assert panel.volume[0, 0, 1] == 2

    def test_blank_lines_ignored(self, tmp_path):
        text = HEADER + "\nA,2004-01-05,09:30,1,10,10,10,10\n\n"
        _, report = load_minute_bars(_write(tmp_path / "a.csv", text))
        assert report.n_rows == 1

    def test_duplicate_cell_fatal(self, tmp_path):
        text = HEADER + ("A,2004-01-05,09:30,1,10,10,10,10\n"
                         "A,2004-01-05,09:30,2,10,10,10,10\n")
        with pytest.raises(DuplicateCell):
            load_minute_bars(_write(tmp_path / "a.csv", text))

    def test_missing_column(self, tmp_path):
        text = "ticker,date,minute,volume,open,high,low\n"
        with pytest.raises(MissingColumn, match="close"):
            load_minute_bars(_write(tmp_path / "a.csv", text + "x\n"))

    def test_schema_rename(self, tmp_path):
        text = ("sym,d,t,v,o,h,l,c\n"
                "A,2004-01-05,09:30,7,10,10,10,10\n")
        schema = {"ticker": "sym", "date": "d", "time": "t", "volume": "v",
                  "open": "o", "high": "h", "low": "l", "close": "c"}
        panel, _ = load_minute_bars(_write(tmp_path / "a.csv", text), schema)
        assert panel.volume[0, 0, 0] == 7

    @pytest.mark.parametrize("schema, time_format, message", [
        ({"tiker": "symbol"}, "auto", r"unknown schema fields \['tiker'\]; known: ticker, date"),
        (None, "clok", "time_format 'clok' is not one of auto, clock, index"),
    ])
    def test_unknown_options_rejected(self, tmp_path, schema, time_format, message):
        path = _write(tmp_path / "a.csv", HEADER + "A,2004-01-05,17,9,10,10,10,10\n")
        with pytest.raises(DataError, match=message):
            load_minute_bars([path], schema, time_format=time_format)

    def test_time_column_alternate_spelling(self, tmp_path):
        text = ("ticker,date,time,volume,open,high,low,close\n"
                "A,2004-01-05,09:30,7,10,10,10,10\n")
        panel, _ = load_minute_bars(_write(tmp_path / "a.csv", text))
        assert panel.volume[0, 0, 0] == 7

    def test_directory_input_merges_files(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        _write(d / "AA.csv", "date,minute,volume,open,high,low,close\n"
                             "2004-01-05,09:30,1,10,10,10,10\n")
        _write(d / "BB.csv", "date,minute,volume,open,high,low,close\n"
                             "2004-01-05,09:30,2,10,10,10,10\n")
        panel, report = load_minute_bars(d)
        assert panel.companies == ("AA", "BB")
        assert len(report.files) == 2

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(DataError, match="no .csv"):
            load_minute_bars(d)

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_minute_bars(tmp_path / "nope.csv")

    def test_no_usable_rows(self, tmp_path):
        with pytest.raises(DataError, match="no usable rows"):
            load_minute_bars(_write(tmp_path / "a.csv", HEADER))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_minute_bars(_write(tmp_path / "a.csv", ""))

    def test_daily_price_load_cannot_be_written(self, tmp_path, small_panel):
        path = tmp_path / "panel.csv"
        write_panel_csv(small_panel, path)
        loaded, _ = load_minute_bars(path, minute_prices=False)
        assert not loaded.has_minute_prices
        np.testing.assert_array_equal(loaded.daily_ohlc, small_panel.daily_ohlc)
        with pytest.raises(DataError, match=r"no minute prices \(open, high, low, close\)"):
            write_panel_csv(loaded, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


class TestMinutePanel:
    def test_axes_must_be_sorted_unique(self):
        shape = (2, 1, SESSION_MINUTES)
        arrays = [np.full(shape, np.nan) for _ in range(5)]
        with pytest.raises(ValueError, match="sorted"):
            MinutePanel(("B", "A"), (dt.date(2004, 1, 5),), *arrays)

    def test_arrays_immutable(self, small_panel):
        with pytest.raises(ValueError):
            small_panel.volume[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            small_panel.daily_ohlc[0, 0, 0] = 1.0

    def test_minute_prices_all_or_none(self):
        shape = (1, 1, SESSION_MINUTES)
        volume, *prices = [np.full(shape, np.nan) for _ in range(5)]
        days = (dt.date(2004, 1, 5),)
        with pytest.raises(ValueError, match="all four"):
            MinutePanel(("A",), days, volume, *prices[:3])
        with pytest.raises(ValueError, match="needs daily_ohlc"):
            MinutePanel(("A",), days, volume)
        with pytest.raises(ValueError, match="daily_ohlc array has shape"):
            MinutePanel(("A",), days, volume, daily_ohlc=np.full((1, 2, 4), np.nan))
        panel = MinutePanel(("A",), days, volume, daily_ohlc=np.full((1, 1, 4), np.nan))
        assert not panel.has_minute_prices

    def test_lookup_errors(self, small_panel):
        with pytest.raises(DataError, match="not in panel"):
            small_panel.company_index("nope")
        with pytest.raises(DataError, match="not in panel"):
            small_panel.day_index(dt.date(1999, 1, 1))


class TestSemesters:
    def test_default_boundaries_cover_span(self):
        bounds = default_semester_boundaries(dt.date(2004, 3, 1), dt.date(2005, 2, 1))
        assert bounds[0] == (dt.date(2004, 1, 1), dt.date(2004, 6, 30))
        assert bounds[-1] == (dt.date(2005, 1, 1), dt.date(2005, 6, 30))
        assert len(bounds) == 3

    def test_default_boundaries_second_half_start(self):
        bounds = default_semester_boundaries(dt.date(2004, 8, 1), dt.date(2004, 9, 1))
        assert bounds == [(dt.date(2004, 7, 1), dt.date(2004, 12, 31))]

    def test_assign_labels_in_date_order(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        assert index.labels == (1, 2)
        first, last = index.range_of(1)
        assert first == small_panel.days[0]
        assert index.semester_of(small_panel.days[3]) == 1
        assert index.semester_of(small_panel.days[4]) == 2

    def test_semester_of_hits_range_edges(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        first, last = index.range_of(2)
        assert index.semester_of(first) == 2
        assert index.semester_of(last) == 2

    def test_uncovered_date(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        with pytest.raises(UncoveredDate):
            index.semester_of(dt.date(1999, 1, 1))
        with pytest.raises(UncoveredDate):
            index.semester_of(small_panel.days[-1] + dt.timedelta(days=1))

    def test_assign_rejects_overlap(self, small_panel):
        days = small_panel.days
        with pytest.raises(OverlappingRanges):
            assign_semesters(small_panel, [(days[0], days[5]), (days[3], days[-1])])

    def test_assign_rejects_reversed_range(self, small_panel):
        days = small_panel.days
        with pytest.raises(DataError, match="reversed"):
            assign_semesters(small_panel, [(days[3], days[0]),
                                           (days[4], days[-1])])

    def test_assign_rejects_uncovered_day(self, small_panel):
        days = small_panel.days
        with pytest.raises(UncoveredDate):
            assign_semesters(small_panel, [(days[0], days[3])])

    def test_unknown_label(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        with pytest.raises(DataError, match="labelled"):
            index.range_of(9)

    def test_day_indices(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        np.testing.assert_array_equal(
            semester_day_indices(small_panel, index, 2), [4, 5, 6, 7])
        # a semester range that holds no panel day
        days = small_panel.days
        index = assign_semesters(small_panel, [
            (days[0], days[3]), (days[4], days[-1]),
            (days[-1] + dt.timedelta(days=1), days[-1] + dt.timedelta(days=30))])
        empty = semester_day_indices(small_panel, index, 3)
        assert empty.shape == (0,) and empty.dtype.kind == "i"

    def test_exclusions(self, small_panel):
        index = contiguous_semesters(small_panel, 4)
        index = index.with_exclusions({2: ["T01"]})
        assert index.is_excluded("T01", 2)
        assert not index.is_excluded("T01", 1)
        np.testing.assert_array_equal(
            included_company_indices(small_panel, index, 2), [0, 2])
        with pytest.raises(ExcludedPair):
            require_included(index, "T01", 2)
        require_included(index, "T01", 1)

    def test_with_exclusions_merges(self):
        index = SemesterIndex(((1, dt.date(2004, 1, 1), dt.date(2004, 6, 30)),),
                              {1: frozenset({"A"})})
        merged = index.with_exclusions({1: ["B"]})
        assert merged.exclusions[1] == {"A", "B"}


class TestValidation:
    def test_coverage_accounting(self):
        volume = np.full((2, 4, SESSION_MINUTES), np.nan)
        volume[0] = 1.0                      # full coverage
        volume[1, :2, :] = 1.0               # half the days
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 4)
        report = validate_panel(panel, index, min_day_coverage=0.75)
        by_ticker = {r.ticker: r for r in report.records}
        assert by_ticker["T00"].coverage == 1.0
        assert by_ticker["T00"].included
        assert by_ticker["T01"].coverage == 0.5
        assert by_ticker["T01"].n_days == 2
        assert not by_ticker["T01"].included
        assert report.exclusions() == {1: {"T01"}}

    def test_partial_minutes_counted(self):
        volume = np.full((1, 2, SESSION_MINUTES), np.nan)
        volume[0, :, :100] = 1.0
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 2)
        report = validate_panel(panel, index, min_day_coverage=0.0)
        assert report.records[0].coverage == pytest.approx(100 / SESSION_MINUTES)
        assert report.records[0].n_days == 2


@st.composite
def panel_strategy(draw):
    n_c = draw(st.integers(1, 3))
    n_d = draw(st.integers(1, 3))
    volume = np.full((n_c, n_d, SESSION_MINUTES), np.nan)
    prices = np.full((4, n_c, n_d, SESSION_MINUTES), np.nan)
    for i in range(n_c):
        for j in range(n_d):
            minutes = draw(st.lists(st.integers(0, 390), min_size=1, max_size=6,
                                    unique=True))
            for t in minutes:
                volume[i, j, t] = draw(st.integers(0, 10 ** 9))
                p1 = draw(st.floats(0.01, 1e6, allow_nan=False))
                p2 = draw(st.floats(0.01, 1e6, allow_nan=False))
                lo, hi = min(p1, p2), max(p1, p2)
                prices[:, i, j, t] = (p1, hi, lo, p2)
    companies = tuple(f"T{i:02d}" for i in range(n_c))
    days = tuple(weekdays(n_d))
    return MinutePanel(companies, days, volume, *prices)


class TestRoundTripProperty:
    @given(panel_strategy())
    @settings(max_examples=25, deadline=None)
    def test_csv_round_trip_is_exact(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("rt") / "panel.csv"
        write_panel_csv(panel, path)
        loaded, _ = load_minute_bars(path)
        assert loaded.companies == panel.companies
        assert loaded.days == panel.days
        for name in ("volume", "open", "high", "low", "close"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(panel, name), err_msg=name)


def _bits(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


#: prices whose text or bit pattern is easy to get wrong: signed zeros,
#: NaNs with other payloads and signs, infinities, subnormals
_EDGE_PRICES = (0.0, -0.0, float("nan"), _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
                float("inf"), -float("inf"), 5e-324, 2.2250738585072009e-308, 0.1, 0.5)

#: volumes on and past the integer fast path's edges
_EDGE_VOLUMES = (0.0, -0.0, 0.5, 1e-300, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e17,
                 3e20, -7.0)


@st.composite
def writer_panel_strategy(draw):
    """Panels the writer must copy exactly, valid or not: some (company,
    day) blocks absent, prices either chained like bars (open is the last
    close, high and low repeat them) or all distinct, edge values mixed in."""
    n_c = draw(st.integers(1, 3))
    n_d = draw(st.integers(1, 4))
    chained = draw(st.booleans())
    price = st.one_of(st.floats(1e-3, 1e6), st.sampled_from(_EDGE_PRICES))
    volume_value = st.one_of(st.integers(0, 10 ** 9).map(float),
                             st.floats(0, 1e22), st.sampled_from(_EDGE_VOLUMES))
    volume = np.full((n_c, n_d, SESSION_MINUTES), np.nan)
    prices = np.full((4, n_c, n_d, SESSION_MINUTES), np.nan)
    last = draw(price)
    for i in range(n_c):
        for j in range(n_d):
            minutes = draw(st.lists(st.integers(0, 390), max_size=6, unique=True))
            for t in minutes:
                volume[i, j, t] = draw(volume_value)
                if chained:
                    close = draw(price)
                    quad = (last, draw(st.sampled_from((last, close))), close, close)
                    last = close
                else:
                    quad = tuple(draw(price) for _ in range(4))
                prices[:, i, j, t] = quad
    companies = tuple(f"T{i:02d}" for i in range(n_c))
    return MinutePanel(companies, tuple(weekdays(n_d)), volume, *prices)


class TestWriterBytes:
    @given(panel_strategy())
    @settings(max_examples=25, deadline=None)
    def test_matches_row_at_a_time_csv_writer(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("wb") / "panel.csv"
        write_panel_csv(panel, path)
        assert path.read_bytes() == _reference_csv_bytes(panel)

    @given(writer_panel_strategy())
    @settings(max_examples=60, deadline=None)
    def test_edge_values_at_every_chunk_size(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("wc") / "panel.csv"
        want = _reference_csv_bytes(panel)
        # from one row per chunk (a cut between every pair of blocks) to
        # the whole panel in one chunk
        for rows in range(1, int(panel.present().sum()) + 2):
            with mock.patch.object(panel_mod, "_WRITE_ROWS", rows):
                write_panel_csv(panel, path)
            assert path.read_bytes() == want, rows

    def test_empty_panel_writes_the_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        for shape in ((0, 0, SESSION_MINUTES), (2, 1, SESSION_MINUTES)):
            arrays = [np.full(shape, np.nan) for _ in range(5)]
            panel = MinutePanel(("A", "B")[:shape[0]], tuple(weekdays(shape[1])), *arrays)
            write_panel_csv(panel, path)
            assert path.read_bytes() == _reference_csv_bytes(panel)

    def test_peak_memory_is_one_chunk(self, tmp_path):
        spec = GeneratorSpec(n_companies=4, n_days=100, seed=5, price_model="gbm",
                             intensity=IntensitySpec(opening_amplitude=2000.0,
                                                     opening_exponent=0.29))
        panel, _ = generate_panel(spec)
        n_rows = int(panel.present().sum())
        path = tmp_path / "panel.csv"
        answered = []
        tracemalloc.start()
        try:
            with counting_answers(answered):
                write_panel_csv(panel, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # five whole-panel float64 copies of the present values take
        # 40 bytes a row; a chunk's values and text take about 0.5 MB,
        # and the chunks formatted ahead of the file about 0.1 MB each
        assert n_rows > 100_000
        assert peak < 8 * n_rows, (peak, n_rows)
        assert any(answered) == HELPER_RUNS  # the helper's share is held too

    def test_ticker_needing_quotes(self, tmp_path):
        volume = np.full((2, 1, SESSION_MINUTES), np.nan)
        volume[:, 0, [0, 7, 390]] = [[1.0, 25.0, 3e20], [0.0, 4.0, 5.0]]
        prices = [np.where(np.isfinite(volume), p, np.nan) for p in (2.5, 3.0, 0.1, 2.75)]
        panel = MinutePanel(('A,"B', "Z%d"), (dt.date(2004, 1, 5),), volume, *prices)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        data = path.read_bytes()
        assert data == _reference_csv_bytes(panel)
        assert b'"A,""B",2004-01-05,7,25,' in data
        loaded, _ = load_minute_bars(path)
        assert loaded.companies == panel.companies
        for name in ("volume", "open", "high", "low", "close"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(panel, name))


def _reference_csv_bytes(panel) -> bytes:
    """The canonical CSV written one csv.writer row per present cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CANONICAL_COLUMNS)
    pres = panel.present()
    for i, ticker in enumerate(panel.companies):
        for j, day in enumerate(panel.days):
            for t in np.flatnonzero(pres[i, j]):
                writer.writerow([ticker, day.isoformat(), int(t)] + [
                    format(getattr(panel, name)[i, j, t], ".17g")
                    for name in ("volume", "open", "high", "low", "close")])
    return buf.getvalue().encode()


# --- columnar loader against one MinuteBar per row -----------------------

def _reference_load(paths):
    """Row-at-a-time loading with one MinuteBar per row: the rules the
    columnar loader must reproduce. Returns (bars by cell, rows read,
    skipped (source, line, reason) triples)."""
    bars, skipped, n_rows = {}, [], 0
    for p in paths:
        with open(p, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            col = {name: header.index(name)
                   for name in ("date", "minute", "volume", "open", "high", "low", "close")}
            ticker_col = header.index("ticker") if "ticker" in header else None
            for line, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                n_rows += 1
                try:
                    minute = _parse_minute(row[col["minute"]], "auto")
                except (ValueError, IndexError):
                    skipped.append((str(p), line, "malformed"))
                    continue
                if not 0 <= minute <= 390:
                    skipped.append((str(p), line, "out-of-session"))
                    continue
                try:
                    ticker = row[ticker_col].strip() if ticker_col is not None else p.stem
                    text = row[col["date"]].strip()
                    date = dt.date.fromisoformat(text)
                    if date.isoformat() != text:  # not YYYY-MM-DD
                        raise ValueError(text)
                    bar = MinuteBar(ticker, date, minute, *(
                        float(row[col[name]]) for name in ("volume", "open", "high", "low", "close")))
                except (ValueError, IndexError):
                    skipped.append((str(p), line, "malformed"))
                    continue
                key = (bar.ticker, bar.date, bar.minute)
                if key in bars:
                    raise DuplicateCell(f"{p}:{line}: duplicate cell "
                                        f"({bar.ticker}, {bar.date}, {bar.minute})")
                bars[key] = bar
    if not bars:
        raise DataError("no usable rows in input")
    return bars, n_rows, skipped


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


_COLUMNS = ("ticker", "date", "minute", "volume", "open", "high", "low", "close")
_MUTATIONS = ("blank", "spaces", "short", "short_off_session", "bad_float", "bad_date",
              "bad_volume", "ohlc", "off_session", "bad_time")


@st.composite
def _row(draw, minute, columns):
    """(kind, fields) for one data row in a file with these columns."""
    kind = draw(st.sampled_from(("clean",) * 6 + _MUTATIONS))
    if kind == "blank":
        return kind, []
    if kind == "spaces":
        return kind, [" " * draw(st.integers(0, 2)) for _ in columns]
    lo = draw(st.integers(1, 50))
    o, c = draw(st.integers(lo, lo + 5)), draw(st.integers(lo, lo + 5))
    fields = {
        "ticker": draw(st.sampled_from(["AA", "BB", " CC "])),
        "date": draw(st.sampled_from(["2004-01-05", "2004-01-06", " 2004-01-08"])),
        "minute": draw(st.sampled_from([
            str(minute), f"{(570 + minute) // 60:02d}:{(570 + minute) % 60:02d}",
            f"{(570 + minute) // 60:02d}:{(570 + minute) % 60:02d}:00"])),
        "volume": str(draw(st.integers(0, 10 ** 6))),
        "open": f"{o}.25", "high": f"{max(o, c) + 1}.5", "low": f"{lo}", "close": f"{c}.25",
    }
    off_session = st.sampled_from(["09:29", "16:01", "391", "-1", "08:00:00"])
    if kind in ("off_session", "short_off_session"):
        fields["minute"] = draw(off_session)
    elif kind == "bad_time":
        fields["minute"] = draw(st.sampled_from(["junk", "25:00", "9:30:30", ""]))
    elif kind == "bad_float":
        name = draw(st.sampled_from(["volume", "open", "high", "low", "close"]))
        fields[name] = draw(st.sampled_from(["x", "", "1.2.3"]))
    elif kind == "bad_date":
        fields["date"] = draw(st.sampled_from(["2004-13-01", "junk", "", "20040105",
                                               "2004-W02-1"]))
    elif kind == "bad_volume":
        fields["volume"] = draw(st.sampled_from(["-5", "2.5", "nan", "inf"]))
    elif kind == "ohlc":
        name, value = draw(st.sampled_from([("high", "0.5"), ("low", "999"),
                                            ("open", "0"), ("close", "-1"), ("high", "inf")]))
        fields[name] = value
    cells = [fields[name] for name in columns]
    if kind == "short":
        cells = cells[:draw(st.integers(0, len(columns) - 1))]
    elif kind == "short_off_session":
        cells = cells[:columns.index("minute") + 1]
    return kind, cells


def _quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


@st.composite
def _record(draw, fields, columns):
    """The text of one record: plain, or with some fields quoted, a NUL in
    a field, an extra field, or a quoted field holding a comma, a quote,
    CR or LF (the ticker, or an extra last field)."""
    form = draw(st.sampled_from(("plain",) * 6 + ("quoted", "nul", "extra", "embedded")))
    fields = list(fields)
    if fields and form == "quoted":
        for k in draw(st.sets(st.integers(0, len(fields) - 1), min_size=1)):
            fields[k] = _quote(fields[k])
    elif fields and form == "nul":
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] += "\0"
    elif form == "extra":
        fields.append(draw(st.sampled_from(["", "x", "1.5"])))
    elif form == "embedded":
        text = draw(st.sampled_from(['A,B', 'say "hi"', "R\r\nS", "R\nS", "R\rS", ""]))
        if fields and "ticker" in columns and len(fields) > columns.index("ticker"):
            fields[columns.index("ticker")] = _quote(text)
        else:
            fields.append(_quote(text))
    return ",".join(fields)


@st.composite
def _csv_files(draw):
    """1-3 files, each with its own column order, with or without a
    ticker column, LF, CRLF, CR-only or mixed line ends and with or
    without a final line end; every in-session time is distinct across
    the files, so a repeated cell appears only when `repeat` copies a
    clean row. Yields (stem, file text) pairs and `repeat`."""
    files = []
    minute = 0
    repeat = draw(st.integers(0, 9)) == 0
    for k in range(draw(st.integers(1, 3))):
        names = _COLUMNS if draw(st.booleans()) else _COLUMNS[1:]
        columns = draw(st.permutations(names))
        records = [",".join(columns)]
        clean = []
        for _ in range(draw(st.integers(0, 25))):
            kind, fields = draw(_row(minute, columns))
            minute += 1
            records.append(draw(_record(fields, columns)))
            if kind == "clean":
                clean.append(",".join(fields))
        if repeat and clean:
            records.append(clean[0])
        ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
        text = ""
        for record in records:
            end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends
            text += record + end
        if draw(st.booleans()):
            text = text[:-len(end)]
        files.append((f"F{k}", text))
    return files, repeat


class TestColumnarLoaderEquivalence:
    @given(_csv_files(), st.sampled_from([1, 2, 3, 7, 1024]),
           st.one_of(st.integers(1, 80), st.just(100_000)), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_matches_row_at_a_time_rules(self, tmp_path_factory, drawn, block_rows,
                                         block_chars, helper):
        files, _ = drawn
        root = tmp_path_factory.mktemp("eq")
        paths = []
        for stem, text in files:
            path = root / f"{stem}.csv"
            path.write_bytes(text.encode())
            paths.append(path)
        _assert_matches_reference(paths, block_rows, block_chars, helper)

    @pytest.mark.parametrize("text", [
        # plain CRLF records, a blank line, no final line end
        HEADER.replace("\n", "\r\n") + "A,2004-01-05,09:30,1,10,10,10,10\r\n"
        "A,2004-01-05,09:31,2,10,11,9,10.5\r\nB,2004-01-05,junk,1,1,1,1,1\r\n"
        "B,2004-01-05,16:00,3,10,10,10,10\r\n\r\nB,2004-01-05,10:00,4,5,6,4,5",
        # plain LF records, then a quoted field: the csv path from there on
        HEADER + "A,2004-01-05,09:30,1,10,10,10,10\nA,2004-01-05,09:31,2,10,10,10,10\n"
        '"B",2004-01-05,09:30,3,10,10,10,10\nB,2004-01-05,09:31,4,10,10,10,10\n',
        # CR-only line ends, and one lone CR among CRLFs
        HEADER.replace("\n", "\r") + "A,2004-01-05,09:30,1,10,10,10,10\r"
        "A,2004-01-05,09:31,2,10,10,10,10\r",
        HEADER.replace("\n", "\r\n") + "A,2004-01-05,09:30,1,10,10,10,10\r\n"
        "A,2004-01-05,09:31,2,10,10,10,10\rA,2004-01-05,09:32,2,10,10,10,10\r\n",
        # a blank record ended by a lone CR: its next line has the right
        # field count, but csv.reader counts one more record, which moves
        # the malformed row's line number
        HEADER + "A,2004-01-05,09:30,1,10,10,10,10\n\rA,2004-01-05,09:31,2,10,10,10,10\n"
        "A,2004-01-05,junk,1,10,10,10,10\n",
        # a short and a long record: the block's field count is right
        HEADER + "A,2004-01-05,09:30,1,10,10,10\nA,2004-01-05,09:31,2,10,10,10,10,9\n"
        "A,2004-01-05,09:32,1,10,10,10,10\n",
    ])
    def test_block_boundary_at_every_offset(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        for block_chars in range(1, len(text) + 2):
            _assert_matches_reference([path], 1024, block_chars)

    def test_peak_memory_is_the_panel_plus_one_block(self, tmp_path):
        spec = GeneratorSpec(n_companies=6, n_days=30, seed=3, price_model="gbm",
                             intensity=IntensitySpec(opening_amplitude=2000.0,
                                                     opening_exponent=0.29))
        panel, _ = generate_panel(spec)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        panel_bytes = 5 * panel.volume.nbytes
        block_chars = 20_000
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", block_chars):
            tracemalloc.start()
            try:
                loaded, _ = load_minute_bars(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(loaded.close, panel.close)
        # a block's text, its copies, its field strings and columns: about
        # 19 bytes a character, as measured under tracemalloc
        assert peak < 1.5 * panel_bytes + 16 * block_chars, (peak, panel_bytes)

    def test_peak_memory_of_a_daily_price_load(self, tmp_path):
        spec = GeneratorSpec(n_companies=6, n_days=30, seed=3, price_model="gbm",
                             intensity=IntensitySpec(opening_amplitude=2000.0,
                                                     opening_exponent=0.29))
        panel, _ = generate_panel(spec)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        block_chars = 20_000
        # on one process, so that one block is parsed at a time (the
        # helper's answers can be up to _AHEAD blocks ahead)
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", block_chars), \
                mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 2 ** 62):
            tracemalloc.start()
            try:
                loaded, _ = load_minute_bars(path, minute_prices=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert loaded.volume.tobytes() == panel.volume.tobytes()
        assert loaded.daily_ohlc.tobytes() == panel.daily_ohlc.tobytes()
        # the volume slabs, grown in place by a quarter, six numbers per
        # slab and one block: a quarter of the bound above at this size
        bound = 1.5 * panel.volume.nbytes + panel.daily_ohlc.nbytes + 16 * block_chars
        assert peak < bound, (peak, bound)

    def test_row_missing_only_its_last_ticker_field(self, tmp_path):
        text = ("date,minute,volume,open,high,low,close,ticker\n"
                "2004-01-05,09:30,1,10,10,10,10,A\n"
                "2004-01-05,09:31,1,10,10,10,10\n")
        path = _write(tmp_path / "a.csv", text)
        _, report = load_minute_bars(path)
        assert [(s.line, s.reason) for s in report.skipped] == [(3, "malformed")]

    @pytest.mark.parametrize("helper", [False, pytest.param(True, marks=needs_helper)])
    def test_earlier_duplicate_wins_over_later_file_errors(self, tmp_path, helper):
        first = _write(tmp_path / "a.csv", HEADER + "A,2004-01-05,09:30,1,10,10,10,10\n"
                                                    "A,2004-01-05,09:30,2,10,10,10,10\n")
        # a quoted first record puts this file on the csv path, across many
        # blocks; its last record repeats a cell
        rows = "".join(f"A,2004-01-05,{t},1,10,10,10,10\n" for t in range(300))
        tail = _write(tmp_path / "t.csv", HEADER + '"A",2004-01-05,400,1,10,10,10,10\n'
                      + rows + "A,2004-01-05,299,1,10,10,10,10\n")
        malformed = _write(tmp_path / "b.csv", HEADER + "B,2004-01-05,junk,1,10,10,10,10\n")
        headless = _write(tmp_path / "c.csv", "ticker,date,minute\n")
        with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 0 if helper else 2 ** 62), \
                mock.patch.object(panel_mod, "_BLOCK_CHARS", 500):
            for earlier, line in ((first, "a.csv:3"), (tail, "t.csv:303")):
                for later in (malformed, headless):
                    with pytest.raises(DuplicateCell, match=f"{line}: duplicate cell"):
                        load_minute_bars([earlier, later])


def _assert_matches_reference(paths, block_rows, block_chars, helper=False):
    """Both loads of paths, with minute prices and without, give the
    reference's panel, report or error, with the helper (where it can
    run) or without."""
    with mock.patch.object(panel_mod, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(panel_mod, "_BLOCK_CHARS", block_chars), \
            mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 0 if helper else 2 ** 62):
        got = _outcome(load_minute_bars, [str(p) for p in paths])
        daily = _outcome(load_minute_bars, [str(p) for p in paths], minute_prices=False)
        want = _outcome(_reference_load, paths)
    if want[0] != "ok":
        assert got == want, block_chars
        assert daily == want, block_chars
        return
    assert got[0] == "ok", (got, block_chars)
    assert daily[0] == "ok", (daily, block_chars)
    _assert_loaded(*got[1], *want[1])
    _assert_daily_loaded(*daily[1], *got[1], want[1][0])


def _assert_loaded(panel, report, bars, n_rows, skipped):
    assert report.n_rows == n_rows
    assert report.n_loaded == len(bars)
    assert [(s.source, s.line, s.reason) for s in report.skipped] == skipped
    assert panel.companies == tuple(sorted({t for t, _, _ in bars}))
    assert panel.days == tuple(sorted({d for _, d, _ in bars}))
    assert int(panel.present().sum()) == len(bars)
    for (ticker, day, minute), bar in bars.items():
        cell = (panel.companies.index(ticker), panel.days.index(day), minute)
        assert [getattr(panel, name)[cell] for name in
                ("volume", "open", "high", "low", "close")] == \
            [bar.volume, bar.open, bar.high, bar.low, bar.close]


def _assert_daily_loaded(panel, report, full, full_report, bars):
    """A daily-price load: the full load's volume and report, no minute
    prices, and the first open, max high, min low and last close of the
    reference bars of each (ticker, day), bit for bit."""
    assert report == full_report
    assert (panel.companies, panel.days) == (full.companies, full.days)
    assert panel.volume.tobytes() == full.volume.tobytes()
    assert (panel.open, panel.high, panel.low, panel.close) == (None,) * 4
    by_day = {}
    for (ticker, day, minute), bar in sorted(bars.items()):
        by_day.setdefault((ticker, day), []).append(bar)
    want = np.full(panel.daily_ohlc.shape, np.nan)
    for (ticker, day), day_bars in by_day.items():
        want[panel.companies.index(ticker), panel.days.index(day)] = (
            day_bars[0].open, max(b.high for b in day_bars),
            min(b.low for b in day_bars), day_bars[-1].close)
    assert panel.daily_ohlc.tobytes() == want.tobytes()
    assert full.daily_ohlc.tobytes() == want.tobytes()


# --- parsing and writing on two processes --------------------------------


def _serial_and_helped(paths, **kwargs):
    """The outcome of loading paths on one process, the outcome through
    the helper whatever the input size, and the number of blocks the
    helper's answers gave."""
    with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 2 ** 62):
        serial = _outcome(load_minute_bars, paths, **kwargs)
    answered = []
    with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 0), counting_answers(answered):
        helped = _outcome(load_minute_bars, paths, **kwargs)
    return serial, helped, sum(answered)


def _assert_bit_equal(serial, helped):
    """The same error, or the same LoadReport and panel bit for bit."""
    if serial[0] != "ok" or helped[0] != "ok":
        assert helped == serial
        return
    (want, want_report), (got, got_report) = serial[1], helped[1]
    assert got_report == want_report
    assert (got.companies, got.days) == (want.companies, want.days)
    for name in ("volume", "open", "high", "low", "close"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _rows(ticker, day, minutes, end="\r\n"):
    return "".join(f"{ticker},{day},{t},{t + 1},10.5,11.25,10,10.75{end}" for t in minutes)


@needs_helper
class TestHelper:
    @given(_csv_files(), st.one_of(st.integers(1, 80), st.just(100_000)))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_serial_load(self, tmp_path_factory, drawn, block_chars):
        files, _ = drawn
        root = tmp_path_factory.mktemp("helper")
        paths = []
        for stem, text in files:
            paths.append(root / f"{stem}.csv")
            paths[-1].write_bytes(text.encode())
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", block_chars):
            serial, helped, _ = _serial_and_helped(paths)
        _assert_bit_equal(serial, helped)

    def test_files_with_a_csv_tail_and_skipped_rows(self, tmp_path):
        day, later = "2004-01-05", "2004-01-06"
        b_rows = _rows("B", day, range(391)).splitlines(keepends=True)
        b_rows[300] = b_rows[300].replace("B,", '"B",', 1)  # the csv path from here
        b_rows[350] = b_rows[350].replace(",10,", ",12,", 1)  # low above open
        b_rows[20] = b_rows[20].replace(",10,", ",12,", 1)
        files = {
            "a.csv": HEADER + _rows("A", day, range(391)) + "A,2004-01-05,391,1,1,1,1,1\r\n",
            "b.csv": HEADER + "".join(b_rows) + _rows("B", later, range(391)),
            "c.csv": HEADER,
            "d.csv": HEADER + _rows("C", day, range(200), "\n") + " , ,,,,,, \n"
            + "C,2004-01-05,junk,1,1,1,1,1\n" + _rows("C", later, range(391), "\n"),
        }
        paths = []
        for name, text in files.items():
            paths.append(tmp_path / name)
            paths[-1].write_bytes(text.encode())
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", 2_000):
            serial, helped, answered = _serial_and_helped(paths)
            assert serial[0] == "ok"
            _assert_bit_equal(serial, helped)
            assert answered >= 2  # the first two blocks are always the helper's
            report = helped[1][1]
            assert [(s.line, s.reason) for s in report.skipped] == [
                (393, "out-of-session"), (22, "malformed"), (352, "malformed"),
                (203, "malformed")]
            assert report.n_rows == 391 * 4 + 200 + 2  # not the blank record

    def test_errors_raised_with_blocks_in_flight(self, tmp_path):
        rows = _rows("A", "2004-01-05", range(391)).splitlines(keepends=True)
        malformed = tmp_path / "malformed.csv"
        malformed.write_text(HEADER + "".join(rows[:40]) + rows[40].replace(",10,", ",12,")
                             + "".join(rows[41:]))
        duplicate = tmp_path / "duplicate.csv"
        duplicate.write_text(HEADER + "".join(rows[:40]) + rows[5] + "".join(rows[40:]))
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", 500):
            serial, helped, answered = _serial_and_helped([duplicate, malformed])
        assert serial[0] is DuplicateCell
        _assert_bit_equal(serial, helped)
        assert answered >= 1

    def test_helper_cuts_blocks_of_the_patched_size(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(HEADER + _rows("A", "2004-01-05", range(391), "\n"))
        # the helper is asked for blocks 0 and 1 first; one that cut
        # 100,000-character blocks would answer block 0 with the whole
        # file, and have no block 1
        with mock.patch.object(panel_mod, "_BLOCK_CHARS", 1_500):
            serial, helped, answered = _serial_and_helped([path])
        _assert_bit_equal(serial, helped)
        assert answered >= 2

    def test_no_file_left_open_in_either_process(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(HEADER + _rows("A", "2004-01-05", range(391), "\n"))
        code = ("import sys\nfrom intradayvol import panel\n"
                "panel._HELPER_MIN_BYTES, panel._BLOCK_CHARS = 0, 1_000\n"
                "panel.load_minute_bars(sys.argv[1])\n")
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-c", code, str(path)], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr

    def test_loader_finishes_alone_when_the_helper_dies(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(_gbm_panel(2, 6), path)
        real_answer = panel_mod._Helper.answer
        answered = []

        def answer(helper, request):
            if len(answered) == 3:
                os.kill(helper.pid, signal.SIGKILL)
            got = real_answer(helper, request)
            answered.append(got is not panel_mod._PENDING)
            return got

        with mock.patch.object(panel_mod, "_BLOCK_CHARS", 2_000):
            with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 2 ** 62):
                serial = _outcome(load_minute_bars, [path])
            with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 0), \
                    mock.patch.object(panel_mod._Helper, "answer", answer):
                helped = _outcome(load_minute_bars, [path])
        assert serial[0] == "ok"
        _assert_bit_equal(serial, helped)
        assert answered[:3] == [True] * 3
        assert not any(answered[5:])  # at most the answers in the pipe when it died

    def test_no_helper_below_the_size_threshold(self, tmp_path):
        path = _write(tmp_path / "a.csv", HEADER + _rows("A", "2004-01-05", range(10)))
        with mock.patch.object(panel_mod._Helper, "__init__",
                               side_effect=AssertionError("forked")):
            load_minute_bars(path)


def _gbm_panel(n_companies, n_days, seed=5):
    spec = GeneratorSpec(n_companies=n_companies, n_days=n_days, seed=seed,
                         price_model="gbm",
                         intensity=IntensitySpec(opening_amplitude=2000.0,
                                                 opening_exponent=0.29))
    return generate_panel(spec)[0]


@pytest.mark.parametrize("helper", [False, pytest.param(True, marks=needs_helper)])
@pytest.mark.parametrize("n_companies", [1, 3])
def test_byte_order_mark_before_the_header(tmp_path, n_companies, helper):
    # the mark must not hide the ticker column, or the file loads as a
    # per-symbol file named after its stem: one ticker under the wrong
    # name, or several that repeat each other's (day, minute) cells
    panel = _gbm_panel(n_companies, 2)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    answered = []
    with mock.patch.object(panel_mod, "_HELPER_MIN_BYTES", 0 if helper else 2 ** 62), \
            mock.patch.object(panel_mod, "_BLOCK_CHARS", 2_000), counting_answers(answered):
        loaded, _ = load_minute_bars(path)
    assert any(answered) == helper
    assert loaded.companies == panel.companies
    for name in ("volume", "open", "high", "low", "close"):
        assert getattr(loaded, name).tobytes() == getattr(panel, name).tobytes()


class _FailingFile(io.BytesIO):
    """A file whose third write fails as a full disk does."""

    def write(self, data):
        self.writes = getattr(self, "writes", 0) + 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


@needs_helper
class TestWriterHelper:
    @given(writer_panel_strategy(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_reference_at_chunk_sizes(self, tmp_path_factory, panel, data):
        path = tmp_path_factory.mktemp("wh") / "panel.csv"
        want = _reference_csv_bytes(panel)
        n_rows = int(panel.present().sum())
        sizes = {1, 2, n_rows + 1, data.draw(st.integers(1, n_rows + 1))}
        for rows in sorted(sizes):
            answered = []
            with mock.patch.object(panel_mod, "_WRITER_MIN_ROWS", 0), \
                    mock.patch.object(panel_mod, "_WRITE_ROWS", rows), \
                    counting_answers(answered):
                write_panel_csv(panel, path)
            assert path.read_bytes() == want, rows
            # the first chunk is always asked of the helper
            assert n_rows == 0 or answered[0], rows

    def test_writer_finishes_alone_when_the_helper_dies(self, tmp_path):
        panel = _gbm_panel(2, 6)
        path = tmp_path / "panel.csv"
        real_answer = panel_mod._Helper.answer
        answered = []

        def answer(helper, request):
            if len(answered) == 3:
                os.kill(helper.pid, signal.SIGKILL)
            got = real_answer(helper, request)
            answered.append(got is not panel_mod._PENDING)
            return got

        with mock.patch.object(panel_mod, "_WRITE_ROWS", 100), \
                mock.patch.object(panel_mod, "_WRITER_MIN_ROWS", 0), \
                mock.patch.object(panel_mod._Helper, "answer", answer):
            write_panel_csv(panel, path)
        assert path.read_bytes() == _reference_csv_bytes(panel)
        assert answered[:3] == [True] * 3
        assert not any(answered[5:])  # at most the answers in the pipe when it died

    def test_failed_write_leaves_no_child(self, tmp_path):
        panel = _gbm_panel(2, 6)
        answered = []
        with mock.patch.object(panel_mod, "_WRITE_ROWS", 100), \
                mock.patch.object(panel_mod, "_WRITER_MIN_ROWS", 0), \
                mock.patch.object(panel_mod, "open", lambda path, mode: _FailingFile(),
                                  create=True), \
                counting_answers(answered), \
                pytest.raises(OSError, match="No space left"):
            write_panel_csv(panel, tmp_path / "panel.csv")
        assert answered and answered[0]
        # the autouse no_child_process_left fixture checks that the helper was reaped

    def test_no_file_or_pipe_left_open_in_either_process(self, tmp_path):
        path = tmp_path / "panel.csv"
        code = ("import sys\nfrom intradayvol import panel, synth\n"
                "spec = synth.GeneratorSpec(n_companies=2, n_days=3, seed=5, price_model='gbm',"
                " intensity=synth.IntensitySpec(opening_amplitude=2000.0,"
                " opening_exponent=0.29))\n"
                "panel._WRITER_MIN_ROWS, panel._WRITE_ROWS = 0, 100\n"
                "panel.write_panel_csv(synth.generate_panel(spec)[0], sys.argv[1])\n")
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                               "-c", code, str(path)], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr
        assert path.read_bytes() == _reference_csv_bytes(_gbm_panel(2, 3))


def test_no_writer_helper_below_the_size_threshold(tmp_path):
    with mock.patch.object(panel_mod._Helper, "__init__",
                           side_effect=AssertionError("forked")):
        write_panel_csv(_gbm_panel(1, 2), tmp_path / "panel.csv")


@pytest.mark.parametrize("text", [
    "A,1,2\r\nB,3,4\r\n", "A,1,2\nB,3,4\n", "A,1,2\r\nB,3,4\n", "A,1,2\nB,3,4",
    "A,1,2\r\nB,3,4",
])
def test_split_block_line_ends(text):
    assert panel_mod._split_block(text, 3) == [["A", "B"], ["1", "3"], ["2", "4"]]


@pytest.mark.parametrize("text", [
    "A,1,2\rB,3,4\r\n",      # a lone CR
    "A,1,2\r\n\r\nB,3,4\r\n",  # a blank line
    "A,1,2\r\nB,3\r\n",      # a short record
    "A,1,2\r\nB,3,4,5\r\n",  # a long one
])
def test_split_block_declines(text):
    assert panel_mod._split_block(text, 3) is None
