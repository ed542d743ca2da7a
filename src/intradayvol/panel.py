"""Minute-bar panel construction and the trading-session calendar.

The trading session is the 391 minutes from 09:30 (minute 0) to 16:00
(minute 390). A panel is a dense (company, day, minute) volume array with
NaN marking absent cells, one open/high/low/close per (company, day) and,
when the panel is to be written back to CSV, the four minute prices; after
construction it is immutable and safe to share across threads. Calendar
days are grouped into contiguous half-year periods labelled 1..S, which
all downstream statistics key on.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import locale
import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import csvtext
# the input's text side; its public names (DEFAULT_SCHEMA, SESSION_OPEN,
# TIME_FORMATS, check_load_options, parse_date) stay importable from here
from .csvtext import (  # noqa: F401
    DEFAULT_SCHEMA,
    SESSION_OPEN,
    TIME_FORMATS,
    _VALUE_FIELDS,
    _Block,
    _Input,
    _parse,
    _parse_columns,
    _parse_minute,
    _Parsed,
    check_load_options,
    parse_date,
)
from .errors import (
    DataError,
    DuplicateCell,
    ExcludedPair,
    OverlappingRanges,
    UncoveredDate,
)
from .helper import in_order

SESSION_MINUTES = 391

CANONICAL_COLUMNS = ["ticker", "date", "minute", "volume", "open", "high", "low", "close"]


@dataclass(frozen=True)
class MinuteBar:
    """One minute of trading for one ticker on one day."""

    ticker: str
    date: dt.date
    minute: int
    volume: float
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        if not 0 <= self.minute <= 390:
            raise ValueError(f"minute {self.minute} outside session 0..390")
        if not (self.volume >= 0 and float(self.volume).is_integer()):
            raise ValueError(f"volume {self.volume} is not a non-negative integer")
        prices = (self.open, self.high, self.low, self.close)
        if any(not (p > 0 and math.isfinite(p)) for p in prices):
            raise ValueError(f"non-positive price in {prices}")
        if not (self.low <= min(self.open, self.close)
                and self.high >= max(self.open, self.close)
                and self.low <= self.high):
            raise ValueError(f"OHLC ordering violated: {prices}")


@dataclass
class SkippedRow:
    source: str
    line: int
    reason: str


#: skipped rows that a LoadReport lists by file and line, the first in file
#: order; the others are only counted, so that a feed with millions of
#: extended-hours rows gives a report of bounded size
MAX_LISTED_SKIPS = 1_000


@dataclass
class LoadReport:
    """What the loader kept and what it dropped, per input file: the exact
    count of skipped rows per reason, and the first MAX_LISTED_SKIPS of
    them."""

    files: list[str] = field(default_factory=list)
    n_rows: int = 0
    n_loaded: int = 0
    skipped: list[SkippedRow] = field(default_factory=list)
    by_reason: dict[str, int] = field(default_factory=dict)

    def skip(self, source: str, lines: np.ndarray, off_session: np.ndarray) -> None:
        """Count the skipped rows at lines of source, in increasing order:
        out-of-session where off_session is set, malformed elsewhere. List
        them while fewer than MAX_LISTED_SKIPS are listed."""
        if not len(lines):
            return
        n_off = int(np.count_nonzero(off_session))
        counts = {"out-of-session": n_off, "malformed": len(lines) - n_off}
        # by_reason holds the reasons in the order they first occur
        order = reversed(counts) if not off_session[0] else counts
        for reason in order:
            if counts[reason]:
                self.by_reason[reason] = self.by_reason.get(reason, 0) + counts[reason]
        room = MAX_LISTED_SKIPS - len(self.skipped)
        self.skipped += [SkippedRow(source, line, "out-of-session" if off else "malformed")
                         for line, off in zip(lines[:room].tolist(),
                                              off_session[:room].tolist())]

    @property
    def n_skipped(self) -> int:
        return sum(self.by_reason.values())

    def n_skipped_by_reason(self) -> dict[str, int]:
        return dict(self.by_reason)

    def to_json(self) -> dict:
        doc = {
            "files": list(self.files),
            "rows_read": self.n_rows,
            "rows_loaded": self.n_loaded,
            "rows_skipped": [
                {"source": s.source, "line": s.line, "reason": s.reason}
                for s in self.skipped
            ],
            "skipped_by_reason": self.n_skipped_by_reason(),
        }
        if self.n_skipped > len(self.skipped):
            doc["rows_skipped_not_listed"] = self.n_skipped - len(self.skipped)
        return doc


@dataclass(frozen=True)
class MinutePanel:
    """Dense (company, day, minute) store of volume, with the open, high,
    low and close of each (company, day).

    Arrays are float64 with NaN as the missing-cell marker; a cell is
    present iff its volume entry is finite. daily_ohlc[i, j] is the open
    of the first present minute of company i on day j, the max high and
    the min low over its present minutes and the close of the last one;
    it is NaN on a day with no present minute. The four minute-price
    arrays are either all given, or all None (a panel loaded for analysis
    only, which cannot be written back to CSV). Without daily_ohlc, it is
    computed once from the minute prices. Axes are strictly sorted and
    duplicate-free.
    """

    companies: tuple[str, ...]
    days: tuple[dt.date, ...]
    volume: np.ndarray
    open: np.ndarray | None = None
    high: np.ndarray | None = None
    low: np.ndarray | None = None
    close: np.ndarray | None = None
    daily_ohlc: np.ndarray | None = None

    def __post_init__(self):
        if list(self.companies) != sorted(set(self.companies)):
            raise ValueError("company axis must be strictly sorted, duplicate-free")
        if list(self.days) != sorted(set(self.days)):
            raise ValueError("day axis must be strictly sorted, duplicate-free")
        shape = (len(self.companies), len(self.days), SESSION_MINUTES)
        prices = [getattr(self, name) for name in _PRICE_FIELDS]
        given = sum(p is not None for p in prices)
        if given not in (0, len(prices)):
            raise ValueError("give all four minute-price arrays or none")
        for name in _VALUE_FIELDS if given else _VALUE_FIELDS[:1]:
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} array has shape {arr.shape}, want {shape}")
            arr.setflags(write=False)
        if self.daily_ohlc is None:
            if not self.has_minute_prices:
                raise ValueError("a panel without minute prices needs daily_ohlc")
            object.__setattr__(self, "daily_ohlc", _daily_ohlc(self.volume, *prices))
        if self.daily_ohlc.shape != shape[:2] + (4,):
            raise ValueError(f"daily_ohlc array has shape {self.daily_ohlc.shape}, "
                             f"want {shape[:2] + (4,)}")
        self.daily_ohlc.setflags(write=False)

    @property
    def has_minute_prices(self) -> bool:
        return self.open is not None

    @property
    def n_companies(self) -> int:
        return len(self.companies)

    @property
    def n_days(self) -> int:
        return len(self.days)

    def company_index(self, ticker: str) -> int:
        try:
            return self.companies.index(ticker)
        except ValueError:
            raise DataError(f"ticker {ticker!r} not in panel") from None

    def day_index(self, day: dt.date) -> int:
        try:
            return self.days.index(day)
        except ValueError:
            raise DataError(f"day {day.isoformat()} not in panel") from None

    def present(self) -> np.ndarray:
        """Boolean mask of present cells."""
        return np.isfinite(self.volume)


_PRICE_FIELDS = _VALUE_FIELDS[1:]


def _daily_ohlc(volume, open_, high, low, close) -> np.ndarray:
    """MinutePanel.daily_ohlc of the minute arrays, one company at a time."""
    n_c, n_d, _ = volume.shape
    out = np.full((n_c, n_d, 4), np.nan)
    days = np.arange(n_d)
    for i in range(n_c):
        mask = np.isfinite(volume[i])
        first = mask.argmax(axis=1)
        last = SESSION_MINUTES - 1 - mask[:, ::-1].argmax(axis=1)
        out[i] = np.column_stack((
            open_[i, days, first],
            np.where(mask, high[i], -np.inf).max(axis=1),
            np.where(mask, low[i], np.inf).min(axis=1),
            close[i, days, last],
        ))
        out[i, ~mask.any(axis=1)] = np.nan
    return out


#: a daily-price load's numbers per slab, by column: the first present
#: minute and its open, the last present minute and its close, the max
#: high and the min low; _NO_DAY holds them before the slab's first row
_FIRST, _OPEN, _LAST, _CLOSE, _HIGH, _LOW = range(6)
_NO_DAY = (np.inf, np.nan, -np.inf, np.nan, -np.inf, np.inf)


class _Slabs:
    """The cells of a panel under construction: one 391-minute slab per
    (ticker code, day code) pair that holds a cell, numbered in first-seen
    order. A slab is NaN until its cells are added, so a finite volume
    marks a taken cell.

    A load keeps the slabs of all five value fields, or, without minute
    prices, the volume slabs and six numbers per slab (see _FIRST) that
    each block's rows are folded into.

    Each array of slabs is one (capacity, ...) array that grows by a
    quarter with ndarray.resize, in place where the allocator can, so the
    store holds about 1.25 times its slabs.
    """

    def __init__(self, minute_prices: bool):
        self.number: dict[int, int] = {}     # ticker code << 32 | day code -> slab
        n_fields = len(_VALUE_FIELDS) if minute_prices else 1
        self.fields = [np.empty((0, SESSION_MINUTES)) for _ in range(n_fields)]
        self.daily = None if minute_prices else np.empty((0, len(_NO_DAY)))

    def _slab(self, key: int) -> int:
        slab = self.number.get(key)
        if slab is None:
            slab = self.number[key] = len(self.number)
            if slab == len(self.fields[0]):
                capacity = max(16, slab + slab // 4)
                # no view of a slab array outlives the statement that makes it
                for arr in self.fields:
                    arr.resize((capacity, SESSION_MINUTES), refcheck=False)
                    arr[slab:] = np.nan
                if self.daily is not None:
                    self.daily.resize((capacity, len(_NO_DAY)), refcheck=False)
                    self.daily[slab:] = _NO_DAY
        return slab

    def add(self, t_code: np.ndarray, d_code: np.ndarray, minute: np.ndarray,
            values: Sequence[np.ndarray], duplicate) -> None:
        """Put row k's volume, open, high, low and close values[.][k] in
        cell (t_code[k], d_code[k], minute[k]). A cell that is already
        taken, or that an earlier row of this call repeats, raises
        DuplicateCell with the text duplicate(k) of the first such row,
        before anything is stored."""
        if not len(minute):
            return
        keys, inverse = np.unique((t_code.astype(np.int64) << 32) | d_code,
                                  return_inverse=True)
        slab = np.array([self._slab(k) for k in keys.tolist()], dtype=np.int64)[inverse]
        cell = slab * SESSION_MINUTES + minute
        order = np.argsort(cell, kind="stable")
        cells = cell[order]
        later = np.zeros(cell.size, dtype=bool)
        later[order[1:]] = cells[1:] == cells[:-1]
        repeat = np.isfinite(self.fields[0].reshape(-1)[cell])
        if later.any() or repeat.any():
            raise DuplicateCell(duplicate(int(np.argmax(repeat | later))))
        for arr, column in zip(self.fields, values):  # the volume alone, or all five
            arr.reshape(-1)[cell] = column
        if self.daily is not None:
            self._fold(cells, order, *values[1:])

    def _fold(self, cells: np.ndarray, order: np.ndarray, open_: np.ndarray,
              high: np.ndarray, low: np.ndarray, close: np.ndarray) -> None:
        """Fold the prices of a block's rows into the daily numbers of the
        slabs they fall in; cells are the rows' cells in increasing order,
        the rows at positions order."""
        slab, minute = np.divmod(cells, SESSION_MINUTES)
        starts = np.flatnonzero(np.diff(slab, prepend=-1))
        ends = np.append(starts[1:], len(cells)) - 1
        slabs = slab[starts]
        day = self.daily[slabs]
        first, last = minute[starts], minute[ends]
        earlier = first < day[:, _FIRST]
        day[earlier, _FIRST] = first[earlier]
        day[earlier, _OPEN] = open_[order[starts[earlier]]]
        later = last > day[:, _LAST]
        day[later, _LAST] = last[later]
        day[later, _CLOSE] = close[order[ends[later]]]
        day[:, _HIGH] = np.maximum(day[:, _HIGH], np.maximum.reduceat(high[order], starts))
        day[:, _LOW] = np.minimum(day[:, _LOW], np.minimum.reduceat(low[order], starts))
        self.daily[slabs] = day

    def panel(self, tickers: Sequence[str], days: Sequence[dt.date]) -> MinutePanel:
        """The sorted panel of the slabs, where code k labels tickers[k]
        and days[k]. The axes hold only the labels that have a slab. Slabs
        that are already the panel's blocks in order (a sorted file with
        every (ticker, day) pair) become its array; otherwise each field's
        slabs are dropped once its panel array is filled."""
        keys = np.fromiter(self.number, np.int64, len(self.number))
        axes = []
        ranks = []
        for labels, code in ((tickers, keys >> 32), (days, keys & 0xFFFFFFFF)):
            used = sorted(set(code.tolist()), key=labels.__getitem__)
            rank = np.zeros(len(labels), dtype=np.int64)
            rank[used] = np.arange(len(used))
            axes.append(tuple(labels[k] for k in used))
            ranks.append(rank[code])
        companies, panel_days = axes
        shape = (len(companies), len(panel_days), SESSION_MINUTES)
        dest = ranks[0] * shape[1] + ranks[1]
        n = len(dest)
        in_order = n == shape[0] * shape[1] and bool((dest == np.arange(n)).all())
        arrays = []
        for f, arr in enumerate(self.fields):
            self.fields[f] = None
            if in_order:
                arr.resize((n, SESSION_MINUTES), refcheck=False)  # the spare capacity
                arrays.append(arr.reshape(shape))
                continue
            out = np.full(shape, np.nan)
            out.reshape(-1, SESSION_MINUTES)[dest] = arr[:n]
            arrays.append(out)
        if self.daily is None:
            return MinutePanel(companies, panel_days, *arrays)
        ohlc = np.full(shape[:2] + (4,), np.nan)
        ohlc.reshape(-1, 4)[dest] = self.daily[:n, [_OPEN, _HIGH, _LOW, _CLOSE]]
        self.daily = None
        return MinutePanel(companies, panel_days, *arrays, daily_ohlc=ohlc)


#: csv records parsed per block on the csv-module path.
_BLOCK_ROWS = 1024

# Minute codes of rows that do not give a session minute.
_BAD_TIME = -2       # the time field is missing or does not parse
_OFF_SESSION = -1    # parses, but lies outside 09:30-16:00


class _Memo(dict):
    """str -> code, computing each distinct string's code once."""

    def __init__(self, parse):
        super().__init__()
        self._parse = parse

    def __missing__(self, key):
        code = self[key] = self._parse(key)
        return code


def _valid_values(vol, o, h, lo, c) -> np.ndarray:
    """MinuteBar.__post_init__'s value rules, row-wise."""
    ok = np.isfinite(vol) & (vol >= 0) & (np.floor(vol) == vol)
    for p in (o, h, lo, c):
        ok &= np.isfinite(p) & (p > 0)
    return ok & (lo <= np.minimum(o, c)) & (h >= np.maximum(o, c)) & (lo <= h)


def _tail(block: _Block, later: Iterator[tuple[_Block, object]]) -> Iterator[io.StringIO]:
    """The text of block and of its file's next blocks, taken from later
    as they are needed, each read as a file opened with newline="" reads
    it; chained, their lines are the file's lines from block on, because
    only a file's last block may end without a line feed (so no CR LF is
    split between blocks). Nothing is taken after the file's last block,
    so that a later file is not read before this one is applied."""
    while True:
        yield io.StringIO(block.text, newline="")
        if block.last:
            return
        block, _ = next(later)


class _ColumnLoader:
    """A load's kept rows, scattered block by block into a panel's slabs.

    Each file is read in text blocks of whole lines (see
    csvtext._file_blocks). A block of plain records (see
    csvtext._split_block) is split into columns with str.split; the first
    block that is not, and the rest of its file, go through csv.reader
    instead. The parse gives array.array buffers, which are wrapped here
    with np.frombuffer. Tickers and days are interned to integer
    codes in first-seen order, each distinct time, date and ticker string
    is parsed once, and each distinct price string once per block. Every
    row that fails a rule is skipped and counted, by line number (record
    index + 2), as the row-at-a-time MinuteBar rules order them: a row
    whose time parses to a minute outside the session is out-of-session,
    any other failing row is malformed. A repeated cell raises in the
    block where it occurs.
    """

    def __init__(self, time_format: str, minute_prices: bool):
        self.time_format = time_format
        self.report = LoadReport()
        self.tickers: dict[str, int] = {}
        self.days: dict[dt.date, int] = {}
        self.minute_codes = _Memo(self._minute_code)
        self.day_codes = _Memo(self._day_code)
        self.ticker_codes = _Memo(lambda s: self.tickers.setdefault(s.strip(), len(self.tickers)))
        self.slabs = _Slabs(minute_prices)

    def _minute_code(self, s: str) -> int:
        try:
            minute = _parse_minute(s, self.time_format)
        except ValueError:
            return _BAD_TIME
        return minute if 0 <= minute <= 390 else _OFF_SESSION

    def _day_code(self, s: str) -> int:
        try:
            day = parse_date(s.strip())
        except ValueError:
            return -1
        return self.days.setdefault(day, len(self.days))

    def load(self, paths: Sequence[Path], schema: Mapping[str, str]) -> None:
        self.report.files = [str(p) for p in paths]
        # the parse that the command started on these files, if any
        blocks, helper = (csvtext.take(paths, schema)
                          or (csvtext._file_blocks(paths, schema), None))
        with closing(blocks), in_order(blocks, _parse, lambda: csvtext._big_enough(paths),
                                       helper) as parsed:
            for inp, group in groupby(parsed, key=lambda pair: pair[0].input):
                start = 0
                for block, parsed in group:
                    if parsed is not None:
                        self._load_block(inp, start, parsed)
                        start += len(parsed.values[0])
                        continue
                    # csv.reader reads this block and the file's later ones
                    records = csv.reader(chain.from_iterable(_tail(block, group)))
                    while rows := list(islice(records, _BLOCK_ROWS)):
                        self._load_rows(inp, start, rows)
                        start += len(rows)

    def _load_rows(self, inp: _Input, start: int, rows: list[list[str]]) -> None:
        """_load_block of csv.reader records, which may be short."""
        n = len(rows)
        width = inp.layout.width
        lens = list(map(len, rows))
        short = None
        padded = rows
        if min(lens) < width:
            # pad so that zip keeps every row; a short row is never kept
            short = np.fromiter(map(width.__gt__, lens), bool, n)
            padded = [r + [""] * (width - k) if k < width else r for r, k in zip(rows, lens)]
        parsed = _parse_columns(list(zip(*padded)), inp.layout, rows.__getitem__)
        self._load_block(inp, start, parsed, short)

    def _load_block(self, inp: _Input, start: int, parsed: _Parsed,
                    short: np.ndarray | None = None) -> None:
        """Check the records of a block, keep those that pass and count
        the others; the rows flagged in short lack a field."""
        source, layout = inp.source, inp.layout
        values = [np.frombuffer(v) for v in parsed.values]
        n = len(values[0])
        times, days, *tickers = parsed.keys
        minute = _codes(self.minute_codes, times, np.int16)
        day = _codes(self.day_codes, days, np.int32)
        if tickers:
            ticker = _codes(self.ticker_codes, tickers[0], np.int32)
        else:
            code = self.tickers.setdefault(layout.file_ticker, len(self.tickers))
            ticker = np.full(n, code, dtype=np.int32)
        ok = (minute >= 0) & (day >= 0) & _valid_values(*values)
        if short is not None:
            ok &= ~short
        block = (source, start, ticker, day, minute, values)
        if ok.all():
            self.report.n_rows += n
            self._keep(*block, None)
            return
        skipped = ~ok
        skipped[parsed.blank] = False  # a blank record is not a row
        skipped = np.flatnonzero(skipped)
        self.report.n_rows += n - len(parsed.blank)
        self.report.skip(source, skipped + (start + 2), minute[skipped] == _OFF_SESSION)
        self._keep(*block, np.flatnonzero(ok))

    def _keep(self, source: str, start: int, ticker: np.ndarray, day: np.ndarray,
              minute: np.ndarray, values: list[np.ndarray],
              positions: np.ndarray | None) -> None:
        """Scatter a block's kept rows: all of them, or those at `positions`."""
        if positions is not None:
            ticker, day, minute = ticker[positions], day[positions], minute[positions]
            values = [v[positions] for v in values]

        def duplicate(k: int) -> str:
            line = start + (k if positions is None else int(positions[k])) + 2
            name = list(self.tickers)[ticker[k]]
            date = list(self.days)[day[k]]
            return f"{source}:{line}: duplicate cell ({name}, {date}, {minute[k]})"

        self.slabs.add(ticker, day, minute, values, duplicate)
        self.report.n_loaded += len(minute)

    def panel(self) -> MinutePanel:
        if not self.report.n_loaded:
            raise DataError("no usable rows in input")
        return self.slabs.panel(list(self.tickers), list(self.days))


def _codes(memo: _Memo, keys: tuple[list[str], array], dtype) -> np.ndarray:
    """The memo's code of each entry of a csvtext._distinct column."""
    distinct, position = keys
    codes = np.fromiter(map(memo.__getitem__, distinct), dtype, len(distinct))
    return codes[np.frombuffer(position, np.intc)]


def load_minute_bars(
    path,
    schema: Mapping[str, str] | None = None,
    *,
    time_format: str = "auto",
    minute_prices: bool = True,
) -> tuple[MinutePanel, LoadReport]:
    """Load minute bars from one CSV, a list of CSVs, or a directory.

    Files with a ticker column hold any number of tickers; files without
    one are per-ticker files and the ticker is the filename stem.
    Dates are YYYY-MM-DD (see parse_date). A malformed row is always
    skipped and counted in the report, with its file and line, as is a
    row outside the 09:30-16:00 session.
    A repeated (ticker, date, minute) cell rejects the whole load.
    From csvtext._HELPER_MIN_BYTES of input a forked helper parses a share
    of the blocks (see helper.in_order), with the same result; the load
    takes over the helper that csvtext.start began on the same files with
    the same schema. Without minute_prices the panel keeps only the minute
    volume and the daily OHLC (see MinutePanel), folded in as rows are
    read, which is all the analysis needs; it cannot be written to CSV.
    """
    paths, schema = csvtext._resolved(path, schema, time_format)
    loader = _ColumnLoader(time_format, minute_prices)
    loader.load(paths, schema)
    return loader.panel(), loader.report


def _csv_prefix(fields: Sequence[str]) -> str:
    """The csv module's encoding of `fields`, each followed by a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]  # drop the \r\n line terminator


#: present rows the writer formats per chunk of whole (company, day)
#: blocks; a chunk's arrays and strings bound the writer's memory.
_WRITE_ROWS = 1024

#: panels of at least this many present rows are written with a forked
#: helper formatting a share of the chunks, where fork and a second CPU are
#: available; on smaller ones the fork costs more than it saves. On a
#: 2-vCPU VM a 9,384-row write took as long either way, and an
#: 18,768-row one 0.77 times as long with the helper.
_WRITER_MIN_ROWS = 20_000

_MINUTE_TEXT = np.array([str(t) for t in range(SESSION_MINUTES)], dtype=object)


def _g17(values: np.ndarray) -> list[str]:
    """`%.17g` of each value, formatted once per distinct 64-bit pattern
    (so -0.0 and +0.0, and NaN payloads, stay apart): on bar data a price
    mostly repeats a neighbouring open, high, low or close."""
    bits, inverse = np.unique(values.astype(np.float64, copy=False).view(np.int64),
                              return_inverse=True)
    text = np.array(list(map("%.17g".__mod__, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _volume_text(volume: np.ndarray) -> list[str]:
    """`%.17g` of each volume. For integers of magnitude under 2**53
    other than -0.0 that text is str(int(v)), which is much cheaper."""
    if np.all((np.abs(volume) < 2.0 ** 53) & (volume == np.trunc(volume))
              & ~((volume == 0) & np.signbit(volume))):
        return list(map(str, volume.astype(np.int64).tolist()))
    return list(map("%.17g".__mod__, volume.tolist()))


def write_panel_csv(panel: MinutePanel, path) -> None:
    """Serialize to the canonical combined CSV (sorted, 17-digit floats).

    Rows go out in chunks of whole (company, day) blocks of about
    _WRITE_ROWS present rows, in C order, so the writer holds a few
    chunks' values and text (plus one company's day x minute mask while it
    counts rows). The csv module quotes each ticker and date once; `%.17g`
    gives the same text as format(x, ".17g"). From _WRITER_MIN_ROWS
    present rows a forked helper formats a share of the chunks (see
    helper.in_order); the file is the same. A panel without minute
    prices raises DataError.
    """
    if not panel.has_minute_prices:
        raise DataError("the panel holds no minute prices (open, high, low, close) "
                        "to write")
    n_days = len(panel.days)
    fields = [getattr(panel, name).reshape(-1, SESSION_MINUTES) for name in _VALUE_FIELDS]
    counts = np.zeros(len(fields[0]), dtype=np.int64)
    for i, company in enumerate(panel.volume):
        counts[i * n_days:(i + 1) * n_days] = np.count_nonzero(np.isfinite(company), axis=1)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    tickers = [_csv_prefix((ticker,)) for ticker in panel.companies]
    days = [_csv_prefix((day.isoformat(),)) for day in panel.days]
    encoding = locale.getpreferredencoding(False)  # a text-mode open()'s
    cuts = []  # the (first, last) block range of each chunk
    first = done = 0
    while done < total:
        # blocks up to the one that completes _WRITE_ROWS more rows
        last = min(int(np.searchsorted(ends, done + _WRITE_ROWS)) + 1, len(ends))
        cuts.append((first, last))
        first, done = last, int(ends[last - 1])

    def chunk_text(k: int) -> bytes:
        """The encoded rows of chunk k."""
        first, last = cuts[k]
        cells = np.flatnonzero(np.isfinite(fields[0][first:last]))
        volume, *prices = (f[first:last].reshape(-1)[cells] for f in fields)
        n = len(cells)
        text = _g17(np.concatenate(prices))
        rows = list(map(",".join, zip(
            _MINUTE_TEXT[cells % SESSION_MINUTES].tolist(), _volume_text(volume),
            text[:n], text[n:2 * n], text[2 * n:3 * n], text[3 * n:])))
        out = []
        start = 0
        for block in np.flatnonzero(counts[first:last]).tolist():
            block += first
            end = start + int(counts[block])
            prefix = tickers[block // n_days] + days[block % n_days]
            out.append(prefix + ("\r\n" + prefix).join(rows[start:end]) + "\r\n")
            start = end
        return "".join(out).encode(encoding)

    # forked before the file is opened, so that the child holds no buffer of it
    with in_order(range(len(cuts)), chunk_text, lambda: total >= _WRITER_MIN_ROWS) as texts, \
            open(path, "wb") as fh:
        fh.write((",".join(CANONICAL_COLUMNS) + "\r\n").encode(encoding))
        for _, text in texts:
            fh.write(text)


@dataclass(frozen=True)
class SemesterIndex:
    """Contiguous half-year periods labelled 1..S plus per-period ticker
    exclusions. Every panel day maps to exactly one label."""

    boundaries: tuple[tuple[int, dt.date, dt.date], ...]
    exclusions: Mapping[int, frozenset[str]] = field(default_factory=dict)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.boundaries)

    @property
    def n_semesters(self) -> int:
        return len(self.boundaries)

    def semester_of(self, day: dt.date) -> int:
        firsts = [b[1] for b in self.boundaries]
        k = bisect_right(firsts, day) - 1
        if k < 0 or day > self.boundaries[k][2]:
            raise UncoveredDate(f"day {day.isoformat()} outside all semester ranges")
        return self.boundaries[k][0]

    def range_of(self, s: int) -> tuple[dt.date, dt.date]:
        for label, first, last in self.boundaries:
            if label == s:
                return first, last
        raise DataError(f"no semester labelled {s}")

    def is_excluded(self, ticker: str, s: int) -> bool:
        return ticker in self.exclusions.get(s, frozenset())

    def with_exclusions(self, extra: Mapping[int, Iterable[str]]) -> "SemesterIndex":
        merged = {s: set(v) for s, v in self.exclusions.items()}
        for s, tickers in extra.items():
            merged.setdefault(int(s), set()).update(tickers)
        return SemesterIndex(self.boundaries,
                             {s: frozenset(v) for s, v in merged.items()})


def default_semester_boundaries(first_day: dt.date, last_day: dt.date) -> list[tuple[dt.date, dt.date]]:
    """Calendar half-years (Jan-Jun, Jul-Dec) covering the given span."""
    out = []
    year, first_half = first_day.year, first_day.month <= 6
    while True:
        if first_half:
            rng = (dt.date(year, 1, 1), dt.date(year, 6, 30))
        else:
            rng = (dt.date(year, 7, 1), dt.date(year, 12, 31))
        out.append(rng)
        if rng[1] >= last_day:
            return out
        first_half = not first_half
        if first_half:
            year += 1


def assign_semesters(panel: MinutePanel, boundaries: Sequence[tuple[dt.date, dt.date]]) -> SemesterIndex:
    """Label the panel's days with semesters 1..S in date order."""
    ranges = sorted(boundaries, key=lambda r: r[0])
    for (f1, l1), (f2, l2) in zip(ranges, ranges[1:]):
        if f2 <= l1:
            raise OverlappingRanges(
                f"ranges {f1}..{l1} and {f2}..{l2} overlap")
    for first, last in ranges:
        if first > last:
            raise DataError(f"range {first}..{last} is reversed")
    labelled = tuple((k + 1, first, last) for k, (first, last) in enumerate(ranges))
    index = SemesterIndex(labelled)
    for day in panel.days:
        index.semester_of(day)  # raises UncoveredDate
    return index


def semester_day_indices(panel: MinutePanel, index: SemesterIndex, s: int) -> np.ndarray:
    """Positions of semester s's days on the panel's (sorted) day axis."""
    first, last = index.range_of(s)
    return np.arange(bisect_left(panel.days, first), bisect_right(panel.days, last))


def included_company_indices(panel: MinutePanel, index: SemesterIndex, s: int) -> np.ndarray:
    """Positions of companies not excluded in semester s. The single gate
    through which semester-scoped statistics see the company axis."""
    excl = index.exclusions.get(s, frozenset())
    return np.array([i for i, c in enumerate(panel.companies) if c not in excl], dtype=int)


def require_included(index: SemesterIndex, ticker: str, s: int) -> None:
    if index.is_excluded(ticker, s):
        raise ExcludedPair(f"({ticker}, semester {s}) is excluded")


@dataclass
class CoverageRecord:
    ticker: str
    semester: int
    n_days: int
    coverage: float
    included: bool


@dataclass
class ValidationReport:
    min_day_coverage: float
    records: list[CoverageRecord]

    def exclusions(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for r in self.records:
            if not r.included:
                out.setdefault(r.semester, set()).add(r.ticker)
        return out

    def to_json(self) -> dict:
        return {
            "min_day_coverage": self.min_day_coverage,
            "pairs": [
                {
                    "ticker": r.ticker,
                    "semester": r.semester,
                    "n_days": r.n_days,
                    "coverage": r.coverage,
                    "included": r.included,
                }
                for r in self.records
            ],
        }


def validate_panel(panel: MinutePanel, index: SemesterIndex, min_day_coverage: float) -> ValidationReport:
    """Per (ticker, semester) coverage accounting.

    Coverage is the fraction of present minutes out of semester-days x 391;
    pairs under the threshold are flagged for downstream exclusion.
    """
    pres = panel.present()
    records = []
    for s in index.labels:
        day_idx = semester_day_indices(panel, index, s)
        denom = len(day_idx) * SESSION_MINUTES
        for i, ticker in enumerate(panel.companies):
            if denom == 0:
                records.append(CoverageRecord(ticker, s, 0, 0.0, False))
                continue
            cells = pres[i, day_idx, :]
            n_days = int(cells.any(axis=1).sum())
            coverage = float(cells.sum()) / denom
            records.append(CoverageRecord(
                ticker, s, n_days, coverage, coverage >= min_day_coverage))
    return ValidationReport(min_day_coverage, records)
