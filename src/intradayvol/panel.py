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
import os
import pickle
import re
import select
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateCell,
    ExcludedPair,
    MissingColumn,
    OverlappingRanges,
    UncoveredDate,
)

SESSION_MINUTES = 391
SESSION_OPEN = 9 * 60 + 30  # 09:30 as minutes past midnight

#: canonical field -> default column name
DEFAULT_SCHEMA = {
    "ticker": "ticker",
    "date": "date",
    "time": "minute",
    "volume": "volume",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
}

CANONICAL_COLUMNS = ["ticker", "date", "minute", "volume", "open", "high", "low", "close"]

#: the time column formats: HH:MM clock times, minute indices, or either
#: told apart by a colon
TIME_FORMATS = ("auto", "clock", "index")


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


@dataclass
class LoadReport:
    """What the loader kept and what it dropped, per input file."""

    files: list[str] = field(default_factory=list)
    n_rows: int = 0
    n_loaded: int = 0
    skipped: list[SkippedRow] = field(default_factory=list)

    def n_skipped_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.skipped:
            out[row.reason] = out.get(row.reason, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "files": list(self.files),
            "rows_read": self.n_rows,
            "rows_loaded": self.n_loaded,
            "rows_skipped": [
                {"source": s.source, "line": s.line, "reason": s.reason}
                for s in self.skipped
            ],
            "skipped_by_reason": self.n_skipped_by_reason(),
        }


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


_VALUE_FIELDS = ("volume", "open", "high", "low", "close")
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


def _parse_minute(value: str, time_format: str) -> int:
    value = value.strip()
    fmt = time_format
    if fmt == "auto":
        fmt = "clock" if ":" in value else "index"
    if fmt == "clock":
        parts = value.split(":")
        if len(parts) == 3 and parts[2] == "00":
            parts = parts[:2]
        if len(parts) != 2:
            raise ValueError(f"bad clock time {value!r}")
        hh, mm = int(parts[0]), int(parts[1])
        if not (0 <= hh < 24 and 0 <= mm < 60):
            raise ValueError(f"bad clock time {value!r}")
        return hh * 60 + mm - SESSION_OPEN
    return int(value)


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """The date of a YYYY-MM-DD string; ValueError for any other text.
    date.fromisoformat alone also takes the ISO basic (20040105) and week
    (2004-W02-1) forms, from Python 3.11 on."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return dt.date.fromisoformat(text)


def _csv_paths(path) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        found = sorted(q for q in p.iterdir() if q.suffix.lower() == ".csv")
        if not found:
            raise DataError(f"no .csv files under {p}")
        return found
    if not p.exists():
        raise DataError(f"input path {p} does not exist")
    return [p]


#: characters read per text block (then cut after the block's last line
#: feed). The loader holds the text and arrays of a few blocks at a time
#: (see _in_order), so this bounds its transient memory.
_BLOCK_CHARS = 100_000

#: csv records parsed per block on the csv-module path.
_BLOCK_ROWS = 1024

#: inputs of at least this many bytes, all files together, are parsed on
#: two processes where fork and a second CPU are available (see _Helper);
#: on smaller ones the fork costs more than it saves.
_HELPER_MIN_BYTES = 1_000_000

#: items (blocks or writer chunks) a _Helper is asked for ahead of its
#: answers: one to work on and one queued, so that it does not wait
#: between them.
_HELPER_DEPTH = 2

#: bytes of a _Helper's answer pipe, where the system lets it be set
_PIPE_BYTES = 1 << 20

#: items (blocks or writer chunks) worked on and not yet handed out, at
#: most: while the helper's answer for the oldest is not back, _in_order
#: works on later items itself.
_AHEAD = 6

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


def _floats(column: Sequence[str]) -> np.ndarray:
    """float() of each string, NaN where float() raises. NaN fails every
    MinuteBar value rule, so a bad float makes its row malformed."""
    try:
        return np.fromiter(map(float, column), float, len(column))
    except ValueError:
        out = np.full(len(column), np.nan)
        for k, s in enumerate(column):
            try:
                out[k] = float(s)
            except ValueError:
                pass
        return out


def _memo_floats(columns: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """_floats of each column, parsing each distinct string of all the
    columns once: on bar data most prices repeat a neighbouring one."""
    strings = list(chain.from_iterable(columns))
    distinct = list(dict.fromkeys(strings))
    memo = dict(zip(distinct, _floats(distinct).tolist()))
    parsed = np.fromiter(map(memo.__getitem__, strings), float, len(strings))
    return list(parsed.reshape(len(columns), -1))


def _distinct(column: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct strings of a column in first-seen order, and the
    position of each entry's string among them."""
    position = {s: k for k, s in enumerate(dict.fromkeys(column))}
    return list(position), np.fromiter(map(position.__getitem__, column), np.int32,
                                       len(column))


def _split_block(text: str, width: int) -> list[list[str]] | None:
    """The columns of a block of whole lines, each line a record of
    `width` comma-separated fields, or None unless every record is one
    where csv.reader gives exactly str.split(","): no quote, no NUL, no
    lone CR, no blank or ragged line and no field over the csv field
    size limit."""
    if '"' in text or "\0" in text:
        return None
    n = text.count("\n")
    crlf = False
    if "\r" in text:
        cr = text.count("\r")
        crlf = cr == n  # as many CRs as line ends: the canonical writer's CR LF
        if not crlf:
            if cr != text.count("\r\n"):
                return None
            text = text.replace("\r\n", "\n")
    # a record separator token after every record: it falls every
    # width + 1 tokens exactly when each record has `width` fields
    tokens = text.replace("\n", ",\n,").split(",")
    ended = text.endswith("\n")
    if ended:
        del tokens[-2:]  # the last line end and the empty token after it
    else:
        n += 1
    stride = width + 1
    if len(tokens) != n * stride - 1 or tokens[width::stride].count("\n") != n - 1:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, tokens)) > limit:
        return None
    columns = [tokens[k::stride] for k in range(width)]
    if crlf:
        # each CR must end the last field of a record that has a line end
        last = columns[-1] if ended else columns[-1][:-1]
        kept = [s[:-1] for s in last if s.endswith("\r")]
        if len(kept) != len(last):
            return None
        columns[-1] = kept if ended else kept + columns[-1][-1:]
    return columns


def _valid_values(vol, o, h, lo, c) -> np.ndarray:
    """MinuteBar.__post_init__'s value rules, row-wise."""
    ok = np.isfinite(vol) & (vol >= 0) & (np.floor(vol) == vol)
    for p in (o, h, lo, c):
        ok &= np.isfinite(p) & (p > 0)
    return ok & (lo <= np.minimum(o, c)) & (h >= np.maximum(o, c)) & (lo <= h)


@dataclass(frozen=True)
class _Layout:
    """Column positions of one file."""

    time: int
    date: int
    ticker: int | None
    values: tuple[int, ...]   # volume, open, high, low, close
    file_ticker: str

    @property
    def width(self) -> int:
        """Fields a row needs for every column to be present."""
        return 1 + max(self.time, self.date, *self.values,
                       -1 if self.ticker is None else self.ticker)

    @property
    def keys(self) -> tuple[int, ...]:
        """The time, date and (if the file has one) ticker columns."""
        return (self.time, self.date) + (() if self.ticker is None else (self.ticker,))

    @staticmethod
    def from_header(p: Path, header: list[str], schema: Mapping[str, str]) -> "_Layout":
        if header and header[0].startswith("\ufeff"):
            header = [header[0][1:], *header[1:]]  # a UTF-8 byte-order mark
        header = [h.strip() for h in header]
        col = {}
        for fld in ("date", "time", *_VALUE_FIELDS):
            name = schema[fld]
            if name not in header:
                # the default time column has a common alternate spelling
                if fld == "time" and "time" in header:
                    col[fld] = header.index("time")
                    continue
                raise MissingColumn(f"{p}: column {name!r} (for {fld}) not in header")
            col[fld] = header.index(name)
        ticker_col = header.index(schema["ticker"]) if schema["ticker"] in header else None
        return _Layout(col["time"], col["date"], ticker_col,
                       tuple(col[f] for f in _VALUE_FIELDS), p.stem)


class _Parsed(NamedTuple):
    """A block's records as arrays, ready to be checked and kept."""

    keys: list[tuple[list[str], np.ndarray]]  # _distinct of each _Layout.keys column
    values: list[np.ndarray]                  # volume, open, high, low, close
    blank: list[int]                          # records of empty or all-space fields


def _parse_columns(columns: Sequence[Sequence[str]], layout: _Layout,
                   record: Callable[[int], Sequence[str]]) -> _Parsed:
    """The block whose record k has the fields record(k), and whose
    columns hold at least layout.width fields of each record."""
    keys = [_distinct(columns[k]) for k in layout.keys]
    volume, *prices = layout.values
    values = [_floats(columns[volume]), *_memo_floats([columns[k] for k in prices])]
    # a blank record has a blank time field
    times, position = keys[0]
    spaces = [k for k, s in enumerate(times) if not s.strip()]
    blank = []
    if spaces:
        blank = [k for k in np.flatnonzero(np.isin(position, spaces)).tolist()
                 if not any(f.strip() for f in record(k))]
    return _Parsed(keys, values, blank)


class _Input:
    """One input file, its columns read from its header row. Once
    _split_block declines a block of the file, declined is set: csv.reader
    reads that block and the rest of the file."""

    def __init__(self, path: Path, header: list[str], schema: Mapping[str, str]):
        self.source = str(path)
        self.layout = _Layout.from_header(path, header, schema)
        self.fields = len(header)
        self.declined = False


class _Block(NamedTuple):
    """Whole lines of a file's text, the last of it if last is set."""

    input: _Input
    text: str
    last: bool


def _file_blocks(paths: Sequence[Path], schema: Mapping[str, str]) -> Iterator[_Block]:
    """The text of each file past its header row, in file order, as
    blocks of whole lines: _BLOCK_CHARS characters are read at a time and
    cut after the last line feed, or at the end of the file, where the
    block is the file's last (and may be empty); any other block that
    holds no line feed is empty. A file is opened when its first block is
    read. The loader and its helper each read the files through this,
    because a forked child shares the file offsets of its parent's open
    files."""
    for path in paths:
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file (header row required)") from None
            inp = _Input(path, header, schema)
            tail = ""
            while True:
                text = tail + fh.read(_BLOCK_CHARS)
                if len(text) - len(tail) < _BLOCK_CHARS:  # read() falls short only at the end
                    yield _Block(inp, text, True)
                    break
                cut = text.rfind("\n") + 1
                text, tail = text[:cut], text[cut:]
                yield _Block(inp, text, False)


def _parse(block: _Block) -> _Parsed | None:
    """The block's records, or None if csv.reader must read it: it is the
    first block of its file that _split_block declines, or a later one."""
    inp = block.input
    columns = None if inp.declined else _split_block(block.text, inp.fields)
    if columns is None:
        inp.declined = True
        return None
    return _parse_columns(columns, inp.layout, lambda k: [c[k] for c in columns])


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


_PENDING = object()  # the answer to an item the helper was asked for


def _read_exact(fd: int, n: int) -> bytearray:
    data = bytearray()
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _send(fd: int, obj) -> None:
    """Write obj to a pipe, pickled after its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next object _send wrote to the pipe; EOFError once it is closed."""
    return pickle.loads(_read_exact(fd, int.from_bytes(_read_exact(fd, 8), "little")))


def _requests(fd: int) -> Iterator:
    """The objects _send writes to the pipe, until it is closed."""
    while True:
        try:
            yield _receive(fd)
        except EOFError:
            return


def _answers(items: Iterable, work: Callable, positions: Iterator[int]) -> Iterator:
    """work(item) of the item at each position asked for, the positions
    increasing; it ends where the items do."""
    items = iter(items)
    taken = 0
    for position in positions:
        for item in islice(items, position - taken, None):
            break
        else:
            return  # the items end before it: the parent works on it itself
        taken = position + 1
        yield work(item)


class _Helper:
    """A forked process that works on a share of its parent's items: asked
    for the item at a position, it sends back work(item) (see _in_order).

    Requests and answers are pickled through two pipes. A forked child
    shares its parent's memory as it was at the fork, so a request is just
    a position and only the answers are large. The child takes the items
    from its own copy of `items`, which the parent must not have started
    before the fork. The helper exits when its request pipe closes, when
    the items end, or when it writes an answer that no one will read; as a
    context manager it is stopped and reaped on exit.
    """

    def __init__(self, items: Iterable, work: Callable):
        requests, self.requests = os.pipe()
        self.answers, answers = os.pipe()
        try:
            import fcntl  # POSIX, as fork is

            # room for a few answers: a helper blocked on a full pipe waits
            # for its parent instead of working on its next request
            fcntl.fcntl(answers, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or over the system's limit: the default size
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self.requests, self.answers, answers):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.requests)
                os.close(self.answers)
                for answer in _answers(items, work, _requests(requests)):
                    _send(answers, answer)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(answers)
        self.asked: deque = deque()  # requests not yet answered, oldest first
        self.alive = True
        self.poll = select.poll()
        self.poll.register(self.answers, select.POLLIN)

    @staticmethod
    def start(items: Iterable, work: Callable, size: Callable[[], int],
              min_size: int) -> "_Helper | None":
        """A helper working on items, or None where it would not pay: no
        fork, one CPU, a job whose size() is under min_size, or no
        process to spare."""
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return None
        try:
            if size() < min_size:
                return None
            return _Helper(items, work)
        except OSError:
            return None

    def __enter__(self) -> "_Helper":
        return self

    def __exit__(self, *exc) -> None:
        """Stop and reap the helper: it sees its request pipe close, or
        its next answer fail."""
        self.stop()
        os.close(self.answers)
        os.waitpid(self.pid, 0)

    def ask(self, request) -> None:
        try:
            _send(self.requests, request)
        except BrokenPipeError:
            self.alive = False
            return
        self.asked.append(request)

    def ready(self) -> bool:
        """Whether the oldest answer, or the helper's exit, can be read."""
        return bool(self.poll.poll(0))

    def answer(self, request):
        """The answer to request, dropping the answers to those asked for
        before it; _PENDING if the helper has exited."""
        while self.asked:
            asked = self.asked.popleft()
            try:
                answer = _receive(self.answers)
            except EOFError:
                self.alive = False
                break
            if asked == request:
                return answer
        return _PENDING

    def stop(self) -> None:
        """Ask for nothing more: the helper exits after its last answer."""
        if self.requests is not None:
            os.close(self.requests)
            self.requests = None


def _in_order(helper: _Helper | None, items: Iterable,
              work: Callable) -> Iterator[tuple]:
    """(item, work(item)) for each of items, in order.

    The helper, if any, is kept asked for the items at the next
    _HELPER_DEPTH positions, and while its answer for the oldest is not
    back this process works on later items itself, up to _AHEAD items in
    all; it also works on the items of a helper that has exited. An error
    reading the items (a file that cannot be opened, decoded or has no
    usable header) is raised once the items before it are handed out.
    """
    numbered = enumerate(items)
    queue: deque[tuple] = deque()  # (position, item, work(item) or _PENDING), oldest first
    failed = None

    def take() -> tuple | None:
        """The next (position, item); None after the last, or an error."""
        nonlocal failed
        try:
            taken = next(numbered, None)
        except (DataError, OSError, ValueError, csv.Error) as exc:  # raised in its turn
            failed, taken = exc, None
        if taken is None and helper is not None:
            helper.stop()  # so that it exits while the last items are handed out
        return taken

    while True:
        while (helper is not None and helper.alive and len(helper.asked) < _HELPER_DEPTH
               and (taken := take())):
            helper.ask(taken[0])
            queue.append((*taken, _PENDING))
        if not queue or (queue[0][2] is _PENDING and len(queue) < _AHEAD
                         and not helper.ready()):
            if taken := take():
                queue.append((*taken, work(taken[1])))
                continue
            if not queue:
                if failed is not None:
                    raise failed
                return
        position, item, result = queue.popleft()
        if result is _PENDING:
            result = helper.answer(position)
        if result is _PENDING:  # the helper has exited
            result = work(item)
        yield item, result


class _ColumnLoader:
    """A load's kept rows, scattered block by block into a panel's slabs.

    Each file is read in text blocks of whole lines (see _file_blocks). A
    block of plain records (see _split_block) is split into columns with
    str.split; the first block that is not, and the rest of its file, go
    through csv.reader instead. Tickers and days are interned to integer
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
        blocks = _file_blocks(paths, schema)
        helper = _Helper.start(blocks, _parse, lambda: sum(p.stat().st_size for p in paths),
                               _HELPER_MIN_BYTES)
        with closing(blocks), helper or nullcontext():
            for inp, group in groupby(_in_order(helper, blocks, _parse),
                                      key=lambda pair: pair[0].input):
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
        source, layout, values = inp.source, inp.layout, parsed.values
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
        blank = set(parsed.blank)
        self.report.n_rows += n - len(blank)
        for k in np.flatnonzero(~ok).tolist():
            if k not in blank:
                reason = "out-of-session" if minute[k] == _OFF_SESSION else "malformed"
                self.report.skipped.append(SkippedRow(source, start + k + 2, reason))
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


def _codes(memo: _Memo, keys: tuple[list[str], np.ndarray], dtype) -> np.ndarray:
    """The memo's code of each entry of a _distinct column."""
    distinct, position = keys
    return np.fromiter(map(memo.__getitem__, distinct), dtype, len(distinct))[position]


def check_load_options(schema: Mapping[str, str], time_format: str) -> None:
    """DataError unless time_format is one of TIME_FORMATS and every key
    of schema is a DEFAULT_SCHEMA field."""
    if time_format not in TIME_FORMATS:
        raise DataError(f"time_format {time_format!r} is not one of {', '.join(TIME_FORMATS)}")
    unknown = set(schema) - set(DEFAULT_SCHEMA)
    if unknown:
        raise DataError(f"unknown schema fields {sorted(unknown)}; "
                        f"known: {', '.join(DEFAULT_SCHEMA)}")


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
    Inputs over _HELPER_MIN_BYTES are parsed on two processes, with the
    same result. Without minute_prices the panel keeps only the minute
    volume and the daily OHLC (see MinutePanel), folded in as rows are
    read, which is all the analysis needs; it cannot be written to CSV.
    """
    schema = schema or {}
    check_load_options(schema, time_format)
    schema = dict(DEFAULT_SCHEMA, **schema)
    if isinstance(path, (list, tuple)):
        paths = [q for p in path for q in _csv_paths(p)]
    else:
        paths = _csv_paths(path)
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

#: panels of at least this many present rows are written with a _Helper
#: formatting a share of the chunks, where fork and a second CPU are
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
    present rows a _Helper formats a share of the chunks (see
    _in_order); the file is the same. A panel without minute prices
    raises DataError.
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

    chunks = range(len(cuts))
    # forked before the file is opened, so that the child holds no buffer of it
    helper = _Helper.start(chunks, chunk_text, lambda: total, _WRITER_MIN_ROWS)
    with helper or nullcontext(), open(path, "wb") as fh:
        fh.write((",".join(CANONICAL_COLUMNS) + "\r\n").encode(encoding))
        for _, text in _in_order(helper, chunks, chunk_text):
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
