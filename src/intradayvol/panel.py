"""Minute-bar panel construction and the trading-session calendar.

The trading session is the 391 minutes from 09:30 (minute 0) to 16:00
(minute 390). A panel is a dense (company, day, minute) array block with
NaN marking absent cells; after construction it is immutable and safe to
share across threads. Calendar days are grouped into contiguous
half-year periods labelled 1..S, which all downstream statistics key on.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import os
import pickle
import select
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataError,
    DuplicateCell,
    ExcludedPair,
    MalformedRow,
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
    """Dense (company, day, minute) store of volume and OHLC.

    Arrays are float64 with NaN as the missing-cell marker; a cell is
    present iff its volume entry is finite, and present cells always
    carry a full OHLC quadruple. Axes are strictly sorted and
    duplicate-free.
    """

    companies: tuple[str, ...]
    days: tuple[dt.date, ...]
    volume: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        if list(self.companies) != sorted(set(self.companies)):
            raise ValueError("company axis must be strictly sorted, duplicate-free")
        if list(self.days) != sorted(set(self.days)):
            raise ValueError("day axis must be strictly sorted, duplicate-free")
        shape = (len(self.companies), len(self.days), SESSION_MINUTES)
        for name in ("volume", "open", "high", "low", "close"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} array has shape {arr.shape}, want {shape}")
            arr.setflags(write=False)

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

    @staticmethod
    def from_bars(bars: Iterable[MinuteBar]) -> "MinutePanel":
        """Panel holding each bar in its cell; a repeated cell raises
        DuplicateCell."""
        bars = list(bars)
        n = len(bars)
        tickers: dict[str, int] = {}
        days: dict[dt.date, int] = {}
        t_code = np.fromiter((tickers.setdefault(b.ticker, len(tickers)) for b in bars),
                             np.int64, n)
        d_code = np.fromiter((days.setdefault(b.date, len(days)) for b in bars), np.int64, n)
        minute = np.fromiter((b.minute for b in bars), np.int64, n)
        values = [np.fromiter((getattr(b, name) for b in bars), float, n)
                  for name in _VALUE_FIELDS]

        def duplicate(k: int) -> str:
            b = bars[k]
            return f"duplicate cell ({b.ticker}, {b.date.isoformat()}, minute {b.minute})"

        slabs = _Slabs()
        slabs.add(t_code, d_code, minute, values, duplicate)
        return slabs.panel(list(tickers), list(days))


_VALUE_FIELDS = ("volume", "open", "high", "low", "close")


class _Slabs:
    """The cells of a panel under construction: one 391-minute slab per
    (ticker code, day code) pair that holds a cell, numbered in first-seen
    order, for each of the five value fields. A slab is NaN until its
    cells are added, so a finite volume marks a taken cell.

    Each field's slabs are one (capacity, 391) array that grows by a
    quarter, one field at a time, so the store holds at most 1.25 times
    its cells plus one field's copy while growing.
    """

    def __init__(self):
        self.number: dict[int, int] = {}     # ticker code << 32 | day code -> slab
        self.fields = [np.empty((0, SESSION_MINUTES)) for _ in _VALUE_FIELDS]

    def _slab(self, key: int) -> int:
        slab = self.number.get(key)
        if slab is None:
            slab = self.number[key] = len(self.number)
            if slab == len(self.fields[0]):
                capacity = max(16, slab + slab // 4)
                for f in range(len(self.fields)):
                    grown = np.empty((capacity, SESSION_MINUTES))
                    grown[:slab] = self.fields[f][:slab]
                    self.fields[f] = grown
            for arr in self.fields:
                arr[slab] = np.nan
        return slab

    def add(self, t_code: np.ndarray, d_code: np.ndarray, minute: np.ndarray,
            values: Sequence[np.ndarray], duplicate) -> None:
        """Put row k's five values[.][k] in cell (t_code[k], d_code[k],
        minute[k]). A cell that is already taken, or that an earlier row
        of this call repeats, raises DuplicateCell with the text
        duplicate(k) of the first such row, before anything is stored."""
        if not len(minute):
            return
        keys, inverse = np.unique((t_code.astype(np.int64) << 32) | d_code,
                                  return_inverse=True)
        slab = np.array([self._slab(k) for k in keys.tolist()], dtype=np.int64)[inverse]
        cell = slab * SESSION_MINUTES + minute
        repeat = np.isfinite(self.fields[0].reshape(-1)[cell])
        _, first = np.unique(cell, return_index=True)
        if first.size < cell.size or repeat.any():
            later = np.ones(cell.size, dtype=bool)
            later[first] = False
            raise DuplicateCell(duplicate(int(np.argmax(repeat | later))))
        for arr, column in zip(self.fields, values):
            arr.reshape(-1)[cell] = column

    def panel(self, tickers: Sequence[str], days: Sequence[dt.date]) -> MinutePanel:
        """The sorted panel of the slabs, where code k labels tickers[k]
        and days[k]. The axes hold only the labels that have a slab. Each
        field's slabs are dropped once its panel array is filled."""
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
        arrays = []
        for f in range(len(self.fields)):
            arr = np.full(shape, np.nan)
            arr.reshape(-1, SESSION_MINUTES)[dest] = self.fields[f][:len(dest)]
            self.fields[f] = None
            arrays.append(arr)
        return MinutePanel(companies, panel_days, *arrays)


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
#: (see _BlockReader), so this bounds its transient memory.
_BLOCK_CHARS = 100_000

#: csv records parsed per block on the csv-module path.
_BLOCK_ROWS = 1024

#: inputs of at least this many bytes, all files together, are parsed on
#: two processes where fork and a second CPU are available (see _Helper);
#: on smaller ones the fork costs more than it saves.
_HELPER_MIN_BYTES = 1_000_000

#: blocks the helper is asked for ahead of its answers: one to parse and
#: one queued, so that it does not wait for the loader between blocks.
_HELPER_DEPTH = 2

#: blocks read and not yet applied, at most: while the helper's answer
#: for the oldest is not back, the loader parses later blocks itself.
_READ_AHEAD = 6

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


def _csv_lines(text: str, fh) -> Iterable[str]:
    """The lines of `text` and then of the rest of `fh`, split as a file
    opened with newline="" splits them. `text` is the file's unparsed text
    up to fh's position, so its last line may end in fh: that line is
    completed from fh first, and a CR LF split between them stays one
    line end."""
    yield from io.StringIO(text + fh.readline(), newline="")
    yield from fh


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

    def row_error(self, row: list[str], time_format: str) -> str:
        """Why the scalar MinuteBar path rejects a row (strict mode's text)."""
        try:
            minute = _parse_minute(row[self.time], time_format)
        except (ValueError, IndexError):
            return "unparseable time field"
        try:
            ticker = row[self.ticker].strip() if self.ticker is not None else self.file_ticker
            MinuteBar(ticker, dt.date.fromisoformat(row[self.date].strip()), minute,
                      *(float(row[k]) for k in self.values))
        except (ValueError, IndexError) as exc:
            return str(exc)
        raise AssertionError(f"row {row!r} passes MinuteBar but failed the column rules")


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


def _blocks(fh) -> Iterator[tuple[str, int]]:
    """fh's text from its position in blocks of whole lines, as (rest,
    cut) pairs: rest is the text read and not in an earlier block, and
    rest[:cut] the block, cut after its last line feed or at the end of
    the file. A block that holds no line feed has cut 0."""
    tail = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        rest = tail + chunk
        if not rest:
            return
        cut = rest.rfind("\n") + 1 if chunk else len(rest)
        yield rest, cut
        tail = rest[cut:]


class _Input:
    """One input file, open past its header row, and its text blocks,
    numbered from 0. Both the loader and its helper open each file."""

    def __init__(self, number: int, path: Path, schema: Mapping[str, str]):
        self.number = number
        self.source = str(path)
        self.fh = open(path, newline="")
        try:
            try:
                header = next(csv.reader(self.fh))
            except StopIteration:
                raise DataError(f"{path}: empty file (header row required)") from None
            self.layout = _Layout.from_header(path, header, schema)
        except BaseException:
            self.fh.close()
            raise
        self.fields = len(header)
        self.blocks = enumerate(_blocks(self.fh))
        self.done = False  # no more blocks are read from fh

    def parse(self, rest: str, cut: int) -> _Parsed | None:
        """The block rest[:cut], or None if csv.reader must read it."""
        columns = _split_block(rest[:cut], self.fields)
        if columns is None:
            return None
        return _parse_columns(columns, self.layout, lambda k: [c[k] for c in columns])


_PENDING = object()  # the parse of a block the helper was asked for


@dataclass(eq=False)
class _Block:
    input: _Input
    number: int
    rest: str
    cut: int
    parsed: object = _PENDING  # _Parsed, or None for the csv path

    def record(self, k: int) -> list[str]:
        """The fields of record k, from the text split again (only a
        strict-mode error needs them)."""
        return [c[k] for c in _split_block(self.rest[:self.cut], self.input.fields)]


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


def _serve(paths: Sequence[Path], schema: Mapping[str, str], requests: int,
           answers: int) -> None:
    """The helper's loop: answer each (file number, block number) request,
    which come in file order, with Input.parse of that block, until the
    request pipe closes."""
    inp = None
    try:
        while True:
            try:
                number, wanted = _receive(requests)
            except EOFError:
                return
            if inp is None or inp.number != number:
                if inp is not None:
                    inp.fh.close()
                inp = _Input(number, paths[number], schema)
            for k, (rest, cut) in inp.blocks:
                if k == wanted:
                    break
            else:
                return  # the file is shorter than the loader's: it parses the block itself
            _send(answers, inp.parse(rest, cut))
    finally:
        if inp is not None:
            inp.fh.close()


class _Helper:
    """A forked process that parses the blocks the loader asks it for.

    It opens the input files and cuts them into blocks itself: a forked
    child shares the file offsets of the parent's open files, and the
    loader's requests are a few bytes, so no pipe fills with text. Its
    answers are pickled _Parsed arrays. It exits when its request pipe
    closes, or when it writes an answer that no one will read.
    """

    def __init__(self, paths: Sequence[Path], schema: Mapping[str, str]):
        requests, self.requests = os.pipe()
        self.answers, answers = os.pipe()
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
                _serve(paths, schema, requests, answers)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(answers)
        self.asked: deque[_Block] = deque()  # not yet answered, oldest first
        self.alive = True
        self.poll = select.poll()
        self.poll.register(self.answers, select.POLLIN)

    @staticmethod
    def start(paths: Sequence[Path], schema: Mapping[str, str]) -> "_Helper | None":
        """A helper for these inputs, or None where it would not pay: no
        fork, one CPU, under _HELPER_MIN_BYTES of input, or no process
        to spare."""
        if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return None
        try:
            if sum(p.stat().st_size for p in paths) < _HELPER_MIN_BYTES:
                return None
            return _Helper(paths, schema)
        except OSError:
            return None

    def ask(self, block: _Block) -> None:
        try:
            _send(self.requests, (block.input.number, block.number))
        except BrokenPipeError:
            self.alive = False
            return
        self.asked.append(block)

    def ready(self) -> bool:
        """Whether the oldest answer, or the helper's exit, can be read."""
        return bool(self.poll.poll(0))

    def answer(self, block: _Block):
        """The helper's parse of block, dropping the answers to blocks
        asked for before it; _PENDING if the helper has exited."""
        while self.asked:
            asked = self.asked.popleft()
            try:
                parsed = _receive(self.answers)
            except EOFError:
                self.alive = False
                break
            if asked is block:
                return parsed
        return _PENDING

    def stop(self) -> None:
        """Ask for no more blocks: the helper exits after its last answer."""
        if self.requests is not None:
            os.close(self.requests)
            self.requests = None

    def close(self) -> None:
        """Stop and reap the helper: it sees its request pipe close, or
        its next answer fail."""
        self.stop()
        os.close(self.answers)
        os.waitpid(self.pid, 0)


class _BlockReader:
    """The text blocks of the input files in file order, each parsed.

    Above _HELPER_MIN_BYTES a _Helper parses a share of the blocks: the
    reader keeps it asked for the next _HELPER_DEPTH blocks, and while the
    answer for the oldest block is not back it parses up to _READ_AHEAD
    later blocks itself. Every block is still handed out in file order.
    A file is opened when its first block is read, and an error opening
    or reading it is raised once the blocks before it are handed out.
    """

    def __init__(self, paths: Sequence[Path], schema: Mapping[str, str]):
        self.paths = iter(enumerate(paths))
        self.schema = schema
        self.inputs: deque[_Input] = deque()  # open, oldest first
        self.queue: deque[_Block] = deque()   # read, not yet handed out
        self.failed: Exception | None = None
        self.helper = _Helper.start(paths, schema)

    def __enter__(self) -> "_BlockReader":
        return self

    def __exit__(self, *exc) -> None:
        try:
            for inp in self.inputs:
                inp.fh.close()
        finally:
            if self.helper is not None:
                self.helper.close()

    def _read(self) -> _Block | None:
        """The next block of the input files; None after the last, or
        from a file that could not be opened or read."""
        while self.failed is None:
            inp = self.inputs[-1] if self.inputs else None
            try:
                if inp is not None and not inp.done:
                    block = next(inp.blocks, None)
                    if block is not None:
                        number, (rest, cut) = block
                        return _Block(inp, number, rest, cut)
                    inp.done = True
                    continue
                number, path = next(self.paths, (None, None))
                if path is None:
                    break
                self.inputs.append(_Input(number, path, self.schema))
            except (DataError, OSError, ValueError, csv.Error) as exc:
                self.failed = exc  # raised in its turn
        if self.helper is not None:
            self.helper.stop()  # so that it exits while the last blocks are applied
        return None

    def __iter__(self) -> Iterator[_Block]:
        helper = self.helper
        while True:
            while (helper is not None and helper.alive
                   and len(helper.asked) < _HELPER_DEPTH and (block := self._read())):
                helper.ask(block)
                self.queue.append(block)
            head = self.queue[0] if self.queue else None
            if head is None or (head.parsed is _PENDING and len(self.queue) < _READ_AHEAD
                                and not helper.ready()):
                block = self._read()
                if block is not None:
                    block.parsed = block.input.parse(block.rest, block.cut)
                    self.queue.append(block)
                    continue
                if head is None:
                    if self.failed is not None:
                        raise self.failed
                    return
            self.queue.popleft()
            if head.parsed is _PENDING:
                head.parsed = helper.answer(head)
            if head.parsed is _PENDING:  # the helper has exited
                head.parsed = head.input.parse(head.rest, head.cut)
            while self.inputs[0] is not head.input:
                self.inputs.popleft().fh.close()
            yield head

    def rest_of(self, block: _Block) -> str:
        """The text of block's file from block on that has been read, the
        rest being in block.input.fh; no more blocks of it are read, and
        those read already are dropped."""
        block.input.done = True
        last = block
        text = []
        while self.queue and self.queue[0].input is block.input:
            text.append(last.rest[:last.cut])
            last = self.queue.popleft()
        return "".join(text) + last.rest


class _ColumnLoader:
    """A load's kept rows, scattered block by block into a panel's slabs.

    Each file is read in text blocks of whole lines (see _BlockReader). A
    block of plain records (see _split_block) is split into columns with
    str.split; the first block that is not, and the rest of its file, go
    through csv.reader instead. Tickers and days are interned to integer
    codes in first-seen order, each distinct time, date and ticker string
    is parsed once, and each distinct price string once per block. Skip
    reasons, line numbers (record index + 2) and error precedence follow
    the row-at-a-time MinuteBar rules: time first, then session range,
    then every other field; a repeated cell raises in the block where it
    occurs.
    """

    def __init__(self, time_format: str, strict: bool):
        self.time_format = time_format
        self.strict = strict
        self.report = LoadReport()
        self.tickers: dict[str, int] = {}
        self.days: dict[dt.date, int] = {}
        self.minute_codes = _Memo(self._minute_code)
        self.day_codes = _Memo(self._day_code)
        self.ticker_codes = _Memo(lambda s: self.tickers.setdefault(s.strip(), len(self.tickers)))
        self.slabs = _Slabs()

    def _minute_code(self, s: str) -> int:
        try:
            minute = _parse_minute(s, self.time_format)
        except ValueError:
            return _BAD_TIME
        return minute if 0 <= minute <= 390 else _OFF_SESSION

    def _day_code(self, s: str) -> int:
        try:
            day = dt.date.fromisoformat(s.strip())
        except ValueError:
            return -1
        return self.days.setdefault(day, len(self.days))

    def load(self, paths: Sequence[Path], schema: Mapping[str, str]) -> None:
        self.report.files = [str(p) for p in paths]
        with _BlockReader(paths, schema) as reader:
            current, start = None, 0
            for block in reader:
                inp = block.input
                if inp is not current:
                    current, start = inp, 0
                if block.parsed is not None:
                    self._load_block(inp, start, block.parsed, None, block.record)
                    start += len(block.parsed.values[0])
                    continue
                records = csv.reader(_csv_lines(reader.rest_of(block), inp.fh))
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
        self._load_block(inp, start, parsed, short, rows.__getitem__)

    def _load_block(self, inp: _Input, start: int, parsed: _Parsed,
                    short: np.ndarray | None, record: Callable[[int], list[str]]) -> None:
        """Check and keep the records of a block, whose record k has the
        fields record(k)."""
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
            if k in blank:
                continue
            line = start + k + 2
            if minute[k] == _OFF_SESSION:
                reason = "out-of-session"
            elif self.strict:
                self._keep(*block, np.flatnonzero(ok[:k]))
                raise MalformedRow(
                    f"{source}:{line}: {layout.row_error(record(k), self.time_format)}")
            else:
                reason = "malformed"
            self.report.skipped.append(SkippedRow(source, line, reason))
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


def load_minute_bars(
    path,
    schema: Mapping[str, str] | None = None,
    *,
    time_format: str = "auto",
    strict: bool = False,
) -> tuple[MinutePanel, LoadReport]:
    """Load minute bars from one CSV, a list of CSVs, or a directory.

    Files with a ticker column hold any number of tickers; files without
    one are per-ticker files and the ticker is the filename stem.
    Malformed rows are skipped and reported (or raised when strict);
    rows outside the 09:30-16:00 session are always skipped and counted.
    A repeated (ticker, date, minute) cell rejects the whole load.
    Inputs over _HELPER_MIN_BYTES are parsed on two processes, with the
    same result.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    if isinstance(path, (list, tuple)):
        paths = [q for p in path for q in _csv_paths(p)]
    else:
        paths = _csv_paths(path)
    loader = _ColumnLoader(time_format, strict)
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
    _WRITE_ROWS present rows, in C order, so the writer holds one chunk's
    values and text (plus one company's day x minute mask while it counts
    rows). The csv module quotes each ticker and date once; `%.17g` gives
    the same text as format(x, ".17g").
    """
    n_days = len(panel.days)
    fields = [getattr(panel, name).reshape(-1, SESSION_MINUTES) for name in _VALUE_FIELDS]
    counts = np.zeros(len(fields[0]), dtype=np.int64)
    for i, company in enumerate(panel.volume):
        counts[i * n_days:(i + 1) * n_days] = np.count_nonzero(np.isfinite(company), axis=1)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    tickers = [_csv_prefix((ticker,)) for ticker in panel.companies]
    days = [_csv_prefix((day.isoformat(),)) for day in panel.days]
    first = done = 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(CANONICAL_COLUMNS)
        while done < total:
            # blocks up to the one that completes _WRITE_ROWS more rows
            last = min(int(np.searchsorted(ends, done + _WRITE_ROWS)) + 1, len(ends))
            cells = np.flatnonzero(np.isfinite(fields[0][first:last]))
            volume, *prices = (f[first:last].reshape(-1)[cells] for f in fields)
            n = len(cells)
            text = _g17(np.concatenate(prices))
            rows = list(map(",".join, zip(
                _MINUTE_TEXT[cells % SESSION_MINUTES].tolist(), _volume_text(volume),
                text[:n], text[n:2 * n], text[2 * n:3 * n], text[3 * n:])))
            start = 0
            for block in np.flatnonzero(counts[first:last]).tolist():
                block += first
                end = start + int(counts[block])
                prefix = tickers[block // n_days] + days[block % n_days]
                fh.write(prefix + ("\r\n" + prefix).join(rows[start:end]) + "\r\n")
                start = end
            first, done = last, int(ends[last - 1])


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
