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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

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

        return _scatter_panel(list(tickers), list(days), t_code, d_code, minute,
                              values, duplicate)


_VALUE_FIELDS = ("volume", "open", "high", "low", "close")


def _first_duplicate(cell: np.ndarray) -> int | None:
    """Position of the first entry of `cell` equal to an earlier one."""
    _, first = np.unique(cell, return_index=True)
    if first.size == cell.size:
        return None
    later = np.ones(cell.size, dtype=bool)
    later[first] = False
    return int(np.argmax(later))


def _scatter_panel(tickers: Sequence[str], days: Sequence[dt.date],
                   t_code: np.ndarray, d_code: np.ndarray, minute: np.ndarray,
                   values: Sequence[np.ndarray], duplicate) -> MinutePanel:
    """Panel from per-row codes: row k is cell (tickers[t_code[k]],
    days[d_code[k]], minute[k]) with the five values[.][k]. The axes hold
    only the codes that occur. A repeated cell raises DuplicateCell with
    the text duplicate(k) of its first repeat."""
    axes = []
    ranks = []
    for labels, code in ((tickers, t_code), (days, d_code)):
        used = sorted(np.unique(code).tolist(), key=labels.__getitem__)
        rank = np.zeros(len(labels), dtype=np.int64)
        rank[used] = np.arange(len(used))
        axes.append(tuple(labels[k] for k in used))
        ranks.append(rank[code])
    companies, panel_days = axes
    shape = (len(companies), len(panel_days), SESSION_MINUTES)
    cell = (ranks[0] * shape[1] + ranks[1]) * SESSION_MINUTES + minute
    k = _first_duplicate(cell)
    if k is not None:
        raise DuplicateCell(duplicate(k))
    arrays = []
    for column in values:
        arr = np.full(shape, np.nan)
        arr.reshape(-1)[cell] = column
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


#: csv records parsed per block. Each block's string columns and per-row
#: arrays are garbage before the next is read, so this bounds the loader's
#: transient memory; per-block numpy overhead is negligible at this size.
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


class _ColumnLoader:
    """Kept rows of a load as compact code and float64 columns.

    Tickers and days are interned to integer codes in first-seen order and
    each distinct time, date and ticker string is parsed once. Skip
    reasons, line numbers (record index + 2) and error precedence follow
    the row-at-a-time MinuteBar rules: time first, then session range, then
    every other field.
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
        self.columns: list[list[np.ndarray]] = [[] for _ in range(8)]  # ticker, day, minute, 5 values
        # per kept block: (source, first record index, kept positions or
        # None for all rows, number kept)
        self.blocks: list[tuple[str, int, np.ndarray | None, int]] = []

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

    def load_file(self, p: Path, schema: Mapping[str, str]) -> None:
        self.report.files.append(str(p))
        with open(p, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                self._raise(DataError(f"{p}: empty file (header row required)"))
            try:
                layout = _Layout.from_header(p, header, schema)
            except MissingColumn as exc:
                self._raise(exc)
            start = 0
            while rows := list(islice(reader, _BLOCK_ROWS)):
                self._load_block(str(p), start, rows, layout)
                start += len(rows)

    def _load_block(self, source: str, start: int, rows: list[list[str]],
                    layout: _Layout) -> None:
        n = len(rows)
        width = layout.width
        lens = list(map(len, rows))
        short = None
        padded = rows
        if min(lens) < width:
            # pad so that zip keeps every row; a short row is never kept
            short = np.fromiter(map(width.__gt__, lens), bool, n)
            padded = [r + [""] * (width - k) if k < width else r for r, k in zip(rows, lens)]
        cols = list(zip(*padded))
        minute = np.fromiter(map(self.minute_codes.__getitem__, cols[layout.time]), np.int16, n)
        day = np.fromiter(map(self.day_codes.__getitem__, cols[layout.date]), np.int32, n)
        if layout.ticker is None:
            code = self.tickers.setdefault(layout.file_ticker, len(self.tickers))
            ticker = np.full(n, code, dtype=np.int32)
        else:
            ticker = np.fromiter(map(self.ticker_codes.__getitem__, cols[layout.ticker]),
                                 np.int32, n)
        values = [_floats(cols[k]) for k in layout.values]
        ok = (minute >= 0) & (day >= 0) & _valid_values(*values)
        if short is not None:
            ok &= ~short
        block = [ticker, day, minute, *values]
        if ok.all():
            self.report.n_rows += n
            self._keep(source, start, block, None)
            return

        bad = np.flatnonzero(~ok)
        blank = {k for k in bad[minute[bad] == _BAD_TIME].tolist()
                 if not any(c.strip() for c in rows[k])}
        self.report.n_rows += n - len(blank)
        for k in bad.tolist():
            if k in blank:
                continue
            line = start + k + 2
            if minute[k] == _OFF_SESSION:
                reason = "out-of-session"
            elif self.strict:
                self._keep(source, start, block, np.flatnonzero(ok[:k]))
                self._raise(MalformedRow(
                    f"{source}:{line}: {layout.row_error(rows[k], self.time_format)}"))
            else:
                reason = "malformed"
            self.report.skipped.append(SkippedRow(source, line, reason))
        self._keep(source, start, block, np.flatnonzero(ok))

    def _keep(self, source: str, start: int, block: list[np.ndarray],
              positions: np.ndarray | None) -> None:
        """Append a block's kept rows: all of them, or those at `positions`."""
        if positions is not None:
            block = [a[positions] for a in block]
        count = len(block[0])
        self.report.n_loaded += count
        for acc, arr in zip(self.columns, block):
            acc.append(arr)
        self.blocks.append((source, start, positions, count))

    def _duplicate(self, k: int, ticker: np.ndarray, day: np.ndarray,
                   minute: np.ndarray) -> str:
        """DuplicateCell text for kept row k, with its source line."""
        pos = k
        for source, start, positions, count in self.blocks:
            if pos < count:
                line = start + (pos if positions is None else int(positions[pos])) + 2
                break
            pos -= count
        name = list(self.tickers)[ticker[k]]
        date = list(self.days)[day[k]]
        return f"{source}:{line}: duplicate cell ({name}, {date}, {minute[k]})"

    def _raise(self, exc: DataError) -> NoReturn:
        """Raise exc, unless the rows kept so far already repeat a cell:
        a row-at-a-time load would have stopped at that repeat first."""
        if self.report.n_loaded:
            ticker, day, minute = (np.concatenate(acc) for acc in self.columns[:3])
            cell = (ticker.astype(np.int64) * len(self.days) + day) * SESSION_MINUTES + minute
            k = _first_duplicate(cell)
            if k is not None:
                raise DuplicateCell(self._duplicate(k, ticker, day, minute)) from None
        raise exc from None

    def panel(self) -> MinutePanel:
        if not self.report.n_loaded:
            raise DataError("no usable rows in input")
        columns = []
        for acc in self.columns:
            columns.append(np.concatenate(acc))
            acc.clear()
        ticker, day, minute, *values = columns
        return _scatter_panel(list(self.tickers), list(self.days), ticker, day, minute, values,
                              lambda k: self._duplicate(k, ticker, day, minute))


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
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    if isinstance(path, (list, tuple)):
        paths = [q for p in path for q in _csv_paths(p)]
    else:
        paths = _csv_paths(path)
    loader = _ColumnLoader(time_format, strict)
    for p in paths:
        loader.load_file(p, schema)
    return loader.panel(), loader.report


def _csv_prefix(fields: Sequence[str]) -> str:
    """The csv module's encoding of `fields`, each followed by a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]  # drop the \r\n line terminator


def write_panel_csv(panel: MinutePanel, path) -> None:
    """Serialize to the canonical combined CSV (sorted, 17-digit floats).

    Rows go out one (company, day) block at a time. The csv module quotes
    the block's ticker and date; `%.17g` gives the same text as
    format(x, ".17g").
    """
    pres = panel.present()
    counts = pres.sum(axis=2).tolist()
    minute = np.flatnonzero(pres) % SESSION_MINUTES
    # boolean indexing runs in C order: company, then day, then minute
    values = [getattr(panel, name)[pres] for name in _VALUE_FIELDS]
    end = 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(CANONICAL_COLUMNS)
        for ticker, day_counts in zip(panel.companies, counts):
            for day, count in zip(panel.days, day_counts):
                if not count:
                    continue
                start, end = end, end + count
                prefix = _csv_prefix((ticker, day.isoformat())).replace("%", "%%")
                row = prefix + "%d,%.17g,%.17g,%.17g,%.17g,%.17g\r\n"
                fh.write("".join(map(row.__mod__, zip(
                    minute[start:end].tolist(), *(v[start:end].tolist() for v in values)))))


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
