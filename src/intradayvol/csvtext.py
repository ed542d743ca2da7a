"""The text side of the CSV load: the input's files and columns, the text
blocks they are read in, and the parse of a block into columns, with no
numpy.

A parsed block holds `array.array` buffers, which the loader in `panel`
wraps with `np.frombuffer` and applies. Because nothing here needs numpy,
a command that reads input can start the parse before numpy and the
analysis modules are imported: `start` forks the loader's helper (see
`helper.start`) with the numbers of the first blocks in its pipe, and
`load_minute_bars` takes that running helper over (`take`) when it loads
the same files with the same schema. `stop` stops and reaps a helper that
no load took.
"""
from __future__ import annotations

import csv
import datetime as dt
import re
import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataError, MissingColumn
from .helper import start as start_helper

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

#: the time column formats: HH:MM clock times, minute indices, or either
#: told apart by a colon
TIME_FORMATS = ("auto", "clock", "index")

#: the value columns, in the order a parsed block holds them
_VALUE_FIELDS = ("volume", "open", "high", "low", "close")

#: characters read per text block (then cut after the block's last line
#: feed). The loader holds the text and arrays of a few blocks at a time
#: (see helper.in_order), so this bounds its transient memory.
_BLOCK_CHARS = 100_000

#: inputs of at least this many bytes, all files together, are parsed on
#: two processes where fork and a second CPU are available (see
#: helper.in_order); on smaller ones the fork costs more than it saves.
_HELPER_MIN_BYTES = 1_000_000


def check_load_options(schema: Mapping[str, str], time_format: str) -> None:
    """DataError unless time_format is one of TIME_FORMATS and every key
    of schema is a DEFAULT_SCHEMA field."""
    if time_format not in TIME_FORMATS:
        raise DataError(f"time_format {time_format!r} is not one of {', '.join(TIME_FORMATS)}")
    unknown = set(schema) - set(DEFAULT_SCHEMA)
    if unknown:
        raise DataError(f"unknown schema fields {sorted(unknown)}; "
                        f"known: {', '.join(DEFAULT_SCHEMA)}")


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


def _resolved(path, schema: Mapping[str, str] | None,
              time_format: str) -> tuple[list[Path], dict[str, str]]:
    """The files and the full schema that load_minute_bars reads for its
    arguments; DataError for a bad option or path."""
    schema = schema or {}
    check_load_options(schema, time_format)
    if isinstance(path, (list, tuple)):
        paths = [q for p in path for q in _csv_paths(p)]
    else:
        paths = _csv_paths(path)
    return paths, dict(DEFAULT_SCHEMA, **schema)


def _big_enough(paths: Sequence[Path]) -> bool:
    """Whether the files are large enough for a helper (_HELPER_MIN_BYTES)."""
    return sum(p.stat().st_size for p in paths) >= _HELPER_MIN_BYTES


def _packed(typecode: str, values: Iterable, n: int) -> array:
    """array(typecode, values) of n values, packed in one call, which is
    faster than the array's own loop over them."""
    return array(typecode, struct.pack(f"{n}{typecode}", *values))


def _floats(column: Sequence[str]) -> array:
    """float() of each string, NaN where float() raises. NaN fails every
    MinuteBar value rule, so a bad float makes its row malformed."""
    try:
        return _packed("d", map(float, column), len(column))
    except ValueError:
        out = array("d", [float("nan")]) * len(column)
        for k, s in enumerate(column):
            try:
                out[k] = float(s)
            except ValueError:
                pass
        return out


def _memo_floats(columns: Sequence[Sequence[str]]) -> list[array]:
    """_floats of each column, parsing each distinct string of all the
    columns once: on bar data most prices repeat a neighbouring one."""
    strings = list(chain.from_iterable(columns))
    distinct = list(dict.fromkeys(strings))
    memo = dict(zip(distinct, _floats(distinct)))
    parsed = _packed("d", map(memo.__getitem__, strings), len(strings))
    n = len(columns[0])
    return [parsed[k * n:(k + 1) * n] for k in range(len(columns))]


def _distinct(column: Sequence[str]) -> tuple[list[str], array]:
    """The distinct strings of a column in first-seen order, and the
    position of each entry's string among them."""
    position = {s: k for k, s in enumerate(dict.fromkeys(column))}
    return list(position), _packed("i", map(position.__getitem__, column), len(column))


def _split_block(text: str, width: int) -> list[list[str]] | None:
    """The columns of a block of whole lines, each line a record of
    `width` comma-separated fields, or None unless every record is one
    where csv.reader gives exactly str.split(","): no quote, no NUL, no
    lone CR, no blank or ragged line and no field over the csv field
    size limit."""
    if '"' in text or "\0" in text:
        return None
    n = text.count("\n")
    ended = text.endswith("\n")
    # a record separator token after every record: it falls every
    # width + 1 tokens exactly when each record has `width` fields
    if "\r" not in text:
        text = text.replace("\n", ",\n,")
    else:
        pairs = text.count("\r\n")
        if text.count("\r") != pairs:
            return None  # a lone CR, which csv.reader reads as a line end
        if pairs == n:  # every line ends in CR LF, as the canonical writer's do
            # two one-character replaces: faster than one of CR LF
            text = text.replace("\r", ",").replace("\n", "\n,")
        else:
            text = text.replace("\r", "").replace("\n", ",\n,")
    tokens = text.split(",")
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
    return [tokens[k::stride] for k in range(width)]


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
    """A block's records as buffers, ready to be checked and kept."""

    keys: list[tuple[list[str], array]]  # _distinct of each _Layout.keys column
    values: list[array]                  # volume, open, high, low, close
    blank: list[int]                     # records of empty or all-space fields


def _parse_columns(columns: Sequence[Sequence[str]], layout: _Layout,
                   record: Callable[[int], Sequence[str]]) -> _Parsed:
    """The block whose record k has the fields record(k), and whose
    columns hold at least layout.width fields of each record."""
    keys = [_distinct(columns[k]) for k in layout.keys]
    volume, *prices = layout.values
    values = [_floats(columns[volume]), *_memo_floats([columns[k] for k in prices])]
    # a blank record has a blank time field
    times, position = keys[0]
    spaces = {k for k, s in enumerate(times) if not s.strip()}
    blank = []
    if spaces:
        blank = [k for k, p in enumerate(position)
                 if p in spaces and not any(f.strip() for f in record(k))]
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


class _StartedParse(NamedTuple):
    """A parse that start began: its files and schema, the blocks it reads
    (not yet started in this process) and the helper that helper.start
    forked on them."""

    paths: list[Path]
    schema: dict[str, str]
    blocks: Iterator[_Block]
    helper: object


_started_parse: _StartedParse | None = None  # at most one per process


def start(path, schema: Mapping[str, str] | None = None, *,
          time_format: str = "auto") -> None:
    """Begin the parse that load_minute_bars(path, schema, time_format=...)
    runs, on a forked helper with the numbers of the first blocks in its
    pipe, where the load would fork one (see helper.start). A parse started
    before is stopped first. DataError for a bad option or path, which
    starts nothing."""
    global _started_parse
    stop()
    paths, schema = _resolved(path, schema, time_format)
    blocks = _file_blocks(paths, schema)
    helper = start_helper(blocks, _parse, lambda: _big_enough(paths))
    if helper is not None:
        _started_parse = _StartedParse(paths, schema, blocks, helper)


def take(paths: Sequence[Path], schema: Mapping[str, str]) \
        -> tuple[Iterator[_Block], object] | None:
    """The blocks and the running helper of the parse that start began on
    these files with this schema, for the caller to read and reap; None,
    after stopping any other started parse, when there is none."""
    global _started_parse
    found = _started_parse
    if found is not None and (found.paths, found.schema) == (list(paths), dict(schema)):
        _started_parse = None
        return found.blocks, found.helper
    stop()
    return None


def stop() -> None:
    """Stop and reap the helper of a parse that start began and no load
    took over."""
    global _started_parse
    found, _started_parse = _started_parse, None
    if found is not None:
        found.helper.close()
