"""The pipeline's configuration and the JSON encoding of its files.

`PipelineConfig` checks itself when it is built, so a bad config file or
flag fails before any input is read. This module imports only `csvtext`
and `errors`, and no numpy: the CLI builds the config of a command that
reads input, and starts parsing it, before numpy and the analysis modules
are imported.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

from .csvtext import check_load_options, parse_date
from .errors import DataError

# The interpreter's built-in SHA-256, as random.py takes _sha512: hashlib
# loads OpenSSL's libcrypto, about 3.5 MB resident, for these few digests.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

#: the price-variation denominators metrics.semester_return accepts
RETURN_CONVENTIONS = ("close-denominator", "open-denominator")

#: the PipelineConfig fields that hold a (first, last) minute window
WINDOW_FIELDS = ("opening_window", "closing_window", "kurtosis_morning_window",
                 "kurtosis_afternoon_window")


def _jsonify(obj):
    """Recursively make an object JSON-clean: non-finite floats -> None,
    and an object with a to_json method -> its to_json(). Numpy values are
    tested for only once numpy is imported: before that there are none."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    np = sys.modules.get("numpy")
    if isinstance(obj, float) or np is not None and isinstance(obj, np.floating):
        x = float(obj)
        return x if math.isfinite(x) else None
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    if np is not None and isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if hasattr(obj, "to_json"):
        return _jsonify(obj.to_json())
    return obj


def dump_json(obj) -> bytes:
    """The bundle's JSON encoding: sorted keys, indent 2, NaN as null."""
    return (json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n").encode()


def read_json(path, what: str):
    """The JSON document in the file at path; DataError, naming the file as
    `what`, when it is missing, unreadable or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} {path} not found") from None
    except OSError as exc:
        raise DataError(f"{what} {path} is not readable: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_iso_date(value) -> bool:
    try:
        parse_date(value)
    except (TypeError, ValueError):
        return False
    return True


def _is_list_of(check, length=None):
    return lambda v: (isinstance(v, list) and all(map(check, v))
                      and (length is None or len(v) == length))


#: a PipelineConfig field's annotation -> (check of a JSON value for the
#: field, what that value must be)
_JSON_TYPES = {
    "str": (_is_str, "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "list[str]": (_is_list_of(_is_str), "a list of strings"),
    "list[int]": (_is_list_of(_is_int), "a list of integers"),
    "tuple[int, int]": (_is_list_of(_is_int, 2), "a [first, last] pair of minutes"),
    "dict[str, str]": (lambda v: isinstance(v, dict) and all(map(_is_str, v.values())),
                       "an object of strings"),
    "dict[int, list[str]]": (lambda v: isinstance(v, dict) and all(
        _is_str(k) and k.isdecimal() and _is_list_of(_is_str)(x) for k, x in v.items()),
        "an object of semester numbers -> lists of tickers"),
    "str | None": (lambda v: v is None or _is_str(v), "a string or null"),
    "list[tuple[str, str]] | None": (
        lambda v: v is None or _is_list_of(_is_list_of(_is_iso_date, 2))(v),
        "null or a list of [first, last] ISO dates (YYYY-MM-DD)"),
}


def json_fields(cls, doc, what: str) -> dict:
    """The fields of dataclass cls that the JSON value doc sets; DataError
    unless doc is an object whose keys are fields of cls, each holding a
    value of its type. Fields of a type _JSON_TYPES does not list, such as
    another dataclass, are left to the caller."""
    if not isinstance(doc, dict):
        raise DataError(f"a {what} must be a JSON object, not {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown {what} keys: {sorted(unknown)}")
    for name, value in doc.items():
        check, kind = _JSON_TYPES.get(cls.__dataclass_fields__[name].type, (None, None))
        if check is not None and not check(value):
            raise DataError(f"{what} field {name} must be {kind}, not {value!r}")
    return dict(doc)


@dataclass
class PipelineConfig:
    input_paths: list[str] = field(default_factory=list)
    schema: dict[str, str] = field(default_factory=dict)
    time_format: str = "auto"
    semester_boundaries: list[tuple[str, str]] | None = None
    min_day_coverage: float = 0.5
    ticker_exclusions: dict[int, list[str]] = field(default_factory=dict)
    opening_window: tuple[int, int] = (1, 100)
    opening_time_offset: float = 0.0
    closing_window: tuple[int, int] = (331, 390)
    kurtosis_morning_window: tuple[int, int] = (1, 99)
    kurtosis_afternoon_window: tuple[int, int] = (291, 390)
    kurtosis_tail_t_min: int = 60
    kurtosis_tail_excluded_semesters: list[int] = field(
        default_factory=lambda: list(range(11, 17)))
    regime_boundary_semester: int = 10
    confidence: float = 0.95
    return_convention: str = "close-denominator"
    literal_kurtosis: bool = False
    jobs: int = 1  # accepted for compatibility; stages run on one thread
    out_dir: str = "report"

    def __post_init__(self):
        for name in WINDOW_FIELDS:
            lo, hi = getattr(self, name)
            if not (0 <= lo < hi <= 390):
                raise DataError(f"{name} {(lo, hi)} outside the session or reversed")
        # the opening and morning-kurtosis fits take the log of the minute
        if self.kurtosis_morning_window[0] == 0:
            raise DataError(f"kurtosis_morning_window {self.kurtosis_morning_window} "
                            "must start after minute 0")
        if not (math.isfinite(self.opening_time_offset)
                and self.opening_window[0] + self.opening_time_offset > 0):
            raise DataError(f"opening_window {self.opening_window} with opening_time_offset "
                            f"{self.opening_time_offset} must start after minute 0")
        if self.kurtosis_afternoon_window[0] <= 290:
            raise DataError(f"kurtosis_afternoon_window {self.kurtosis_afternoon_window} "
                            "must sit inside (290, 390]")
        if not 0 <= self.kurtosis_tail_t_min <= 389:
            raise DataError(f"kurtosis_tail_t_min {self.kurtosis_tail_t_min} outside 0..389")
        if self.jobs < 1:
            raise DataError("jobs must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise DataError("confidence must be in (0, 1)")
        if not 0.0 <= self.min_day_coverage <= 1.0:
            raise DataError(f"min_day_coverage {self.min_day_coverage} outside [0, 1]")
        check_load_options(self.schema, self.time_format)
        if self.return_convention not in RETURN_CONVENTIONS:
            raise DataError(f"return_convention {self.return_convention!r} is not one of "
                            f"{', '.join(RETURN_CONVENTIONS)}")

    @classmethod
    def from_json(cls, doc: dict) -> "PipelineConfig":
        """The config a JSON document describes; DataError unless it is an
        object whose keys are config fields holding values of their type."""
        doc = json_fields(cls, doc, "config")
        for name in WINDOW_FIELDS:
            if name in doc:
                doc[name] = tuple(doc[name])
        if "ticker_exclusions" in doc:
            doc["ticker_exclusions"] = {int(k): list(v)
                                        for k, v in doc["ticker_exclusions"].items()}
        if doc.get("semester_boundaries") is not None:
            doc["semester_boundaries"] = [tuple(b) for b in doc["semester_boundaries"]]
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_json(read_json(path, "config file"))

    def load_options(self) -> dict:
        """The arguments of panel.load_minute_bars that load the configured
        input; DataError when there is none."""
        if not self.input_paths:
            raise DataError("no input: pass input paths or set input_paths in the config")
        return {"path": self.input_paths, "schema": self.schema or None,
                "time_format": self.time_format}

    def to_json(self) -> dict:
        doc = asdict(self)
        for name in WINDOW_FIELDS:
            doc[name] = list(doc[name])
        doc["ticker_exclusions"] = {str(k): sorted(v)
                                    for k, v in self.ticker_exclusions.items()}
        if self.semester_boundaries is not None:
            doc["semester_boundaries"] = [list(b) for b in self.semester_boundaries]
        return doc

    def analysis_json(self) -> dict:
        """The fields that can change bundle content. `jobs` (accepted for
        compatibility, it selects nothing) and the output location are
        dropped so that --jobs/--out never break the byte-identical-bundle
        contract."""
        doc = self.to_json()
        doc.pop("jobs", None)
        doc.pop("out_dir", None)
        return doc

    def config_hash(self) -> str:
        return sha256(
            json.dumps(self.analysis_json(), sort_keys=True).encode()).hexdigest()
