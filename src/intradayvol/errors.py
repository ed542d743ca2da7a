"""Exception hierarchy shared by all modules.

Two base classes split failures by exit code: DataError covers anything
wrong with the input data (missing columns, duplicate cells, samples too
small to work with), NumericalError covers computations that cannot
proceed or converge (logs of non-positive values, degenerate designs,
failed nonlinear fits).
"""
from __future__ import annotations


class DataError(Exception):
    """Input data is unusable as given. CLI exit code 2."""


class NumericalError(Exception):
    """A computation is undefined or failed to converge. CLI exit code 3."""


# --- ingest / panel construction ---

class MissingColumn(DataError):
    pass


class DuplicateCell(DataError):
    pass


class UncoveredDate(DataError):
    pass


class OverlappingRanges(DataError):
    pass


class OutOfSession(DataError):
    pass


# --- cumulants / aggregation ---

class EmptyInput(DataError):
    pass


class MixedSemesters(DataError):
    pass


class AllExcluded(DataError):
    pass


class ExcludedPair(DataError):
    """The (ticker, semester) pair was excluded by validation or config."""


# --- fitting ---

class NonPositiveValue(NumericalError):
    """Log-log fit window contains missing or non-positive values."""


class WindowTooSmall(DataError):
    pass


class NonPositiveExponent(NumericalError):
    pass


class InsufficientSpan(DataError):
    """All usable points fall in one half of the session."""


class RankDeficient(NumericalError):
    pass


class MorningNonPositive(NumericalError):
    pass


class AfternoonNoConverge(NumericalError):
    pass


class DegenerateX(NumericalError):
    pass


class TooFewPoints(DataError):
    pass


# --- hypothesis tests ---

class BothZeroVariance(NumericalError):
    pass


class TooSmall(DataError):
    pass


class EmptySample(DataError):
    pass


# --- metrics ---

class NoData(DataError):
    pass


class NonPositivePrice(DataError):
    pass


class NegativeVariance(NumericalError):
    pass


# --- synthetic generator ---

class InvalidSpec(DataError):
    pass


# --- reporting ---

class UnknownFigure(DataError):
    pass


class MissingUpstream(DataError):
    pass


class CorruptBundle(DataError):
    """A bundle file is missing from, or differs from, its manifest.json."""
