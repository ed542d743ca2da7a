"""Per-(ticker, semester) scalar metrics.

Activity is the semester-average daily volume computed with the same
per-minute divisors as the mean profile, so it equals the sum of that
profile over the session. Volatility is the annualized Garman-Klass
range estimator on daily OHLC derived from the minute bars. Price
variation is the percent move between the semester's first open and
last close; the denominator convention is configurable because the two
common choices disagree by several points on large moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeVariance, NoData, NonPositivePrice, TooFewPoints
from .fits import FitResult, polynomial_fit
from .panel import (
    SESSION_MINUTES,
    MinutePanel,
    SemesterIndex,
    require_included,
    semester_day_indices,
)

GK_DRIFT_WEIGHT = 2.0 * math.log(2.0) - 1.0

#: one rescaled-session unit equals this many minutes; converts a summed
#: per-minute profile into the units the quartic coefficients live in
MINUTES_PER_RESCALED_UNIT = SESSION_MINUTES / 2.0

#: the price-variation denominators semester_return accepts
RETURN_CONVENTIONS = ("close-denominator", "open-denominator")


@dataclass(frozen=True)
class SemesterMetrics:
    ticker: str
    semester: int
    activity: float
    volatility: float
    price_variation: float
    concavity: float
    symmetry: float


def activity(panel: MinutePanel, index: SemesterIndex, ticker: str, s: int) -> float:
    """Semester-average daily volume: sum over minutes of the per-minute
    day average, each minute divided by its own present-day count."""
    require_included(index, ticker, s)
    i = panel.company_index(ticker)
    day_idx = semester_day_indices(panel, index, s)
    if len(day_idx) == 0:
        raise NoData(f"no {s}-semester days in panel for {ticker}")
    block = panel.volume[i, day_idx, :]
    finite = np.isfinite(block)
    counts = finite.sum(axis=0)
    if not counts.any():
        raise NoData(f"({ticker}, semester {s}) has no present minutes")
    sums = np.where(finite, block, 0.0).sum(axis=0)
    with np.errstate(invalid="ignore"):
        mu = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return float(mu.sum())


def daily_ohlc(panel: MinutePanel, index: SemesterIndex, ticker: str, s: int) -> np.ndarray:
    """(n_days, 4) open/high/low/close per day, from the first and last
    present minutes and the extreme prices between them (the panel's
    daily_ohlc). Days with no present minutes are dropped."""
    require_included(index, ticker, s)
    i = panel.company_index(ticker)
    bars = panel.daily_ohlc[i, semester_day_indices(panel, index, s)]
    bars = bars[~np.isnan(bars).all(axis=1)]
    if not len(bars):
        raise NoData(f"({ticker}, semester {s}) has no days with data")
    return bars


def garman_klass_volatility(daily_bars, trading_days_per_year: float = 252.0) -> float:
    """Annualized range-based volatility from daily (O, H, L, C) rows."""
    bars = np.asarray(daily_bars, dtype=float)
    if bars.ndim != 2 or bars.shape[1] != 4 or bars.shape[0] == 0:
        raise NoData("need a nonempty (n_days, 4) OHLC array")
    if np.any(~(np.isfinite(bars) & (bars > 0))):
        raise NonPositivePrice("all OHLC prices must be positive")
    o, h, l, c = bars.T
    summands = 0.5 * np.log(h / l) ** 2 - GK_DRIFT_WEIGHT * np.log(c / o) ** 2
    variance = trading_days_per_year * summands.mean()
    if variance < 0:
        raise NegativeVariance(f"annualized variance {variance} < 0 on pathological bars")
    return float(math.sqrt(variance))


def semester_return(first_day_open_price: float, last_day_close_price: float,
                    convention: str = "close-denominator") -> float:
    """Percent price variation over a semester.

    "close-denominator" is 100*(C - O)/C; "open-denominator" is the
    conventional 100*(C - O)/O.
    """
    o, c = first_day_open_price, last_day_close_price
    if not (o > 0 and c > 0):
        raise NonPositivePrice(f"prices must be positive, got {o} and {c}")
    if convention == "close-denominator":
        return 100.0 * (c - o) / c
    if convention == "open-denominator":
        return 100.0 * (c - o) / o
    raise ValueError(f"unknown return convention {convention!r}")


def semester_endpoint_prices(panel: MinutePanel, index: SemesterIndex, ticker: str,
                             s: int) -> tuple[float, float]:
    bars = daily_ohlc(panel, index, ticker, s)
    return float(bars[0, 0]), float(bars[-1, 3])


def concavity_activity_regression(metrics) -> FitResult:
    """OLS of concavity on activity across one ticker's semesters.

    Activity is converted from summed-minutes units to the rescaled
    session units the concavity lives in (divide by 195.5), which makes
    the leading-order theoretical slope 10 for quartic-shaped profiles.
    """
    metrics = list(metrics)
    if len(metrics) < 3:
        raise TooFewPoints(f"{len(metrics)} semesters, need >= 3")
    tickers = {m.ticker for m in metrics}
    if len(tickers) > 1:
        raise ValueError(f"metrics mix tickers {sorted(tickers)}")
    x = np.array([m.activity for m in metrics]) / MINUTES_PER_RESCALED_UNIT
    y = np.array([m.concavity for m in metrics])
    return polynomial_fit(x, y, 1, model="linear", window=(0, 390),
                          names=["intercept", "slope"])
