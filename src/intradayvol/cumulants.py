"""Per-minute robust cumulant profiles and their two aggregations.

For each session minute the sample is either the days of a semester for
one ticker ("days" axis, the individual analysis) or the companies
trading on one day ("companies" axis, the cross-sectional analysis).
Beyond mean and variance the estimators avoid raw third and fourth
moments: skewness is median-based, 6*(mean - median)/sigma, and excess
kurtosis comes from the mean absolute deviation,
24*(1 - sqrt(pi/2)*MAD/sigma) + skewness^2, both scaled so that Gaussian
samples score zero.

Conventions: population variance (divisor n); median of an even-sized
sample is the midpoint of the two central order statistics; minutes with
fewer than two samples, or zero variance where a ratio needs sigma,
carry NaN rather than a number.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AllExcluded, DataError, EmptyInput, MixedSemesters
from .panel import (
    SESSION_MINUTES,
    MinutePanel,
    SemesterIndex,
    included_company_indices,
    require_included,
    semester_day_indices,
)

PROFILE_COLUMNS = ["t", "mean", "median", "variance", "skewness", "kurtosis", "n"]

#: serialized alongside every profile so the estimator conventions travel
#: with the numbers
CONVENTIONS = {
    "variance": "population (divisor n)",
    "median": "midpoint of the two central order statistics",
    "kurtosis": "excess (Gaussian -> 0)",
    "missing": "NaN; any statistic with an absent ingredient is NaN",
}

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _row_medians(values: np.ndarray) -> np.ndarray:
    """np.nanmedian(values, axis=1) by one sort. NaN sorts last, so a
    row's m non-NaN entries (infinities included) come first, and its
    median is (0.0 + lo + hi) / 2 of entries (m - 1) // 2 and m // 2: one
    entry twice when m is odd, as nanmedian computes it for rows shorter
    than 600 (its sum starts from +0.0, so a -0.0 median comes out as
    0.0). All-NaN rows give NaN, without nanmedian's warning."""
    rows, width = values.shape
    if not width:
        return np.full(rows, np.nan)
    ordered = np.sort(values, axis=1)
    m = width - np.isnan(ordered).sum(axis=1)
    index = np.arange(rows)
    lo = ordered[index, (m - 1) // 2]
    hi = ordered[index, m // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        med = (0.0 + lo + hi) / 2
    med[m == 0] = np.nan
    return med


def minute_sample_stats(values: np.ndarray, *, literal_kurtosis: bool = False) -> dict[str, np.ndarray]:
    """Row-wise robust cumulants of a (minutes, samples) matrix.

    NaN entries are absent samples. Rows with n < 2 are all-NaN; rows
    with zero variance keep mean/median/variance but NaN out the two
    sigma-normalized statistics.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D (minutes, samples) array")
    finite = np.isfinite(values)
    n = finite.sum(axis=1)
    has_any = n > 0

    with np.errstate(invalid="ignore", divide="ignore"):
        total = np.where(finite, values, 0.0).sum(axis=1)
        mu = np.where(has_any, total / np.maximum(n, 1), np.nan)

        dev = np.where(finite, values - mu[:, None], 0.0)
        var = (dev ** 2).sum(axis=1) / np.maximum(n, 1)
        mad = np.abs(dev).sum(axis=1) / np.maximum(n, 1)

        med = _row_medians(values)

        sigma = np.sqrt(var)
        ok_sigma = sigma > 0
        zeta = np.where(ok_sigma, 6.0 * (mu - med) / np.where(ok_sigma, sigma, 1.0), np.nan)
        if literal_kurtosis:
            # reading the deviation term as |mean(v) - mu| = 0
            kappa = np.where(ok_sigma, 24.0 + zeta ** 2, np.nan)
        else:
            kappa = np.where(
                ok_sigma,
                24.0 * (1.0 - _SQRT_HALF_PI * mad / np.where(ok_sigma, sigma, 1.0)) + zeta ** 2,
                np.nan,
            )

    small = n < 2
    for arr in (mu, med, var, zeta, kappa):
        arr[small] = np.nan
    return {
        "mean": mu,
        "median": med,
        "variance": var,
        "skewness": zeta,
        "kurtosis": kappa,
        "n": n.astype(int),
    }


def sample_cumulants(sample: Sequence[float], *, literal_kurtosis: bool = False) -> tuple[float, float, float, float, float]:
    """(mean, median, variance, skewness, kurtosis) of one 1-D sample."""
    row = np.asarray(sample, dtype=float).reshape(1, -1)
    st = minute_sample_stats(row, literal_kurtosis=literal_kurtosis)
    return (float(st["mean"][0]), float(st["median"][0]), float(st["variance"][0]),
            float(st["skewness"][0]), float(st["kurtosis"][0]))


@dataclass(frozen=True)
class CumulantProfile:
    """391-minute cumulant arrays for one (semester, axis, key) slice."""

    semester: int
    axis: str  # "days" (sample = semester days, key = ticker)
               # or "companies" (sample = companies, key = ISO day)
    key: str
    mean: np.ndarray
    median: np.ndarray
    variance: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    sample_count: np.ndarray

    def __post_init__(self):
        if self.axis not in ("days", "companies"):
            raise ValueError(f"unknown axis {self.axis!r}")
        for name in ("mean", "median", "variance", "skewness", "kurtosis", "sample_count"):
            arr = getattr(self, name)
            if arr.shape != (SESSION_MINUTES,):
                raise ValueError(f"{name} must have length {SESSION_MINUTES}")
            arr.setflags(write=False)

    def counts(self) -> np.ndarray:
        return self.sample_count


@dataclass(frozen=True)
class AggregatedProfile:
    """Pointwise mean of many profiles: kind "ticker_mean" averages
    per-ticker day-axis profiles over companies, "day_mean" averages
    per-day cross-sections over days."""

    semester: int
    kind: str
    mean: np.ndarray
    median: np.ndarray
    variance: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    contributing_count: np.ndarray

    def __post_init__(self):
        if self.kind not in ("ticker_mean", "day_mean"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in ("mean", "median", "variance", "skewness", "kurtosis", "contributing_count"):
            getattr(self, name).setflags(write=False)

    def counts(self) -> np.ndarray:
        return self.contributing_count


def cumulants_over_days(panel: MinutePanel, index: SemesterIndex, ticker: str, s: int,
                        *, literal_kurtosis: bool = False) -> CumulantProfile:
    """Day-axis cumulants of one ticker within one semester (Eq-1-style
    per-minute divisors: only days with a quote at minute t count)."""
    require_included(index, ticker, s)
    i = panel.company_index(ticker)
    day_idx = semester_day_indices(panel, index, s)
    values = panel.volume[i, day_idx, :].T if len(day_idx) else np.empty((SESSION_MINUTES, 0))
    st = minute_sample_stats(values, literal_kurtosis=literal_kurtosis)
    return CumulantProfile(s, "days", ticker, st["mean"], st["median"], st["variance"],
                           st["skewness"], st["kurtosis"], st["n"])


def cumulants_over_companies(panel: MinutePanel, index: SemesterIndex, day: dt.date, s: int,
                             *, literal_kurtosis: bool = False) -> CumulantProfile:
    """Company-axis cumulants on one day; excluded tickers never enter."""
    if index.semester_of(day) != s:
        raise MixedSemesters(f"day {day.isoformat()} is not in semester {s}")
    j = panel.day_index(day)
    comp_idx = included_company_indices(panel, index, s)
    values = panel.volume[comp_idx, j, :].T if len(comp_idx) else np.empty((SESSION_MINUTES, 0))
    st = minute_sample_stats(values, literal_kurtosis=literal_kurtosis)
    return CumulantProfile(s, "companies", day.isoformat(), st["mean"], st["median"],
                           st["variance"], st["skewness"], st["kurtosis"], st["n"])


_FIELDS = ("mean", "median", "variance", "skewness", "kurtosis")


def _mean_of_profiles(profiles: Sequence[CumulantProfile], expect_axis: str, kind: str,
                      s: int | None) -> AggregatedProfile:
    if not profiles:
        raise EmptyInput("no profiles to aggregate")
    semesters = {p.semester for p in profiles}
    if len(semesters) > 1 or (s is not None and semesters != {s}):
        raise MixedSemesters(f"profiles span semesters {sorted(semesters)}, expected {s}")
    for p in profiles:
        if p.axis != expect_axis:
            raise DataError(f"expected {expect_axis!r}-axis profiles, got {p.axis!r}")
    out = {}
    count = None
    for name in _FIELDS:
        stack = np.stack([getattr(p, name) for p in profiles])
        finite = np.isfinite(stack)
        k = finite.sum(axis=0)
        with np.errstate(invalid="ignore"):
            out[name] = np.where(k > 0, np.where(finite, stack, 0.0).sum(axis=0) / np.maximum(k, 1), np.nan)
        if name == "mean":
            count = k
    return AggregatedProfile(profiles[0].semester, kind, out["mean"], out["median"],
                             out["variance"], out["skewness"], out["kurtosis"], count)


def aggregate_ticker_profiles(profiles: Sequence[CumulantProfile], s: int | None = None) -> AggregatedProfile:
    """Average per-ticker (day-axis) profiles over companies, skipping NaN."""
    return _mean_of_profiles(profiles, "days", "ticker_mean", s)


def aggregate_day_profiles(profiles: Sequence[CumulantProfile], s: int | None = None) -> AggregatedProfile:
    """Average per-day cross-sectional profiles over the semester's days."""
    return _mean_of_profiles(profiles, "companies", "day_mean", s)


def variance_ratio(ticker_mean: AggregatedProfile, day_mean: AggregatedProfile) -> np.ndarray:
    """Per-minute ratio of averaged day-axis variance to averaged
    cross-sectional variance; NaN where either side is missing or the
    denominator is zero."""
    if ticker_mean.semester != day_mean.semester:
        raise MixedSemesters("variance ratio needs profiles from one semester")
    num, den = ticker_mean.variance, day_mean.variance
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    ratio = np.where(np.isfinite(num) & np.isfinite(den) & (den != 0), ratio, np.nan)
    return ratio


def mean_kurtosis_tail(day_mean_profiles: Mapping[int, AggregatedProfile], t_min: int = 60,
                       excluded: frozenset[int] | set[int] = frozenset(range(11, 17)),
                       ) -> tuple[dict[int, float], np.ndarray]:
    """(a) per-semester time-average of cross-sectional kurtosis over
    t > t_min and (b) the per-minute kurtosis curve averaged over the
    non-excluded semesters."""
    included = sorted(set(day_mean_profiles) - set(excluded))
    if not included:
        raise AllExcluded("every semester is excluded from the kurtosis average")
    per_semester = {}
    curves = []
    for s in included:
        kappa = day_mean_profiles[s].kurtosis
        tail = kappa[t_min + 1:]
        finite = np.isfinite(tail)
        per_semester[s] = float(tail[finite].mean()) if finite.any() else float("nan")
        curves.append(kappa)
    stack = np.stack(curves)
    finite = np.isfinite(stack)
    k = finite.sum(axis=0)
    with np.errstate(invalid="ignore"):
        curve = np.where(k > 0, np.where(finite, stack, 0.0).sum(axis=0) / np.maximum(k, 1), np.nan)
    return per_semester, curve


def profile_csv_bytes(profile) -> bytes:
    """The profile as CSV: a PROFILE_COLUMNS header, then one row per
    minute with 17-digit floats, CRLF line endings. `%.17g` gives the same
    text as format(x, ".17g")."""
    columns = (profile.mean, profile.median, profile.variance, profile.skewness,
               profile.kurtosis, profile.counts())
    rows = zip(range(SESSION_MINUTES), *(c.tolist() for c in columns))
    body = "".join(map("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\r\n".__mod__, rows))
    return (",".join(PROFILE_COLUMNS) + "\r\n" + body).encode()


def profile_metadata(profile) -> dict:
    """JSON envelope for a profile CSV."""
    meta = {"semester": profile.semester, "conventions": dict(CONVENTIONS)}
    if isinstance(profile, CumulantProfile):
        meta["axis"] = profile.axis
        meta["key"] = profile.key
    else:
        meta["kind"] = profile.kind
    return meta
