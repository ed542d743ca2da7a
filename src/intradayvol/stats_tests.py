"""Two-sample location tests: Welch's t and the Mann-Whitney-Wilcoxon
rank test, with no dependency beyond numpy.

The Student-t critical value is obtained by numerically inverting the
t CDF, itself evaluated through a continued-fraction regularized
incomplete beta. The MWW critical value comes from an embedded exact
two-tailed 95% table for n1, n2 <= 20 (regenerated by
scripts/gen_mww_tables.py) and from the tie-corrected normal
approximation with continuity correction beyond that range.

Verdict conventions, fixed by the downstream regime-shift protocol:
Welch rejects when |t| exceeds the critical value; MWW rejects when
U_min falls strictly below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BothZeroVariance, EmptySample, TooSmall


@dataclass(frozen=True)
class TestResult:
    test: str  # "welch" | "mww"
    statistic: float
    dof: float | None
    critical_value: float
    confidence: float
    reject_null: bool
    sample_sizes: tuple[int, int]
    method: str = ""

    def to_json(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "dof": self.dof,
            "critical_value": self.critical_value,
            "confidence": self.confidence,
            "reject_null": self.reject_null,
            "sample_sizes": list(self.sample_sizes),
            "method": self.method,
        }


# --- Student-t machinery -------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Lentz-style continued fraction for the incomplete beta
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: float) -> float:
    if dof <= 0:
        raise ValueError("dof must be positive")
    x = dof / (dof + t * t)
    p = 0.5 * regularized_incomplete_beta(0.5 * dof, 0.5, x)
    return p if t <= 0 else 1.0 - p


def student_t_quantile(p: float, dof: float) -> float:
    """Invert the t CDF by bisection; |CDF(result) - p| < 1e-8."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    hi = 1.0
    while student_t_cdf(hi, dof) < max(p, 1.0 - p):
        hi *= 2.0
        if hi > 1e12:
            break
    lo = -hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)


# --- Welch's t-test ------------------------------------------------------

def welch_test_from_moments(n_1: int, mean_1: float, var_1: float,
                            n_2: int, mean_2: float, var_2: float,
                            confidence: float = 0.95, tails: int = 2) -> TestResult:
    """Welch's test from summary statistics (sample variances, divisor n-1)."""
    if n_1 < 2 or n_2 < 2:
        raise TooSmall(f"need n >= 2 per sample, got {n_1} and {n_2}")
    se2 = var_1 / n_1 + var_2 / n_2
    if se2 <= 0:
        raise BothZeroVariance("both samples have zero variance")
    t = (mean_1 - mean_2) / math.sqrt(se2)
    # Welch-Satterthwaite in terms of the variance shares w_i, which lie in
    # [0, 1]: squaring se2 itself underflows to 0/0 for tiny variances.
    w_1 = var_1 / n_1 / se2
    w_2 = var_2 / n_2 / se2
    dof = 1.0 / (w_1 ** 2 / (n_1 - 1) + w_2 ** 2 / (n_2 - 1))
    if tails == 2:
        crit = student_t_quantile(0.5 + confidence / 2.0, dof)
        reject = abs(t) > crit
    else:
        # directional alternative: sample 1 located above sample 2
        crit = student_t_quantile(confidence, dof)
        reject = t > crit
    return TestResult("welch", t, dof, crit, confidence, bool(reject), (n_1, n_2),
                      method=f"{tails}-tailed")


def welch_test(sample_1, sample_2, confidence: float = 0.95, tails: int = 2) -> TestResult:
    a = np.asarray(sample_1, dtype=float)
    b = np.asarray(sample_2, dtype=float)
    if a.size < 2 or b.size < 2:
        raise TooSmall(f"need n >= 2 per sample, got {a.size} and {b.size}")
    return welch_test_from_moments(
        a.size, float(a.mean()), float(a.var(ddof=1)),
        b.size, float(b.mean()), float(b.var(ddof=1)),
        confidence=confidence, tails=tails)


# --- Mann-Whitney-Wilcoxon ----------------------------------------------

# Exact two-tailed 95% critical values: largest u with P(U <= u) <= 0.025
# under the null; -1 marks sizes with no rejection region. Upper triangle,
# key [min(n1,n2)][max(n1,n2)]. Regenerate with scripts/gen_mww_tables.py.
_MWW_CRIT_95 = {
    1: {1: -1, 2: -1, 3: -1, 4: -1, 5: -1, 6: -1, 7: -1, 8: -1, 9: -1, 10: -1,
        11: -1, 12: -1, 13: -1, 14: -1, 15: -1, 16: -1, 17: -1, 18: -1, 19: -1, 20: -1},
    2: {2: -1, 3: -1, 4: -1, 5: -1, 6: -1, 7: -1, 8: 0, 9: 0, 10: 0, 11: 0,
        12: 1, 13: 1, 14: 1, 15: 1, 16: 1, 17: 2, 18: 2, 19: 2, 20: 2},
    3: {3: -1, 4: -1, 5: 0, 6: 1, 7: 1, 8: 2, 9: 2, 10: 3, 11: 3, 12: 4,
        13: 4, 14: 5, 15: 5, 16: 6, 17: 6, 18: 7, 19: 7, 20: 8},
    4: {4: 0, 5: 1, 6: 2, 7: 3, 8: 4, 9: 4, 10: 5, 11: 6, 12: 7, 13: 8,
        14: 9, 15: 10, 16: 11, 17: 11, 18: 12, 19: 13, 20: 14},
    5: {5: 2, 6: 3, 7: 5, 8: 6, 9: 7, 10: 8, 11: 9, 12: 11, 13: 12, 14: 13,
        15: 14, 16: 15, 17: 17, 18: 18, 19: 19, 20: 20},
    6: {6: 5, 7: 6, 8: 8, 9: 10, 10: 11, 11: 13, 12: 14, 13: 16, 14: 17,
        15: 19, 16: 21, 17: 22, 18: 24, 19: 25, 20: 27},
    7: {7: 8, 8: 10, 9: 12, 10: 14, 11: 16, 12: 18, 13: 20, 14: 22, 15: 24,
        16: 26, 17: 28, 18: 30, 19: 32, 20: 34},
    8: {8: 13, 9: 15, 10: 17, 11: 19, 12: 22, 13: 24, 14: 26, 15: 29, 16: 31,
        17: 34, 18: 36, 19: 38, 20: 41},
    9: {9: 17, 10: 20, 11: 23, 12: 26, 13: 28, 14: 31, 15: 34, 16: 37, 17: 39,
        18: 42, 19: 45, 20: 48},
    10: {10: 23, 11: 26, 12: 29, 13: 33, 14: 36, 15: 39, 16: 42, 17: 45,
         18: 48, 19: 52, 20: 55},
    11: {11: 30, 12: 33, 13: 37, 14: 40, 15: 44, 16: 47, 17: 51, 18: 55,
         19: 58, 20: 62},
    12: {12: 37, 13: 41, 14: 45, 15: 49, 16: 53, 17: 57, 18: 61, 19: 65, 20: 69},
    13: {13: 45, 14: 50, 15: 54, 16: 59, 17: 63, 18: 67, 19: 72, 20: 76},
    14: {14: 55, 15: 59, 16: 64, 17: 69, 18: 74, 19: 78, 20: 83},
    15: {15: 64, 16: 70, 17: 75, 18: 80, 19: 85, 20: 90},
    16: {16: 75, 17: 81, 18: 86, 19: 92, 20: 98},
    17: {17: 87, 18: 93, 19: 99, 20: 105},
    18: {18: 99, 19: 106, 20: 112},
    19: {19: 113, 20: 119},
    20: {20: 127},
}


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def mww_u_statistics(sample_1, sample_2) -> tuple[float, float]:
    a = np.asarray(sample_1, dtype=float)
    b = np.asarray(sample_2, dtype=float)
    n1, n2 = a.size, b.size
    merged = np.concatenate([a, b])
    ranks = midranks(merged)
    t1 = float(ranks[:n1].sum())
    t2 = float(ranks[n1:].sum())
    u1 = n1 * n2 + n1 * (n1 + 1) / 2.0 - t1
    u2 = n1 * n2 + n2 * (n2 + 1) / 2.0 - t2
    return u1, u2


def _mww_critical(n1: int, n2: int, merged: np.ndarray, confidence: float,
                  tails: int) -> tuple[float, str]:
    m, n = min(n1, n2), max(n1, n2)
    if tails == 2 and confidence == 0.95 and n <= 20:
        entry = _MWW_CRIT_95[m][n]
        # -1 means no u satisfies the tail bound; critical 0 plus the
        # strict < rule encodes "never reject" for such sizes
        return (0.0 if entry < 0 else float(entry)), "exact-table"
    # normal approximation with tie-corrected variance and continuity
    # correction
    big_n = n1 + n2
    mu_u = n1 * n2 / 2.0
    _, counts = np.unique(merged, return_counts=True)
    tie_term = float((counts.astype(float) ** 3 - counts).sum())
    var_u = n1 * n2 / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var_u <= 0:
        return 0.0, "normal-approx"
    p = 0.5 + confidence / 2.0 if tails == 2 else confidence
    z = normal_quantile(p)
    return mu_u - z * math.sqrt(var_u) - 0.5, "normal-approx"


def mww_test(sample_1, sample_2, confidence: float = 0.95, tails: int = 2) -> TestResult:
    a = np.asarray(sample_1, dtype=float)
    b = np.asarray(sample_2, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be nonempty")
    u1, u2 = mww_u_statistics(a, b)
    u_min = min(u1, u2)
    crit, method = _mww_critical(a.size, b.size, np.concatenate([a, b]),
                                 confidence, tails)
    return TestResult("mww", u_min, None, crit, confidence, bool(u_min < crit),
                      (a.size, b.size), method=method)
