"""Profile fitting: opening/closing power laws, the quartic session
shape with its concavity/symmetry functionals, the two-regime kurtosis
relaxation, and generic scatter-relation polynomials.

All fitting is deterministic: power laws and polynomials go through
ordinary least squares (log-log axes for the power laws), and the
three-parameter afternoon kurtosis model y = A - B*u^beta, linear in
(A, B) at a fixed beta, by variable projection: the least residual sum
of squares over a fixed beta grid, refined by golden section. Minute
indices t run 0..390; the rescaled session variable is x = t/195 - 1 in
[-1, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AfternoonNoConverge,
    DegenerateX,
    InsufficientSpan,
    MorningNonPositive,
    NonPositiveExponent,
    NonPositiveValue,
    RankDeficient,
    TooFewPoints,
    WindowTooSmall,
)
from .panel import SESSION_MINUTES

HALF_SESSION = 195  # t < 195 is the first half, t >= 195 the second

POWER_LAW_MODELS = ("opening_powerlaw", "closing_powerlaw", "kurtosis_morning")


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: dict[str, float]
    standard_errors: dict[str, float]
    r: float
    window: tuple[int, int]
    n_points: int
    residual_sum_squares: float

    def __post_init__(self):
        t_lo, t_hi = self.window
        if not (0 <= t_lo < t_hi <= 390):
            raise ValueError(f"window {self.window} outside session or reversed")
        if self.n_points < len(self.coefficients) + 1:
            raise ValueError(
                f"{self.n_points} points cannot constrain {len(self.coefficients)} coefficients")

    def to_json(self) -> dict:
        out = {
            "model": self.model,
            "coefficients": dict(self.coefficients),
            "standard_errors": dict(self.standard_errors),
            "r": self.r,
            "window": list(self.window),
            "n_points": self.n_points,
            "residual_sum_squares": self.residual_sum_squares,
        }
        if self.model in POWER_LAW_MODELS:
            exponent = next(v for k, v in self.coefficients.items() if k != "log_amplitude")
            out["signed_slope"] = -exponent
        return out


@dataclass(frozen=True)
class ShapeFunctionals:
    concavity: float
    symmetry: float
    fitted_coefficients: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "concavity": self.concavity,
            "symmetry": self.symmetry,
            "fitted_coefficients": dict(self.fitted_coefficients),
        }


def rescaled_time(t) -> np.ndarray:
    return np.asarray(t, dtype=float) / HALF_SESSION - 1.0


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da ** 2).sum()) * float((db ** 2).sum()))
    if denom == 0.0:
        return 0.0
    return float(np.clip(float((da * db).sum()) / denom, -1.0, 1.0))


def polynomial_fit(x: np.ndarray, y: np.ndarray, degree: int, *, model: str,
                   window: tuple[int, int], names: list[str] | None = None) -> FitResult:
    """Least-squares polynomial of y on x. Callers guarantee n_points is
    large enough; a design matrix below full rank raises RankDeficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vander(x, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise RankDeficient(
            f"design matrix rank {rank} < {degree + 1} ({len(np.unique(x))} distinct x)")
    fitted = design @ coef
    resid = y - fitted
    rss = float((resid ** 2).sum())
    dof_resid = len(x) - (degree + 1)
    s2 = rss / dof_resid if dof_resid > 0 else 0.0
    cov = s2 * np.linalg.inv(design.T @ design)
    ses = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    names = names or [f"c{k}" for k in range(degree + 1)]
    r = _pearson(x, y) if degree == 1 else _pearson(fitted, y)
    return FitResult(model, dict(zip(names, map(float, coef))),
                     dict(zip(names, map(float, ses))), r, window, len(x), rss)


def _loglog_fit(profile: np.ndarray, window: tuple[int, int], x_values: np.ndarray,
                *, model: str, exponent_name: str, error_cls=NonPositiveValue) -> FitResult:
    t_lo, t_hi = window
    if not (0 <= t_lo < t_hi <= 390):
        raise ValueError(f"window {window} outside session or reversed")
    minutes = np.arange(t_lo, t_hi + 1)
    y = np.asarray(profile, dtype=float)[minutes]
    bad = minutes[~(np.isfinite(y) & (y > 0))]
    if len(bad):
        raise error_cls(f"log undefined at minutes {bad.tolist()}")
    if np.any(~(np.isfinite(x_values) & (x_values > 0))):
        raise error_cls("log undefined on the time axis for this window/offset")
    if len(minutes) < 5:
        raise WindowTooSmall(f"{len(minutes)} points in window {window}, need >= 5")
    lx = np.log(x_values)
    ly = np.log(y)
    fit = polynomial_fit(lx, ly, 1, model=model, window=window,
                         names=["log_amplitude", "slope"])
    slope = fit.coefficients["slope"]
    exponent = 0.0 if slope == 0.0 else -slope
    return FitResult(model,
                     {exponent_name: exponent, "log_amplitude": fit.coefficients["log_amplitude"]},
                     {exponent_name: fit.standard_errors["slope"],
                      "log_amplitude": fit.standard_errors["log_amplitude"]},
                     fit.r, window, fit.n_points, fit.residual_sum_squares)


def fit_opening_powerlaw(profile, window: tuple[int, int] = (1, 100),
                         time_offset: float = 0.0) -> FitResult:
    """Log-log OLS of the mean profile on t (+ optional offset) after the
    open; the exponent is positive for decaying profiles."""
    minutes = np.arange(window[0], window[1] + 1, dtype=float) + time_offset
    return _loglog_fit(profile, window, minutes,
                       model="opening_powerlaw", exponent_name="alpha")


def fit_closing_powerlaw(profile, window: tuple[int, int] = (331, 390)) -> FitResult:
    """Log-log OLS on the minutes-to-close axis 391 - t; the exponent is
    positive for profiles rising into the close."""
    minutes = 391.0 - np.arange(window[0], window[1] + 1, dtype=float)
    return _loglog_fit(profile, window, minutes,
                       model="closing_powerlaw", exponent_name="alpha_prime")


def half_volume_time(alpha: float) -> float:
    """Minutes for a t^(-alpha) profile to halve its first-minute value."""
    if not alpha > 0:
        raise NonPositiveExponent(f"alpha must be positive, got {alpha}")
    return 2.0 ** (1.0 / alpha)


def fit_quartic(profile) -> FitResult:
    """Quartic in rescaled time over all present minutes."""
    y = np.asarray(profile, dtype=float)
    minutes = np.nonzero(np.isfinite(y))[0]
    if len(minutes) < 6:
        raise WindowTooSmall(f"{len(minutes)} present minutes, need >= 6 for a quartic")
    if minutes.min() >= HALF_SESSION or minutes.max() < HALF_SESSION:
        raise InsufficientSpan("present minutes must span both halves of the session")
    x = rescaled_time(minutes)
    return polynomial_fit(x, y[minutes], 4, model="quartic",
                          window=(int(minutes.min()), int(minutes.max())))


def shape_functionals(fit: FitResult) -> ShapeFunctionals:
    """Discrete concavity (session mean of the fitted second derivative in
    rescaled time) and symmetry (mean fitted-value gap between the two
    session halves, split at t = 195)."""
    if fit.model != "quartic":
        raise ValueError(f"shape functionals need a quartic fit, got {fit.model!r}")
    c = [fit.coefficients[f"c{k}"] for k in range(5)]
    x = rescaled_time(np.arange(SESSION_MINUTES))
    second = 2.0 * c[2] + 6.0 * c[3] * x + 12.0 * c[4] * x ** 2
    fitted = c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3 + c[4] * x ** 4
    concavity = float(second.mean())
    symmetry = float((fitted[HALF_SESSION:].sum() - fitted[:HALF_SESSION].sum()) / SESSION_MINUTES)
    return ShapeFunctionals(concavity, symmetry, dict(fit.coefficients))


#: the afternoon exponent's search grid. Its point count is even, so
#: beta = 0 is not on it: there u^beta is the constant column of A.
_BETA_GRID = np.linspace(-12.0, 12.0, 480)
_BETA_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _afternoon_linear(u: np.ndarray, y: np.ndarray, beta):
    """For each exponent in beta: the least-squares (A, B) of
    y = A - B*u^beta at that fixed exponent, and the residual sum of
    squares. The RSS is summed from the residuals: the shortcut
    Syy - Sxy^2/Sxx cancels to a few digits on a close fit."""
    x = u ** np.asarray(beta, dtype=float)[..., None]
    x_mean = x.mean(axis=-1, keepdims=True)
    xc = x - x_mean
    yc = y - y.mean()
    slope = (xc @ yc) / (xc * xc).sum(axis=-1)
    resid = yc - slope[..., None] * xc
    return y.mean() - slope * x_mean[..., 0], -slope, (resid * resid).sum(axis=-1)


def _afternoon_exponent(u: np.ndarray, y: np.ndarray) -> float:
    """The exponent whose linear fit leaves the least RSS (variable
    projection): the least point of _BETA_GRID, refined by golden section
    between its two neighbours."""
    rss = _afternoon_linear(u, y, _BETA_GRID)[2]
    i = int(np.argmin(rss))
    if i in (0, len(_BETA_GRID) - 1):
        raise AfternoonNoConverge(
            f"residuals least at the exponent bound beta = {_BETA_GRID[i]:+g}")
    lo, hi = float(_BETA_GRID[i - 1]), float(_BETA_GRID[i + 1])
    while hi - lo > _BETA_TOL:
        c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        if _afternoon_linear(u, y, c)[2] < _afternoon_linear(u, y, d)[2]:
            hi = d
        else:
            lo = c
    return 0.5 * (lo + hi)


def fit_kurtosis_relaxation(kappa_profile,
                            morning_window: tuple[int, int] = (1, 99),
                            afternoon_window: tuple[int, int] = (291, 390),
                            ) -> tuple[FitResult, FitResult]:
    """Morning decay exponent via log-log OLS and afternoon drop
    y = A - B*(t - 290)^beta by variable projection over beta in
    (-12, 12); a least RSS at either bound raises AfternoonNoConverge."""
    minutes_m = np.arange(morning_window[0], morning_window[1] + 1, dtype=float)
    morning = _loglog_fit(kappa_profile, morning_window, minutes_m,
                          model="kurtosis_morning", exponent_name="beta_m",
                          error_cls=MorningNonPositive)

    t_lo, t_hi = afternoon_window
    if not (290 < t_lo < t_hi <= 390):
        raise ValueError(f"afternoon window {afternoon_window} must sit inside (290, 390]")
    minutes = np.arange(t_lo, t_hi + 1)
    y_all = np.asarray(kappa_profile, dtype=float)[minutes]
    keep = np.isfinite(y_all)
    if keep.sum() < 8:
        raise WindowTooSmall(f"{int(keep.sum())} usable afternoon points, need >= 8")
    u = (minutes[keep] - 290).astype(float)
    y = y_all[keep]
    if np.all(y == y[0]):
        raise AfternoonNoConverge("flat afternoon: no exponent to fit")

    beta = _afternoon_exponent(u, y)
    a, b, rss = map(float, _afternoon_linear(u, y, beta))
    ub = u ** beta
    fitted = a - b * ub
    jac = np.column_stack([np.ones_like(u), -ub, -b * ub * np.log(u)])
    dof_resid = len(u) - 3
    s2 = rss / dof_resid if dof_resid > 0 else 0.0
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
        ses = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        ses = np.full(3, np.nan)
    afternoon = FitResult(
        "kurtosis_afternoon",
        {"A": a, "B": b, "beta_a": beta},
        {"A": float(ses[0]), "B": float(ses[1]), "beta_a": float(ses[2])},
        _pearson(fitted, y), afternoon_window, len(u), rss)
    return morning, afternoon


_SPLIT_WINDOWS = {
    "morning": (0, HALF_SESSION - 1),
    "afternoon": (HALF_SESSION, 390),
    "whole": (0, 390),
}


def scatter_relation(x_profile, y_profile, split: str = "whole", order: int = 1) -> FitResult:
    """OLS polynomial (order 1 or 2) of one per-minute series on another
    over a session split, skipping minutes missing on either side."""
    if split not in _SPLIT_WINDOWS:
        raise ValueError(f"split must be one of {sorted(_SPLIT_WINDOWS)}")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    t_lo, t_hi = _SPLIT_WINDOWS[split]
    minutes = np.arange(t_lo, t_hi + 1)
    x = np.asarray(x_profile, dtype=float)[minutes]
    y = np.asarray(y_profile, dtype=float)[minutes]
    keep = np.isfinite(x) & np.isfinite(y)
    if keep.sum() < order + 2:
        raise TooFewPoints(f"{int(keep.sum())} paired points, need >= {order + 2}")
    x, y = x[keep], y[keep]
    if np.all(x == x[0]):
        raise DegenerateX("all x values identical")
    model = "linear" if order == 1 else "parabola"
    names = [f"a{k}" for k in range(order + 1)]
    return polynomial_fit(x, y, order, model=model, window=(t_lo, t_hi), names=names)
