"""Synthetic minute-bar panels with planted ground truth.

Volumes are v = round(Lambda(t) * eps) where the intensity
Lambda(t) = a*(t+1)^(-alpha) + b*(391-t)^(-alpha') + c (plus an optional
Gaussian bump late in the session) and eps is i.i.d. mean-one noise.
Prices follow a per-company geometric random walk, or sit flat at the
start price when no price model is requested.

Randomness uses Philox counter-based streams keyed on the seed, one
stream per (company, day, purpose) cell, so generation is bit-identical
no matter how cells are scheduled. Semesters are consecutive blocks of
synthetic weekdays; regime-shift experiments plant per-semester
intensity overrides.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import InvalidSpec, OutOfSession
from . import fits
from .panel import SESSION_MINUTES, MinutePanel

_KEY_MIX = 0x9E3779B97F4A7C15  # second 64-bit key word, fixed
_VOLUME_STREAM = 0
_PRICE_STREAM = 1

FIRST_SYNTH_DAY = dt.date(2004, 1, 5)  # a Monday


def cv_to_sigma_l(cv: float) -> float:
    """Log-normal sigma giving a mean-one law with this coefficient of
    variation."""
    return math.sqrt(math.log1p(cv * cv))


def cv_to_gamma_shape(cv: float) -> float:
    return 1.0 / (cv * cv)


@dataclass(frozen=True)
class IntensitySpec:
    opening_amplitude: float = 0.0
    opening_exponent: float = 0.3
    closing_amplitude: float = 0.0
    closing_exponent: float = 0.4
    baseline: float = 0.0
    bump_amplitude: float = 0.0
    bump_center: int = 270
    bump_width: float = 10.0

    def profile(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lam = (self.opening_amplitude * (t + 1.0) ** (-self.opening_exponent)
               + self.closing_amplitude * (391.0 - t) ** (-self.closing_exponent)
               + self.baseline)
        if self.bump_amplitude:
            lam = lam + self.bump_amplitude * np.exp(
                -0.5 * ((t - self.bump_center) / self.bump_width) ** 2)
        return lam


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "lognormal"  # "lognormal" | "gamma" | "constant"
    sigma_l: float = 0.3
    shape: float = 11.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "lognormal":
            return rng.lognormal(mean=-0.5 * self.sigma_l ** 2, sigma=self.sigma_l, size=size)
        if self.kind == "gamma":
            return rng.gamma(shape=self.shape, scale=1.0 / self.shape, size=size)
        return np.ones(size)


@dataclass(frozen=True)
class GeneratorSpec:
    n_companies: int
    n_days: int = 126  # per semester
    seed: int = 0
    intensity: IntensitySpec = field(default_factory=IntensitySpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    n_semesters: int = 1
    overrides: Mapping[int, IntensitySpec] = field(default_factory=dict)
    price_model: str | None = None  # None -> flat prices; "gbm"
    daily_log_volatility: float = 0.01
    start_price: float = 100.0

    def intensity_for(self, s: int) -> IntensitySpec:
        return self.overrides.get(s, self.intensity)

    def validate(self) -> None:
        if self.n_companies < 1:
            raise InvalidSpec("need at least one company")
        if self.n_days < 2:
            raise InvalidSpec("need at least two days per semester")
        if self.n_semesters < 1:
            raise InvalidSpec("need at least one semester")
        for s in self.overrides:
            if not 1 <= s <= self.n_semesters:
                raise InvalidSpec(f"override for semester {s} outside 1..{self.n_semesters}")
        for s in range(1, self.n_semesters + 1):
            spec = self.intensity_for(s)
            amp = (spec.opening_amplitude, spec.closing_amplitude, spec.baseline,
                   spec.bump_amplitude)
            if any(a < 0 for a in amp):
                raise InvalidSpec(f"negative intensity amplitude in semester {s}")
            if not any(a > 0 for a in amp):
                raise InvalidSpec(f"identically zero intensity in semester {s}")
            if spec.opening_exponent <= 0 or spec.closing_exponent <= 0:
                raise InvalidSpec(f"intensity exponents must be positive in semester {s}")
            if spec.bump_width <= 0:
                raise InvalidSpec("bump width must be positive")
        if self.noise.kind not in ("lognormal", "gamma", "constant"):
            raise InvalidSpec(f"unknown noise kind {self.noise.kind!r}")
        if self.noise.kind == "lognormal" and self.noise.sigma_l <= 0:
            raise InvalidSpec("lognormal noise needs sigma_l > 0")
        if self.noise.kind == "gamma" and self.noise.shape <= 0:
            raise InvalidSpec("gamma noise needs shape > 0")
        if self.price_model not in (None, "gbm"):
            raise InvalidSpec(f"unknown price model {self.price_model!r}")
        if self.price_model == "gbm" and self.daily_log_volatility <= 0:
            raise InvalidSpec("gbm needs daily_log_volatility > 0")
        if self.start_price <= 0:
            raise InvalidSpec("start price must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Everything planted: per-semester intensity curves and parameters,
    semester date ranges, and continuous-limit shape values (activity,
    concavity 2c2+4c4 and symmetry c1/2+c3/4 of the least-squares quartic
    of the noiseless intensity)."""

    seed: int
    boundaries: tuple[tuple[dt.date, dt.date], ...]
    params: Mapping[int, IntensitySpec]
    intensity_curves: Mapping[int, np.ndarray]
    expected: Mapping[int, dict]

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "boundaries": [[f.isoformat(), l.isoformat()] for f, l in self.boundaries],
            "params": {
                str(s): {
                    "opening_amplitude": p.opening_amplitude,
                    "opening_exponent": p.opening_exponent,
                    "closing_amplitude": p.closing_amplitude,
                    "closing_exponent": p.closing_exponent,
                    "baseline": p.baseline,
                    "bump_amplitude": p.bump_amplitude,
                    "bump_center": p.bump_center,
                    "bump_width": p.bump_width,
                }
                for s, p in self.params.items()
            },
            "intensity_curves": {str(s): c.tolist() for s, c in self.intensity_curves.items()},
            "expected": {str(s): dict(v) for s, v in self.expected.items()},
        }


def _cell_rng(seed: int, stream: int, day: int, company: int,
              reuse: np.random.Generator | None = None) -> np.random.Generator:
    """A generator at the start of one cell's Philox stream. `reuse`, a
    generator an earlier call returned, is reset to that state and
    returned: building a Philox also seeds a throwaway SeedSequence from
    the OS, which costs as much as a cell's draws."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, _KEY_MIX], dtype=np.uint64)
    counter = np.array([0, stream, day, company], dtype=np.uint64)
    if reuse is None:
        return np.random.Generator(np.random.Philox(counter=counter, key=key))
    reuse.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return reuse


def _weekdays(start: dt.date, count: int) -> list[dt.date]:
    out = []
    day = start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def analytic_profile(spec: GeneratorSpec, t, s: int = 1) -> np.ndarray | float:
    """Expected volume Lambda(t) for semester s; scalar in, scalar out."""
    arr = np.asarray(t)
    if np.any((arr < 0) | (arr > 390)):
        raise OutOfSession(f"minute index outside 0..390: {t}")
    lam = spec.intensity_for(s).profile(arr)
    return float(lam) if np.isscalar(t) else lam


def _expected_shape_values(lam: np.ndarray) -> dict:
    quartic = fits.fit_quartic(lam)
    c = quartic.coefficients
    return {
        "activity": float(lam.sum()),
        "quartic": dict(c),
        "concavity": 2.0 * c["c2"] + 4.0 * c["c4"],
        "symmetry": 0.5 * c["c1"] + 0.25 * c["c3"],
    }


def generate_panel(spec: GeneratorSpec) -> tuple[MinutePanel, GroundTruth]:
    """Build the panel and its ground truth; bit-identical per seed."""
    spec.validate()
    n_total_days = spec.n_days * spec.n_semesters
    days = _weekdays(FIRST_SYNTH_DAY, n_total_days)

    width = max(2, len(str(spec.n_companies - 1)))
    companies = tuple(f"C{i:0{width}d}" for i in range(spec.n_companies))

    boundaries = []
    params = {}
    curves = {}
    expected = {}
    t_grid = np.arange(SESSION_MINUTES, dtype=float)
    for s in range(1, spec.n_semesters + 1):
        chunk = days[(s - 1) * spec.n_days: s * spec.n_days]
        first = chunk[0] if s == 1 else boundaries[-1][1] + dt.timedelta(days=1)
        boundaries.append((first, chunk[-1]))
        params[s] = spec.intensity_for(s)
        curves[s] = params[s].profile(t_grid)
        expected[s] = _expected_shape_values(curves[s])

    shape = (spec.n_companies, n_total_days, SESSION_MINUTES)
    volume = np.empty(shape)
    open_ = np.empty(shape)
    high = np.empty(shape)
    low = np.empty(shape)
    close = np.empty(shape)

    sigma_minute = spec.daily_log_volatility / math.sqrt(SESSION_MINUTES)
    rng = None
    for i in range(spec.n_companies):
        for d in range(n_total_days):
            s = d // spec.n_days + 1
            rng = _cell_rng(spec.seed, _VOLUME_STREAM, d, i, rng)
            eps = spec.noise.draw(rng, SESSION_MINUTES)
            volume[i, d] = np.rint(curves[s] * eps)
        if spec.price_model == "gbm":
            # per-cell return streams, chained deterministically across days
            day_start = spec.start_price
            for d in range(n_total_days):
                rng = _cell_rng(spec.seed, _PRICE_STREAM, d, i, rng)
                path = day_start * np.exp(np.cumsum(rng.normal(0.0, sigma_minute, SESSION_MINUTES)))
                opens = np.concatenate([[day_start], path[:-1]])
                open_[i, d] = opens
                close[i, d] = path
                high[i, d] = np.maximum(opens, path)
                low[i, d] = np.minimum(opens, path)
                day_start = path[-1]
        else:
            open_[i] = high[i] = low[i] = close[i] = spec.start_price

    panel = MinutePanel(companies, tuple(days), volume, open_, high, low, close)
    truth = GroundTruth(spec.seed, tuple(boundaries), params, curves, expected)
    return panel, truth
