"""Activity, volatility, return, and shape-metric regressions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from intradayvol.errors import (
    ExcludedPair,
    NegativeVariance,
    NoData,
    NonPositivePrice,
    TooFewPoints,
)
from intradayvol.fits import rescaled_time
from intradayvol.metrics import (
    GK_DRIFT_WEIGHT,
    MINUTES_PER_RESCALED_UNIT,
    SemesterMetrics,
    activity,
    concavity_activity_regression,
    daily_ohlc,
    garman_klass_volatility,
    semester_endpoint_prices,
    semester_return,
)
from intradayvol.panel import SESSION_MINUTES, MinutePanel

from conftest import build_panel, contiguous_semesters, weekdays


class TestActivity:
    def test_full_coverage_is_mean_daily_volume(self, small_panel, small_index):
        got = activity(small_panel, small_index, "T00", 1)
        want = small_panel.volume[0, :4, :].mean(axis=0).sum()
        assert got == pytest.approx(want, rel=1e-12)

    def test_per_minute_divisors_with_gaps(self):
        volume = np.full((1, 2, SESSION_MINUTES), np.nan)
        volume[0, 0, :] = 10.0
        volume[0, 1, 0] = 30.0  # minute 0 present on both days, others on one
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 2)
        got = activity(panel, index, "T00", 1)
        assert got == pytest.approx(20.0 + 10.0 * 390)

    def test_no_days(self, small_panel, small_index):
        volume = np.full((1, 4, SESSION_MINUTES), np.nan)
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 4)
        with pytest.raises(NoData):
            activity(panel, index, "T00", 1)

    def test_excluded_pair(self, small_panel, small_index):
        index = small_index.with_exclusions({1: ["T00"]})
        with pytest.raises(ExcludedPair):
            activity(small_panel, index, "T00", 1)


def _price_panel():
    """One ticker, two days, hand-crafted OHLC on three present minutes."""
    n_t = SESSION_MINUTES
    volume = np.full((1, 2, n_t), np.nan)
    open_ = np.full((1, 2, n_t), np.nan)
    high = np.full((1, 2, n_t), np.nan)
    low = np.full((1, 2, n_t), np.nan)
    close = np.full((1, 2, n_t), np.nan)
    for d, minutes in enumerate(([5, 100, 380], [0, 17, 390])):
        for k, t in enumerate(minutes):
            volume[0, d, t] = 10.0
            open_[0, d, t] = 100.0 + d * 10 + k
            close[0, d, t] = 101.0 + d * 10 + k
            high[0, d, t] = 103.0 + d * 10 + k
            low[0, d, t] = 99.0 + d * 10 + k
    days = tuple(weekdays(2))
    return MinutePanel(("T00",), days, volume, open_, high, low, close)


class TestDailyOhlc:
    def test_first_last_and_extremes(self):
        panel = _price_panel()
        index = contiguous_semesters(panel, 2)
        bars = daily_ohlc(panel, index, "T00", 1)
        assert bars.shape == (2, 4)
        # day 0: open at first present minute 5, close at last (380)
        assert bars[0].tolist() == [100.0, 105.0, 99.0, 103.0]
        assert bars[1].tolist() == [110.0, 115.0, 109.0, 113.0]

    def test_empty_days_dropped(self):
        volume = np.full((1, 3, SESSION_MINUTES), np.nan)
        volume[0, 0, 100] = 5.0
        volume[0, 2, 100] = 5.0
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 3)
        bars = daily_ohlc(panel, index, "T00", 1)
        assert bars.shape == (2, 4)

    def test_no_data(self):
        volume = np.full((1, 2, SESSION_MINUTES), np.nan)
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 2)
        with pytest.raises(NoData):
            daily_ohlc(panel, index, "T00", 1)

    def test_multi_company_gappy_panel_matches_per_day_reference(self, rng):
        shape = (3, 6, SESSION_MINUTES)
        present = rng.uniform(size=shape) < 0.7
        present[1, 2] = False  # T01 has no minute on a day T00 and T02 trade
        present[2, 4, :300] = False
        mid = 100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal(shape), axis=2))
        spread = rng.uniform(0.0, 0.5, size=(2,) + shape)
        arrays = {"volume": np.rint(rng.uniform(1.0, 500.0, size=shape)),
                  "open": mid, "close": mid[:, :, ::-1].copy(),
                  "high": mid + spread[0], "low": mid - spread[1]}
        arrays = {k: np.where(present, v, np.nan) for k, v in arrays.items()}
        panel = MinutePanel(("T00", "T01", "T02"), tuple(weekdays(6)), **arrays)
        index = contiguous_semesters(panel, 3)
        assert present[0, 2].any() and present[2, 2].any()
        for i, ticker in enumerate(panel.companies):
            for s, days in ((1, range(0, 3)), (2, range(3, 6))):
                want = []
                for j in days:
                    t = np.nonzero(present[i, j])[0]
                    if len(t):
                        want.append((arrays["open"][i, j, t[0]],
                                     np.nanmax(arrays["high"][i, j]),
                                     np.nanmin(arrays["low"][i, j]),
                                     arrays["close"][i, j, t[-1]]))
                np.testing.assert_array_equal(daily_ohlc(panel, index, ticker, s),
                                              np.array(want))


class TestGarmanKlass:
    def test_degenerate_bars_give_exact_zero(self):
        bars = np.array([[100.0, 100.0, 100.0, 100.0]] * 5)
        assert garman_klass_volatility(bars) == 0.0

    def test_frozen_single_bar_value(self):
        bars = np.array([[100.0, 101.0, 99.0, 100.0]])
        want = math.sqrt(252.0 * 0.5 * math.log(101.0 / 99.0) ** 2)
        got = garman_klass_volatility(bars)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(0.22450692697024, abs=1e-12)

    def test_drift_weight_constant(self):
        assert GK_DRIFT_WEIGHT == pytest.approx(2 * math.log(2) - 1)

    def test_formula_on_random_bars(self, rng):
        o = 100.0 * np.exp(rng.standard_normal(30) * 0.01)
        c = o * np.exp(rng.standard_normal(30) * 0.01)
        hi = np.maximum(o, c) * 1.01
        lo = np.minimum(o, c) * 0.99
        bars = np.column_stack([o, hi, lo, c])
        want = math.sqrt(252.0 * np.mean(
            0.5 * np.log(hi / lo) ** 2 - GK_DRIFT_WEIGHT * np.log(c / o) ** 2))
        assert garman_klass_volatility(bars) == pytest.approx(want, rel=1e-12)

    def test_trading_days_scaling(self):
        bars = np.array([[100.0, 102.0, 99.0, 101.0]])
        a = garman_klass_volatility(bars, trading_days_per_year=252.0)
        b = garman_klass_volatility(bars, trading_days_per_year=63.0)
        assert a == pytest.approx(2.0 * b)

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            garman_klass_volatility(np.array([[100.0, 101.0, -1.0, 100.0]]))

    def test_negative_variance_on_inconsistent_bars(self):
        # H = L with C far from O only happens on malformed rows, and the
        # estimator must refuse rather than sqrt a negative number
        with pytest.raises(NegativeVariance):
            garman_klass_volatility(np.array([[100.0, 100.0, 100.0, 120.0]]))

    def test_shape_validation(self):
        with pytest.raises(NoData):
            garman_klass_volatility(np.empty((0, 4)))
        with pytest.raises(NoData):
            garman_klass_volatility(np.ones((3, 3)))


class TestSemesterReturn:
    def test_close_denominator_frozen_value(self):
        got = semester_return(9034.69, 12217.86)
        assert got == pytest.approx(26.053416883153023, abs=1e-12)

    def test_open_denominator_frozen_value(self):
        got = semester_return(9034.69, 12217.86, convention="open-denominator")
        assert got == pytest.approx(35.23275286700484, abs=1e-12)

    def test_sign_for_declines(self):
        assert semester_return(100.0, 80.0) == pytest.approx(-25.0)
        assert semester_return(100.0, 80.0, "open-denominator") == pytest.approx(-20.0)

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            semester_return(0.0, 10.0)

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            semester_return(1.0, 2.0, convention="mid")

    def test_endpoint_prices(self):
        panel = _price_panel()
        index = contiguous_semesters(panel, 2)
        o, c = semester_endpoint_prices(panel, index, "T00", 1)
        assert (o, c) == (100.0, 113.0)


class TestConcavityActivityRegression:
    def _metrics(self, slope, intercept, activities, ticker="GE"):
        rows = []
        for s, act in enumerate(activities, start=1):
            conc = slope * act / MINUTES_PER_RESCALED_UNIT + intercept
            rows.append(SemesterMetrics(ticker, s, act, 0.1, 1.0, conc, 0.0))
        return rows

    def test_recovers_planted_line(self):
        rows = self._metrics(10.0, -3.0, [500.0, 900.0, 1500.0, 2200.0])
        fit = concavity_activity_regression(rows)
        assert fit.coefficients["slope"] == pytest.approx(10.0, rel=1e-10)
        assert fit.coefficients["intercept"] == pytest.approx(-3.0, rel=1e-9)
        assert fit.model == "linear"

    def test_too_few_semesters(self):
        rows = self._metrics(10.0, 0.0, [500.0, 900.0])
        with pytest.raises(TooFewPoints):
            concavity_activity_regression(rows)

    def test_mixed_tickers_rejected(self):
        rows = (self._metrics(10.0, 0.0, [500.0, 900.0], "A")
                + self._metrics(10.0, 0.0, [700.0], "B"))
        with pytest.raises(ValueError, match="tickers"):
            concavity_activity_regression(rows)

    def test_quartic_family_slope_near_ten(self):
        # c4-varying quartics: concavity/activity slope is 6*mean(x^2)/mean(x^4)
        x = rescaled_time(np.arange(SESSION_MINUTES))
        rows = []
        from intradayvol.fits import fit_quartic, shape_functionals
        for s, c4 in enumerate((50.0, 120.0, 200.0, 310.0, 400.0), start=1):
            lam = 600.0 + c4 * x ** 4
            sf = shape_functionals(fit_quartic(lam))
            rows.append(SemesterMetrics("SYN", s, float(lam.sum()), 0.1, 1.0,
                                        sf.concavity, sf.symmetry))
        fit = concavity_activity_regression(rows)
        m2 = float((x ** 2).mean())
        m4 = float((x ** 4).mean())
        assert fit.coefficients["slope"] == pytest.approx(6.0 * m2 / m4, rel=1e-9)
        assert 9.8 < fit.coefficients["slope"] < 10.2
