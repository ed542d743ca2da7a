"""Power-law, quartic, kurtosis-relaxation, and scatter fits."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from intradayvol.errors import (
    AfternoonNoConverge,
    DegenerateX,
    InsufficientSpan,
    MorningNonPositive,
    NonPositiveExponent,
    NonPositiveValue,
    NumericalError,
    RankDeficient,
    TooFewPoints,
    WindowTooSmall,
)
from intradayvol.fits import (
    HALF_SESSION,
    fit_closing_powerlaw,
    fit_kurtosis_relaxation,
    fit_opening_powerlaw,
    fit_quartic,
    half_volume_time,
    polynomial_fit,
    rescaled_time,
    scatter_relation,
    shape_functionals,
)
from intradayvol.cumulants import aggregate_ticker_profiles, cumulants_over_days
from intradayvol.panel import SESSION_MINUTES, assign_semesters
from intradayvol.synth import (
    GeneratorSpec,
    IntensitySpec,
    NoiseSpec,
    cv_to_sigma_l,
    generate_panel,
)

T = np.arange(SESSION_MINUTES, dtype=float)


def opening_profile(a=2000.0, alpha=0.3, c=0.0):
    return a * (T + 1.0) ** (-alpha) + c


class TestPolynomialFit:
    def test_exact_quadratic(self):
        x = np.linspace(-2, 2, 30)
        y = 1.5 - 0.5 * x + 2.25 * x ** 2
        fit = polynomial_fit(x, y, 2, model="parabola", window=(0, 29))
        assert fit.coefficients["c0"] == pytest.approx(1.5, abs=1e-10)
        assert fit.coefficients["c1"] == pytest.approx(-0.5, abs=1e-10)
        assert fit.coefficients["c2"] == pytest.approx(2.25, abs=1e-10)
        assert fit.residual_sum_squares == pytest.approx(0.0, abs=1e-18)

    def test_linear_matches_scipy_linregress(self, rng):
        x = rng.uniform(0, 10, 40)
        y = 3.0 * x + rng.standard_normal(40)
        fit = polynomial_fit(x, y, 1, model="linear", window=(0, 39))
        ref = scipy.stats.linregress(x, y)
        assert fit.coefficients["c1"] == pytest.approx(ref.slope, rel=1e-12)
        assert fit.coefficients["c0"] == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.standard_errors["c1"] == pytest.approx(ref.stderr, rel=1e-9)
        assert fit.standard_errors["c0"] == pytest.approx(ref.intercept_stderr, rel=1e-9)
        assert fit.r == pytest.approx(ref.rvalue, rel=1e-12)

    def test_r_is_pearson_of_fit_for_higher_degree(self, rng):
        x = rng.uniform(-1, 1, 50)
        y = x ** 2 + 0.1 * rng.standard_normal(50)
        fit = polynomial_fit(x, y, 2, model="parabola", window=(0, 49))
        design = np.vander(x, 3, increasing=True)
        fitted = design @ [fit.coefficients[f"c{k}"] for k in range(3)]
        want = scipy.stats.pearsonr(fitted, y).statistic
        assert fit.r == pytest.approx(want, rel=1e-9)

    def test_rank_deficient(self):
        x = np.array([1.0, 1.0, 2.0, 2.0])
        with pytest.raises(RankDeficient):
            polynomial_fit(x, x ** 2, 2, model="parabola", window=(0, 3))

    def test_window_validation(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="window"):
            polynomial_fit(x, x, 1, model="linear", window=(100, 50))

    def test_underdetermined_points_rejected(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="points"):
            polynomial_fit(x, x, 1, model="linear", window=(0, 1))


class TestOpeningPowerLaw:
    def test_exact_recovery_on_integer_axis(self):
        profile = np.full(SESSION_MINUTES, np.nan)
        t = np.arange(1, 101, dtype=float)
        profile[1:101] = 500.0 * t ** (-0.29)
        fit = fit_opening_powerlaw(profile)
        assert fit.coefficients["alpha"] == pytest.approx(0.29, abs=1e-12)
        assert fit.coefficients["log_amplitude"] == pytest.approx(
            math.log(500.0), abs=1e-12)
        assert fit.r == pytest.approx(-1.0)
        assert fit.to_json()["signed_slope"] == pytest.approx(-0.29)

    def test_offset_matches_generator_grid(self):
        fit = fit_opening_powerlaw(opening_profile(alpha=0.37), time_offset=1.0)
        assert fit.coefficients["alpha"] == pytest.approx(0.37, abs=1e-12)
        assert fit.n_points == 100
        assert fit.window == (1, 100)

    def test_flat_profile_alpha_is_tiny_and_never_negative_zero(self):
        fit = fit_opening_powerlaw(np.full(SESSION_MINUTES, 7.0))
        alpha = fit.coefficients["alpha"]
        assert abs(alpha) < 1e-12
        if alpha == 0.0:
            assert math.copysign(1.0, alpha) == 1.0

    def test_non_positive_minutes_are_named(self):
        profile = opening_profile()
        profile[50] = 0.0
        profile[60] = np.nan
        with pytest.raises(NonPositiveValue, match=r"\[50, 60\]"):
            fit_opening_powerlaw(profile)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            fit_opening_powerlaw(opening_profile(), window=(1, 4))

    def test_reversed_window(self):
        with pytest.raises(ValueError):
            fit_opening_powerlaw(opening_profile(), window=(100, 1))

    @given(st.floats(0.05, 3.0), st.floats(0.0, 12.0))
    @settings(max_examples=80, deadline=None)
    def test_recovery_property(self, alpha, log_a):
        profile = np.exp(log_a) * (T + 1.0) ** (-alpha)
        fit = fit_opening_powerlaw(profile, time_offset=1.0)
        assert fit.coefficients["alpha"] == pytest.approx(alpha, abs=1e-9)


class TestClosingPowerLaw:
    def test_exact_recovery(self):
        profile = 800.0 * (391.0 - T) ** (-0.4)
        fit = fit_closing_powerlaw(profile)
        assert fit.coefficients["alpha_prime"] == pytest.approx(0.4, abs=1e-12)
        assert fit.window == (331, 390)
        assert fit.n_points == 60

    def test_time_reversal_duality(self):
        profile = opening_profile(alpha=0.33)
        reversed_profile = profile[::-1].copy()
        # x = 391 - t on [290, 389] equals x = t + 1 on [1, 100]
        closing = fit_closing_powerlaw(reversed_profile, window=(290, 389))
        opening = fit_opening_powerlaw(profile, time_offset=1.0)
        assert closing.coefficients["alpha_prime"] == pytest.approx(
            opening.coefficients["alpha"], abs=1e-10)

    def test_rising_into_close_positive_exponent(self):
        profile = 100.0 * (391.0 - T) ** (-0.25)
        assert profile[390] > profile[331]
        fit = fit_closing_powerlaw(profile)
        assert fit.coefficients["alpha_prime"] > 0


class TestHalfVolumeTime:
    def test_paper_scale_values(self):
        assert half_volume_time(0.29) == pytest.approx(2 ** (1 / 0.29))
        assert 10.5 < half_volume_time(0.29) < 11.5
        assert 6.0 < half_volume_time(0.37) < 7.0

    def test_monotone_decreasing_in_alpha(self):
        assert half_volume_time(0.2) > half_volume_time(0.3) > half_volume_time(0.5)

    @pytest.mark.parametrize("alpha", [0.0, -0.1])
    def test_non_positive_exponent(self, alpha):
        with pytest.raises(NonPositiveExponent):
            half_volume_time(alpha)


class TestQuartic:
    def test_exact_coefficient_recovery(self):
        x = rescaled_time(T)
        y = 600.0 - 30.0 * x - 250.0 * x ** 2 + 40.0 * x ** 3 + 900.0 * x ** 4
        fit = fit_quartic(y)
        for name, want in zip(("c0", "c1", "c2", "c3", "c4"),
                              (600.0, -30.0, -250.0, 40.0, 900.0)):
            assert fit.coefficients[name] == pytest.approx(want, abs=1e-8), name
        assert fit.window == (0, 390)

    def test_missing_minutes_tolerated(self):
        x = rescaled_time(T)
        y = 10.0 + 5.0 * x ** 4
        y[100:150] = np.nan
        fit = fit_quartic(y)
        assert fit.coefficients["c4"] == pytest.approx(5.0, abs=1e-10)
        assert fit.n_points == SESSION_MINUTES - 50

    def test_too_few_points(self):
        y = np.full(SESSION_MINUTES, np.nan)
        y[[0, 100, 200, 300, 390]] = 1.0
        with pytest.raises(WindowTooSmall):
            fit_quartic(y)

    def test_one_sided_data_rejected(self):
        y = np.full(SESSION_MINUTES, np.nan)
        y[:HALF_SESSION] = 1.0 + T[:HALF_SESSION]
        with pytest.raises(InsufficientSpan):
            fit_quartic(y)
        y = np.full(SESSION_MINUTES, np.nan)
        y[HALF_SESSION:] = 1.0
        with pytest.raises(InsufficientSpan):
            fit_quartic(y)


class TestShapeFunctionals:
    def test_concavity_and_symmetry_match_direct_sums(self):
        coeffs = {"c0": 100.0, "c1": -20.0, "c2": -80.0, "c3": 10.0, "c4": 270.0}
        x = rescaled_time(T)
        y = sum(coeffs[f"c{k}"] * x ** k for k in range(5))
        sf = shape_functionals(fit_quartic(y))
        second = 2 * coeffs["c2"] + 6 * coeffs["c3"] * x + 12 * coeffs["c4"] * x ** 2
        assert sf.concavity == pytest.approx(second.mean(), rel=1e-9)
        want_sym = (y[HALF_SESSION:].sum() - y[:HALF_SESSION].sum()) / SESSION_MINUTES
        assert sf.symmetry == pytest.approx(want_sym, rel=1e-9)

    def test_bit_identical_to_powers_taken_per_call(self):
        # the module's precomputed grid powers keep the bytes of a
        # bundle's shapes: each expression's operation order is unchanged
        rng = np.random.default_rng(17)
        for _ in range(50):
            c = rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 3.0, size=5)
            fit = polynomial_fit(rescaled_time(T), np.polyval(c[::-1], rescaled_time(T)),
                                 4, model="quartic", window=(0, 390))
            c = [fit.coefficients[f"c{k}"] for k in range(5)]
            x = rescaled_time(np.arange(SESSION_MINUTES))
            second = 2.0 * c[2] + 6.0 * c[3] * x + 12.0 * c[4] * x ** 2
            fitted = c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3 + c[4] * x ** 4
            sf = shape_functionals(fit)
            assert sf.concavity == float(second.mean())
            assert sf.symmetry == float(
                (fitted[HALF_SESSION:].sum() - fitted[:HALF_SESSION].sum()) / SESSION_MINUTES)

    def test_even_profile_symmetry_is_midpoint_share(self):
        x = rescaled_time(T)
        sf = shape_functionals(fit_quartic(50.0 + 30.0 * x ** 2))
        # t = 195 (x = 0) sits in the afternoon half, so an even profile
        # leaves exactly its midpoint value as the half-session gap
        assert sf.symmetry == pytest.approx(50.0 / SESSION_MINUTES, rel=1e-9)
        assert sf.concavity == pytest.approx(60.0, rel=1e-9)

    def test_rejects_non_quartic_fit(self):
        fit = polynomial_fit(np.arange(5.0), np.arange(5.0), 1,
                             model="linear", window=(0, 4))
        with pytest.raises(ValueError, match="quartic"):
            shape_functionals(fit)


def _linear_fit_rss(u, y, betas):
    """RSS of the least-squares (A, B) of y = A - B*u^beta at each fixed
    beta, from a QR solve of the scaled design [1, u^beta / max u^beta]."""
    x = u ** betas[:, None]
    design = np.stack([np.ones_like(x), x / x.max(axis=1, keepdims=True)], axis=2)
    q, _ = np.linalg.qr(design)
    resid = y - (q @ (q.transpose(0, 2, 1) @ y[:, None]))[..., 0]
    return (resid ** 2).sum(axis=1)


class TestKurtosisRelaxation:
    def _kappa(self, beta_m=0.4, k0=5.0, a=2.0, b=0.031, beta_a=1.5):
        kappa = np.empty(SESSION_MINUTES)
        kappa[0] = 1.0
        t = np.arange(1, SESSION_MINUTES, dtype=float)
        kappa[1:] = k0 * t ** (-beta_m)
        u = T[291:] - 290.0
        kappa[291:] = a - b * u ** beta_a
        return kappa

    def test_noiseless_recovery(self):
        morning, afternoon = fit_kurtosis_relaxation(self._kappa())
        assert morning.coefficients["beta_m"] == pytest.approx(0.4, abs=1e-10)
        assert morning.model == "kurtosis_morning"
        assert afternoon.coefficients["A"] == pytest.approx(2.0, abs=1e-7)
        assert afternoon.coefficients["B"] == pytest.approx(0.031, abs=1e-7)
        assert afternoon.coefficients["beta_a"] == pytest.approx(1.5, abs=1e-6)
        assert afternoon.residual_sum_squares == pytest.approx(0.0, abs=1e-12)

    def test_noisy_recovery_within_tolerance(self, rng):
        kappa = self._kappa()
        kappa[291:] += 0.003 * rng.standard_normal(100)
        _, afternoon = fit_kurtosis_relaxation(kappa)
        assert afternoon.coefficients["beta_a"] == pytest.approx(1.5, abs=0.1)
        assert afternoon.standard_errors["beta_a"] > 0

    def test_morning_non_positive(self):
        kappa = self._kappa()
        kappa[40] = -0.2
        with pytest.raises(MorningNonPositive, match="40"):
            fit_kurtosis_relaxation(kappa)

    def test_afternoon_window_validation(self):
        with pytest.raises(ValueError, match="afternoon"):
            fit_kurtosis_relaxation(self._kappa(), afternoon_window=(200, 390))

    def test_afternoon_too_sparse(self):
        kappa = self._kappa()
        kappa[291:384] = np.nan
        with pytest.raises(WindowTooSmall):
            fit_kurtosis_relaxation(kappa)

    def test_synth_profile_fits_without_runtime_warning(self):
        # a synth panel's noisy ticker-mean kurtosis goes through
        # fit_kurtosis_relaxation with RuntimeWarning as an error
        panel, truth = generate_panel(GeneratorSpec(
            n_companies=8, n_days=60, n_semesters=1, seed=2,
            intensity=IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.29,
                                    closing_amplitude=1000.0, closing_exponent=0.4,
                                    baseline=50.0),
            noise=NoiseSpec(sigma_l=cv_to_sigma_l(0.6)), price_model="gbm"))
        index = assign_semesters(panel, truth.boundaries)
        kappa = aggregate_ticker_profiles(
            [cumulants_over_days(panel, index, t, 1) for t in panel.companies], 1).kurtosis
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fit_kurtosis_relaxation(kappa)
            except NumericalError:
                pass  # whether it converges is not the point here

    def test_rising_exponential_fails_at_the_exponent_bound(self):
        # an afternoon rising like exp(u/5): no power of u fits inside |beta| < 12
        kappa = self._kappa()
        kappa[291:] = 2.0 + np.exp((T[291:] - 290.0) / 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AfternoonNoConverge, match=r"bound beta = \+12$"):
                fit_kurtosis_relaxation(kappa)

    @pytest.mark.parametrize("level", [2.0, 4.13])
    def test_flat_afternoon_fails(self, level):
        # 4.13 has no exact mean over 100 minutes: the rounding alone
        # would otherwise pick an exponent for B ~ 1e-30
        kappa = self._kappa()
        kappa[291:] = level
        with pytest.raises(AfternoonNoConverge, match="flat"):
            fit_kurtosis_relaxation(kappa)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("b, beta_a", [(0.031, 1.5), (0.3, 0.5), (-1.5, -0.7)])
    def test_fit_is_the_dense_grid_profile_minimum(self, seed, b, beta_a):
        kappa = self._kappa(b=b, beta_a=beta_a)
        kappa[291:] += 0.05 * np.random.default_rng(seed).standard_normal(100)
        _, afternoon = fit_kurtosis_relaxation(kappa)
        u, y = T[291:] - 290.0, kappa[291:]
        grid = np.linspace(-12.0, 12.0, 24_000)
        rss = np.concatenate([_linear_fit_rss(u, y, part) for part in np.array_split(grid, 12)])
        k = int(np.argmin(rss))
        assert afternoon.residual_sum_squares <= rss[k] * (1 + 1e-9)
        assert abs(afternoon.coefficients["beta_a"] - grid[k]) <= grid[1] - grid[0]

    def test_afternoon_handles_gaps(self):
        kappa = self._kappa(beta_a=0.8)
        kappa[300:340] = np.nan
        _, afternoon = fit_kurtosis_relaxation(kappa)
        assert afternoon.coefficients["beta_a"] == pytest.approx(0.8, abs=1e-6)
        assert afternoon.n_points == 100 - 40


class TestScatterRelation:
    def test_linear_exact(self):
        x = np.linspace(1, 2, SESSION_MINUTES)
        y = 2.0 * x + 1.0
        fit = scatter_relation(x, y)
        assert fit.model == "linear"
        assert fit.coefficients["a1"] == pytest.approx(2.0, abs=1e-10)
        assert fit.coefficients["a0"] == pytest.approx(1.0, abs=1e-10)
        assert fit.r == pytest.approx(1.0)

    def test_parabola_exact(self):
        x = np.linspace(-1, 1, SESSION_MINUTES)
        y = 0.5 + 3.0 * x - 1.2 * x ** 2
        fit = scatter_relation(x, y, order=2)
        assert fit.model == "parabola"
        assert fit.coefficients["a2"] == pytest.approx(-1.2, abs=1e-10)

    def test_split_windows(self):
        x = np.linspace(1, 2, SESSION_MINUTES)
        y = np.where(T < HALF_SESSION, 5.0 * x, -3.0 * x)
        morning = scatter_relation(x, y, "morning")
        afternoon = scatter_relation(x, y, "afternoon")
        assert morning.coefficients["a1"] == pytest.approx(5.0, abs=1e-9)
        assert afternoon.coefficients["a1"] == pytest.approx(-3.0, abs=1e-9)
        assert morning.window == (0, HALF_SESSION - 1)
        assert afternoon.window == (HALF_SESSION, 390)

    def test_nan_pairs_skipped(self):
        x = np.linspace(1, 2, SESSION_MINUTES)
        y = 4.0 * x
        x[5], y[7] = np.nan, np.nan
        fit = scatter_relation(x, y)
        assert fit.n_points == SESSION_MINUTES - 2

    def test_too_few_points(self):
        x = np.full(SESSION_MINUTES, np.nan)
        y = np.full(SESSION_MINUTES, np.nan)
        x[:3] = [1.0, 2.0, 3.0]
        y[:3] = [1.0, 2.0, 3.0]
        with pytest.raises(TooFewPoints):
            scatter_relation(x, y, order=2)

    def test_degenerate_x(self):
        x = np.full(SESSION_MINUTES, 2.0)
        y = np.linspace(0, 1, SESSION_MINUTES)
        with pytest.raises(DegenerateX):
            scatter_relation(x, y)

    def test_argument_validation(self):
        x = np.linspace(1, 2, SESSION_MINUTES)
        with pytest.raises(ValueError, match="split"):
            scatter_relation(x, x, split="evening")
        with pytest.raises(ValueError, match="order"):
            scatter_relation(x, x, order=3)
