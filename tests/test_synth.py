"""Synthetic panel generator: determinism, planted truth, noise laws."""
from __future__ import annotations

import datetime as dt
import json
import math

import numpy as np
import pytest

from intradayvol.errors import InvalidSpec, OutOfSession
from intradayvol.panel import SESSION_MINUTES
from intradayvol.synth import (
    FIRST_SYNTH_DAY,
    GeneratorSpec,
    IntensitySpec,
    NoiseSpec,
    _cell_rng,
    analytic_profile,
    cv_to_gamma_shape,
    cv_to_sigma_l,
    generate_panel,
)

BASE_INTENSITY = IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.3,
                               closing_amplitude=1000.0, closing_exponent=0.4,
                               baseline=50.0)


def small_spec(**kw):
    defaults = dict(n_companies=3, n_days=10, seed=11, intensity=BASE_INTENSITY)
    defaults.update(kw)
    return GeneratorSpec(**defaults)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        p1, _ = generate_panel(small_spec())
        p2, _ = generate_panel(small_spec())
        np.testing.assert_array_equal(p1.volume, p2.volume)
        np.testing.assert_array_equal(p1.close, p2.close)

    def test_different_seed_differs(self):
        p1, _ = generate_panel(small_spec(seed=1))
        p2, _ = generate_panel(small_spec(seed=2))
        assert not np.array_equal(p1.volume, p2.volume)

    def test_cell_streams_are_independent_of_loop_order(self):
        # regenerating one cell in isolation reproduces the full-panel cell
        spec = small_spec()
        panel, truth = generate_panel(spec)
        i, d = 2, 7
        eps = spec.noise.draw(_cell_rng(spec.seed, 0, d, i), SESSION_MINUTES)
        want = np.rint(truth.intensity_curves[1] * eps)
        np.testing.assert_array_equal(panel.volume[i, d], want)


    @pytest.mark.parametrize("keys", [
        [(11, 0, 7, 2), (11, 1, 7, 2), (0, 0, 0, 0)],
        [(2 ** 64 - 1, 1, 2015, 99), (3, 0, 1, 1), (3, 0, 1, 1)],
        [(-5, 1, 0, 3), (12345, 0, 250, 0)],
    ])
    def test_reused_cell_generator_matches_a_fresh_one(self, keys):
        # each cell leaves the shared Philox mid-buffer (an odd number of
        # 32-bit draws, a normal, a gamma); the next cell must not see it
        reused = None
        for seed, stream, day, company in keys:
            fresh = _cell_rng(seed, stream, day, company)
            reused = _cell_rng(seed, stream, day, company, reused)
            for draw in (lambda g: g.integers(0, 2 ** 32, 3, dtype=np.uint32),
                         lambda g: g.normal(0.0, 1.0, SESSION_MINUTES),
                         lambda g: g.gamma(2.5, 1.0, 5),
                         lambda g: g.lognormal(-0.1, 0.4, 7)):
                np.testing.assert_array_equal(draw(reused), draw(fresh))


class TestCalendar:
    def test_days_are_weekdays_from_anchor(self):
        panel, _ = generate_panel(small_spec())
        assert panel.days[0] == FIRST_SYNTH_DAY
        assert all(d.weekday() < 5 for d in panel.days)
        assert list(panel.days) == sorted(panel.days)

    def test_boundaries_are_contiguous_and_cover_chunks(self):
        spec = small_spec(n_days=7, n_semesters=3)
        panel, truth = generate_panel(spec)
        assert len(truth.boundaries) == 3
        for (f1, l1), (f2, l2) in zip(truth.boundaries, truth.boundaries[1:]):
            assert f2 == l1 + dt.timedelta(days=1)
        for k, day in enumerate(panel.days):
            s = k // 7
            first, last = truth.boundaries[s]
            assert first <= day <= last

    def test_company_names_fixed_width(self):
        panel, _ = generate_panel(small_spec(n_companies=12))
        assert panel.companies[0] == "C00"
        assert panel.companies[-1] == "C11"
        panel, _ = generate_panel(small_spec(n_companies=101, n_days=2))
        assert panel.companies[0] == "C000"
        assert panel.companies[-1] == "C100"


class TestIntensity:
    def test_analytic_profile_scalar_and_array(self):
        spec = small_spec()
        lam0 = analytic_profile(spec, 0)
        assert isinstance(lam0, float)
        assert lam0 == pytest.approx(2000.0 + 1000.0 * 391 ** -0.4 + 50.0)
        arr = analytic_profile(spec, [0, 390])
        assert arr[0] == pytest.approx(lam0)
        assert arr[1] == pytest.approx(2000.0 * 391 ** -0.3 + 1000.0 + 50.0)

    def test_analytic_profile_out_of_session(self):
        with pytest.raises(OutOfSession):
            analytic_profile(small_spec(), 391)
        with pytest.raises(OutOfSession):
            analytic_profile(small_spec(), -1)

    def test_semester_overrides(self):
        shifted = IntensitySpec(opening_amplitude=2000.0, opening_exponent=0.6)
        spec = small_spec(n_semesters=2, overrides={2: shifted})
        assert analytic_profile(spec, 10, s=1) != analytic_profile(spec, 10, s=2)
        _, truth = generate_panel(spec)
        assert truth.params[1] == BASE_INTENSITY
        assert truth.params[2] == shifted

    def test_bump_term(self):
        bumped = IntensitySpec(baseline=10.0, bump_amplitude=100.0,
                               bump_center=270, bump_width=5.0)
        lam = bumped.profile(np.arange(SESSION_MINUTES, dtype=float))
        assert lam[270] == pytest.approx(110.0)
        assert lam[0] == pytest.approx(10.0, abs=1e-6)
        assert np.argmax(lam) == 270


class TestVolumes:
    def test_constant_noise_rounds_intensity_exactly(self):
        spec = small_spec(noise=NoiseSpec(kind="constant"))
        panel, truth = generate_panel(spec)
        want = np.rint(truth.intensity_curves[1])
        for i in range(3):
            for d in range(10):
                np.testing.assert_array_equal(panel.volume[i, d], want)

    def test_volumes_are_non_negative_integers(self):
        panel, _ = generate_panel(small_spec())
        assert (panel.volume >= 0).all()
        np.testing.assert_array_equal(panel.volume, np.rint(panel.volume))

    def test_lognormal_noise_is_mean_one(self):
        rng = np.random.default_rng(5)
        eps = NoiseSpec(kind="lognormal", sigma_l=0.5).draw(rng, 400_000)
        assert eps.mean() == pytest.approx(1.0, abs=5e-3)

    def test_gamma_noise_is_mean_one(self):
        rng = np.random.default_rng(5)
        eps = NoiseSpec(kind="gamma", shape=11.0).draw(rng, 400_000)
        assert eps.mean() == pytest.approx(1.0, abs=5e-3)

    def test_cv_conversions(self):
        rng = np.random.default_rng(5)
        cv = 0.3
        eps = NoiseSpec(sigma_l=cv_to_sigma_l(cv)).draw(rng, 400_000)
        assert eps.std() / eps.mean() == pytest.approx(cv, abs=5e-3)
        eps = NoiseSpec(kind="gamma", shape=cv_to_gamma_shape(cv)).draw(rng, 400_000)
        assert eps.std() / eps.mean() == pytest.approx(cv, abs=5e-3)

    def test_sample_mean_tracks_intensity(self):
        spec = small_spec(n_companies=10, n_days=60)
        panel, truth = generate_panel(spec)
        lam = truth.intensity_curves[1]
        observed = panel.volume.mean(axis=(0, 1))
        # 600 draws per minute at CV ~0.31: the mean profile tracks Lambda
        np.testing.assert_allclose(observed, lam, rtol=0.06, atol=0.5)


class TestPrices:
    def test_flat_prices_without_model(self):
        panel, _ = generate_panel(small_spec())
        assert (panel.open == 100.0).all()
        assert (panel.close == 100.0).all()

    def test_gbm_chains_across_minutes_and_days(self):
        spec = small_spec(price_model="gbm", daily_log_volatility=0.02)
        panel, _ = generate_panel(spec)
        i = 1
        assert panel.open[i, 0, 0] == 100.0
        np.testing.assert_allclose(panel.open[i, 0, 1:], panel.close[i, 0, :-1])
        assert panel.open[i, 3, 0] == pytest.approx(panel.close[i, 2, 390])
        np.testing.assert_array_equal(
            panel.high[i], np.maximum(panel.open[i], panel.close[i]))
        np.testing.assert_array_equal(
            panel.low[i], np.minimum(panel.open[i], panel.close[i]))
        assert (panel.close > 0).all()

    def test_gbm_daily_volatility_scale(self):
        spec = small_spec(n_companies=1, n_days=500, price_model="gbm",
                          daily_log_volatility=0.01)
        panel, _ = generate_panel(spec)
        daily_log_returns = np.log(panel.close[0, :, 390] / panel.open[0, :, 0])
        assert daily_log_returns.std() == pytest.approx(0.01, rel=0.15)


class TestSpecValidation:
    @pytest.mark.parametrize("kw", [
        dict(n_companies=0),
        dict(n_days=1),
        dict(n_semesters=0),
        dict(overrides={5: BASE_INTENSITY}),
        dict(intensity=IntensitySpec(opening_amplitude=-1.0)),
        dict(intensity=IntensitySpec()),  # identically zero
        dict(intensity=IntensitySpec(baseline=1.0, opening_exponent=0.0)),
        dict(intensity=IntensitySpec(baseline=1.0, bump_width=0.0)),
        dict(noise=NoiseSpec(kind="cauchy")),
        dict(noise=NoiseSpec(sigma_l=0.0)),
        dict(noise=NoiseSpec(kind="gamma", shape=0.0)),
        dict(price_model="heston"),
        dict(price_model="gbm", daily_log_volatility=0.0),
        dict(start_price=0.0),
    ])
    def test_invalid_specs(self, kw):
        with pytest.raises(InvalidSpec):
            generate_panel(small_spec(**kw))


class TestGroundTruth:
    def test_expected_values_match_noiseless_shape(self):
        spec = small_spec()
        _, truth = generate_panel(spec)
        lam = truth.intensity_curves[1]
        exp = truth.expected[1]
        assert exp["activity"] == pytest.approx(lam.sum())
        c = exp["quartic"]
        assert exp["concavity"] == pytest.approx(2 * c["c2"] + 4 * c["c4"])
        assert exp["symmetry"] == pytest.approx(0.5 * c["c1"] + 0.25 * c["c3"])

    def test_to_json_serializes(self):
        _, truth = generate_panel(small_spec(n_semesters=2))
        doc = json.loads(json.dumps(truth.to_json()))
        assert doc["seed"] == 11
        assert len(doc["boundaries"]) == 2
        assert len(doc["intensity_curves"]["1"]) == SESSION_MINUTES
        assert "opening_exponent" in doc["params"]["2"]

    def test_noise_cv_defaults_are_consistent(self):
        # default lognormal sigma and gamma shape encode the same CV
        sigma = NoiseSpec().sigma_l
        cv = math.sqrt(math.expm1(sigma ** 2))
        assert cv_to_gamma_shape(cv) == pytest.approx(NoiseSpec().shape, rel=0.05)
