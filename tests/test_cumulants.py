"""Robust cumulant kernel and profile aggregation tests.

The brute-force re-evaluations here are written independently of the
engine (plain numpy on one sample at a time) and double as the estimator
definitions.
"""
from __future__ import annotations

import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intradayvol.cumulants import (
    PROFILE_COLUMNS,
    _row_medians,
    aggregate_day_profiles,
    aggregate_ticker_profiles,
    cumulants_over_companies,
    cumulants_over_days,
    mean_kurtosis_tail,
    minute_sample_stats,
    profile_csv_bytes,
    profile_metadata,
    sample_cumulants,
    variance_ratio,
)
from intradayvol.errors import (
    AllExcluded,
    DataError,
    EmptyInput,
    ExcludedPair,
    MixedSemesters,
)
from intradayvol.panel import SESSION_MINUTES

from conftest import build_panel, contiguous_semesters


def brute_cumulants(sample):
    """Definitionally direct (mean, median, variance, zeta, kappa)."""
    v = np.sort(np.asarray(sample, dtype=float))
    n = len(v)
    mu = v.sum() / n
    med = 0.5 * (v[(n - 1) // 2] + v[n // 2])
    var = ((v - mu) ** 2).sum() / n
    sigma = math.sqrt(var)
    mad = np.abs(v - mu).sum() / n
    zeta = 6.0 * (mu - med) / sigma
    kappa = 24.0 * (1.0 - math.sqrt(math.pi / 2.0) * mad / sigma) + zeta ** 2
    return mu, med, var, zeta, kappa


finite_sample = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: abs(x) > 1e-3 or x == 0.0),
    min_size=2, max_size=40)


class TestKernel:
    @given(finite_sample)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, sample):
        got = sample_cumulants(sample)
        if np.var(sample) == 0.0:
            assert math.isnan(got[3]) and math.isnan(got[4])
            return
        want = brute_cumulants(sample)
        for g, w, name in zip(got, want, ("mean", "median", "var", "zeta", "kappa")):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-9), name

    def test_known_small_sample(self):
        # n = 4: mu = 2.5, median = 2.5, var = 1.25, MAD = 1.0
        mu, med, var, zeta, kappa = sample_cumulants([1.0, 2.0, 3.0, 4.0])
        assert (mu, med, var) == (2.5, 2.5, 1.25)
        assert zeta == 0.0
        assert kappa == pytest.approx(
            24.0 * (1.0 - math.sqrt(math.pi / 2.0) / math.sqrt(1.25)))

    def test_median_odd_sample(self):
        assert sample_cumulants([5.0, 1.0, 9.0])[1] == 5.0

    def test_constant_sample(self):
        mu, med, var, zeta, kappa = sample_cumulants([3.0] * 10)
        assert (mu, med, var) == (3.0, 3.0, 0.0)
        assert math.isnan(zeta) and math.isnan(kappa)

    def test_single_observation_is_all_nan(self):
        assert all(math.isnan(v) for v in sample_cumulants([4.0]))

    def test_literal_kurtosis_drops_mad_term(self):
        sample = [1.0, 2.0, 4.0, 8.0]
        _, _, _, zeta, kappa = sample_cumulants(sample, literal_kurtosis=True)
        assert kappa == pytest.approx(24.0 + zeta ** 2)

    def test_gaussian_scores_near_zero(self, rng):
        sample = rng.standard_normal(200_000)
        _, _, _, zeta, kappa = sample_cumulants(sample)
        band = 5.0 * math.sqrt(24.0 / len(sample))
        assert abs(zeta) < band
        assert abs(kappa) < band

    def test_rowwise_nan_handling(self):
        values = np.array([
            [1.0, 2.0, 3.0, np.nan],
            [np.nan, np.nan, np.nan, np.nan],
            [5.0, np.nan, np.nan, np.nan],
        ])
        st_ = minute_sample_stats(values)
        assert st_["n"].tolist() == [3, 0, 1]
        assert st_["mean"][0] == 2.0
        assert st_["median"][0] == 2.0
        assert all(math.isnan(st_[f][1]) for f in ("mean", "median", "variance"))
        assert all(math.isnan(st_[f][2]) for f in ("mean", "variance"))

    def test_empty_matrix(self):
        st_ = minute_sample_stats(np.empty((SESSION_MINUTES, 0)))
        assert not st_["n"].any()
        assert np.isnan(st_["mean"]).all()

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            minute_sample_stats(np.zeros(5))

    def test_no_runtime_warnings(self):
        values = np.full((4, 3), np.nan)
        values[0] = [1.0, 1.0, 1.0]
        with np.errstate(all="raise"):
            minute_sample_stats(values)


_MEDIAN_ENTRIES = st.one_of(
    st.floats(-1e300, 1e300), st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0]))


class TestRowMedians:
    @given(st.integers(0, 6).flatmap(lambda w: st.lists(
        st.lists(_MEDIAN_ENTRIES, min_size=w, max_size=w), min_size=1, max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_nanmedian(self, rows):
        values = np.array(rows, dtype=float).reshape(len(rows), -1)
        got = _row_medians(values)
        if values.shape[1] == 0:
            assert np.isnan(got).all() and got.shape == (len(rows),)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
            want = np.nanmedian(values, axis=1)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_counts_infinities_but_not_nan(self):
        values = np.array([[np.inf, 1.0, np.nan, 2.0],
                           [-np.inf, np.inf, np.nan, np.nan],
                           [np.nan] * 4,
                           [3.0, np.nan, np.nan, np.nan]])
        np.testing.assert_array_equal(_row_medians(values), [2.0, np.nan, np.nan, 3.0])


class TestPanelProfiles:
    def test_over_days_matches_kernel(self, small_panel, small_index):
        prof = cumulants_over_days(small_panel, small_index, "T01", 2)
        want = minute_sample_stats(small_panel.volume[1, 4:8, :].T)
        np.testing.assert_allclose(prof.mean, want["mean"])
        np.testing.assert_allclose(prof.kurtosis, want["kurtosis"])
        assert prof.sample_count.tolist() == want["n"].tolist()
        assert (prof.semester, prof.axis, prof.key) == (2, "days", "T01")

    def test_over_days_excluded_pair(self, small_panel, small_index):
        index = small_index.with_exclusions({1: ["T00"]})
        with pytest.raises(ExcludedPair):
            cumulants_over_days(small_panel, index, "T00", 1)

    def test_over_companies_matches_kernel(self, small_panel, small_index):
        day = small_panel.days[5]
        prof = cumulants_over_companies(small_panel, small_index, day, 2)
        want = minute_sample_stats(small_panel.volume[:, 5, :].T)
        np.testing.assert_allclose(prof.variance, want["variance"])
        assert (prof.axis, prof.key) == ("companies", day.isoformat())

    def test_over_companies_wrong_semester(self, small_panel, small_index):
        with pytest.raises(MixedSemesters):
            cumulants_over_companies(small_panel, small_index,
                                     small_panel.days[0], 2)

    def test_over_companies_respects_exclusions(self, small_panel, small_index):
        day = small_panel.days[0]
        index = small_index.with_exclusions({1: ["T02"]})
        prof = cumulants_over_companies(small_panel, index, day, 1)
        want = minute_sample_stats(small_panel.volume[:2, 0, :].T)
        np.testing.assert_allclose(prof.mean, want["mean"])
        assert prof.sample_count.max() == 2


class TestAggregation:
    def _profiles(self, panel, index, s):
        return [cumulants_over_days(panel, index, t, s) for t in panel.companies]

    def test_ticker_mean_is_pointwise_mean(self, small_panel, small_index):
        profs = self._profiles(small_panel, small_index, 1)
        agg = aggregate_ticker_profiles(profs, 1)
        stack = np.stack([p.mean for p in profs])
        np.testing.assert_allclose(agg.mean, stack.mean(axis=0))
        assert agg.kind == "ticker_mean"
        assert agg.contributing_count.tolist() == [3] * SESSION_MINUTES

    def test_aggregation_skips_nan_contributions(self):
        volume = np.full((2, 4, SESSION_MINUTES), np.nan)
        volume[0] = 10.0
        volume[0, :, 0] = [10.0, 20.0, 30.0, 40.0]
        volume[1, :2, :] = 5.0  # only two days: variance defined, minute-wise n=2
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 4)
        profs = self._profiles(panel, index, 1)
        agg = aggregate_ticker_profiles(profs)
        # ticker T01 has zero variance so its zeta is NaN; mean skips it
        assert agg.mean[0] == pytest.approx((25.0 + 5.0) / 2)
        assert agg.contributing_count[0] == 2
        assert math.isnan(profs[1].skewness[0])
        assert agg.skewness[0] == profs[0].skewness[0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate_ticker_profiles([])

    def test_mixed_semesters_rejected(self, small_panel, small_index):
        p1 = cumulants_over_days(small_panel, small_index, "T00", 1)
        p2 = cumulants_over_days(small_panel, small_index, "T00", 2)
        with pytest.raises(MixedSemesters):
            aggregate_ticker_profiles([p1, p2])
        with pytest.raises(MixedSemesters):
            aggregate_ticker_profiles([p1], s=2)

    def test_wrong_axis_rejected(self, small_panel, small_index):
        day = small_panel.days[0]
        cross = cumulants_over_companies(small_panel, small_index, day, 1)
        with pytest.raises(DataError, match="axis"):
            aggregate_ticker_profiles([cross])
        prof = cumulants_over_days(small_panel, small_index, "T00", 1)
        with pytest.raises(DataError, match="axis"):
            aggregate_day_profiles([prof])

    def test_day_mean_kind(self, small_panel, small_index):
        days = small_panel.days[:4]
        profs = [cumulants_over_companies(small_panel, small_index, d, 1)
                 for d in days]
        agg = aggregate_day_profiles(profs, 1)
        assert agg.kind == "day_mean"
        stack = np.stack([p.median for p in profs])
        np.testing.assert_allclose(agg.median, stack.mean(axis=0))


class TestVarianceRatio:
    def test_ratio_values_and_nan_rules(self, small_panel, small_index):
        tm = aggregate_ticker_profiles(
            [cumulants_over_days(small_panel, small_index, t, 1)
             for t in small_panel.companies], 1)
        dm = aggregate_day_profiles(
            [cumulants_over_companies(small_panel, small_index, d, 1)
             for d in small_panel.days[:4]], 1)
        ratio = variance_ratio(tm, dm)
        t = 17
        assert ratio[t] == pytest.approx(tm.variance[t] / dm.variance[t])

    def test_zero_denominator_is_nan(self, small_panel, small_index):
        volume = np.full((2, 4, SESSION_MINUTES), 7.0)
        volume[0, :, 0] = [1.0, 2.0, 3.0, 4.0]
        panel = build_panel(volume)
        index = contiguous_semesters(panel, 4)
        tm = aggregate_ticker_profiles(
            [cumulants_over_days(panel, index, t, 1) for t in panel.companies], 1)
        dm = aggregate_day_profiles(
            [cumulants_over_companies(panel, index, d, 1) for d in panel.days], 1)
        ratio = variance_ratio(tm, dm)
        assert math.isnan(ratio[5])          # both variances zero there
        assert np.isfinite(ratio[0])

    def test_semester_mismatch(self, small_panel, small_index):
        tm = aggregate_ticker_profiles(
            [cumulants_over_days(small_panel, small_index, t, 1)
             for t in small_panel.companies], 1)
        dm = aggregate_day_profiles(
            [cumulants_over_companies(small_panel, small_index, d, 2)
             for d in small_panel.days[4:]], 2)
        with pytest.raises(MixedSemesters):
            variance_ratio(tm, dm)


def _fake_day_mean(s, kurtosis):
    zeros = np.zeros(SESSION_MINUTES)
    from intradayvol.cumulants import AggregatedProfile
    return AggregatedProfile(s, "day_mean", zeros.copy(), zeros.copy(),
                             zeros.copy(), zeros.copy(),
                             np.asarray(kurtosis, dtype=float),
                             np.ones(SESSION_MINUTES, dtype=int))


class TestKurtosisTail:
    def test_tail_mean_and_curve(self):
        k1 = np.full(SESSION_MINUTES, 2.0)
        k2 = np.arange(SESSION_MINUTES, dtype=float)
        tail, curve = mean_kurtosis_tail({1: _fake_day_mean(1, k1),
                                          2: _fake_day_mean(2, k2)},
                                         t_min=60, excluded=set())
        assert tail[1] == 2.0
        assert tail[2] == pytest.approx(np.mean(np.arange(61, 391)))
        np.testing.assert_allclose(curve, (k1 + k2) / 2)

    def test_excluded_semesters_skipped(self):
        profs = {s: _fake_day_mean(s, np.full(SESSION_MINUTES, float(s)))
                 for s in (1, 11, 12)}
        tail, curve = mean_kurtosis_tail(profs, excluded={11, 12})
        assert sorted(tail) == [1]
        np.testing.assert_allclose(curve, 1.0)

    def test_all_excluded(self):
        profs = {11: _fake_day_mean(11, np.zeros(SESSION_MINUTES))}
        with pytest.raises(AllExcluded):
            mean_kurtosis_tail(profs)  # default exclusions cover 11..16

    def test_nan_tail_minutes_skipped(self):
        k = np.full(SESSION_MINUTES, np.nan)
        k[100] = 4.0
        tail, _ = mean_kurtosis_tail({1: _fake_day_mean(1, k)}, excluded=set())
        assert tail[1] == 4.0


class TestSerialization:
    def test_profile_csv_layout(self, small_panel, small_index):
        prof = cumulants_over_days(small_panel, small_index, "T00", 1)
        lines = profile_csv_bytes(prof).decode().splitlines()
        assert lines[0].split(",") == PROFILE_COLUMNS
        assert len(lines) == 1 + SESSION_MINUTES
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == prof.mean[0]
        assert first[-1] == "4"

    def test_metadata_shapes(self, small_panel, small_index):
        prof = cumulants_over_days(small_panel, small_index, "T00", 1)
        meta = profile_metadata(prof)
        assert meta["axis"] == "days"
        agg = aggregate_ticker_profiles([prof], 1)
        meta = profile_metadata(agg)
        assert meta["kind"] == "ticker_mean"
        assert "conventions" in meta
