"""Welch and MWW test machinery against scipy and exhaustive oracles.

scipy appears here only as a cross-check; the package itself never
imports it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from intradayvol.errors import BothZeroVariance, EmptySample, TooSmall
from intradayvol.stats_tests import (
    _MWW_CRIT_95,
    midranks,
    mww_test,
    mww_u_statistics,
    normal_quantile,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
    welch_test,
    welch_test_from_moments,
)


class TestStudentT:
    @pytest.mark.parametrize("dof", [1.0, 2.5, 5.0, 10.924, 30.0, 200.0])
    @pytest.mark.parametrize("t", [-8.0, -1.3, 0.0, 0.7, 3.9])
    def test_cdf_against_scipy(self, dof, t):
        assert student_t_cdf(t, dof) == pytest.approx(
            scipy.stats.t.cdf(t, dof), abs=1e-12)

    @pytest.mark.parametrize("dof", [1.0, 4.0, 10.9248, 77.0])
    @pytest.mark.parametrize("p", [0.005, 0.025, 0.5, 0.9, 0.975, 0.999])
    def test_quantile_against_scipy(self, dof, p):
        assert student_t_quantile(p, dof) == pytest.approx(
            scipy.stats.t.ppf(p, dof), abs=1e-7)

    def test_quantile_round_trip(self):
        for p in (0.01, 0.3, 0.77, 0.99):
            q = student_t_quantile(p, 6.5)
            assert student_t_cdf(q, 6.5) == pytest.approx(p, abs=1e-8)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(ValueError):
            student_t_quantile(1.0, 5.0)

    def test_cdf_domain(self):
        with pytest.raises(ValueError):
            student_t_cdf(0.0, 0.0)

    @pytest.mark.parametrize("a,b,x", [(0.5, 0.5, 0.3), (2.0, 3.0, 0.7),
                                       (10.0, 0.5, 0.99), (5.4621, 0.5, 0.5)])
    def test_incomplete_beta_against_scipy(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.stats.beta.cdf(x, a, b), abs=1e-13)

    def test_normal_quantile_against_scipy(self):
        for p in (0.005, 0.025, 0.5, 0.841344746, 0.975):
            assert normal_quantile(p) == pytest.approx(
                scipy.stats.norm.ppf(p), abs=1e-9)


class TestWelch:
    def test_frozen_moment_inputs(self):
        # 9 values around one level vs 10 around another, variances far apart
        result = welch_test_from_moments(9, 0.29, 1.09e-4, 10, 0.37, 1.11e-3)
        assert result.statistic == pytest.approx(-7.210101217513317, abs=1e-12)
        assert result.dof == pytest.approx(10.92479251785053, abs=1e-10)
        assert result.critical_value == pytest.approx(2.202835188878399, abs=1e-8)
        assert result.reject_null
        assert result.sample_sizes == (9, 10)

    @pytest.mark.filterwarnings("ignore:Precision loss occurred")
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30),
           st.lists(st.floats(-50, 50), min_size=2, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_against_scipy(self, a, b):
        if np.var(a, ddof=1) + np.var(b, ddof=1) == 0.0:
            with pytest.raises(BothZeroVariance):
                welch_test(a, b)
            return
        result = welch_test(a, b)
        t, _ = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert result.statistic == pytest.approx(t, rel=1e-9, abs=1e-12)

    def test_dof_matches_scipy_formula(self):
        a = [1.0, 2.0, 4.0, 4.5]
        b = [10.0, 11.0, 9.5, 14.0, 8.0]
        result = welch_test(a, b)
        v1, v2 = np.var(a, ddof=1) / 4, np.var(b, ddof=1) / 5
        want = (v1 + v2) ** 2 / (v1 ** 2 / 3 + v2 ** 2 / 4)
        assert result.dof == pytest.approx(want, rel=1e-12)

    def test_tiny_variance_dof_does_not_underflow(self):
        # se2 ** 2 underflows to 0 here, so the textbook ratio is 0/0
        result = welch_test([0.0, 0.0], [0.0, 7.8e-102])
        assert result.dof == 1.0
        assert result.statistic == pytest.approx(-1.0, rel=1e-12)
        assert not result.reject_null

    def test_sign_flips_when_samples_swap(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 6.0, 8.0]
        assert welch_test(a, b).statistic == pytest.approx(
            -welch_test(b, a).statistic)

    def test_no_reject_on_identical_distributions(self):
        result = welch_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert not result.reject_null

    def test_one_tailed(self):
        a = [5.0, 6.0, 7.0, 8.0]
        b = [1.0, 2.0, 3.0, 4.0]
        two = welch_test(a, b, tails=2)
        one = welch_test(a, b, tails=1)
        assert one.method == "1-tailed"
        assert one.critical_value == pytest.approx(
            student_t_quantile(0.95, one.dof))
        assert one.critical_value < two.critical_value
        assert one.reject_null
        # directional test must not fire on the opposite direction
        assert not welch_test(b, a, tails=1).reject_null

    def test_too_small(self):
        with pytest.raises(TooSmall):
            welch_test([1.0], [1.0, 2.0])
        with pytest.raises(TooSmall):
            welch_test_from_moments(1, 0.0, 0.0, 5, 1.0, 1.0)

    def test_both_zero_variance(self):
        with pytest.raises(BothZeroVariance):
            welch_test([2.0, 2.0], [3.0, 3.0])

    def test_confidence_changes_critical(self):
        a, b = [1.0, 2.0, 3.0], [1.5, 2.5, 4.0]
        assert (welch_test(a, b, confidence=0.99).critical_value
                > welch_test(a, b, confidence=0.95).critical_value)


class TestMidranks:
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_against_scipy_rankdata(self, values):
        arr = np.asarray(values, dtype=float)
        np.testing.assert_allclose(midranks(arr),
                                   scipy.stats.rankdata(arr, method="average"))

    def test_rank_sum_invariant(self):
        arr = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
        assert midranks(arr).sum() == len(arr) * (len(arr) + 1) / 2


@lru_cache(maxsize=None)
def _count(m, n, u):
    if u < 0:
        return 0
    if m == 0 or n == 0:
        return 1 if u == 0 else 0
    return _count(m - 1, n, u - n) + _count(m, n - 1, u)


def exact_critical(m, n, tail=Fraction(1, 40)):
    """Largest u with P(U <= u) <= tail under the no-ties null; -1 if none."""
    total = math.comb(m + n, m)
    cum, crit = 0, -1
    for u in range(m * n // 2 + 1):
        cum += _count(m, n, u)
        if Fraction(cum, total) <= tail:
            crit = u
        else:
            break
    return crit


class TestMWW:
    def test_u_statistics_by_pairwise_count(self, rng):
        for _ in range(300):
            n1, n2 = rng.integers(1, 13, size=2)
            a = rng.integers(0, 8, size=n1).astype(float)
            b = rng.integers(0, 8, size=n2).astype(float)
            u1, u2 = mww_u_statistics(a, b)
            grid = a[:, None] - b[None, :]
            wins_b = (grid < 0).sum() + 0.5 * (grid == 0).sum()
            wins_a = (grid > 0).sum() + 0.5 * (grid == 0).sum()
            assert u1 == pytest.approx(wins_b)
            assert u2 == pytest.approx(wins_a)
            assert u1 + u2 == pytest.approx(n1 * n2)

    def test_embedded_table_matches_exhaustive_enumeration(self):
        for m in range(1, 21):
            for n in range(m, 21):
                assert _MWW_CRIT_95[m][n] == exact_critical(m, n), (m, n)

    @pytest.mark.parametrize("m,n,crit", [(9, 10, 20), (10, 10, 23), (6, 6, 5),
                                          (4, 4, 0), (20, 20, 127), (2, 8, 0),
                                          (3, 5, 0)])
    def test_published_table_spot_checks(self, m, n, crit):
        assert _MWW_CRIT_95[m][n] == crit

    def test_separated_samples_reject(self):
        a = [0.28, 0.29, 0.30, 0.29, 0.28, 0.30, 0.29, 0.28, 0.31]
        b = [0.36, 0.37, 0.38, 0.37, 0.36, 0.38, 0.37, 0.39, 0.36, 0.35]
        result = mww_test(a, b)
        assert result.statistic == 0.0
        assert result.critical_value == 20.0
        assert result.reject_null
        assert result.method == "exact-table"
        assert result.dof is None

    def test_no_rejection_region_sizes_never_reject(self):
        # (2, 7) has no u with P(U <= u) <= 0.025; encoded as critical 0
        result = mww_test([1.0, 2.0], [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
        assert result.statistic == 0.0
        assert result.critical_value == 0.0
        assert not result.reject_null

    def test_statistic_at_critical_value_is_not_rejected(self):
        # U_min == critical does not reject under the strict < rule
        a = np.arange(4, dtype=float)          # all below b
        b = np.arange(10.0, 14.0)
        result = mww_test(a, b)                # (4, 4): critical 0, U = 0
        assert result.statistic == result.critical_value == 0.0
        assert not result.reject_null

    def test_identical_samples_accept(self):
        x = list(np.arange(9.0))
        result = mww_test(x, x)
        assert not result.reject_null

    def test_normal_approx_beyond_table(self, rng):
        a = rng.standard_normal(25)
        b = rng.standard_normal(30) + 5.0
        result = mww_test(a, b)
        assert result.method == "normal-approx"
        z = scipy.stats.norm.ppf(0.975)
        mu = 25 * 30 / 2.0
        sigma = math.sqrt(25 * 30 * 56 / 12.0)   # no ties here
        assert result.critical_value == pytest.approx(mu - z * sigma - 0.5, abs=1e-6)
        assert result.statistic == 0.0
        assert result.reject_null

    def test_normal_approx_tie_correction_shrinks_variance(self):
        a = [1.0] * 25
        b = [1.0] * 20 + [2.0] * 10
        tied = mww_test(a, b)
        mu = 25 * 30 / 2.0
        big_n = 55
        tie_term = (45 ** 3 - 45) + (10 ** 3 - 10)
        var = 25 * 30 / 12.0 * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
        z = scipy.stats.norm.ppf(0.975)
        assert tied.critical_value == pytest.approx(
            mu - z * math.sqrt(var) - 0.5, abs=1e-6)

    def test_non_default_confidence_uses_normal_path(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [5.0, 6.0, 7.0, 8.0]
        result = mww_test(a, b, confidence=0.90)
        assert result.method == "normal-approx"

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mww_test([], [1.0])

    # integer-valued inputs: log keeps distinct values distinct, so the
    # tie pattern survives the transform exactly
    @given(st.lists(st.integers(1, 20), min_size=3, max_size=12),
           st.lists(st.integers(1, 20), min_size=3, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        u = mww_u_statistics(a, b)
        v = mww_u_statistics(np.log(a), np.log(b))
        assert u == pytest.approx(v)
