"""Binomial population model: log-mass, sampling, uncertainty widths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dpbayes import (
    BinomialPrior,
    calibrate,
    log_mass_vector,
    sample_true_counts,
    uncertainty_widths,
)


class TestValidation:
    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            BinomialPrior(n=n, p=0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            BinomialPrior(n=10, p=p)

    @pytest.mark.parametrize("n, p", [(True, 0.3), (np.True_, 0.3), (10, False), (10, np.True_)])
    def test_rejects_bools(self, n, p):
        # True == 1 would otherwise pass as n = 1 or p = 1.
        with pytest.raises(ValueError):
            BinomialPrior(n=n, p=p)

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_n(self, n):
        # int(inf) raises OverflowError, which used to escape unconverted.
        with pytest.raises(ValueError):
            BinomialPrior(n=n, p=0.3)

    def test_accepts_degenerate_p(self):
        assert BinomialPrior(n=10, p=0.0).p == 0.0
        assert BinomialPrior(n=10, p=1.0).p == 1.0


class TestLogMass:
    def test_small_example(self):
        masses = log_mass_vector(BinomialPrior(n=2, p=0.5))
        assert masses[1] == pytest.approx(math.log(0.5), abs=1e-12)
        assert masses[0] == pytest.approx(math.log(0.25), abs=1e-12)

    def test_point_mass_at_zero(self):
        masses = log_mass_vector(BinomialPrior(n=5, p=0.0))
        assert masses[0] == 0.0
        assert np.all(masses[1:] == -math.inf)

    def test_point_mass_at_n(self):
        masses = log_mass_vector(BinomialPrior(n=5, p=1.0))
        assert masses[5] == 0.0
        assert np.all(masses[:5] == -math.inf)

    def test_matches_scipy(self):
        prior = BinomialPrior(n=100, p=0.3)
        ours = log_mass_vector(prior)
        reference = stats.binom.logpmf(np.arange(101), 100, 0.3)
        np.testing.assert_allclose(ours, reference, rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 10, 1000, 10_000])
    def test_normalises(self, n):
        masses = np.exp(log_mass_vector(BinomialPrior(n=n, p=0.3)))
        assert masses.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_mean_identity(self, n):
        prior = BinomialPrior(n=n, p=0.3)
        masses = np.exp(log_mass_vector(prior))
        mean = float(np.arange(n + 1) @ masses)
        assert mean == pytest.approx(n * 0.3, rel=1e-8)

    @given(
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_normalises_property(self, n, p):
        masses = np.exp(log_mass_vector(BinomialPrior(n=n, p=p)))
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_vector_is_read_only(self):
        vector = log_mass_vector(BinomialPrior(n=10, p=0.3))
        with pytest.raises(ValueError):
            vector[0] = 0.0


def draw_count(n, p, rng):
    (count,) = sample_true_counts(n, (p,), rng)
    return int(count)


class TestSampleTrueCount:
    def test_degenerate_priors(self):
        rng = np.random.default_rng(0)
        assert sample_true_counts(50, (0.0, 1.0), rng).tolist() == [0, 50]

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            count = draw_count(20, 0.5, rng)
            assert 0 <= count <= 20

    def test_deterministic_given_stream(self):
        first = [draw_count(100, 0.3, np.random.default_rng(5)) for _ in range(3)]
        second = [draw_count(100, 0.3, np.random.default_rng(5)) for _ in range(3)]
        assert first == second

    def test_consumes_n_uniforms(self):
        # Two consecutive draws from one stream differ from two fresh streams
        # only through the stream position, so draw two from a clone and
        # check the second matches a stream advanced by exactly n uniforms.
        rng = np.random.default_rng(42)
        sample_true_counts(17, (0.1, 0.4, 0.9), rng)
        follow_on = draw_count(17, 0.4, rng)
        shifted = np.random.default_rng(42)
        shifted.random(17)
        assert draw_count(17, 0.4, shifted) == follow_on

    def test_each_count_matches_a_single_p_draw(self):
        p_values = (0.0, 0.02, 0.3, 0.5, 0.98, 1.0)
        counts = sample_true_counts(100, p_values, np.random.default_rng(11))
        singles = [draw_count(100, p, np.random.default_rng(11)) for p in p_values]
        assert counts.tolist() == singles
        assert np.all(np.diff(counts) >= 0)

    def test_empirical_mean(self):
        rng = np.random.default_rng(2718)
        draws = np.array([draw_count(1000, 0.3, rng) for _ in range(100_000)])
        sigma = math.sqrt(1000 * 0.3 * 0.7)
        assert abs(draws.mean() - 300.0) < 3.0 * sigma / math.sqrt(draws.size)

    def test_goodness_of_fit(self):
        # Chi-square against the exact binomial masses, bins pooled so every
        # expected count is at least 5; not rejected at significance 1e-4.
        prior = BinomialPrior(n=20, p=0.3)
        rng = np.random.default_rng(314159)
        draws = np.array([draw_count(20, 0.3, rng) for _ in range(100_000)])
        expected = np.exp(log_mass_vector(prior)) * draws.size
        observed = np.bincount(draws, minlength=21).astype(float)
        pooled_obs, pooled_exp = [], []
        acc_obs = acc_exp = 0.0
        for k in range(21):
            acc_obs += observed[k]
            acc_exp += expected[k]
            if acc_exp >= 5.0:
                pooled_obs.append(acc_obs)
                pooled_exp.append(acc_exp)
                acc_obs = acc_exp = 0.0
        pooled_obs[-1] += acc_obs
        pooled_exp[-1] += acc_exp
        result = stats.chisquare(pooled_obs, np.array(pooled_exp) * sum(pooled_obs) / sum(pooled_exp))
        assert result.pvalue > 1e-4


class TestUncertaintyWidths:
    def test_reference_case(self):
        prior = BinomialPrior(n=10_000, p=0.3)
        binomial_width, laplace_width = uncertainty_widths(prior, calibrate(0.1))
        assert binomial_width == pytest.approx(91.6515, abs=1e-4)
        assert laplace_width == pytest.approx(28.2843, abs=1e-4)
        assert binomial_width > 3.0 * laplace_width

    def test_degenerate_prior_has_zero_width(self):
        assert uncertainty_widths(BinomialPrior(n=100, p=0.0), calibrate(0.1))[0] == 0.0
        assert uncertainty_widths(BinomialPrior(n=100, p=1.0), calibrate(0.1))[0] == 0.0

    def test_closed_forms(self):
        prior = BinomialPrior(n=100, p=0.3)
        level = calibrate(0.5)
        binomial_width, laplace_width = uncertainty_widths(prior, level)
        assert binomial_width == pytest.approx(2.0 * math.sqrt(21.0), rel=1e-12)
        assert laplace_width == pytest.approx(2.0 * math.sqrt(2.0) / 0.5, rel=1e-12)
