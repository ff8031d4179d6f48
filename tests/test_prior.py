"""Binomial population model: log-mass, sampling by inversion, uncertainty widths."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from dpbayes import (
    BinomialPrior,
    calibrate,
    log_mass_vector,
    uncertainty_widths,
)
from dpbayes.prior import _CHUNK_ELEMENTS, _LOG_MASS_CUTOFF, _interior_log_masses, _quantiles
from oracles import decimal_masses, dense_quantiles


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

    @pytest.mark.parametrize("p", ["0.3", "1", None, np.array(0.3)])
    def test_rejects_non_reals(self, p):
        # float("0.3") would parse the string as 0.3.
        with pytest.raises(ValueError, match="p must be a real number"):
            BinomialPrior(n=10, p=p)

    def test_accepts_numpy_and_exact_reals(self):
        assert BinomialPrior(n=10, p=np.float32(0.25)).p == 0.25
        assert BinomialPrior(n=10, p=Fraction(1, 4)).p == 0.25


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

    def test_slices_are_invisible(self):
        # The masses are filled a slice at a time; they equal the formula
        # evaluated once.
        n, p = 10 * _CHUNK_ELEMENTS + 5, 0.5
        interior = _interior_log_masses(n, p, np.arange(1, n, dtype=np.float64))
        whole = np.concatenate([[n * math.log1p(-p)], interior, [n * math.log(p)]])
        assert np.array_equal(log_mass_vector(BinomialPrior(n=n, p=p)), whole)

    def test_decimal_reference_matches_rationals(self):
        # Every count, and counts far apart, which decimal_masses steps up to
        # 16 at a time; p is the float's exact binary value.
        for n in (1, 2, 17, 60):
            for p in (1e-9, 0.3, 0.5, 1.0 - 1e-9):
                prob = Fraction(p)
                for ks in (range(n + 1), sorted({0, n // 2, n // 2 + 1, n})):
                    for k, mass in zip(ks, decimal_masses(n, p, ks)):
                        want = math.comb(n, k) * prob**k * (1 - prob) ** (n - k)
                        assert abs(Fraction(mass) - want) <= want / 10**45, (n, p, k)

    # At p = 5e-324, n*p is so small that x/(n*p) would overflow.
    @pytest.mark.parametrize("n, p", [(20, 5e-324), (30, 0.3), (1000, 0.3), (10_000, 1e-9),
                                      (10_000, 0.98), (100_000, 0.02), (10**6, 0.3)])
    def test_matches_decimal_reference(self, n, p):
        # Loader's form adds a few terms, each rounded at a few units of
        # u = 2**-53 relative to its size; they add up to about |ln m_k| (the
        # deviances are nonnegative, the rest O(ln n)).  n*p and n*(1 - p)
        # carry a relative error of about u, which moves each deviance by up
        # to u*|k - n*p|.  So the error is held to 16u (|ln m_k| + |k - n*p| + 1);
        # the largest measured was 5.5u times that sum.  The gammaln form misses
        # this by 10^3 at n = 1000 and 10^6 at n = 10^6: it cancels ln n!.
        mode = int(n * p)
        ks = sorted({0, 1, 2, 3, 15, 16, 17, n - 1, n} | set(range(0, n + 1, max(1, n // 200)))
                    | set(range(max(0, mode - 50), min(n, mode + 50) + 1)))
        want = np.array([float(m.ln()) for m in decimal_masses(n, p, ks)])
        got = log_mass_vector(BinomialPrior(n=n, p=p))[ks]
        bound = 16 * 2.0**-53 * (np.abs(want) + np.abs(np.array(ks) - n * p) + 1.0)
        assert np.all(np.abs(got - want) <= bound)

    def test_cache_keys_on_the_prior(self):
        # The prior normalises numpy scalars, so equal priors share one array.
        plain = log_mass_vector(BinomialPrior(100, 0.3))
        assert log_mass_vector(BinomialPrior(np.int64(100), np.float64(0.3))) is plain
        assert not plain.flags.writeable


def draw_counts(n, p, uniforms):
    return _quantiles(BinomialPrior(n=n, p=p), np.asarray(uniforms, dtype=np.float64))


# The smallest and the largest uniform a Generator returns, and the two
# around the switch from left sums to survival sums.
EDGE_UNIFORMS = (0.0, 2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53)


class TestSampleTrueCount:
    """True counts by inversion of the Binomial(n, p) distribution function."""

    def test_degenerate_priors(self):
        uniforms = np.concatenate([EDGE_UNIFORMS, np.random.default_rng(0).random(100)])
        assert np.all(draw_counts(50, 0.0, uniforms) == 0.0)
        assert np.all(draw_counts(50, 1.0, uniforms) == 50.0)

    def test_range(self):
        uniforms = np.concatenate([EDGE_UNIFORMS, np.random.default_rng(1).random(2000)])
        for n in (1, 20, 1000):
            for p in (1e-9, 0.02, 0.5, 0.98, 1.0 - 1e-9):
                counts = draw_counts(n, p, uniforms)
                assert counts.dtype == np.float64
                assert np.all((counts >= 0.0) & (counts <= n) & (counts == np.floor(counts)))

    def test_deterministic_given_stream(self):
        uniforms = np.random.default_rng(5).random(1000)
        first = draw_counts(100, 0.3, uniforms)
        assert first.tobytes() == draw_counts(100, 0.3, uniforms.copy()).tobytes()
        assert first.tolist() == stats.binom.ppf(uniforms, 100, 0.3).tolist()

    def test_nested_in_p(self):
        # Binomial(n, p) increases stochastically in p, so at a fixed uniform
        # the quantile cannot fall as p grows.
        uniforms = np.concatenate([EDGE_UNIFORMS, np.random.default_rng(11).random(5000)])
        for n in (1, 100, 1000):
            counts = [draw_counts(n, p, uniforms) for p in (0.0, 0.02, 0.1, 0.3, 0.5, 0.98, 1.0)]
            assert np.all(np.diff(counts, axis=0) >= 0.0), n

    def test_nested_in_u(self):
        uniforms = np.sort(np.concatenate([EDGE_UNIFORMS, np.random.default_rng(12).random(5000)]))
        for n, p in ((1, 0.5), (100, 0.3), (1000, 0.02), (1000, 0.98)):
            assert np.all(np.diff(draw_counts(n, p, uniforms)) >= 0.0), (n, p)

    def test_upper_tail_stays_reachable(self):
        # At u = 1 - 2**-53 the count is the first k with P(K > k) < 2**-53.
        # A left cumulative sum rounds to 1 long before that count.
        n, p, u = 1000, 0.02, 1.0 - 2.0**-53
        k = np.arange(n + 1)
        expected = int(k[stats.binom.sf(k, n, p) < 2.0**-53][0])
        assert draw_counts(n, p, [u]).tolist() == [expected]
        assert expected > 20 + 10 * math.sqrt(n * p * (1 - p))
        assert draw_counts(n, p, [0.0]).tolist() == [0.0]

    def test_empirical_mean(self):
        draws = draw_counts(1000, 0.3, np.random.default_rng(2718).random(100_000))
        sigma = math.sqrt(1000 * 0.3 * 0.7)
        assert abs(draws.mean() - 300.0) < 3.0 * sigma / math.sqrt(draws.size)

    def test_goodness_of_fit(self):
        # Chi-square against the exact binomial masses, bins pooled so every
        # expected count is at least 5; not rejected at significance 1e-4.
        prior = BinomialPrior(n=20, p=0.3)
        draws = draw_counts(20, 0.3, np.random.default_rng(314159).random(100_000))
        expected = np.exp(log_mass_vector(prior)) * draws.size
        observed = np.bincount(draws.astype(np.int64), minlength=21).astype(float)
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


# Priors whose support window is all, part or one point of [0, n], and
# whose masses at the ends underflow, are subnormal or round to 1.
WINDOW_SIZES = (1, 2, 3, 100, 1000, 1023, 1024, 5000, 10_000, 10**6)
WINDOW_PROBABILITIES = (0.0, 5e-324, 1e-300, 1e-9, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98,
                        1.0 - 1e-9, 1.0 - 2.0**-53, 1.0)


@pytest.fixture(scope="module", params=WINDOW_SIZES)
def window_priors(request):
    """Every prior of the grid at one n; module scope runs both window tests at an n in turn."""
    return [BinomialPrior(n=request.param, p=p) for p in WINDOW_PROBABILITIES]


class TestSupportWindow:
    """``_quantiles`` sums only the counts whose mass is a nonzero double."""

    def test_counts_equal_the_full_support_inversion_bitwise(self, window_priors):
        rng = np.random.default_rng(window_priors[0].n)
        below_one = 1.0 - 2.0**-53
        uniforms = np.concatenate([EDGE_UNIFORMS, rng.random(20_000), rng.random(2000) * 1e-12,
                                   below_one - rng.random(2000) * 1e-12])
        for prior in window_priors:
            got = _quantiles(prior, uniforms)
            assert got.tobytes() == dense_quantiles(prior, uniforms).tobytes(), prior

    def test_masses_at_or_below_the_cutoff_are_zero(self, window_priors):
        # The window's premise, on this numpy's exp: what it leaves out adds nothing.
        for prior in window_priors:
            log_masses = log_mass_vector(prior)
            assert not np.exp(log_masses[log_masses <= _LOG_MASS_CUTOFF]).any(), prior


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

    @pytest.mark.parametrize("epsilon", [3.0, 0.03, 1.5, 5.0])
    def test_noise_width_is_twice_the_noise_std(self, epsilon):
        # 2*sqrt(2)/epsilon differs from 2*noise_std in the last bit here.
        level = calibrate(epsilon)
        assert uncertainty_widths(BinomialPrior(n=100, p=0.3), level)[1] == 2.0 * level.noise_std
