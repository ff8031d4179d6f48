"""Naive and posterior-mean estimators against brute-force oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpbayes.estimators as estimators_module
from dpbayes import (
    BinomialPrior,
    bayes_estimate,
    bayes_estimate_batch,
    calibrate,
    naive_estimate,
    posterior,
)


def oracle_posterior_mean(n, p, epsilon, y):
    """Linear-space reference: exact comb() masses, no log-space tricks."""
    weights = [
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * math.exp(-epsilon * abs(y - k))
        for k in range(n + 1)
    ]
    total = sum(weights)
    return sum(k * w for k, w in enumerate(weights)) / total


# Decimal digits for the exact oracle; its own rounding stays below 1e-40.
ORACLE_DIGITS = 50


def _oracle_context(ctx):
    ctx.prec = ORACLE_DIGITS
    # e^{-epsilon * 1e6} must not underflow to zero.
    ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN


@lru_cache(maxsize=None)
def exact_masses(n, p):
    """Binomial(n, p) masses in decimal arithmetic from exact integer coefficients."""
    with localcontext() as ctx:
        _oracle_context(ctx)
        prob = Decimal(p)  # the float's exact binary value
        coefficient = 1  # math.comb(n, k), stepped exactly in integers
        masses = []
        for k in range(n + 1):
            masses.append(ctx.create_decimal(coefficient) * prob**k * (1 - prob) ** (n - k))
            coefficient = coefficient * (n - k) // (k + 1)
        return masses


def exact_posterior_mean(n, p, epsilon, y):
    """Posterior mean in 50-digit linear-space arithmetic, independent of the kernel."""
    with localcontext() as ctx:
        _oracle_context(ctx)
        eps, response = Decimal(epsilon), Decimal(y)
        step = (-eps).exp()
        last_left = min(max(math.floor(y), -1), n)  # counts k <= last_left lie at or below y
        # exp(-eps*|y - k|), stepped outward by factors exp(-eps) from both sides of y.
        likelihood = [Decimal(0)] * (n + 1)
        factor = (-eps * (response - last_left)).exp()
        for k in range(last_left, -1, -1):
            likelihood[k] = factor
            factor *= step
        factor = (-eps * (last_left + 1 - response)).exp()
        for k in range(last_left + 1, n + 1):
            likelihood[k] = factor
            factor *= step
        weights = [m * f for m, f in zip(exact_masses(n, p), likelihood)]
        return float(sum(k * w for k, w in enumerate(weights)) / sum(weights))


def oracle_responses(n):
    """Integers, half-integers, block edges, the ends of [0, n] and far outliers."""
    width = -(-(n + 1) // estimators_module._BLOCKS)
    edge = width * ((n + 1) // width // 2)
    return sorted({
        -1e6, -1.0, -0.5, 0.0, 0.5, 1.0, width - 1.0, float(width), edge - 0.5, float(edge),
        edge + 0.25, n / 2, n - 1.0, n - 0.5, float(n), n + 0.5, 1e6,
    })


class TestNaive:
    @pytest.mark.parametrize("y", [42.7, -3.1, 0.0, 300.0])
    def test_identity(self, y):
        assert naive_estimate(y) == y

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, y):
        with pytest.raises(ValueError):
            naive_estimate(y)


class TestPosterior:
    def test_two_point_example(self):
        # n = 1, p = 1/2, eps = 1, y = 1: odds are e^{-1} : 1.
        probs = posterior(BinomialPrior(n=1, p=0.5), calibrate(1.0), 1.0)
        assert probs.shape == (2,)
        assert probs[1] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_is_symmetric(self):
        probs = posterior(BinomialPrior(n=1, p=0.5), calibrate(1.0), 0.5)
        assert probs[0] == pytest.approx(probs[1], rel=1e-12)

    def test_degenerate_prior_ignores_response(self):
        prior = BinomialPrior(n=10, p=0.0)
        level = calibrate(0.1)
        for y in (-5.0, 0.3, 7.0, 1000.0):
            probs = posterior(prior, level, y)
            assert probs[0] == 1.0
            assert probs[1:].sum() == 0.0

    def test_large_n_far_response_stays_normalised(self):
        prior = BinomialPrior(n=10_000, p=0.3)
        level = calibrate(0.1)
        for y in (-1e5, -500.0, 0.0, 3000.0, 1e5):
            probs = posterior(prior, level, y)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= 0.0)

    def test_extreme_response_equals_the_range_end(self):
        # epsilon * 1.7e308 overflows; beyond [-1, n] y changes no probability.
        prior, level = BinomialPrior(n=100, p=0.3), calibrate(2.0)
        for y, end in ((1.7e308, 100.0), (-1.7e308, -1.0)):
            assert np.array_equal(posterior(prior, level, y), posterior(prior, level, end))

    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-3000.0, max_value=3000.0, allow_nan=False),
    )
    def test_normalisation_property(self, n, p, epsilon, y):
        probs = posterior(BinomialPrior(n=n, p=p), calibrate(epsilon), y)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_rejects_non_finite_response(self):
        with pytest.raises(ValueError):
            posterior(BinomialPrior(n=10, p=0.5), calibrate(1.0), math.inf)

    def test_degenerate_weights_raise(self, monkeypatch):
        # Defensive path: a prior with no mass anywhere cannot normalise.
        prior = BinomialPrior(n=4, p=0.5)
        monkeypatch.setattr(
            estimators_module,
            "log_mass_vector",
            lambda _: np.full(5, -np.inf),
        )
        with pytest.raises(FloatingPointError, match="row 0"):
            estimators_module.posterior(prior, calibrate(1.0), 2.0)


class TestBayesEstimate:
    def test_two_point_example(self):
        value = bayes_estimate(BinomialPrior(n=1, p=0.5), calibrate(1.0), 1.0)
        assert value == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-9)

    def test_degenerate_priors_pin_the_estimate(self):
        level = calibrate(0.1)
        for y in (-50.0, 0.0, 2000.0):
            assert bayes_estimate(BinomialPrior(n=10, p=1.0), level, y) == 10.0
            assert bayes_estimate(BinomialPrior(n=10, p=0.0), level, y) == 0.0

    def test_matches_oracle_reference_cell(self):
        prior = BinomialPrior(n=30, p=0.3)
        level = calibrate(0.1)
        for y in (-12.0, -0.5, 0.0, 4.25, 9.0, 17.5, 30.0, 41.0):
            ours = bayes_estimate(prior, level, y)
            reference = oracle_posterior_mean(30, 0.3, 0.1, y)
            assert ours == pytest.approx(reference, rel=1e-9)

    @given(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0.1, 0.3, 0.5, 0.9]),
        st.sampled_from([0.1, 0.5, 1.0, 5.0]),
        st.floats(min_value=-15.0, max_value=55.0, allow_nan=False),
    )
    def test_matches_oracle_property(self, n, p, epsilon, y):
        ours = bayes_estimate(BinomialPrior(n=n, p=p), calibrate(epsilon), y)
        reference = oracle_posterior_mean(n, p, epsilon, y)
        assert ours == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_always_inside_range(self, n, p, epsilon, y):
        value = bayes_estimate(BinomialPrior(n=n, p=p), calibrate(epsilon), y)
        assert 0.0 <= value <= n

    def test_monotone_in_response(self):
        prior = BinomialPrior(n=100, p=0.3)
        for epsilon in (0.1, 1.0):
            level = calibrate(epsilon)
            grid = np.arange(-20.0, 120.25, 0.25)
            values = bayes_estimate_batch(prior, level, grid)
            assert np.all(np.diff(values) >= -1e-12)

    @given(
        st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_monotone_property(self, y, gap):
        prior = BinomialPrior(n=100, p=0.3)
        level = calibrate(0.5)
        low = bayes_estimate(prior, level, y)
        high = bayes_estimate(prior, level, y + gap)
        assert high >= low - 1e-12

    def test_symmetric_prior_symmetric_estimates(self):
        # For p = 1/2 the posterior mean mirrors around n/2.
        prior = BinomialPrior(n=10, p=0.5)
        level = calibrate(0.5)
        for delta in (0.0, 0.75, 2.5, 6.0, 20.0):
            up = bayes_estimate(prior, level, 5.0 + delta)
            down = bayes_estimate(prior, level, 5.0 - delta)
            assert up + down == pytest.approx(10.0, abs=1e-8)

    def test_shrinks_toward_prior_mean(self):
        # A response far below 0 cannot drag the estimate below 0.
        prior = BinomialPrior(n=100, p=0.3)
        value = bayes_estimate(prior, calibrate(0.1), -50.0)
        assert 0.0 <= value <= 30.0


class TestExactOracle:
    @pytest.mark.parametrize("p", [1e-9, 0.3, 1.0 - 1e-9])
    @pytest.mark.parametrize("n", [1, 2, 1000, 1023, 1024, 1025, 10_000])
    def test_matches_decimal_oracle(self, n, p):
        # Block width is 1 up to n = 1023 and first changes at n = 1024.
        ys = oracle_responses(n)
        misses = []
        for epsilon in (0.05, 2.0, 5.0):
            got = bayes_estimate_batch(BinomialPrior(n=n, p=p), calibrate(epsilon), ys)
            for y, value in zip(ys, got):
                want = exact_posterior_mean(n, p, epsilon, y)
                if not math.isclose(value, want, rel_tol=1e-9, abs_tol=0.0):
                    misses.append((epsilon, y, value, want))
        assert not misses

    def test_two_point_tail_keeps_relative_accuracy(self):
        # The mean is about 1e-9 here; 1 - expit(x) would lose most of its digits.
        value = bayes_estimate(BinomialPrior(n=1, p=1e-9), calibrate(1.0), 0.0)
        want = exact_posterior_mean(1, 1e-9, 1.0, 0.0)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, p, epsilon", [(30, 0.3, 0.1), (300, 0.02, 1.0), (300, 0.7, 5.0)])
    def test_agrees_with_full_posterior(self, n, p, epsilon):
        prior, level = BinomialPrior(n=n, p=p), calibrate(epsilon)
        k = np.arange(n + 1, dtype=np.float64)
        for y in (-40.0, -1.0, 0.0, 2.5, n * p, n * p + 0.5, n - 1.0, float(n), n + 40.0):
            mean = k @ posterior(prior, level, y)
            assert bayes_estimate(prior, level, y) == pytest.approx(mean, rel=1e-12, abs=0.0)


class TestEpsilonNBound:
    """The kernel refuses epsilon * n above 2**33, where its means lose digits."""

    @pytest.mark.parametrize(
        "n, epsilon, y",
        [(3, 1e300, 2.0), (100, 5e306, 30.0), (100, 2.0**33 / 100 * (1 + 1e-15), 30.4)],
    )
    def test_refuses_above_the_bound(self, n, epsilon, y):
        # At (3, 1e300, 2.0) the posterior mean is 2.0, yet the kernel used
        # to return 1.0; at (100, 5e306) it returned NaN.
        prior, level = BinomialPrior(n=n, p=0.5), calibrate(epsilon)
        with pytest.raises(ValueError, match=r"2\*\*33"):
            bayes_estimate(prior, level, y)
        with pytest.raises(ValueError, match=r"2\*\*33"):
            bayes_estimate_batch(prior, level, np.array([y, 0.0]))
        with pytest.raises(ValueError, match=r"2\*\*33"):
            posterior(prior, level, y)

    def test_accurate_at_the_bound(self):
        n, p, epsilon = 100, 0.3, 2.0**33 / 100
        ys = list(oracle_responses(n))
        for k in (3, 33, 98):
            ys += [k + 0.5 + d / epsilon for d in (-2.0, -0.3, 0.0, 0.3, 2.0)]
        got = bayes_estimate_batch(BinomialPrior(n=n, p=p), calibrate(epsilon), np.array(ys))
        want = np.array([exact_posterior_mean(n, p, epsilon, y) for y in ys])
        assert np.max(np.abs(got - want) / np.maximum(want, 1.0)) < 1e-6


class TestBatch:
    def test_matches_scalar_bitwise(self):
        prior = BinomialPrior(n=100, p=0.3)
        level = calibrate(0.1)
        ys = np.linspace(-40.0, 140.0, 500)
        batch = bayes_estimate_batch(prior, level, ys)
        scalar = np.array([bayes_estimate(prior, level, y) for y in ys])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("n", [50, 10_000])
    def test_batching_is_invisible(self, n):
        # At n = 10**4 blocks are 10 counts wide and a slice holds 26214 rows,
        # so the splits below cut across the first slice boundary.
        prior = BinomialPrior(n=n, p=0.3)
        level = calibrate(0.5)
        rng = np.random.default_rng(5)
        ys = np.concatenate([
            rng.uniform(-20.0, n + 20.0, 30_000),
            np.arange(-1.0, n + 1.5, 0.5)[:: max(1, n // 100)],
        ])
        full = bayes_estimate_batch(prior, level, ys)
        boundary = estimators_module._SLICE_ELEMENTS // -(-(n + 1) // estimators_module._BLOCKS)
        cuts = [c for c in (0, 1, 17, boundary - 1, boundary + 2) if c < ys.size] + [ys.size]
        pieces = [bayes_estimate_batch(prior, level, ys[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), full)
        order = rng.permutation(ys.size)
        assert np.array_equal(bayes_estimate_batch(prior, level, ys[order]), full[order])
        assert np.array_equal([bayes_estimate(prior, level, y) for y in ys[:200]], full[:200])

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_memory_stays_bounded(self, n):
        # The dense kernel needed rows x (n+1) doubles per chunk: about 1 GB
        # at n = 10**4.  Measured in a fresh process as growth of VmHWM,
        # which, unlike ru_maxrss, does not inherit the peak of the process
        # that started it.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status")
        code = (
            "import numpy as np\n"
            "from dpbayes import BinomialPrior, bayes_estimate_batch, calibrate\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
            f"ys = np.random.default_rng(0).normal(0.3 * {n}, 50.0, 100_000)\n"
            "before = peak_kib()\n"
            f"bayes_estimate_batch(BinomialPrior({n}, 0.3), calibrate(0.1), ys)\n"
            "print(peak_kib() - before)\n"
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=120)
        growth_mb = int(child.stdout) / 1024
        assert growth_mb < 64

    def test_rejects_bad_input(self):
        prior = BinomialPrior(n=10, p=0.5)
        level = calibrate(1.0)
        with pytest.raises(ValueError):
            bayes_estimate_batch(prior, level, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            bayes_estimate_batch(prior, level, np.array([1.0, math.nan]))

    def test_degenerate_weights_raise_in_batch(self, monkeypatch):
        prior = BinomialPrior(n=4, p=0.5)
        monkeypatch.setattr(
            estimators_module,
            "log_mass_vector",
            lambda _: np.full(5, -np.inf),
        )
        # The block tables are cached per (prior, epsilon): build them from
        # the patched masses, and drop them afterwards.
        estimators_module._block_tables.cache_clear()
        try:
            with pytest.raises(FloatingPointError, match="row 0"):
                bayes_estimate_batch(prior, calibrate(1.0), np.array([0.0, 1.0, 2.0, 3.0]))
        finally:
            estimators_module._block_tables.cache_clear()
