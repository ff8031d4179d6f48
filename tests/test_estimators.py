"""Naive and posterior-mean estimators against brute-force oracles."""

from __future__ import annotations

import math
import sys
import threading
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
    log_mass_vector,
    naive_estimate,
    posterior,
)
from vmhwm import peak_growth_mb


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


def dense_posterior_mean(prior, epsilon, y):
    """Posterior mean by ``math.fsum`` over every weight within e^-60 of the
    largest; it shares no summation with the kernel."""
    k = np.arange(prior.n + 1, dtype=np.float64)
    log_w = log_mass_vector(prior) - epsilon * np.abs(y - k)
    top = log_w.max()
    keep = log_w >= top - 60.0
    w = np.exp(log_w[keep] - top)
    return math.fsum(k[keep] * w) / math.fsum(w)


class TestNaive:
    @pytest.mark.parametrize("y", [42.7, -3.1, 0.0, 300.0])
    def test_identity(self, y):
        assert naive_estimate(y) == y

    # Strings and bools are refused as p and epsilon are, not read as numbers.
    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan, "7", True, np.True_, None])
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the kernel errs by about "
                       "epsilon*n*2**-53, up to 3.2e-9 here")
    @pytest.mark.parametrize("p", [0.3, 0.02])
    def test_large_epsilon_n_matches_dense_reference(self, p):
        prior, epsilon = BinomialPrior(n=10**6, p=p), 50.0
        ys = np.linspace(-1.0, prior.n + 1.0, 50)
        got = bayes_estimate_batch(prior, calibrate(epsilon), ys)
        misses = []
        for y, value in zip(ys, got):
            want = dense_posterior_mean(prior, epsilon, y)
            if not math.isclose(value, want, rel_tol=1e-9, abs_tol=0.0):
                misses.append((y, value, want))
        assert not misses

    def test_two_point_tail_keeps_relative_accuracy(self):
        # The mean is about 1e-9 here; one minus the left share would lose most of its digits.
        value = bayes_estimate(BinomialPrior(n=1, p=1e-9), calibrate(1.0), 0.0)
        want = exact_posterior_mean(1, 1e-9, 1.0, 0.0)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_overwhelming_left_odds_stay_finite(self):
        # At p = 5e-324 the log-odds of the left side reach about 744, past
        # the 709 where e^x overflows; the right share, and so the mean, is
        # below 2**-1022 however it is rounded.
        value = bayes_estimate(BinomialPrior(n=1, p=5e-324), calibrate(1.0), 0.5)
        assert 0.0 <= value < 2.0**-1022

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
    @pytest.mark.parametrize("n", [100, 1024, 20_000, 10**6])
    def test_matches_scalar_bitwise(self, n):
        # Responses across the whole range, and a run through the blocks
        # around the prior mean.
        prior = BinomialPrior(n=n, p=0.3)
        level = calibrate(0.1)
        ys = np.concatenate([np.linspace(-40.0, n + 40.0, 500), 0.3 * n + np.arange(-30.0, 30.0, 0.3)])
        batch = bayes_estimate_batch(prior, level, ys)
        scalar = np.array([bayes_estimate(prior, level, y) for y in ys])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("n", [50, 10_000])
    def test_batching_is_invisible(self, n):
        # A slice holds _CHUNK_ELEMENTS responses whatever n is, and the
        # splits below cut across the first slice boundary.
        prior = BinomialPrior(n=n, p=0.3)
        level = calibrate(0.5)
        rng = np.random.default_rng(5)
        ys = np.concatenate([
            rng.uniform(-20.0, n + 20.0, 30_000),
            np.arange(-1.0, n + 1.5, 0.5)[:: max(1, n // 100)],
        ])
        full = bayes_estimate_batch(prior, level, ys)
        boundary = estimators_module._CHUNK_ELEMENTS
        cuts = [c for c in (0, 1, 17, boundary - 1, boundary + 2) if c < ys.size] + [ys.size]
        pieces = [bayes_estimate_batch(prior, level, ys[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), full)
        order = rng.permutation(ys.size)
        assert np.array_equal(bayes_estimate_batch(prior, level, ys[order]), full[order])
        assert np.array_equal([bayes_estimate(prior, level, y) for y in ys[:200]], full[:200])

    @pytest.mark.parametrize("n", [100, 20_000])
    @pytest.mark.parametrize("count", [1, 6])
    def test_stacked_levels_equal_one_level_batches(self, n, count):
        # The sweep scores a prior's levels in one kernel pass, each level
        # with its own responses; every level's means are its own batch's,
        # bitwise, on both sides of a chunk boundary.
        prior = BinomialPrior(n=n, p=0.3)
        levels = [calibrate(eps) for eps in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)[:count]]
        rng = np.random.default_rng(count)
        runs = estimators_module._CHUNK_ELEMENTS + 17
        scales = np.array([[level.scale_b] for level in levels])
        ys = rng.binomial(n, 0.3, runs) + rng.laplace(size=(count, runs)) * scales
        ys[:, :40] = np.linspace(-40.0, n + 40.0, 40)
        out = np.empty_like(ys)
        estimators_module._block_tables.cache_clear()
        estimators_module._posterior_means(prior, levels, ys, out)
        for level, got, level_ys in zip(levels, out, ys):
            assert np.array_equal(got, bayes_estimate_batch(prior, level, level_ys))

    def test_degenerate_row_in_a_later_level_names_its_run(self):
        # Run r's response -0.5 + r reads row r.  A NaN row in the second
        # level's store fails the stacked pass at that level's run, as it
        # fails that level's own batch.
        prior = BinomialPrior(n=37, p=0.3)
        levels = [calibrate(eps) for eps in (0.5, 1.0, 2.0)]
        ys = np.tile(np.arange(-0.5, 37.0), (3, 1))
        out = np.empty_like(ys)
        estimators_module._block_tables.cache_clear()
        try:
            estimators_module._posterior_means(prior, levels, ys, out)
            estimators_module._block_tables(prior, 1.0)[2][5] = np.nan
            with pytest.raises(FloatingPointError, match="at row 5$"):
                estimators_module._posterior_means(prior, levels, ys, out)
            with pytest.raises(FloatingPointError, match="at row 5$"):
                bayes_estimate_batch(prior, levels[1], ys[1])
            assert np.array_equal(out[0], bayes_estimate_batch(prior, levels[0], ys[0]))
        finally:
            estimators_module._block_tables.cache_clear()

    @pytest.mark.parametrize(
        "n, rows, draw",
        [(10_000, 100_000, "normal"), (100_000, 100_000, "normal"), (10**6, 1000, "normal"),
         (10**6, 1000, "uniform"), (10**6, 10_000, "uniform")],
        ids=["10000", "100000", "1000000", "1000000-uniform", "1000000-spread"],
    )
    def test_memory_stays_bounded(self, n, rows, draw):
        # The dense kernel needed rows x (n+1) doubles per chunk: about 1 GB
        # at n = 10**4.  At n = 10**6 the block tables are built a few
        # blocks at a time; the cached 8 MB log-masses and their temporaries
        # remain.
        # Responses drawn uniformly over [-1, n + 1] touch most blocks, so
        # most pages of the row store are written: 24 bytes per count.
        # Measured in a fresh process as growth of VmHWM.
        draws = {"normal": f"normal(0.3 * {n}, 50.0, {rows})",
                 "uniform": f"uniform(-1.0, {n} + 1.0, {rows})"}
        growth_mb = peak_growth_mb(
            f"bayes_estimate_batch(BinomialPrior({n}, 0.3), calibrate(0.1), ys)\n",
            setup="import numpy as np\n"
                  "from dpbayes import BinomialPrior, bayes_estimate_batch, calibrate\n"
                  f"ys = np.random.default_rng(0).{draws[draw]}\n",
        )
        assert growth_mb < 40

    def test_row_cache_is_invisible(self):
        # At n = 10**6 blocks are 977 counts wide; these responses touch
        # most blocks, whose rows are built while the first batch runs.
        n = 10**6
        prior, level = BinomialPrior(n=n, p=0.3), calibrate(0.5)
        ys = np.random.default_rng(7).uniform(-1.0, n + 1.0, 300)
        width = -(-(n + 1) // estimators_module._BLOCKS)
        touched = np.unique((np.floor(ys) + 1) // width).size
        assert touched * width > 2 * estimators_module._CHUNK_ELEMENTS
        first = bayes_estimate_batch(prior, level, ys)
        again = bayes_estimate_batch(prior, level, ys)
        estimators_module._block_tables.cache_clear()
        fresh = bayes_estimate_batch(prior, level, ys)
        assert np.array_equal(again, first)
        assert np.array_equal(fresh, first)

    def test_spread_batch_builds_each_block_once(self, monkeypatch):
        # 10**4 responses uniform over [-1, n + 1] touch nearly every block,
        # in many slices.  Each touched block's rows are built exactly once.
        n = 10**6
        prior, level = BinomialPrior(n=n, p=0.3), calibrate(0.5)
        ys = np.random.default_rng(11).uniform(-1.0, n + 1.0, 10_000)
        estimators_module._block_tables.cache_clear()
        width = estimators_module._block_tables(prior, level.epsilon)[0]
        built = []
        in_block_sums = estimators_module._in_block_sums

        def counting(mass, block, *args):
            built.append(block.size)
            return in_block_sums(mass, block, *args)

        monkeypatch.setattr(estimators_module, "_in_block_sums", counting)
        bayes_estimate_batch(prior, level, ys)
        touched = np.unique((np.floor(ys) + 1) // width).size
        assert ys.size > 2 * estimators_module._CHUNK_ELEMENTS
        assert sum(built) == touched

    def test_scalar_builds_its_own_block_once(self, monkeypatch):
        # A cold scalar builds the one block its response lands in; a repeat
        # call, or another response in that block, builds nothing.
        n = 10**6
        prior, level = BinomialPrior(n=n, p=0.3), calibrate(0.5)
        estimators_module._block_tables.cache_clear()
        width = estimators_module._block_tables(prior, level.epsilon)[0]
        built = []
        in_block_sums = estimators_module._in_block_sums

        def counting(mass, block, *args):
            built.append(block.tolist())
            return in_block_sums(mass, block, *args)

        monkeypatch.setattr(estimators_module, "_in_block_sums", counting)
        for y in (-5.0, 123_456.7, float(n) + 3.0):
            block = (math.floor(min(max(y, -1.0), n)) + 1) // width
            first = bayes_estimate(prior, level, y)
            assert built == [[block]]
            assert bayes_estimate(prior, level, y) == first
            bayes_estimate(prior, level, block * width - 0.5)  # the block's first count
            assert built == [[block]]
            built.clear()

    @pytest.mark.parametrize(
        "size, count", [(400, 6), (8, 300), (1, 1000)], ids=["refill", "append", "scalar"]
    )
    def test_concurrent_callers_read_consistent_rows(self, size, count):
        # Threads share each (prior, epsilon)'s row store.  Batches of 400
        # responses spread over every block build most rows at once; batches
        # of 8 add a few blocks each; single responses go through
        # bayes_estimate, one block at a time.  A caller reading rows before
        # they are written, or rows another writer overwrote, would get wrong
        # means.
        n = 200_000
        prior, level = BinomialPrior(n=n, p=0.3), calibrate(0.5)
        batches = [np.random.default_rng(seed).uniform(-1.0, n + 1.0, size) for seed in range(count)]
        estimators_module._block_tables.cache_clear()
        want = [bayes_estimate_batch(prior, level, ys) for ys in batches]
        estimators_module._block_tables.cache_clear()
        results = {}

        def work(worker):
            for i in range(len(batches)):
                ys = batches[(i + worker) % len(batches)]
                if size > 1:
                    got = bayes_estimate_batch(prior, level, ys)
                else:
                    got = [bayes_estimate(prior, level, ys[0])]
                results[worker, i] = np.array_equal(got, want[(i + worker) % len(batches)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(batches) and all(results.values())

    @pytest.mark.parametrize("p", [0.02, 0.3, 0.98])
    def test_block_widths_agree(self, monkeypatch, p):
        # n = 100 has one-count blocks; with 8 blocks the same prior has
        # blocks 13 counts wide.
        prior = BinomialPrior(n=100, p=p)
        ys = np.linspace(-40.0, 140.0, 500)
        levels = [calibrate(epsilon) for epsilon in (0.05, 2.0, 5.0)]
        estimators_module._block_tables.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(estimators_module, "_BLOCKS", 8)
                ys = np.concatenate([ys, oracle_responses(100)])
                blocked = [bayes_estimate_batch(prior, level, ys) for level in levels]
                assert estimators_module._block_tables(prior, 2.0)[0] == 13
                for level, got in zip(levels, blocked):
                    assert np.array_equal([bayes_estimate(prior, level, y) for y in ys], got)
            estimators_module._block_tables.cache_clear()
            for level, got in zip(levels, blocked):
                assert estimators_module._block_tables(prior, level.epsilon)[0] == 1
                want = bayes_estimate_batch(prior, level, ys)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        finally:
            estimators_module._block_tables.cache_clear()

    def test_rejects_bad_input(self):
        prior = BinomialPrior(n=10, p=0.5)
        level = calibrate(1.0)
        with pytest.raises(ValueError):
            bayes_estimate_batch(prior, level, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            bayes_estimate_batch(prior, level, np.array([1.0, math.nan]))
        for ys in (["1", "2"], [True], np.array([1 + 2j]), np.array([1.0], dtype=object)):
            with pytest.raises(ValueError):
                bayes_estimate_batch(prior, level, ys)
        for y in ("3", True):
            with pytest.raises(ValueError):
                bayes_estimate(prior, level, y)

    def test_degenerate_weights_raise_in_batch(self, monkeypatch):
        monkeypatch.setattr(
            estimators_module,
            "log_mass_vector",
            lambda prior: np.full(prior.n + 1, -np.inf),
        )
        # The block tables are cached per (prior, epsilon): build them from
        # the patched masses, and drop them afterwards.  n = 4 has one-count
        # blocks, n = 2000 blocks two counts wide.  The scalar reads rows the
        # batch built, and at n - 0.5 builds its own.
        estimators_module._block_tables.cache_clear()
        try:
            for n in (4, 2000):
                with pytest.raises(FloatingPointError, match="row 0"):
                    bayes_estimate_batch(
                        BinomialPrior(n=n, p=0.5), calibrate(1.0), np.array([0.0, 1.0, 2.0, 3.0])
                    )
                for y in (1.0, n - 0.5):
                    with pytest.raises(FloatingPointError, match="row 0"):
                        bayes_estimate(BinomialPrior(n=n, p=0.5), calibrate(1.0), y)
        finally:
            estimators_module._block_tables.cache_clear()

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 1e-17, 0.3, 1.0 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("n", [1, 1000, 100_000])
    @pytest.mark.parametrize("scale", ["smallest", "one", "largest"])
    def test_valid_input_never_degenerates(self, n, p, scale):
        # A Binomial prior puts total mass 1 on [0, n], so no valid (n, p,
        # epsilon, y) reaches the degenerate-normalisation error: every mean is
        # finite and in range, with no floating-point warning, and the scalar
        # path, on numpy scalars, gives the batch's bits.
        epsilon = {"smallest": 2.1e-307, "one": 1.0, "largest": 2.0**33 / n}[scale]
        below = np.nextafter([0.0, 1.0, n // 2, float(n)], -np.inf)
        ys = np.concatenate([[-1e308, -1.0, -0.5, float(n), n + 0.5, 1e308], below])
        prior, level = BinomialPrior(n=n, p=p), calibrate(epsilon)
        means = bayes_estimate_batch(prior, level, ys)
        assert np.all(np.isfinite(means))
        assert np.all((means >= 0.0) & (means <= n))
        assert np.array_equal([bayes_estimate(prior, level, y) for y in ys], means)
