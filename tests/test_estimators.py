"""Naive and posterior-mean estimators against brute-force oracles."""

from __future__ import annotations

import math

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


class TestBatch:
    def test_matches_scalar_bitwise(self):
        prior = BinomialPrior(n=100, p=0.3)
        level = calibrate(0.1)
        ys = np.linspace(-40.0, 140.0, 500)
        batch = bayes_estimate_batch(prior, level, ys)
        scalar = np.array([bayes_estimate(prior, level, y) for y in ys])
        assert np.array_equal(batch, scalar)

    def test_chunking_is_invisible(self, monkeypatch):
        prior = BinomialPrior(n=50, p=0.5)
        level = calibrate(0.5)
        ys = np.linspace(-10.0, 60.0, 1000)
        full = bayes_estimate_batch(prior, level, ys)
        monkeypatch.setattr(estimators_module, "_CHUNK_ROWS", 7)
        chunked = bayes_estimate_batch(prior, level, ys)
        assert np.array_equal(full, chunked)

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
        with pytest.raises(FloatingPointError, match="row 0"):
            bayes_estimate_batch(prior, calibrate(1.0), np.array([0.0, 1.0, 2.0, 3.0]))

    def test_row_offset_names_the_global_row(self, monkeypatch):
        # The offset is what turns a chunk-local row into a run index.
        prior = BinomialPrior(n=4, p=0.5)
        monkeypatch.setattr(
            estimators_module,
            "log_mass_vector",
            lambda _: np.full(5, -np.inf),
        )
        with pytest.raises(FloatingPointError, match="row 5"):
            estimators_module._posterior_weights(
                prior, calibrate(1.0), np.array([2.0]), row_offset=5
            )

