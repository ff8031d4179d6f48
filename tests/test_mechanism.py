"""Laplace calibration, sampling, and out-of-range analytics."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from dpbayes import (
    BinomialPrior,
    PrivacyLevel,
    SweepConfig,
    bayes_estimate,
    calibrate,
    dp_ratio_check,
    laplace_density,
    naive_estimate,
    out_of_range_bounds,
    out_of_range_probability,
    posterior,
    sample_noise,
    uncertainty_widths,
)
from dpbayes.mechanism import _check_integer, _check_real, _laplace_quantile, _laplace_quantiles


class StubStream:
    """Feeds a fixed sequence of uniforms to sample_noise."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestCalibrate:
    @pytest.mark.parametrize(
        "epsilon, scale", [(0.05, 20.0), (0.1, 10.0), (0.5, 2.0), (1.0, 1.0), (2.0, 0.5)]
    )
    def test_scale_is_reciprocal_epsilon(self, epsilon, scale):
        level = calibrate(epsilon)
        assert level.epsilon == epsilon
        assert level.scale_b == pytest.approx(scale, rel=1e-15)

    def test_noise_std(self):
        assert calibrate(0.1).noise_std == pytest.approx(14.1421, abs=1e-4)
        assert calibrate(1.0).noise_std == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            calibrate(epsilon)

    @pytest.mark.parametrize("epsilon", [True, np.True_])
    def test_rejects_bools(self, epsilon):
        with pytest.raises(ValueError):
            calibrate(epsilon)
        with pytest.raises(ValueError):
            PrivacyLevel(epsilon)

    @pytest.mark.parametrize("epsilon", ["0.5", "1", None, np.array(0.5)])
    def test_rejects_non_reals(self, epsilon):
        # float("0.5") would parse the string as 0.5.
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            calibrate(epsilon)
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            PrivacyLevel(epsilon)

    def test_direct_construction_validates_too(self):
        with pytest.raises(ValueError):
            PrivacyLevel(-0.5)
        assert PrivacyLevel(0.2).scale_b == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-308, 2e-307])
    def test_rejects_epsilon_whose_noise_overflows(self, epsilon):
        # 52*ln(2)/epsilon, the noise at the uniform 2**-53, is not finite here.
        with pytest.raises(ValueError, match="too small"):
            calibrate(epsilon)

    def test_smallest_accepted_epsilon_keeps_noise_finite(self):
        level = calibrate(2.01e-307)
        assert math.isfinite(level.noise_std)
        for u in (2.0**-53, 1.0 - 2.0**-53):
            assert math.isfinite(sample_noise(level, StubStream([u])))
        # At 2**-54 the quantile is 53*ln(2)/epsilon, past the bound checked
        # above, and overflows; every u below 2**-53 reads as 2**-53 instead.
        for u in (2.0**-54, 2.0**-55, 5e-324, 0.0):
            assert sample_noise(level, StubStream([u])) == sample_noise(level, StubStream([2.0**-53]))

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_exactly_reciprocal(self, epsilon):
        assert calibrate(epsilon).scale_b == 1.0 / epsilon


class TestRealCheck:
    @pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_reals_beyond_the_float_range_are_value_errors(self, value):
        # float() of such a real raises OverflowError, which used to escape unconverted.
        for call in (naive_estimate, calibrate, lambda v: BinomialPrior(10, v)):
            with pytest.raises(ValueError, match="within the float range"):
                call(value)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_refused_with_one_message(self, value):
        prior, level = BinomialPrior(10, 0.3), calibrate(0.5)
        calls = (
            lambda v: BinomialPrior(10, v),
            calibrate,
            PrivacyLevel,
            naive_estimate,
            lambda v: bayes_estimate(prior, level, v),
            lambda v: posterior(prior, level, v),
        )
        for call in calls:
            with pytest.raises(ValueError, match="must be a finite real number"):
                call(value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: BinomialPrior(n=None, p=0.3),
            lambda: BinomialPrior(n=10, p=None),
            lambda: calibrate(None),
            lambda: out_of_range_probability(None, 10, calibrate(0.5)),
            lambda: out_of_range_probability(5, None, calibrate(0.5)),
            lambda: out_of_range_bounds(None, calibrate(0.5)),
            lambda: dp_ratio_check(calibrate(0.5), None, 1, [0.0]),
        ],
        ids=["prior-n", "prior-p", "epsilon", "true-count", "db-size", "bounds-n", "dp-a1"],
    )
    def test_none_is_a_value_error(self, call):
        # int(None) raises TypeError, which used to escape the integer check.
        with pytest.raises(ValueError, match="must be an? (integer|real number)"):
            call()


class TestIntegerCheck:
    def test_refuses_exactly_the_integers_float_cannot_convert(self):
        # 2**1024 - 2**970 is half-way from the largest double to 2**1024.
        for value in (2**1024 - 2**970 - 1, 2**1024 - 2**970, 10**400):
            for number in (value, -value):
                try:
                    float(number)
                except OverflowError:
                    with pytest.raises(ValueError, match="within the float range"):
                        _check_integer(number, "x")
                else:
                    assert _check_integer(number, "x") == number

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: uncertainty_widths(BinomialPrior(n, 0.3), calibrate(0.1)),
            lambda n: SweepConfig(n_values=(n,)),
            lambda n: SweepConfig(runs=n),
            lambda n: out_of_range_probability(0, n, calibrate(0.1)),
            lambda n: out_of_range_bounds(n, calibrate(0.1)),
            lambda n: dp_ratio_check(calibrate(0.1), n, n + 1, [0.0]),
            lambda n: bayes_estimate(BinomialPrior(n, 0.3), calibrate(0.1), 1.0),
            lambda n: posterior(BinomialPrior(n, 0.3), calibrate(0.1), 1.0),
        ],
        ids=["widths", "sweep-n", "sweep-runs", "probability", "bounds", "dp-ratio", "bayes",
             "posterior"],
    )
    def test_integers_beyond_the_float_range_are_value_errors(self, call):
        # Each but sweep-runs used to raise OverflowError from a later float().
        with pytest.raises(ValueError, match="within the float range"):
            call(10**400)


class FloatSubclass(float):
    pass


class IntSubclass(int):
    pass


REAL = "must be a real number, got"
FINITE = "must be a finite real number"
INTEGER = "must be an integer, got"


class TestEdgeChecks:
    # Each input's result from the real check and from the integer check at
    # minimum 0: a value, compared by type and repr, or a ValueError's message.
    @pytest.mark.parametrize(
        "value, real, integer",
        [
            (True, REAL, INTEGER),
            (np.bool_(False), REAL, INTEGER),
            (np.float64(np.inf), FINITE, INTEGER),
            (np.float64(np.nan), FINITE, INTEGER),
            (np.float64(2.0), 2.0, 2),
            (FloatSubclass(2.5), 2.5, INTEGER),
            (FloatSubclass(math.inf), FINITE, INTEGER),
            (IntSubclass(3), 3.0, 3),
            (IntSubclass(-1), -1.0, "of at least 0"),
            (10**400, "within the float range", "within the float range"),
            ("1", REAL, INTEGER),
            (None, REAL, INTEGER),
            (Fraction(3, 2), 1.5, INTEGER),
            (Fraction(4, 2), 2.0, 2),
            (Decimal("2"), REAL, 2),
            (-0.0, -0.0, 0),
            (7, 7.0, 7),
            (-7, -7.0, "of at least 0"),
            (math.nan, FINITE, INTEGER),
        ],
        ids=["true", "numpy-bool", "numpy-inf", "numpy-nan", "numpy-float", "float-subclass",
             "float-subclass-inf", "int-subclass", "int-subclass-negative", "int-beyond-float",
             "string", "none", "fraction", "integral-fraction", "decimal", "negative-zero", "int",
             "negative-int", "nan"],
    )
    def test_results_and_errors(self, value, real, integer):
        for check, want in ((_check_real, real), (lambda v, what: _check_integer(v, what, 0), integer)):
            if isinstance(want, str):
                with pytest.raises(ValueError, match=want):
                    check(value, "x")
            else:
                got = check(value, "x")
                assert (type(got), repr(got)) == (type(want), repr(want))


class TestLaplaceDensity:
    def test_point_values(self):
        level = calibrate(0.1)
        assert laplace_density(0.0, level) == pytest.approx(0.05, rel=1e-15)
        assert laplace_density(10.0, level) == pytest.approx(0.05 * math.exp(-1.0), rel=1e-12)

    def test_point_gives_zero_dimensional_array(self):
        out = laplace_density(0.0, calibrate(0.1))
        assert isinstance(out, np.ndarray)
        assert out.shape == ()

    def test_array_input(self):
        level = calibrate(1.0)
        out = laplace_density(np.array([-2.0, 0.0, 2.0]), level)
        assert out.shape == (3,)
        assert out[0] == out[2]
        assert out[1] == pytest.approx(0.5, rel=1e-15)

    @given(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_symmetry_and_positivity(self, z, epsilon):
        level = calibrate(epsilon)
        assert laplace_density(z, level) == laplace_density(-z, level)
        assert laplace_density(z, level) > 0.0

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 1.0, 2.0])
    def test_integrates_to_one(self, epsilon):
        level = calibrate(epsilon)
        half = 50.0 * level.scale_b
        lo, _ = integrate.quad(lambda z: laplace_density(z, level), -half, 0.0)
        hi, _ = integrate.quad(lambda z: laplace_density(z, level), 0.0, half)
        assert lo + hi == pytest.approx(1.0, abs=1e-9)


class TestSampleNoise:
    def test_median_uniform_gives_zero(self):
        assert sample_noise(calibrate(0.1), StubStream([0.5])) == 0.0

    def test_inverse_cdf_point(self):
        # u = 0.75 at b = 10 inverts to 10 * ln 2.
        value = sample_noise(calibrate(0.1), StubStream([0.75]))
        assert value == pytest.approx(10.0 * math.log(2.0), rel=1e-12)
        mirrored = sample_noise(calibrate(0.1), StubStream([0.25]))
        assert mirrored == pytest.approx(-value, rel=1e-12)

    def test_zero_uniform_reads_as_the_smallest_uniform(self):
        # One uniform per draw, as in the sweep: 0.0 has no quantile, so it
        # reads as 2**-53.  1.0 lies outside [0, 1) and is refused by both forms.
        level, stream = calibrate(0.1), StubStream([0.0, 0.75])
        assert sample_noise(level, stream) == sample_noise(level, StubStream([2.0**-53]))
        assert stream.values == [0.75]
        with pytest.raises(ValueError):
            sample_noise(level, StubStream([1.0]))
        with pytest.raises(ValueError):
            _laplace_quantiles(np.array([1.0]))

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 1.0, 2.0])
    def test_smallest_noise_is_unreachable_from_the_next_count(self, epsilon):
        # Floating-point sampling breaks the density-ratio bound (Mironov,
        # CCS 2012).  2**-53 is the smallest uniform sample_noise reads
        # (numpy's random() returns multiples of 2**-53 and any smaller u
        # reads as 2**-53), so it yields the smallest noise the sampler can
        # return.  The release a + noise then has positive probability at
        # true count a but none at a + 1, whose releases all lie strictly
        # above it.
        level = calibrate(epsilon)
        smallest = sample_noise(level, StubStream([2.0**-53]))
        assert smallest == sample_noise(level, StubStream([0.0]))
        assert smallest == pytest.approx(-52.0 * math.log(2.0) * level.scale_b, rel=1e-12)
        assert sample_noise(level, StubStream([2.0**-52])) > smallest
        for a in (0, 1, 50, 99):
            released = a + smallest
            assert (a + 1) + smallest > released

    @pytest.mark.parametrize("u", [math.nan, 1.0, 1.5])
    def test_uniform_without_a_quantile_is_refused_by_both_forms(self, u):
        # A faulty stream releases nothing: were NaN read as 2**-53, it would
        # release the largest negative noise.  Both forms say the same.
        message = rf"^a noise uniform must lie in \[0, 1\), got {u!r}$"
        with pytest.raises(ValueError, match=message):
            sample_noise(calibrate(0.1), StubStream([u]))
        with pytest.raises(ValueError, match=message):
            _laplace_quantiles(np.array([0.25, u, 0.75, u]))

    def test_noise_is_within_one_ulp_of_math_log1p(self):
        # The noise takes numpy's log1p, which may differ from the C library's
        # (math.log1p) in the last bit; this bounds that change to 1 ulp and to
        # none at the edges, where +0.0 at the median keeps its sign.
        edges = [0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
        uniforms = np.concatenate([edges, np.random.default_rng(33).random(1_000_000)])
        reference = []
        for u in uniforms.tolist():
            d = max(u, 2.0**-53) - 0.5
            sign = float((d > 0.0) - (d < 0.0))
            reference.append(-sign * math.log1p(-2.0 * abs(d)))
        reference = np.array(reference)
        noise = _laplace_quantiles(uniforms)
        # Same-sign doubles: their int64 views differ by their distance in ulps.
        assert np.abs(noise.view(np.int64) - reference.view(np.int64)).max() <= 1
        assert noise[:len(edges)].tobytes() == reference[:len(edges)].tobytes()
        assert noise[3] == 0.0 and math.copysign(1.0, noise[3]) == 1.0

    def test_array_quantile_equals_scalar_bitwise(self):
        # Among these uniforms numpy's own log1p differs from math.log1p in the
        # last bit at thousands (x86-64, numpy 2.4), so the two forms must take
        # the same log1p to pass here.
        # The edges are the median, the ends of [0, 1) and uniforms below 2**-53.
        uniforms = np.random.default_rng(2024).random(100_000)
        uniforms[:8] = [0.5, 2.0**-53, 1.0 - 2.0**-53, 0.0, 5e-324, 2.0**-60, 2.0**-55, 2.0**-54]
        expected = [_laplace_quantile(u, 1.0) for u in uniforms.tolist()]
        assert _laplace_quantiles(uniforms).tobytes() == np.array(expected).tobytes()

    def test_deterministic_given_stream(self):
        level = calibrate(0.5)
        first = [sample_noise(level, np.random.default_rng(7)) for _ in range(5)]
        second = [sample_noise(level, np.random.default_rng(7)) for _ in range(5)]
        assert first == second

    def test_empirical_mean_and_variance(self):
        level = calibrate(0.1)
        rng = np.random.default_rng(1234)
        draws = np.array([sample_noise(level, rng) for _ in range(100_000)])
        std = level.noise_std
        assert abs(draws.mean()) < 5.0 * std / math.sqrt(draws.size)
        assert draws.var() == pytest.approx(2.0 * level.scale_b**2, rel=0.05)

    def test_sign_balance(self):
        level = calibrate(1.0)
        rng = np.random.default_rng(99)
        draws = np.array([sample_noise(level, rng) for _ in range(20_000)])
        share_positive = (draws > 0).mean()
        assert abs(share_positive - 0.5) < 5.0 * 0.5 / math.sqrt(draws.size)


class TestOutOfRangeProbability:
    def test_endpoint_value(self):
        probability = out_of_range_probability(0, 100, calibrate(0.1))
        assert isinstance(probability, float)
        assert probability == pytest.approx(0.5000227, abs=1e-7)

    def test_centre_value(self):
        probability = out_of_range_probability(50, 100, calibrate(0.1))
        assert probability == pytest.approx(math.exp(-5.0), rel=1e-12)

    @given(st.integers(min_value=1, max_value=2000), st.floats(min_value=0.01, max_value=5.0))
    def test_symmetry_around_centre(self, n, epsilon):
        level = calibrate(epsilon)
        for a in {0, n // 3, n // 2}:
            left = out_of_range_probability(a, n, level)
            right = out_of_range_probability(n - a, n, level)
            assert left == pytest.approx(right, rel=1e-12)

    @pytest.mark.parametrize("a", [-1, 101, 7.5])
    def test_rejects_bad_count(self, a):
        with pytest.raises(ValueError):
            out_of_range_probability(a, 100, calibrate(0.1))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            out_of_range_probability(0, 0, calibrate(0.1))

    @pytest.mark.parametrize(
        "a, n", [(True, 10), (np.True_, 10), (1, True), (1, 10.5), (math.nan, 10), (1, math.inf)]
    )
    def test_rejects_bools_and_non_integers(self, a, n):
        # True used to run as a = 1 or n = 1.
        with pytest.raises(ValueError):
            out_of_range_probability(a, n, calibrate(1.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            out_of_range_probability(value, 10, calibrate(1.0))
        with pytest.raises(ValueError):
            out_of_range_probability(1, value, calibrate(1.0))

    def test_monte_carlo_agreement(self):
        level = calibrate(0.1)
        rng = np.random.default_rng(4321)
        noise = np.array([sample_noise(level, rng) for _ in range(30_000)])
        for a in (0, 25, 50):
            target = out_of_range_probability(a, 100, level)
            observed = ((a + noise < 0.0) | (a + noise > 100.0)).mean()
            tolerance = 4.0 * math.sqrt(target * (1.0 - target) / noise.size) + 1e-4
            assert abs(observed - target) < tolerance


def brute_force_bounds(n, level):
    probs = [out_of_range_probability(a, n, level) for a in range(n + 1)]
    hi, lo = max(probs), min(probs)
    return (
        hi,
        frozenset(a for a, q in enumerate(probs) if q == hi),
        lo,
        frozenset(a for a, q in enumerate(probs) if q == lo),
    )


class TestOutOfRangeBounds:
    def test_even_size(self):
        bounds = out_of_range_bounds(100, calibrate(0.1))
        assert bounds.max_prob == pytest.approx(0.5000227, abs=1e-7)
        assert bounds.argmax == frozenset({0, 100})
        assert bounds.min_prob == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert bounds.argmin == frozenset({50})

    def test_odd_size_ties(self):
        bounds = out_of_range_bounds(101, calibrate(0.1))
        assert 50 in bounds.argmin
        assert bounds.argmin == frozenset({50, 51})

    @pytest.mark.parametrize("n", [True, np.True_, 10.5, math.inf])
    def test_rejects_bools_and_non_integers(self, n):
        with pytest.raises(ValueError):
            out_of_range_bounds(n, calibrate(1.0))

    @pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, n):
        with pytest.raises(ValueError):
            out_of_range_bounds(n, calibrate(1.0))

    def test_max_exceeds_half(self):
        # Strictly above 1/2 wherever exp(-eps*n) is representable above
        # machine epsilon; never below 1/2.
        for n in (1, 2, 10, 100):
            assert out_of_range_bounds(n, calibrate(0.05)).max_prob > 0.5
        assert out_of_range_bounds(1000, calibrate(0.05)).max_prob >= 0.5

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 1.0])
    def test_matches_brute_force_small_sizes(self, epsilon):
        level = calibrate(epsilon)
        for n in range(1, 41):
            bounds = out_of_range_bounds(n, level)
            hi, arg_hi, lo, arg_lo = brute_force_bounds(n, level)
            assert bounds.max_prob == hi
            assert bounds.argmax == arg_hi
            assert bounds.min_prob == lo
            assert bounds.argmin == arg_lo

    @given(st.integers(min_value=1, max_value=300), st.floats(min_value=0.02, max_value=3.0))
    def test_matches_brute_force_property(self, n, epsilon):
        level = calibrate(epsilon)
        bounds = out_of_range_bounds(n, level)
        hi, arg_hi, lo, arg_lo = brute_force_bounds(n, level)
        assert (bounds.max_prob, bounds.argmax) == (hi, arg_hi)
        assert (bounds.min_prob, bounds.argmin) == (lo, arg_lo)

    @pytest.mark.parametrize("epsilon", [0.05, 1.0])
    def test_decreasing_then_increasing(self, epsilon):
        # Forward differences flip sign exactly at the (n-1)/2 pivot, with a
        # flat step there only when n is odd.
        level = calibrate(epsilon)
        for n in range(2, 301):
            probs = [out_of_range_probability(a, n, level) for a in range(n + 1)]
            pivot = (n - 1) / 2.0
            for a in range(n):
                diff = probs[a + 1] - probs[a]
                if a < pivot:
                    assert diff < 0.0
                elif a == pivot:
                    assert diff == 0.0
                else:
                    assert diff > 0.0


class TestDpRatioCheck:
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
    def test_holds_for_neighbours(self, epsilon):
        level = calibrate(epsilon)
        grid = np.linspace(-10.0 * level.scale_b, 100.0 + 10.0 * level.scale_b, 10_001)
        assert dp_ratio_check(level, 50, 51, grid)
        assert dp_ratio_check(level, 51, 50, grid)
        assert dp_ratio_check(level, 0, 1, grid)

    @pytest.mark.parametrize("epsilon", [30.0, 800.0, 1e300])
    def test_large_epsilon_returns_true(self, epsilon):
        # Past epsilon = 709.78 exp(epsilon) overflows; from about 30 on, this
        # grid reaches densities that underflow to 0 next to positive ones.
        level = calibrate(epsilon)
        grid = np.linspace(-10.0 * level.scale_b, 100.0 + 10.0 * level.scale_b, 10_001)
        assert dp_ratio_check(level, 50, 51, grid) is True
        assert dp_ratio_check(level, 0, 1, grid) is True

    def test_rejects_non_neighbours(self):
        level = calibrate(0.1)
        with pytest.raises(ValueError):
            dp_ratio_check(level, 50, 50, [0.0])
        with pytest.raises(ValueError):
            dp_ratio_check(level, 50, 52, [0.0])

    @pytest.mark.parametrize("a1, a2", [(0.5, 1.7), (True, 2), (1, np.False_), (1, 2.0000001)])
    def test_rejects_bools_and_non_integers(self, a1, a2):
        # (0.5, 1.7) used to truncate to the neighbours (0, 1) and return False.
        with pytest.raises(ValueError):
            dp_ratio_check(calibrate(1.0), a1, a2, [0.0, 1.0])

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            dp_ratio_check(calibrate(1.0), value, 2, [0.0, 1.0])
        with pytest.raises(ValueError):
            dp_ratio_check(calibrate(1.0), 1, value, [0.0, 1.0])

    @pytest.mark.parametrize(
        "grid",
        [[math.inf], [-math.inf], [math.nan], ["1.5"], [True], [[0.0, 1.0]], 0.5, [10**400]],
        ids=["inf", "minus-inf", "nan", "string", "bool", "two-d", "scalar", "beyond-float"],
    )
    def test_rejects_grids_that_are_not_finite_reals(self, grid):
        # [inf] and [nan] used to report a violation, and ["1.5"] and [True] to pass.
        with pytest.raises(ValueError, match="grid points must"):
            dp_ratio_check(calibrate(1.0), 0, 1, grid)

    def test_accepts_integral_numbers(self):
        assert dp_ratio_check(calibrate(1.0), np.int64(3), 4.0, [0.0, 3.5, 9.0])

    def test_detects_violation(self):
        # A mechanism twice as peaked as claimed breaks the epsilon bound.
        claimed = calibrate(0.1)
        actual = calibrate(0.2)
        grid = np.linspace(-50.0, 150.0, 2_001)
        f1 = laplace_density(grid - 50.0, actual)
        f2 = laplace_density(grid - 51.0, actual)
        bound = math.exp(claimed.epsilon) * f2
        assert not bool(np.all(f1 <= bound * (1.0 + 1e-12)))
