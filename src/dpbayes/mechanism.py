"""Laplace output perturbation for counting queries.

A counting query moves by at most 1 when one record is added or removed, so
releasing ``true_count + R`` with ``R ~ Laplace(0, 1/epsilon)`` satisfies
epsilon-differential privacy.  This module calibrates that noise, samples it
by inverse-CDF transform, and provides closed-form analytics for the
probability that the perturbed count escapes the valid range ``[0, n]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrivacyLevel",
    "OutOfRangeBounds",
    "calibrate",
    "laplace_density",
    "sample_noise",
    "out_of_range_probability",
    "out_of_range_bounds",
    "dp_ratio_check",
]


@dataclass(frozen=True)
class PrivacyLevel:
    """Privacy level epsilon and the Laplace scale it pins down.

    Counting queries have sensitivity 1, so the scale is always
    ``scale_b = 1/epsilon``; the field is derived, never passed in.
    """

    epsilon: float
    scale_b: float = field(init=False)

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if isinstance(self.epsilon, (bool, np.bool_)) or not math.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"epsilon must be a positive finite real, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "scale_b", 1.0 / eps)

    @property
    def noise_std(self) -> float:
        """Standard deviation sqrt(2)/epsilon of the calibrated noise."""
        return math.sqrt(2.0) * self.scale_b


def calibrate(epsilon: float) -> PrivacyLevel:
    """Calibrate Laplace noise for a sensitivity-1 counting query.

    Args:
        epsilon: privacy level; must be a positive finite real.  Smaller
            epsilon means stronger privacy and noisier answers.

    Returns:
        The :class:`PrivacyLevel` with ``scale_b = 1/epsilon``.

    Raises:
        ValueError: if epsilon is not a positive finite real.
    """
    return PrivacyLevel(epsilon)


def laplace_density(z, level: PrivacyLevel) -> np.ndarray:
    """Density ``(epsilon/2) * exp(-epsilon * |z|)`` of the calibrated noise.

    Args:
        z: point or array of points.
        level: calibrated privacy level.

    Returns:
        Array of density values with the shape of ``z`` (0-d for a point).
    """
    z = np.asarray(z, dtype=np.float64)
    # numpy turns 0-d results into scalars; keep one return type.
    return np.asarray(0.5 * level.epsilon * np.exp(-level.epsilon * np.abs(z)))


def sample_noise(level: PrivacyLevel, rng) -> float:
    """Draw one Laplace(0, b) variate by inverting the CDF at a uniform draw.

    Consumes exactly one uniform ``u`` from ``rng`` (plus redraws in the
    measure-zero event that ``u`` is 0.0 or 1.0, where the transform is
    undefined).  ``u > 0.5`` maps to positive noise, ``u = 0.5`` to exactly
    0.0.  The result is unbounded and never clamped.

    Args:
        level: calibrated privacy level.
        rng: any object with a ``random()`` method returning floats in
            [0, 1); numpy ``Generator`` instances qualify.
    """
    u = rng.random()
    while u == 0.0 or u == 1.0:
        u = rng.random()
    d = u - 0.5
    # (d > 0) - (d < 0) is 0 at d == 0, unlike math.copysign.
    sign = (d > 0.0) - (d < 0.0)
    return -level.scale_b * sign * math.log1p(-2.0 * abs(d))


def _check_integer(value, what: str, minimum: int | None = None) -> int:
    """The package's one integer check for values taken at its edges.

    Returns ``value`` as an int.  Raises ``ValueError`` for bools (an int
    subclass: True would pass as 1), non-integral values (``int()``
    truncates 1.7 to 1), NaN and infinities, and values below ``minimum``.
    """
    try:
        number = int(value)
    except (ValueError, OverflowError):
        number = None
    if isinstance(value, (bool, np.bool_)) or number is None or number != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return number


def out_of_range_probability(a: int, n: int, level: PrivacyLevel) -> float:
    """Probability that a noisy count at true value ``a`` escapes ``[0, n]``.

    The noise is symmetric Laplace, so the closed form is

        P(out of range) = (exp(-epsilon*a) + exp(-epsilon*(n - a))) / 2.

    Args:
        a: true count, an integer in ``[0, n]``.
        n: database size, a positive integer.
        level: calibrated privacy level.

    Raises:
        ValueError: if ``n < 1`` or ``a`` lies outside ``[0, n]``.
    """
    size = _check_integer(n, "db size", minimum=1)
    count = _check_integer(a, "true count")
    if not 0 <= count <= size:
        raise ValueError(f"true count must be an integer in [0, {size}], got {a!r}")
    return 0.5 * (math.exp(-level.epsilon * count) + math.exp(level.epsilon * (count - size)))


@dataclass(frozen=True)
class OutOfRangeBounds:
    """Extremes of the out-of-range probability over true counts 0..n."""

    max_prob: float
    argmax: frozenset
    min_prob: float
    argmin: frozenset


def out_of_range_bounds(n: int, level: PrivacyLevel) -> OutOfRangeBounds:
    """Extremes of the out-of-range probability over all true counts.

    The probability is maximal at the endpoints, where it equals
    ``(1 + exp(-epsilon*n)) / 2`` and in particular always exceeds 1/2.  It
    decreases strictly while ``a < (n-1)/2`` and increases strictly after
    ``a > (n-1)/2``, so the minimum sits at ``n/2`` for even ``n`` and is
    tied across ``{(n-1)/2, (n+1)/2}`` for odd ``n`` (for ``n = 1`` that
    tie spans the whole domain and the extremes coincide).

    Args:
        n: database size, a positive integer.
        level: calibrated privacy level.
    """
    size = _check_integer(n, "db size", minimum=1)
    max_prob = 0.5 * (1.0 + math.exp(-level.epsilon * size))
    if size % 2 == 0:
        argmin = frozenset({size // 2})
    else:
        argmin = frozenset({(size - 1) // 2, (size + 1) // 2})
    min_prob = out_of_range_probability(min(argmin), size, level)
    return OutOfRangeBounds(
        max_prob=max_prob,
        argmax=frozenset({0, size}),
        min_prob=min_prob,
        argmin=argmin,
    )


def dp_ratio_check(level: PrivacyLevel, a1: int, a2: int, grid) -> bool:
    """Check the pointwise density-ratio bound of epsilon-differential privacy.

    For neighbouring true counts (``|a1 - a2| = 1``) the output densities
    must satisfy ``f(y - a1) <= exp(epsilon) * f(y - a2)`` at every point of
    ``grid``.  The comparison carries 1e-12 relative slack because the two
    sides meet exactly on one side of each count, where rounding could
    otherwise flip the verdict.

    Args:
        level: calibrated privacy level.
        a1: first true count.
        a2: second true count; must differ from ``a1`` by exactly 1.
        grid: points at which to test the ratio.

    Returns:
        True when the bound holds on the whole grid.

    Raises:
        ValueError: if the counts are not integers or not neighbours.
    """
    if abs(_check_integer(a1, "a1") - _check_integer(a2, "a2")) != 1:
        raise ValueError(f"counts must differ by exactly 1, got {a1!r} and {a2!r}")
    ys = np.asarray(grid, dtype=np.float64)
    f1 = laplace_density(ys - float(a1), level)
    f2 = laplace_density(ys - float(a2), level)
    return bool(np.all(f1 <= math.exp(level.epsilon) * f2 * (1.0 + 1e-12)))
