"""Laplace output perturbation for counting queries.

A counting query moves by at most 1 when one record is added or removed, so
releasing ``true_count + R`` with ``R ~ Laplace(0, 1/epsilon)`` satisfies
epsilon-differential privacy.  This module calibrates that noise, samples it
by inverse-CDF transform, and provides closed-form analytics for the
probability that the perturbed count escapes the valid range ``[0, n]``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# The smallest positive double uniform; it gives the largest noise, 52*ln(2)/epsilon.
_SMALLEST_UNIFORM = 2.0**-53

__all__ = ["PrivacyLevel", "OutOfRangeBounds", "calibrate", "laplace_density", "sample_noise",
           "out_of_range_probability", "out_of_range_bounds", "dp_ratio_check"]


@dataclass(frozen=True)
class PrivacyLevel:
    """Privacy level epsilon and the Laplace scale it pins down; ``calibrate`` names it too.

    Args:
        epsilon: a positive finite real.  Smaller epsilon means stronger
            privacy and noisier answers.  Counting queries have sensitivity
            1, so ``scale_b = 1/epsilon`` is derived, never passed in.

    Raises:
        ValueError: if epsilon is not a positive finite real, or below about
            2.005e-307, where the largest noise, ``52*ln(2)/epsilon``, overflows.
    """

    epsilon: float
    scale_b: float = field(init=False)

    def __post_init__(self) -> None:
        eps = _check_real(self.epsilon, "epsilon")
        if eps <= 0.0:
            raise ValueError(f"epsilon must be a positive finite real, got {self.epsilon!r}")
        if not math.isfinite(_laplace_quantile(_SMALLEST_UNIFORM, 1.0 / eps)):
            raise ValueError(f"epsilon {self.epsilon!r} is too small: its noise would overflow")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "scale_b", 1.0 / eps)

    @property
    def noise_std(self) -> float:
        """Standard deviation sqrt(2)/epsilon of the calibrated noise."""
        return math.sqrt(2.0) * self.scale_b


calibrate = PrivacyLevel


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
    """Draw one Laplace(0, b) variate by inverting the CDF at one uniform ``u`` from ``rng``.

    ``u > 0.5`` maps to positive noise and ``u = 0.5`` to exactly 0.0; a
    ``u`` below 2**-53, 0.0 included, reads as 2**-53, as in the sweep.

    Args:
        level: calibrated privacy level.
        rng: any object with a ``random()`` method returning floats in
            [0, 1); numpy ``Generator`` instances qualify.
    """
    return _laplace_quantile(rng.random(), level.scale_b)


def _laplace_quantile(u: float, scale_b: float) -> float:
    """Laplace(0, scale_b) quantile at ``u`` in [0, 1): the package's one u -> noise step.

    A ``u`` below 2**-53 reads as 2**-53, whose noise :class:`PrivacyLevel`
    keeps finite; a conditional does it, as ``max()`` adds a sixth to a draw's
    time.  Single draws take this scalar form: the array form costs over ten
    times as much on one element, a fifth of a query's time.  Both take
    ``math.log1p``: numpy's ``log1p`` can differ from it in the last bit,
    which would change seeded releases.
    """
    d = (u if u > _SMALLEST_UNIFORM else _SMALLEST_UNIFORM) - 0.5
    # (d > 0) - (d < 0) is 0 at d == 0, unlike math.copysign.
    sign = (d > 0.0) - (d < 0.0)
    return -scale_b * sign * math.log1p(-2.0 * abs(d))


def _laplace_quantiles(uniforms: np.ndarray) -> np.ndarray:
    """:func:`_laplace_quantile` at scale 1 per element, bitwise: same steps, same ``math.log1p``."""
    d = np.maximum(uniforms, _SMALLEST_UNIFORM) - 0.5
    magnitude = np.fromiter(map(math.log1p, (-2.0 * np.abs(d)).tolist()), np.float64, count=d.size)
    return -np.sign(d) * magnitude


def _check_integer(value, what: str, minimum: int | None = None) -> int:
    """The package's one integer check at its edges: ``value`` as an int, else ``ValueError``.

    Refuses bools (an int subclass: True would pass as 1), non-integral values
    (``int()`` truncates 1.7 to 1), None, NaN, infinities and values below ``minimum``.
    An exact ``int`` skips the conversion.
    """
    number = value
    if type(value) is not int:
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if isinstance(value, (bool, np.bool_)) or number is None or number != value:
            raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ValueError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return number


def _check_real(value, what: str) -> float:
    """The package's one real-number check at its edges.

    Refuses NaN, infinities, bools, strings and reals beyond the float
    range, such as the int ``10**400``.  A finite exact ``float`` returns at
    once, without the ``numbers.Real`` check, which costs more than the rest.
    """
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a real number within the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return number


def _check_collection(values, what: str) -> tuple:
    """The package's one collection check at its edges: ``values`` as a non-empty tuple."""
    if isinstance(values, (str, bytes)):  # a string would iterate by character
        raise ValueError(f"{what} must be a collection, not the string {values!r}")
    try:
        items = tuple(values)
    except TypeError:
        items = ()
    if not items:
        raise ValueError(f"{what} must be a non-empty collection, got {values!r}")
    return items


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
    argmin = frozenset({size // 2, (size + 1) // 2})
    max_prob, min_prob = (out_of_range_probability(a, size, level) for a in (0, size // 2))
    return OutOfRangeBounds(max_prob, frozenset({0, size}), min_prob, argmin)


def dp_ratio_check(level: PrivacyLevel, a1: int, a2: int, grid) -> bool:
    """Whether the pointwise density-ratio bound of epsilon-DP holds on the whole grid.

    For neighbouring true counts (``|a1 - a2| = 1``) the output densities
    must satisfy ``f(y - a1) <= exp(epsilon) * f(y - a2)`` at every point of
    ``grid``.  It compares the log-ratio ``epsilon*(|y - a2| - |y - a1|)``
    with epsilon, so nothing overflows (``exp(epsilon)`` would past 709.78)
    or underflows (densities far from the counts would), with 1e-12
    relative slack: the two sides meet exactly on one side of each count.

    Args:
        level: calibrated privacy level.
        a1: first true count.
        a2: second true count; must differ from ``a1`` by exactly 1.
        grid: points at which to test the ratio.

    Raises:
        ValueError: if the counts are not integers or not neighbours.
    """
    if abs(_check_integer(a1, "a1") - _check_integer(a2, "a2")) != 1:
        raise ValueError(f"counts must differ by exactly 1, got {a1!r} and {a2!r}")
    ys = np.asarray(grid, dtype=np.float64)
    log_ratio = level.epsilon * (np.abs(ys - float(a2)) - np.abs(ys - float(a1)))
    return bool(np.all(log_ratio <= level.epsilon * (1.0 + 1e-12)))
