"""Binomial population model for the true count of a counting query.

When each of ``n`` records satisfies the query predicate independently with
probability ``p``, the true count is Binomial(n, p).  That distribution is
the prior the posterior-mean corrector starts from, and its spread relative
to the injected noise is what decides whether publishing (n, p) leaks
anything about a single answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mechanism import PrivacyLevel, _check_integer, _check_real

__all__ = [
    "BinomialPrior",
    "log_mass_vector",
    "uncertainty_widths",
]

# Counts or responses computed at once, here and in estimators, so temporaries stay small.
_CHUNK_ELEMENTS = 1 << 12

# Stirling remainders ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 at k = 1..15, rounded
# from 50-digit values; the series in _stirlerr takes over above 15.
_STIRLERR_TABLE = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


@dataclass(frozen=True)
class BinomialPrior:
    """Binomial(n, p): n records, each matching independently with probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        size = _check_integer(self.n, "n", minimum=1)
        prob = _check_real(self.p, "p")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        object.__setattr__(self, "n", size)
        object.__setattr__(self, "p", prob)


@lru_cache(maxsize=128)
def log_mass_vector(prior: BinomialPrior) -> np.ndarray:
    """Log-probability of every count 0..n as a read-only length-(n+1) array.

    Cached per prior, so equal priors share one array; it is read-only so
    that sharing is safe.  Degenerate priors are honest point masses:
    ``p = 0`` puts all mass at 0 and ``p = 1`` at ``n``, with log-mass
    ``-inf`` elsewhere.
    """
    n, p = prior.n, prior.p
    out = np.full(n + 1, -np.inf)
    if p == 0.0:
        out[0] = 0.0
    elif p == 1.0:
        out[n] = 0.0
    else:
        out[0], out[n] = n * math.log1p(-p), n * math.log(p)
        for lo in range(1, n, _CHUNK_ELEMENTS):
            k = np.arange(lo, min(lo + _CHUNK_ELEMENTS, n), dtype=np.float64)
            out[lo : lo + k.size] = _interior_log_masses(n, p, k)
    out.flags.writeable = False
    return out


def _interior_log_masses(n: int, p: float, k: np.ndarray) -> np.ndarray:
    """Log Binomial(n, p) masses at counts ``0 < k < n``, for ``0 < p < 1``.

    Loader's saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000; R's ``dbinom``): Stirling remainders plus two
    deviance terms, so nothing of the size of ``ln n!`` is formed and
    cancelled.  Elementwise, so any cut of ``k`` gives the same bits.
    """
    rest = n - k
    return (_stirlerr(np.float64(n)) - _stirlerr(k) - _stirlerr(rest)
            - _bd0(k, n * p) - _bd0(rest, n * (1.0 - p))
            + 0.5 * np.log(n / (2.0 * math.pi * k * rest)))


def _stirlerr(k):
    """Stirling remainder ``ln k! - (k + 1/2) ln k + k - ln(2 pi)/2`` at counts ``k >= 1``."""
    inv = 1.0 / (k * k)
    series = (1 / 12 - inv * (1 / 360 - inv * (1 / 1260 - inv * (1 / 1680 - inv / 1188)))) / k
    return np.where(k <= 15, _STIRLERR_TABLE.take(np.minimum(k, 15).astype(np.intp) - 1), series)


def _bd0(x, mean: float):
    """Deviance ``x ln(x/mean) + mean - x`` of counts ``x >= 1`` from a ``mean > 0``.

    Near the mean, where the direct form cancels, it is the series
    ``(x - mean) v + 2 x sum_{j>=1} v^(2j+1)/(2j+1)`` in ``v = (x - mean)/(x + mean)``;
    ``|v| < 0.1`` there, so nine terms reach double precision.
    """
    d = x - mean
    v = d / (x + mean)
    w = v * v
    odd = w * (1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (
        1 / 13 + w * (1 / 15 + w * (1 / 17 + w / 19))))))))
    series = d * v + 2.0 * x * v * odd
    # x / mean overflows only for a mean far below any count, where log x - log mean loses nothing.
    log_ratio = np.log(x / mean) if mean > 1e-290 else np.log(x) - math.log(mean)
    direct = x * log_ratio + mean - x
    return np.where(np.abs(v) < 0.1, series, direct)


def _quantiles(prior: BinomialPrior, uniforms: np.ndarray) -> np.ndarray:
    """Binomial(n, p) quantiles ``min{k : P(K <= k) > u}`` of uniforms in [0, 1), as floats.

    Inversion (Devroye 1986, section III.2): exact marginals, and at a fixed
    uniform the count is nondecreasing in ``p`` and in ``u``.  Uniforms below
    1/2 are inverted on the left cumulative sums of the masses, the rest on
    the right survival sums, ``P(K > k) < 1 - u`` with ``1 - u`` exact, so
    upper-tail masses far below 2**-53 stay reachable.
    """
    mass = np.exp(log_mass_vector(prior))
    upper = uniforms >= 0.5
    counts = np.empty(uniforms.shape)
    counts[~upper] = np.searchsorted(np.cumsum(mass), uniforms[~upper], side="right")
    # survival[i] = P(K > n - i), nondecreasing in i.
    survival = np.concatenate([[0.0], np.cumsum(mass[:0:-1])])
    below = np.searchsorted(survival, 1.0 - uniforms[upper], side="left")
    counts[upper] = prior.n + 1 - below
    return counts


def uncertainty_widths(prior: BinomialPrior, level: PrivacyLevel) -> tuple[float, float]:
    """One-sigma interval widths of the prior count and of the injected noise.

    Returns ``(2*sqrt(n*p*(1-p)), 2*level.noise_std)``, the noise width
    being twice the standard deviation sqrt(2)/epsilon.  When the first
    number dwarfs the second, knowing the population model still leaves far
    more uncertainty about the true count than the noise adds, so releasing
    (n, p) is not what breaks privacy.
    """
    binomial_width = 2.0 * math.sqrt(prior.n * prior.p * (1.0 - prior.p))
    return binomial_width, 2.0 * level.noise_std
