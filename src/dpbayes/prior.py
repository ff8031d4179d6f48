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
from scipy.special import gammaln

from .mechanism import PrivacyLevel, _check_integer, _check_real

__all__ = [
    "BinomialPrior",
    "log_mass_vector",
    "uncertainty_widths",
]

_SLICE_ELEMENTS = 1 << 16  # counts computed at once: 0.5 MB per temporary array


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
        for lo in range(0, n + 1, _SLICE_ELEMENTS):  # keeps gammaln's temporaries small
            k = np.arange(lo, min(lo + _SLICE_ELEMENTS, n + 1), dtype=np.float64)
            out[lo : lo + k.size] = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
                                     + k * math.log(p) + (n - k) * math.log1p(-p))
    out.flags.writeable = False
    return out


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
