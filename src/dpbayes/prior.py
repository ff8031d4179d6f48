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

from .mechanism import PrivacyLevel, _check_integer

__all__ = [
    "BinomialPrior",
    "log_mass_vector",
    "sample_true_counts",
    "uncertainty_widths",
]


@dataclass(frozen=True)
class BinomialPrior:
    """Binomial(n, p): n records, each matching independently with probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        size = _check_integer(self.n, "n", minimum=1)
        # bool is an int subclass; True would silently mean p = 1.
        prob = float(self.p)
        if isinstance(self.p, (bool, np.bool_)) or math.isnan(prob) or not 0.0 <= prob <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        object.__setattr__(self, "n", size)
        object.__setattr__(self, "p", prob)


@lru_cache(maxsize=128)
def _log_pmf(n: int, p: float) -> np.ndarray:
    # Cached per (n, p); read-only so callers can share the array safely.
    k = np.arange(n + 1, dtype=np.float64)
    if p == 0.0:
        out = np.full(n + 1, -np.inf)
        out[0] = 0.0
    elif p == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n] = 0.0
    else:
        out = (
            gammaln(n + 1.0)
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + k * math.log(p)
            + (n - k) * math.log1p(-p)
        )
    out.flags.writeable = False
    return out


def log_mass_vector(prior: BinomialPrior) -> np.ndarray:
    """Log-probability of every count 0..n as a read-only length-(n+1) array.

    Degenerate priors are honest point masses: ``p = 0`` puts all mass at 0
    and ``p = 1`` at ``n``, with log-mass ``-inf`` elsewhere.
    """
    return _log_pmf(prior.n, prior.p)


def sample_true_counts(n: int, p_values, rng) -> np.ndarray:
    """Draw one Binomial(n, p) true count for every ``p`` from the same records.

    Consumes exactly ``n`` uniforms from ``rng`` in record order and
    thresholds them at every ``p``, so a record matching at ``p`` also
    matches at any larger ``p``.  ``rng`` is a numpy ``Generator`` or
    anything whose ``random(n)`` returns ``n`` uniforms in [0, 1).

    Returns:
        Integer array of counts, one per entry of ``p_values``.
    """
    uniforms = rng.random(n)
    return (uniforms < np.asarray(p_values, dtype=np.float64)[:, None]).sum(axis=1)


def uncertainty_widths(prior: BinomialPrior, level: PrivacyLevel) -> tuple[float, float]:
    """One-sigma interval widths of the prior count and of the injected noise.

    Returns ``(2*sqrt(n*p*(1-p)), 2*sqrt(2)/epsilon)``.  When the first
    number dwarfs the second, knowing the population model still leaves far
    more uncertainty about the true count than the noise adds, so releasing
    (n, p) is not what breaks privacy.
    """
    binomial_width = 2.0 * math.sqrt(prior.n * prior.p * (1.0 - prior.p))
    laplace_width = 2.0 * math.sqrt(2.0) / level.epsilon
    return binomial_width, laplace_width
