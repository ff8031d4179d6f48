"""Exact references for the tests: 50-digit binomial masses and posterior means."""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import lru_cache

import numpy as np

from dpbayes import log_mass_vector


# 50 digits keep each reference's own rounding below 1e-40; the extreme
# exponents keep p**n and e^{-epsilon * 1e6} from underflowing to zero.
_CONTEXT = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)


def decimal_masses(n, p, counts):
    """Binomial(n, p) masses at sorted ``counts``, as 50-digit Decimals, for 0 < p < 1.

    Masses are stepped by their exact ratios, up from (1 - p)**n for counts
    up to n/2 and down from p**n above, with p the float's exact binary value;
    up to 16 steps' integer factors are multiplied exactly before each
    decimal product.
    """
    with localcontext(_CONTEXT):
        prob = Decimal(p)
        odds = [(prob / (1 - prob)) ** s for s in range(17)]
        masses = {}
        k, mass = 0, (1 - prob) ** n
        for target in (c for c in counts if 2 * c <= n):
            while k < target:
                s = min(16, target - k)
                up, down = math.prod(range(n - k - s + 1, n - k + 1)), math.prod(range(k + 1, k + s + 1))
                mass = mass * up * odds[s] / down
                k += s
            masses[target] = mass
        k, mass = n, prob**n
        for target in (c for c in reversed(counts) if 2 * c > n):
            while k > target:
                s = min(16, k - target)
                up, down = math.prod(range(k - s + 1, k + 1)), math.prod(range(n - k + 1, n - k + s + 1))
                mass = mass * up / (down * odds[s])
                k -= s
            masses[target] = mass
        return [masses[c] for c in counts]


@lru_cache(maxsize=None)
def _all_masses(n, p):
    return decimal_masses(n, p, range(n + 1))


def exact_posterior_mean(n, p, epsilon, y):
    """Posterior mean in 50-digit linear-space arithmetic, independent of the kernel."""
    with localcontext(_CONTEXT):
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
        weights = [m * f for m, f in zip(_all_masses(n, p), likelihood)]
        return float(sum(k * w for k, w in enumerate(weights)) / sum(weights))


def dense_posterior_mean(prior, epsilon, y):
    """Posterior mean by ``math.fsum`` over every weight within e^-60 of the
    largest.  It shares no summation with the kernel, but it reads the
    package's own masses (``log_mass_vector``), which
    ``TestLogMass::test_matches_decimal_reference`` holds to ``decimal_masses``."""
    k = np.arange(prior.n + 1, dtype=np.float64)
    log_w = log_mass_vector(prior) - epsilon * np.abs(y - k)
    top = log_w.max()
    keep = log_w >= top - 60.0
    w = np.exp(log_w[keep] - top)
    return math.fsum(k[keep] * w) / math.fsum(w)
