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
def _weight_sums(n, p, epsilon):
    """Running sums of the posterior's weights at one (n, p, epsilon), as 50-digit Decimals.

    ``left[j]`` is ``(sum m_k e^{eps k}, sum k m_k e^{eps k})`` over counts
    ``k < j`` and ``right[j]`` the same of ``m_k e^{-eps k}`` over ``k >= j``,
    so each side is a sum of positive terms and no sum is a difference.
    """
    with localcontext(_CONTEXT):
        masses = decimal_masses(n, p, range(n + 1))
        eps = Decimal(epsilon)
        step = eps.exp()
        left, grow = [(Decimal(0), Decimal(0))], Decimal(1)
        for k in range(n + 1):
            weight = masses[k] * grow
            left.append((left[-1][0] + weight, left[-1][1] + k * weight))
            grow *= step
        right, shrink = [(Decimal(0), Decimal(0))], (-eps * n).exp()
        for k in range(n, -1, -1):
            weight = masses[k] * shrink
            right.append((right[-1][0] + weight, right[-1][1] + k * weight))
            shrink *= step
        return left, right[::-1]


def exact_posterior_mean(n, p, epsilon, y):
    """Posterior mean in 50-digit linear-space arithmetic, independent of the kernel.

    ``e^{-eps |y - k|}`` is ``e^{-eps y} e^{eps k}`` at counts ``k <= y`` and
    ``e^{eps y} e^{-eps k}`` above, so each response reads two cached running
    sums (``_weight_sums``) and costs O(1) after the first at its (n, p, epsilon).
    """
    with localcontext(_CONTEXT):
        eps, response = Decimal(epsilon), Decimal(y)
        split = min(max(math.floor(y), -1), n) + 1  # counts k < split lie at or below y
        left, right = _weight_sums(n, p, epsilon)
        (mass_left, moment_left), (mass_right, moment_right) = left[split], right[split]
        below, above = (-eps * response).exp(), (eps * response).exp()
        moment = below * moment_left + above * moment_right
        return float(moment / (below * mass_left + above * mass_right))


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
