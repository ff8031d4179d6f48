"""Exact expected errors of one sweep cell: the oracle for its Monte Carlo estimates.

A cell draws ``K ~ Binomial(n, p)`` and releases ``Y = K + L`` with
``L ~ Laplace(1/epsilon)``; the corrected estimate is the posterior mean
``mu(y) = E[K | Y = y]``.  This module computes, without sampling,

- ``E|mu(Y) - K|``, which ``avg_err_bayes`` estimates,
- ``E(mu(Y) - K)^2``, which with it gives the variance of one run's error,
- ``P(|mu(Y) - K| < |Y - K|)``, which ``prob_bayes_better`` estimates,
- ``E(mu(Y) - K)``, zero by the tower rule, and the total mass of ``Y``,
  one, both as checks of the integration itself.

The posterior mean is rebuilt here from scipy's binomial log-pmf, not taken
from the package.  On ``(j, j+1)`` the likelihood splits between the counts
``k <= j`` and ``k > j``, so ``mu(y) = muR_j - (muR_j - muL_j) *
expit(d_j - 2*epsilon*y)``, with ``muL_j``, ``muR_j`` the means of ``m_k
e^{epsilon k}`` over ``k <= j`` and of ``m_k e^{-epsilon k}`` over ``k > j``
and ``d_j`` the log-ratio of their totals.  Outside ``[0, n]`` one side is
empty, ``mu`` is constant and every expectation has a closed form.  Inside,
each unit interval is split where ``mu(y)`` crosses an integer (the kinks
of ``|mu(y) - k|``, in closed form since ``mu`` is monotone) and integrated
by Gauss-Legendre.  The region where the corrected estimate wins is bounded
by the roots of ``mu(y) = y`` and of ``mu(y) + y = 2k`` (found by
bisection on pieces where each is monotone), and its Laplace mass is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit, logsumexp
from scipy.stats import binom

# Counts whose prior mass is below e^-50 of the largest are left out, and so
# are unit intervals farther than 40/epsilon from every count kept; what is
# dropped weighs below 1e-15 of the result.
_MASS_CUT = 50.0
_REACH = 40.0
_BISECTIONS = 80


@dataclass(frozen=True)
class CellMoments:
    """Exact expectations for one (n, p, epsilon) cell."""

    abs_err: float
    sq_err: float
    prob_better: float
    bias: float
    total_mass: float

    @property
    def err_var(self) -> float:
        """Variance of one run's absolute error ``|mu(Y) - K|``."""
        return self.sq_err - self.abs_err**2


class _Posterior:
    """``mu`` of one cell on every unit interval of [0, n], plus its constant tails."""

    def __init__(self, n: int, p: float, epsilon: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("the oracle needs 0 < p < 1")
        self.n, self.eps = n, epsilon
        k = np.arange(n + 1, dtype=np.float64)
        self.log_mass = binom.logpmf(k, n, p)
        with np.errstate(divide="ignore"):
            log_k = np.log(k)
        left = self.log_mass + epsilon * k
        right = self.log_mass - epsilon * k
        # Index j holds the sums over k <= j (left) and k > j (right), j = 0..n-1.
        s_left = np.logaddexp.accumulate(left)[:-1]
        t_left = np.logaddexp.accumulate(left + log_k)[:-1]
        s_right = np.logaddexp.accumulate(right[::-1])[::-1][1:]
        t_right = np.logaddexp.accumulate((right + log_k)[::-1])[::-1][1:]
        self.mu_left = np.exp(t_left - s_left)
        self.mu_right = np.exp(t_right - s_right)
        self.log_odds = s_left - s_right
        # Below 0 every count lies right of y; above n every count lies left.
        self.mu_low = math.exp(logsumexp(right + log_k) - logsumexp(right))
        self.mu_high = math.exp(logsumexp(left + log_k) - logsumexp(left))

    def mean(self, j: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``mu(y)`` for ``y`` in ``[j, j+1]``, by interval ``j``'s formula."""
        share = expit(self.log_odds[j] - 2.0 * self.eps * y)
        return self.mu_right[j] - (self.mu_right[j] - self.mu_left[j]) * share

    def at(self, y: np.ndarray) -> np.ndarray:
        """``mu(y)`` anywhere on the real line."""
        j = np.clip(np.floor(y), 0, self.n - 1).astype(np.int64)
        inside = self.mean(j, np.clip(y, 0.0, float(self.n)))
        return np.where(y < 0.0, self.mu_low, np.where(y >= self.n, self.mu_high, inside))

    def kinks(self, j: np.ndarray, level: np.ndarray) -> np.ndarray:
        """The ``y`` in interval ``j`` where ``mu(y) = level``, for levels inside its range."""
        share = (self.mu_right[j] - level) / (self.mu_right[j] - self.mu_left[j])
        return (self.log_odds[j] - np.log(share / (1.0 - share))) / (2.0 * self.eps)

    def turning_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Per interval, the two ``y`` where ``mu'(y) = 1``, clipped to the interval.

        ``mu' = 2*epsilon*spread*s*(1 - s)`` with ``s`` the expit term, so
        ``mu(y) - y`` and ``mu(y) + y`` are monotone between these points.
        """
        j = np.arange(self.n)
        spread = self.mu_right - self.mu_left
        root = np.sqrt(np.clip(1.0 - 2.0 / (self.eps * spread), 0.0, None))
        points = []
        for s in ((1.0 - root) / 2.0, (1.0 + root) / 2.0):
            with np.errstate(divide="ignore"):
                y = (self.log_odds - np.log(s / (1.0 - s))) / (2.0 * self.eps)
            points.append(np.clip(np.nan_to_num(y, nan=j), j, j + 1.0))
        return points[0], points[1]


def _bisect(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of ``f`` (vectorised) with ``f(lo) < 0 <= f(hi)``."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _survival(x: np.ndarray, eps: float) -> np.ndarray:
    """``P(L > x)`` for ``L ~ Laplace(1/eps)``."""
    tail = 0.5 * np.exp(-eps * np.abs(x))
    return np.where(x >= 0.0, tail, 1.0 - tail)


@lru_cache(maxsize=None)
def cell_moments(n: int, p: float, epsilon: float, nodes: int = 16) -> CellMoments:
    """The exact expectations of one cell; ``nodes`` Gauss-Legendre points per piece."""
    post = _Posterior(n, p, epsilon)
    k_all = np.arange(n + 1, dtype=np.float64)
    keep = post.log_mass >= post.log_mass.max() - _MASS_CUT
    ks, log_m = k_all[keep], post.log_mass[keep]
    m = np.exp(log_m)

    # Tails: y < 0 and y >= n, where mu is constant.
    low_w = m * 0.5 * np.exp(-epsilon * ks)
    high_w = m * 0.5 * np.exp(-epsilon * (n - ks))
    signed = (post.mu_low - ks) @ low_w + (post.mu_high - ks) @ high_w
    absolute = np.abs(post.mu_low - ks) @ low_w + np.abs(post.mu_high - ks) @ high_w
    squared = (post.mu_low - ks) ** 2 @ low_w + (post.mu_high - ks) ** 2 @ high_w
    mass = low_w.sum() + high_w.sum()

    # Inside: unit intervals near the kept counts, split where mu crosses an integer.
    reach = math.ceil(_REACH / epsilon)
    j = np.arange(max(0, int(ks[0]) - reach), min(n, int(ks[-1]) + reach + 1))
    lo_mu = post.mean(j, j.astype(np.float64))
    hi_mu = post.mean(j, j + 1.0)
    first = np.floor(lo_mu) + 1.0
    count = np.maximum(np.ceil(hi_mu) - first, 0).astype(np.int64)
    owner = np.repeat(j, count)
    rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    level = np.repeat(first, count) + rank
    cuts = np.concatenate([j, j + 1.0, post.kinks(owner, level)])
    owners = np.concatenate([j, j, owner])
    order = np.lexsort((cuts, owners))
    cuts, owners = cuts[order], owners[order]
    same = owners[1:] == owners[:-1]
    a, b, piece_owner = cuts[:-1][same], cuts[1:][same], owners[:-1][same]

    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    ys = (0.5 * (a + b))[:, None] + half[:, None] * x
    weights = (half[:, None] * w).ravel()
    ys = ys.ravel()
    mus = post.mean(np.repeat(piece_owner, nodes), ys)
    log_half_eps = math.log(0.5 * epsilon)
    step = max(1, (1 << 19) // ks.size)
    for lo in range(0, ys.size, step):
        y, mu, wt = ys[lo : lo + step, None], mus[lo : lo + step, None], weights[lo : lo + step]
        density = np.exp(log_m + log_half_eps - epsilon * np.abs(y - ks))
        gap = mu - ks
        signed += wt @ (density * gap).sum(axis=1)
        absolute += wt @ (density * np.abs(gap)).sum(axis=1)
        squared += wt @ (density * gap * gap).sum(axis=1)
        mass += wt @ density.sum(axis=1)

    return CellMoments(
        abs_err=float(absolute),
        sq_err=float(squared),
        prob_better=_prob_better(post, ks, m),
        bias=float(signed),
        total_mass=float(mass),
    )


def _prob_better(post: _Posterior, ks: np.ndarray, m: np.ndarray) -> float:
    """``P(|mu(Y) - K| < |Y - K|)``, exactly up to root-finding.

    ``(mu - k)^2 < (y - k)^2`` holds iff ``(mu - y)(mu + y - 2k) < 0``.
    ``mu + y`` increases strictly, so for each count the second factor is
    negative exactly left of one root ``r_k``; the sign of ``mu(y) - y``
    changes only at roots found per monotone piece.
    """
    n, eps = post.n, post.eps
    j = np.arange(n)
    turn_a, turn_b = post.turning_points()
    turn_a, turn_b = np.minimum(turn_a, turn_b), np.maximum(turn_a, turn_b)
    # Pieces [j, a], [a, b], [b, j+1] on which mu(y) - y is monotone.
    starts = np.concatenate([j, turn_a, turn_b]).astype(np.float64)
    ends = np.concatenate([turn_a, turn_b, j + 1.0])
    piece_j = np.concatenate([j, j, j])

    at_start = post.mean(piece_j, starts) - starts
    at_end = post.mean(piece_j, ends) - ends
    change = (at_start > 0.0) != (at_end > 0.0)
    jc = piece_j[change]
    # mu - y is monotone on each piece; flip it where it falls so bisection sees a rise.
    sign = np.where(at_end[change] > 0.0, 1.0, -1.0)
    roots = _bisect(lambda y: sign * (post.mean(jc, y) - y), starts[change], ends[change])
    breaks = np.unique(np.concatenate([[0.0, float(n)], starts, ends, roots]))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    above = post.at(mids) > mids  # sign of mu - y on each segment
    seg_lo = np.concatenate([[-np.inf], breaks[:-1], [float(n)]])
    seg_hi = np.concatenate([[0.0], breaks[1:], [np.inf]])
    above = np.concatenate([[True], above, [False]])

    # r_k: mu(y) + y = 2k.  mu(j) + j increases in j, which locates its interval.
    grid = np.arange(n + 1, dtype=np.float64)
    rise = post.at(grid) + grid
    target = 2.0 * ks
    idx = np.searchsorted(rise, target, side="right") - 1
    r = np.where(idx < 0, target - post.mu_low, target - post.mu_high)
    inner = (idx >= 0) & (idx < n)
    if inner.any():
        jj = idx[inner]
        r[inner] = _bisect(lambda y: post.mean(jj, y) + y - target[inner], jj + 0.0, jj + 1.0)

    total = 0.0
    step = max(1, (1 << 19) // seg_lo.size)
    for lo in range(0, ks.size, step):
        k, rk = ks[lo : lo + step, None], r[lo : lo + step, None]
        win_hi = np.where(above, np.minimum(seg_hi, rk), seg_hi)
        win_lo = np.where(above, seg_lo, np.maximum(seg_lo, rk))
        inside = win_hi > win_lo
        probs = np.where(inside, _survival(win_lo - k, eps) - _survival(win_hi - k, eps), 0.0)
        total += float(m[lo : lo + step] @ probs.sum(axis=1))
    return total
