"""Point estimators of the true count from a single noisy response.

The naive estimator takes the noisy response at face value: it is unbiased
with variance ``2/epsilon**2`` but ignores everything known about the
population.  The posterior-mean estimator reweights every candidate count
``k`` in ``[0, n]`` by prior mass times the Laplace likelihood
``exp(-epsilon*|y - k|)`` and returns the posterior expectation, which always
lands back inside ``[0, n]``.

The likelihood splits at ``y``: counts ``k <= y`` weigh ``m_k e^{epsilon k}``
times ``e^{-epsilon y}`` and counts ``k > y`` weigh ``m_k e^{-epsilon k}``
times ``e^{epsilon y}``.  So every posterior mean needs only a prefix sum
left of ``y`` and a suffix sum right of it, plain and ``k``-weighted.  The
counts are cut into at most ``_BLOCKS`` blocks of width
``w = ceil((n+1)/_BLOCKS)``; log-space sums over whole blocks are cached per
(prior, epsilon), and each response adds the at most ``w`` terms of the
block it falls in.  A batch of ``R`` responses costs ``O(n + R*w)`` and
gathers at most ``_SLICE_ELEMENTS`` terms at a time, whatever ``n`` and
``R`` are.  Up to ``n = 1023`` blocks are one count wide, so the count
right of ``y`` is folded into per-count tables once, in ``O(n)`` per
(prior, epsilon), and a response then costs ``O(1)``.  Every step is
elementwise or a reduction within one row, so a row's result does not
depend on the rows batched with it.  The sums carry ``epsilon*k``, so
``epsilon*n`` above 2**33 is refused.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import expit

from .mechanism import PrivacyLevel
from .prior import BinomialPrior, log_mass_vector

__all__ = [
    "naive_estimate",
    "posterior",
    "bayes_estimate",
    "bayes_estimate_batch",
]

# Blocks per prior; up to n = 1023 every block is one count wide.
_BLOCKS = 1024
# Rows x block width gathered at once: 2 MB per temporary array.
_SLICE_ELEMENTS = 1 << 18


def _check_response(y) -> float:
    value = float(y)
    if not math.isfinite(value):
        raise ValueError(f"noisy response must be a finite real, got {y!r}")
    return value


def naive_estimate(y: float) -> float:
    """The noisy response taken at face value.

    May fall outside ``[0, n]``; no information about the population is
    used, so nothing pulls it back.

    Raises:
        ValueError: if ``y`` is not a finite real.
    """
    return _check_response(y)


def posterior(prior: BinomialPrior, level: PrivacyLevel, y: float) -> np.ndarray:
    """Posterior distribution of the true count given one noisy response.

    ``prob(k)`` is proportional to ``mass(k) * exp(-epsilon*|y - k|)``,
    normalised over ``k = 0..n``; clipping ``y`` to ``[-1, n]`` changes no
    probability.  Log weights are shifted so the largest is 0 before they are
    exponentiated, so the result stays finite for any finite ``y`` and ``n``.

    Returns:
        Array of length ``n+1``; entry ``k`` is ``P[count = k | y]``.

    Raises:
        ValueError: if ``y`` is not finite or ``epsilon * n`` exceeds 2**33.
        FloatingPointError: if normalisation degenerates despite the shift.
    """
    value = _check_response(y)
    _check_epsilon_n(prior.n, level.epsilon)
    k = np.arange(prior.n + 1, dtype=np.float64)
    log_w = log_mass_vector(prior) - level.epsilon * np.abs(np.clip(value, -1.0, prior.n) - k)
    with np.errstate(invalid="ignore"):
        weights = np.exp(log_w - log_w.max())
    total = weights.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise FloatingPointError("posterior normalisation degenerated at row 0")
    return weights / total


def _log_sums(terms: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``log sum exp(terms)`` and ``log sum k*exp(terms)`` along the last axis, max-shifted.

    Terms of shape ``(sides, rows, w)`` give sums of shape ``(sides, 2, rows)``;
    a row whose terms are all ``-inf`` sums to ``-inf``.
    """
    top = terms.max(axis=-1)
    top[~np.isfinite(top)] = 0.0
    scaled = terms - top[..., None]
    np.exp(scaled, out=scaled)
    sums = np.stack([scaled.sum(axis=-1), (scaled * k).sum(axis=-1)], axis=1)
    with np.errstate(divide="ignore"):
        return top[:, None] + np.log(sums)


def _check_epsilon_n(n: int, epsilon: float) -> None:
    """Raise ``ValueError`` if ``epsilon * n`` exceeds 2**33, the kernel's documented bound.

    The kernel's sums carry ``epsilon*k``, so a posterior mean's relative
    error grows like ``epsilon*n*2**-53``: about 1e-6 at the bound, 0.5 at 1e16.
    """
    if epsilon * n > 2.0**33:
        raise ValueError(f"epsilon * n must be at most 2**33, got {epsilon!r} * {n!r}")


def _in_block_sums(mass, block, width: int, epsilon: float, start=None) -> np.ndarray:
    """Log sums ``(side, weighting, row)`` over the given blocks; counts past ``n`` add nothing.

    Side 0 sums ``m_k e^{epsilon k}``, side 1 ``m_k e^{-epsilon k}``.  Given
    ``start``, the first count right of each response, side 0 keeps only the
    counts before it and side 1 only the others.
    """
    idx = block[:, None] * width + np.arange(width)
    k = idx.astype(np.float64)
    gathered = np.where(idx < mass.size, mass.take(idx, mode="clip"), -np.inf)
    terms = np.stack([gathered + epsilon * k, gathered - epsilon * k])
    if start is not None:
        is_left = idx < start[:, None]
        terms[0][~is_left] = -np.inf
        terms[1][is_left] = -np.inf
    return _log_sums(terms, k)


def _split(sums: np.ndarray) -> np.ndarray:
    """Rows ``(d, left mean, right mean)`` from log sums, with ``d = log S_L - log S_R``."""
    log_norm = sums[:, 0]
    with np.errstate(invalid="ignore"):
        side_means = np.where(log_norm == -np.inf, 0.0, np.exp(sums[:, 1] - log_norm))
        return np.vstack([log_norm[0] - log_norm[1], side_means])


def _mix(parts: np.ndarray, y: np.ndarray, epsilon: float, n: int, first: int) -> np.ndarray:
    """Posterior means in ``[0, n]`` from rows ``(d, left mean, right mean)`` at clipped ``y``."""
    x = parts[0] - 2.0 * epsilon * y  # log-odds of the mass left of y against the right
    bad = np.flatnonzero(np.isnan(x))
    if bad.size:
        raise FloatingPointError(f"posterior normalisation degenerated at row {first + bad[0]}")
    # expit(-x), not 1 - expit(x): the right share may be far below 1e-16.
    # Means of counts in [0, n] can only leave the range by rounding.
    return np.clip(expit(x) * parts[1] + expit(-x) * parts[2], 0.0, float(n))


@functools.lru_cache(maxsize=128)
def _block_tables(prior: BinomialPrior, epsilon: float) -> tuple[int, np.ndarray]:
    """Block width and the cached tables for one (prior, epsilon).

    Returns ``(w, tables)``.  For ``w > 1``, ``tables[0, :, j]`` holds
    ``log sum m_k e^{epsilon k}`` and its ``k``-weighted twin over the blocks
    before block ``j``, and ``tables[1, :, j]`` the same of
    ``m_k e^{-epsilon k}`` over the blocks after it.  For ``w = 1`` the
    count ``j`` right of a response is its whole block, so it is folded in
    here: column ``j`` holds ``(d, left mean, right mean)``, ``j = 0..n+1``.
    Keyed on the frozen prior's value, so equal priors share tables.

    Raises:
        ValueError: if ``epsilon * n`` exceeds 2**33.
    """
    _check_epsilon_n(prior.n, epsilon)
    mass = log_mass_vector(prior)
    width = -(-mass.size // _BLOCKS)
    blocks = -(-mass.size // width)
    step = max(1, _SLICE_ELEMENTS // width)  # whole blocks, at most _SLICE_ELEMENTS terms
    left, right = np.concatenate([
        _in_block_sums(mass, np.arange(lo, min(lo + step, blocks)), width, epsilon)
        for lo in range(0, blocks, step)
    ], axis=-1)
    empty = np.full((2, 1), -np.inf)
    left = np.logaddexp.accumulate(np.hstack([empty, left]), axis=1)
    # Suffix sums by a reversed accumulate, shifted so column j excludes block j.
    right = np.logaddexp.accumulate(right[:, ::-1], axis=1)[:, ::-1]
    tables = np.stack([left, np.hstack([right[:, 1:], empty, empty])])
    if width == 1:
        start = np.arange(mass.size + 1)
        tables = _split(np.logaddexp(tables, _in_block_sums(mass, start, 1, epsilon, start)))
    tables.flags.writeable = False
    return width, tables


def _posterior_means(prior: BinomialPrior, level: PrivacyLevel, ys: np.ndarray) -> np.ndarray:
    """Posterior means of finite responses ``ys``, clipped to ``[0, n]``."""
    n, epsilon = prior.n, level.epsilon
    width, tables = _block_tables(prior, epsilon)
    out = np.empty(ys.shape[0], dtype=np.float64)
    step = max(1, _SLICE_ELEMENTS // width)
    for lo in range(0, ys.shape[0], step):
        # Outside [0, n) one side is empty whatever y is, so clipping changes
        # no mean and keeps epsilon*y within epsilon*n.
        y = np.clip(ys[lo : lo + step], -1.0, float(n))
        start = np.floor(y).astype(np.int64) + 1  # first count right of y
        if width == 1:
            parts = tables.take(start, axis=1)
        else:
            block = start // width
            in_block = _in_block_sums(log_mass_vector(prior), block, width, epsilon, start)
            parts = _split(np.logaddexp(tables[:, :, block], in_block))
        out[lo : lo + step] = _mix(parts, y, epsilon, n, lo)
    return out


def bayes_estimate(prior: BinomialPrior, level: PrivacyLevel, y: float) -> float:
    """Posterior-mean estimate of the true count; always inside ``[0, n]``.

    Continuous and nondecreasing in ``y``.  Degenerate priors pin it to
    their point mass whatever the response says.

    Raises:
        ValueError: if ``y`` is not finite or ``epsilon * n`` exceeds 2**33.
    """
    value = _check_response(y)
    return float(_posterior_means(prior, level, np.array([value]))[0])


def bayes_estimate_batch(prior: BinomialPrior, level: PrivacyLevel, ys) -> np.ndarray:
    """Vectorised :func:`bayes_estimate` over many responses.

    Memory stays bounded whatever ``n`` and the number of responses are;
    per-row results are identical to the scalar path.

    Raises:
        ValueError: if any response is not finite or ``epsilon * n``
            exceeds 2**33.
        FloatingPointError: naming the offending row if normalisation
            degenerates.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"expected a 1-d array of responses, got shape {ys.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("noisy responses must all be finite reals")
    return _posterior_means(prior, level, ys)
