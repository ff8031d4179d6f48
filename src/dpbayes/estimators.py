"""Point estimators of the true count from a single noisy response.

The naive estimator takes the noisy response at face value: it is unbiased
with variance ``2/epsilon**2`` but ignores everything known about the
population.  The posterior-mean estimator reweights every candidate count
``k`` in ``[0, n]`` by prior mass times the Laplace likelihood
``exp(-epsilon*|y - k|)`` and returns the posterior expectation, which always
lands back inside ``[0, n]``.
"""

from __future__ import annotations

import math

import numpy as np

from .mechanism import PrivacyLevel
from .prior import BinomialPrior, log_mass_vector

__all__ = [
    "naive_estimate",
    "posterior",
    "bayes_estimate",
    "bayes_estimate_batch",
]

# Rows per posterior evaluation block; keeps the (rows, n+1) weight matrix
# around 32 MB at n = 1000 while leaving per-row results chunk-invariant.
_CHUNK_ROWS = 4096


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


def _posterior_weights(
    prior: BinomialPrior, level: PrivacyLevel, ys: np.ndarray, row_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted posterior weights for each response row.

    Returns ``(weights, totals)`` with ``weights[i, k]`` proportional to
    ``P[count = k | response = ys[i]]`` and ``totals[i]`` its row sum.  All
    arithmetic is elementwise or a per-row reduction, so each row's result
    depends only on that row: batching and chunking cannot change it.
    """
    k = np.arange(prior.n + 1, dtype=np.float64)
    log_w = log_mass_vector(prior)[None, :] - level.epsilon * np.abs(ys[:, None] - k[None, :])
    with np.errstate(invalid="ignore"):
        shift = log_w.max(axis=1, keepdims=True)
        weights = np.exp(log_w - shift)
    totals = weights.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(totals) | (totals <= 0.0))
    if bad.size:
        raise FloatingPointError(
            f"posterior normalisation degenerated at row {row_offset + int(bad[0])}"
        )
    return weights, totals


def _bayes_rows(prior: BinomialPrior, level: PrivacyLevel, ys: np.ndarray, row_offset: int = 0) -> np.ndarray:
    k = np.arange(prior.n + 1, dtype=np.float64)
    weights, totals = _posterior_weights(prior, level, ys, row_offset)
    means = (weights * k).sum(axis=1) / totals
    # Posterior means of counts in [0, n] can only leave the range by rounding.
    return np.clip(means, 0.0, float(prior.n))


def posterior(prior: BinomialPrior, level: PrivacyLevel, y: float) -> np.ndarray:
    """Posterior distribution of the true count given one noisy response.

    ``prob(k)`` is proportional to ``mass(k) * exp(-epsilon*|y - k|)``,
    normalised over ``k = 0..n``.  Weights are assembled in log space and
    the largest is shifted to exp(0) = 1 before normalising, so the result
    stays finite for any finite ``y`` and for ``n`` at least up to 10**4.

    Returns:
        Array of length ``n+1``; entry ``k`` is ``P[count = k | y]``.

    Raises:
        ValueError: if ``y`` is not a finite real.
        FloatingPointError: if normalisation degenerates despite the shift.
    """
    value = _check_response(y)
    weights, totals = _posterior_weights(prior, level, np.array([value]))
    return weights[0] / totals[0]


def bayes_estimate(prior: BinomialPrior, level: PrivacyLevel, y: float) -> float:
    """Posterior-mean estimate of the true count; always inside ``[0, n]``.

    Continuous and nondecreasing in ``y``.  Degenerate priors pin it to
    their point mass whatever the response says.
    """
    value = _check_response(y)
    return float(_bayes_rows(prior, level, np.array([value]))[0])


def bayes_estimate_batch(prior: BinomialPrior, level: PrivacyLevel, ys) -> np.ndarray:
    """Vectorised :func:`bayes_estimate` over many responses.

    Evaluates in blocks of a few thousand rows so the weight matrix stays
    small; per-row results are identical to the scalar path.

    Raises:
        ValueError: if any response is not finite.
        FloatingPointError: naming the offending row if normalisation
            degenerates.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"expected a 1-d array of responses, got shape {ys.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("noisy responses must all be finite reals")
    out = np.empty(ys.shape[0], dtype=np.float64)
    for lo in range(0, ys.shape[0], _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, ys.shape[0])
        out[lo:hi] = _bayes_rows(prior, level, ys[lo:hi], row_offset=lo)
    return out

