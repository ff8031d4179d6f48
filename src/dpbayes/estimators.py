"""Point estimators of the true count from a single noisy response.

The naive estimator takes the noisy response at face value: it is unbiased
with variance ``2/epsilon**2`` but ignores everything known about the
population.  The posterior-mean estimator reweights every candidate count
``k`` in ``[0, n]`` by prior mass times the Laplace likelihood
``exp(-epsilon*|y - k|)`` and returns the posterior expectation, which always
lands back inside ``[0, n]``.

The likelihood splits at ``y``: counts ``k <= y`` weigh ``m_k e^{epsilon k}``
times ``e^{-epsilon y}``, counts ``k > y`` weigh ``m_k e^{-epsilon k}`` times
``e^{epsilon y}``.  So a posterior mean needs only a prefix sum left of ``y``
and a suffix sum right of it, plain and ``k``-weighted.  The counts are cut
into at most ``_BLOCKS`` blocks of ``w`` counts.  Sums over whole blocks are
cached per (prior, epsilon), in ``O(n)``; the first response in a block adds
the block's own cumulative sums to make one row ``(d, left mean, right
mean)`` per count, in ``O(w)``; then a response costs ``O(1)``.  At most
``_SLICE_ELEMENTS`` counts are kept as rows, and a batch spread wider is
taken in order of ``y``.  A row's bits depend on its block alone.  The sums
carry ``epsilon*k``, so ``epsilon*n`` above 2**33 is refused.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading

import numpy as np
from scipy.special import expit

from .mechanism import PrivacyLevel
from .prior import _SLICE_ELEMENTS, BinomialPrior, log_mass_vector

__all__ = [
    "naive_estimate",
    "posterior",
    "bayes_estimate",
    "bayes_estimate_batch",
]

# Blocks per prior; up to n = 1023 every block is one count wide.
_BLOCKS = 1024
# Counts summed at once while block tables are built, so their temporaries stay small.
_TABLE_ELEMENTS = 1 << 12


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


def _check_epsilon_n(n: int, epsilon: float) -> None:
    """Raise ``ValueError`` if ``epsilon * n`` exceeds 2**33, the kernel's documented bound.

    The kernel's sums carry ``epsilon*k``, so a posterior mean's relative
    error grows like ``epsilon*n*2**-53``: about 1e-6 at the bound, 0.5 at 1e16.
    """
    if epsilon * n > 2.0**33:
        raise ValueError(f"epsilon * n must be at most 2**33, got {epsilon!r} * {n!r}")


def _in_block_sums(mass, block, width: int, epsilon: float) -> np.ndarray:
    """Log cumulative sums ``(side, weighting, block, i)`` within blocks, ``i = 0..w``.

    Column ``i`` sums ``m_k e^{epsilon k}`` over a block's first ``i`` counts
    on side 0 and ``m_k e^{-epsilon k}`` over its last ``i`` on side 1, plain
    and ``k``-weighted; counts past ``n`` add nothing.  Each block is shifted
    by its largest term meanwhile.
    """
    idx = block[:, None] * width + np.arange(width)
    k = idx.astype(np.float64)
    mass_k = np.where(idx < mass.size, mass.take(idx, mode="clip"), -np.inf)
    sums = np.full((2, 2, block.size, width + 1), -np.inf)
    plain = sums[:, 0, :, 1:]
    plain[0], plain[1] = mass_k + epsilon * k, (mass_k - epsilon * k)[:, ::-1]
    top = plain.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    plain -= top
    with np.errstate(divide="ignore"):
        sums[:, 1, :, 1:] = plain + np.log(np.stack([k, k[:, ::-1]]))
    np.logaddexp.accumulate(sums, axis=-1, out=sums)
    return sums + top[:, None]


@functools.lru_cache(maxsize=128)
def _block_tables(prior: BinomialPrior, epsilon: float) -> tuple:
    """Block width, block-level sums and the row cache of one (prior, epsilon).

    Returns ``(w, tables, cache)``.  ``tables[0, :, j]`` holds the plain and
    ``k``-weighted log sums of ``m_k e^{epsilon k}`` over the blocks before
    block ``j``, ``tables[1, :, j]`` those of ``m_k e^{-epsilon k}`` over the
    blocks after it.  ``cache`` is ``[(slots, rows, used), lock, capacity]``:
    block ``j``'s rows start at ``rows[slots[j]]`` (-1: not built).  Keyed on
    the frozen prior's value; ``cache_clear()`` drops the rows too.  Raises
    ``ValueError`` if ``epsilon * n`` exceeds 2**33.
    """
    _check_epsilon_n(prior.n, epsilon)
    mass = log_mass_vector(prior)
    width = -(-mass.size // _BLOCKS)
    blocks = -(-mass.size // width)
    chunk = max(1, _TABLE_ELEMENTS // width)  # whole blocks
    left, right = np.concatenate([  # copies, so that no chunk's sums stay alive
        _in_block_sums(mass, np.arange(lo, min(lo + chunk, blocks)), width, epsilon)[..., -1].copy()
        for lo in range(0, blocks, chunk)
    ], axis=-1)
    empty = np.full((2, 1), -np.inf)
    left = np.logaddexp.accumulate(np.hstack([empty, left]), axis=1)
    # Suffix sums by a reversed accumulate, shifted so column j excludes block j.
    right = np.logaddexp.accumulate(right[:, ::-1], axis=1)[:, ::-1]
    tables = np.stack([left, np.hstack([right[:, 1:], empty, empty])])
    tables.flags.writeable = False
    capacity = min(max(1, _SLICE_ELEMENTS // width), blocks + 1) * width  # one slice's blocks
    empty_rows = (np.full(blocks + 1, -1, dtype=np.int32), np.empty((0, 3)), 0)
    return width, tables, [empty_rows, threading.Lock(), capacity]


def _add_rows(mass, epsilon: float, width: int, tables, cache: list, block) -> tuple:
    """Build the rows of the blocks in ``block`` not cached yet; return ``cache[0]``.

    Each count of a block gets a row ``(d, left mean, right mean)``, ``d = log S_L -
    log S_R``, that only the block sets.  Writers hold the lock and fill only rows
    past ``used``, then replace ``cache[0]`` whole, so no reader's rows change under
    it.  A cache the new rows would overfill is replaced by an empty one first.
    """
    with cache[1]:
        slots, rows, used = cache[0]
        new = np.unique(block[slots.take(block) < 0])
        if used + new.size * width > rows.shape[0]:
            # A private anonymous mapping: only the pages rows are written to
            # take memory, where np.empty may hand out heap pages touched before.
            rows = np.frombuffer(mmap.mmap(-1, 24 * cache[2], flags=mmap.MAP_PRIVATE))
            slots, rows, used, new = np.full_like(slots, -1), rows.reshape(-1, 3), 0, np.unique(block)
        sums = _in_block_sums(mass, new, width, epsilon)
        # Left of the count at offset i lie the block's first i counts, right of it the last w - i.
        in_block = np.stack([sums[0, ..., :-1], sums[1, ..., :0:-1]])
        log_sums = np.logaddexp(tables[:, :, new, None], in_block).reshape(2, 2, -1)
        end = used + log_sums.shape[-1]
        with np.errstate(invalid="ignore"):
            means = np.where(log_sums[:, 0] == -np.inf, 0.0, np.exp(log_sums[:, 1] - log_sums[:, 0]))
            rows[used:end] = np.vstack([log_sums[0, 0] - log_sums[1, 0], means]).T
        slots = slots.copy()
        slots[new] = used + width * np.arange(new.size)
        cache[0] = (slots, rows, end)
        return cache[0]


def _posterior_means(prior: BinomialPrior, level: PrivacyLevel, ys: np.ndarray) -> np.ndarray:
    """Posterior means of finite responses ``ys``, clipped to ``[0, n]``."""
    n, epsilon = prior.n, level.epsilon
    width, tables, cache = _block_tables(prior, epsilon)
    out = np.empty(ys.shape[0], dtype=np.float64)
    step = max(1, _SLICE_ELEMENTS // width)  # a slice touches at most _SLICE_ELEMENTS counts
    # A batch of more than one slice goes in order of y, so that each block's
    # rows are built about once however many blocks the batch spreads over.
    order = np.argsort(ys, kind="stable") if ys.shape[0] > step else None
    for lo in range(0, ys.shape[0], step):
        pick = slice(lo, lo + step) if order is None else order[lo : lo + step]
        # Outside [0, n) one side is empty whatever y is, so clipping changes
        # no mean and keeps epsilon*y within epsilon*n.
        y = np.clip(ys[pick], -1.0, float(n))
        start = np.floor(y).astype(np.int64) + 1  # first count right of y
        block = start // width
        slots, rows, _ = cache[0]
        if slots.take(block).min() < 0:
            slots, rows, _ = _add_rows(log_mass_vector(prior), epsilon, width, tables, cache, block)
        d, left, right = rows.take(slots.take(block) + start - block * width, axis=0).T
        x = d - 2.0 * epsilon * y  # log-odds of the mass left of y against the right
        # expit(-x), not 1 - expit(x): the right share may be far below 1e-16.
        # Means of counts in [0, n] can only leave the range by rounding.
        out[pick] = np.clip(expit(x) * left + expit(-x) * right, 0.0, float(n))
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        raise FloatingPointError(f"posterior normalisation degenerated at row {bad[0]}")
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
