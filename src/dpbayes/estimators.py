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
mean)`` per count, in ``O(w)``, kept at the count's own index; then a
response costs ``O(1)``.  A row's bits depend on its block alone, and only
the pages of the blocks that responses touch take memory.  The sums carry
``epsilon*k``, so ``epsilon*n`` above 2**33 is refused.  One response reads
its row by index as Python floats, a batch by ``take``; both mix rows in
:func:`_mix`, which clamps floats with the builtin ``min``/``max`` and arrays
with numpy's, and whose numpy ``exp`` keeps them bitwise equal (``math.exp``
differed from it at 18 132 of 400 000 arguments on an AVX-512 machine).
"""

from __future__ import annotations

import functools
import math
import mmap
import threading

import numpy as np

from .mechanism import PrivacyLevel, _check_real
from .prior import _CHUNK_ELEMENTS, BinomialPrior, log_mass_vector

__all__ = [
    "naive_estimate",
    "posterior",
    "bayes_estimate",
    "bayes_estimate_batch",
]

# Blocks per prior; up to n = 1023 every block is one count wide.
_BLOCKS = 1024


def naive_estimate(y: float) -> float:
    """The noisy response taken at face value.

    May fall outside ``[0, n]``; no information about the population is
    used, so nothing pulls it back.

    Raises:
        ValueError: if ``y`` is not a finite real.
    """
    return _check_real(y, "noisy response")


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
    value = _check_real(y, "noisy response")
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
    """Block width, block-level sums and the row store of one (prior, epsilon).

    Returns ``(w, tables, rows, built, lock)``.  ``tables[0, :, j]`` holds the
    plain and ``k``-weighted log sums of ``m_k e^{epsilon k}`` over the blocks
    before block ``j``, ``tables[1, :, j]`` those of ``m_k e^{-epsilon k}`` over
    the blocks after it.  Row ``j`` serves the responses whose first count right
    of ``y`` is ``j``, once ``built[j // w]`` is set.  Keyed on the frozen prior's
    value; ``cache_clear()`` drops the rows too.  Raises ``ValueError`` if
    ``epsilon * n`` exceeds 2**33.
    """
    _check_epsilon_n(prior.n, epsilon)
    mass = log_mass_vector(prior)
    width = -(-mass.size // _BLOCKS)
    blocks = -(-mass.size // width)
    chunk = max(1, _CHUNK_ELEMENTS // width)  # whole blocks
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
    # A private anonymous mapping: only the pages rows are written to take
    # memory, where np.empty may hand out heap pages touched before.
    rows = np.frombuffer(mmap.mmap(-1, 24 * (blocks + 1) * width, flags=mmap.MAP_PRIVATE))
    return width, tables, rows.reshape(-1, 3), np.zeros(blocks + 1, dtype=bool), threading.Lock()


def _add_rows(mass, epsilon: float, store: tuple, block) -> None:
    """Build the rows ``(d, left mean, right mean)``, ``d = log S_L - log S_R``, of new blocks.

    A row's bits depend on its block alone.  Under the lock, rows are written in
    place before their blocks' flags are set, and never move or change after, so
    a reader that sees a block's flag set reads its finished rows.
    """
    width, tables, rows, built, lock = store
    with lock:
        new = np.unique(block[~built.take(block)])
        step = max(1, _CHUNK_ELEMENTS // width)  # whole blocks
        for part in np.split(new, range(step, new.size, step)):
            sums = _in_block_sums(mass, part, width, epsilon)
            # Left of the count at offset i lie the block's first i counts, right of it the last w - i.
            in_block = np.stack([sums[0, ..., :-1], sums[1, ..., :0:-1]])
            log_sums = np.logaddexp(tables[:, :, part, None], in_block)
            with np.errstate(invalid="ignore"):
                means = np.where(log_sums[:, 0] == -np.inf, 0.0, np.exp(log_sums[:, 1] - log_sums[:, 0]))
                rows.reshape(-1, width, 3)[part] = np.stack([log_sums[0, 0] - log_sums[1, 0], *means], -1)
            built[part] = True


def _mix(d, left, right, y, epsilon: float, n: int):
    """Posterior means, elementwise, from rows ``(d, left mean, right mean)`` at ``y`` in ``[-1, n]``.

    Python floats clamp with the builtin ``min``/``max``, a sixth of a ufunc
    call's cost, arrays with numpy's.  Each returns one of its arguments, a NaN
    value too, so the bits agree but for a signed zero, which no mean is.
    Both take numpy's ``exp``.
    """
    smaller, larger = (min, max) if isinstance(d, float) else (np.minimum, np.maximum)
    x = d - 2.0 * epsilon * y  # log-odds of the mass left of y against the right
    # The right share 1/(1 + e^x) keeps its relative accuracy however small
    # it is; past x = 709, where e^x would overflow, it is below 2**-1022.
    share = 1.0 / (1.0 + np.exp(smaller(x, 709.0)))
    # Means of counts in [0, n] can only leave the range by rounding.
    return smaller(larger(left + share * (right - left), 0.0), float(n))


def bayes_estimate(prior: BinomialPrior, level: PrivacyLevel, y: float) -> float:
    """Posterior-mean estimate of the true count; always inside ``[0, n]``.

    Continuous and nondecreasing in ``y``.  Degenerate priors pin it to
    their point mass whatever the response says.  Reads one row as Python
    floats and mixes it in the batch's ``_mix``: bitwise the batch's.

    Raises:
        ValueError: if ``y`` is not finite or ``epsilon * n`` exceeds 2**33.
    """
    value = min(max(_check_real(y, "noisy response"), -1.0), float(prior.n))  # as the batch clips
    width, _, rows, built, _ = store = _block_tables(prior, level.epsilon)
    start = math.floor(value) + 1
    if not built[start // width]:
        _add_rows(log_mass_vector(prior), level.epsilon, store, np.array([start // width]))
    mean = _mix(*rows[start].tolist(), value, level.epsilon, prior.n)
    if mean != mean:
        raise FloatingPointError("posterior normalisation degenerated at row 0")
    return float(mean)


def bayes_estimate_batch(prior: BinomialPrior, level: PrivacyLevel, ys) -> np.ndarray:
    """Vectorised :func:`bayes_estimate` over many responses.

    Memory stays bounded whatever ``n`` and the number of responses are;
    per-row results are identical to the scalar path.

    Raises:
        ValueError: if ``ys`` is not a 1-d integer or float array, holds a
            non-finite value, or ``epsilon * n`` exceeds 2**33.
        FloatingPointError: naming the offending row if normalisation
            degenerates.
    """
    ys = np.asarray(ys)
    if ys.ndim != 1 or ys.dtype.kind not in "iuf":
        raise ValueError(f"expected a 1-d integer or float array, got {ys.dtype} {ys.shape}")
    ys = ys.astype(np.float64, copy=False)
    if not np.all(np.isfinite(ys)):
        raise ValueError("noisy responses must all be finite reals")
    out = np.empty(ys.shape[0], dtype=np.float64)
    _posterior_means(prior, (level,), ys[None], out[None])
    return out


def _posterior_means(prior: BinomialPrior, levels, ys, out) -> None:
    """Posterior means of ``ys[i]`` at ``levels[i]`` into ``out``; both are ``(levels, responses)``.

    Each level gathers its own rows, then one :func:`_mix` serves them all,
    ``_CHUNK_ELEMENTS`` responses per level at a time.  A degenerate mean
    raises ``FloatingPointError`` naming its response's index in its level.
    """
    n = prior.n
    stores = [_block_tables(prior, level.epsilon) for level in levels]
    epsilon = np.array([[level.epsilon] for level in levels])
    for lo in range(0, ys.shape[1], _CHUNK_ELEMENTS):
        # Outside [0, n) one side is empty whatever y is, so clipping changes
        # no mean and keeps epsilon*y within epsilon*n.
        y = np.minimum(np.maximum(ys[:, lo : lo + _CHUNK_ELEMENTS], -1.0), float(n))
        start = np.floor(y).astype(np.int64) + 1  # first count right of y
        gathered = np.empty(y.shape + (3,))
        for level, store, level_start, level_rows in zip(levels, stores, start, gathered):
            width, _, rows, built, _ = store
            if not built.take(level_start // width).all():
                _add_rows(log_mass_vector(prior), level.epsilon, store, level_start // width)
            # start is in [0, n + 1], so "clip" moves no index and, unlike "raise", needs no buffer.
            rows.take(level_start, axis=0, out=level_rows, mode="clip")
        out[:, lo : lo + _CHUNK_ELEMENTS] = _mix(*gathered.transpose(2, 0, 1), y, epsilon, n)
    bad = np.flatnonzero(np.isnan(out)) % out.shape[1]
    if bad.size:
        raise FloatingPointError(f"posterior normalisation degenerated at row {bad[0]}")
