"""Monte Carlo comparison of the naive and posterior-mean estimators.

Each run draws a true count from the binomial population model, perturbs it
with calibrated Laplace noise, and scores both estimators by absolute error.
The row rule defines every run: run ``r`` of a sweep with seed ``s`` is row
``r`` of ``Generator(Philox(key=s)).random((runs, 2))``.  Its true count at
every (n, p) is the Binomial(n, p) quantile of the row's first uniform, and
its noise in every cell is the Laplace quantile of the second, drawn at
epsilon = 1 and scaled by ``1/epsilon``.  A sweep draws once and scores the
same runs in every cell, so cells are compared under common random numbers
and a cell's result does not depend on the grid around it.  Philox is
counter-based, so the rows for R runs are the first R rows for any larger R.

A prior's levels are scored in one array pass over a ``(2, levels, runs)``
block of raw and corrected errors: one posterior-kernel call, then one mean,
one standard deviation and one count of wins along rows, each reduced as it
would be alone, so a cell's bits do not depend on its neighbours.  A pass
holds at most 2**16 responses, so at 10**5 runs the levels go one at a time.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import _check_epsilon_n, _posterior_means
from .mechanism import (
    _SMALLEST_UNIFORM, PrivacyLevel, _check_collection, _check_integer, _laplace_quantile,
    _laplace_quantiles,
)
from .prior import BinomialPrior, _quantiles

__all__ = ["CSV_HEADER", "SweepConfig", "CellResult", "run_sweep", "write_csv"]

# Responses per scoring pass, across a prior's levels (see the module docstring).
_PASS_RESPONSES = 2**16

@dataclass(frozen=True)
class SweepConfig:
    """Grid and reproducibility knobs; every value is checked before any cell runs."""

    n_values: tuple = (100, 1000)
    p_values: tuple = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
    epsilon_values: tuple = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    runs: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        checks = {
            "n_values": lambda n: BinomialPrior(n=n, p=0.0).n,
            "p_values": lambda p: BinomialPrior(n=1, p=p).p,
            "epsilon_values": lambda epsilon: PrivacyLevel(epsilon).epsilon,
        }
        for name, check in checks.items():
            values = _check_collection(getattr(self, name), name)
            object.__setattr__(self, name, tuple(map(check, values)))
        _check_epsilon_n(max(self.n_values), max(self.epsilon_values))
        object.__setattr__(self, "runs", _check_integer(self.runs, "runs", minimum=1))
        # A raw error is at most the largest noise, so a cell's sums of errors
        # and of squared deviations stay finite while runs * largest**2 does.
        epsilon = min(self.epsilon_values)
        largest = _laplace_quantile(_SMALLEST_UNIFORM, 1.0 / epsilon)
        if self.runs > sys.float_info.max / (largest * largest):
            raise ValueError(f"epsilon {epsilon!r} is too small for {self.runs} runs: "
                             "the sums of squared errors would overflow")
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _check_seed(seed) -> int:
    """The one seed rule: ``seed`` as an int in [0, 2**64), else ``ValueError``."""
    number = _check_integer(seed, "seed")
    if not 0 <= number < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return number


class CellResult(NamedTuple):
    """Aggregated error metrics for one (n, p, epsilon) grid cell: its CSV row, in order.

    ``prob_bayes_better`` counts strict wins only; a tie counts for neither side.
    """

    n: int
    p: float
    epsilon: float
    noise_std: float
    avg_err_naive: float
    avg_err_naive_analytic: float
    avg_err_bayes: float
    prob_bayes_better: float
    se_naive: float
    se_bayes: float
    runs: int
    seed: int


CSV_HEADER = CellResult._fields


def _draw_runs(runs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The row rule: ``(count_uniforms[run], unit_noise[run])`` for every run of a sweep."""
    rows = np.random.Generator(np.random.Philox(key=seed)).random((runs, 2))
    return rows[:, 0], _laplace_quantiles(rows[:, 1])


def _score_cells(prior: BinomialPrior, levels, counts, unit_noise, seed: int) -> list:
    """Absolute errors of the raw responses and of their posterior-mean correction, per level."""
    runs = counts.size
    errors = np.empty((2, len(levels), runs))  # raw, corrected
    # The Laplace quantile is +-scale_b times a level-free magnitude, so
    # rescaling the unit draw equals a draw at each level bitwise.
    np.multiply(unit_noise, [[level.scale_b] for level in levels], out=errors[0])
    errors[0] += counts
    _posterior_means(prior, levels, errors[0], errors[1])
    errors -= counts
    np.abs(errors, out=errors)
    wins = (errors[1] < errors[0]).sum(axis=-1).tolist()
    mean = errors.mean(axis=-1, keepdims=True)
    avg = mean[..., 0].tolist()
    # np.std's own steps from the mean above, so the same bits; they overwrite
    # the errors in place, so the wins are counted first.
    errors -= mean
    errors *= errors
    spread = np.sqrt(errors.sum(axis=-1) / (runs - 1)) if runs > 1 else np.full(errors.shape[:2], np.nan)
    se = (spread / math.sqrt(runs)).tolist()
    return [
        CellResult(
            n=prior.n,
            p=prior.p,
            epsilon=level.epsilon,
            noise_std=level.noise_std,
            avg_err_naive=avg[0][i],
            avg_err_naive_analytic=level.scale_b,
            avg_err_bayes=avg[1][i],
            prob_bayes_better=wins[i] / runs,
            se_naive=se[0][i],
            se_bayes=se[1][i],
            runs=runs,
            seed=seed,
        )
        for i, level in enumerate(levels)
    ]


def run_sweep(config: SweepConfig) -> tuple[CellResult, ...]:
    """Evaluate every (n, p, epsilon) cell of the configured grid.

    Per run: a true count from the prior and one calibrated noise draw, then
    absolute errors of the raw response and of its posterior-mean correction.
    The runs are drawn once and scored by every cell, so a cell equals the one
    cell of ``run_sweep(SweepConfig((n,), (p,), (epsilon,), runs, seed))``,
    bitwise.  Cells come in grid order (n outer, then p, then epsilon); an
    error in any cell (``FloatingPointError`` naming the run, if a posterior
    degenerates) ends the sweep.
    """
    cells = []
    levels = [PrivacyLevel(epsilon) for epsilon in config.epsilon_values]
    count_uniforms, unit_noise = _draw_runs(config.runs, config.seed)
    # A count depends on its own uniform alone, so each prior's sums are
    # searched with ascending keys and the counts scattered back to run order.
    order = np.argsort(count_uniforms)
    ascending = count_uniforms[order]
    counts = np.empty(config.runs)
    group = max(1, _PASS_RESPONSES // config.runs)
    for n in config.n_values:
        for p in config.p_values:
            prior = BinomialPrior(n=n, p=p)
            counts[order] = _quantiles(prior, ascending)
            for lo in range(0, len(levels), group):
                cells += _score_cells(prior, levels[lo : lo + group], counts, unit_noise, config.seed)
    return tuple(cells)


def write_csv(cells, stream) -> None:
    """Emit the :data:`CSV_HEADER` line, then one row per cell: the cell itself.

    Floats are written with shortest round-trip precision and the line
    terminator is pinned, so equal results serialise to equal bytes.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(cells)
