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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .estimators import _check_epsilon_n, bayes_estimate_batch
from .mechanism import PrivacyLevel, _check_integer, _laplace_quantiles, calibrate
from .prior import BinomialPrior, _quantiles

__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_P_VALUES",
    "DEFAULT_EPSILON_VALUES",
    "DEFAULT_RUNS",
    "CSV_HEADER",
    "SweepConfig",
    "CellResult",
    "run_cell",
    "run_sweep",
    "write_csv",
]

DEFAULT_N_VALUES = (100, 1000)
DEFAULT_P_VALUES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
DEFAULT_EPSILON_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
DEFAULT_RUNS = 100_000

CSV_HEADER = (
    "n", "p", "epsilon", "noise_std", "avg_err_naive", "avg_err_naive_analytic",
    "avg_err_bayes", "prob_bayes_better", "se_naive", "se_bayes", "runs", "seed",
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and reproducibility knobs; every value is checked before any cell runs."""

    n_values: tuple = DEFAULT_N_VALUES
    p_values: tuple = DEFAULT_P_VALUES
    epsilon_values: tuple = DEFAULT_EPSILON_VALUES
    runs: int = DEFAULT_RUNS
    seed: int = 0

    def __post_init__(self) -> None:
        checks = {
            "n_values": lambda n: BinomialPrior(n=n, p=0.0).n,
            "p_values": lambda p: BinomialPrior(n=1, p=p).p,
            "epsilon_values": lambda epsilon: calibrate(epsilon).epsilon,
        }
        for name, check in checks.items():
            values = tuple(map(check, getattr(self, name)))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        _check_epsilon_n(max(self.n_values), max(self.epsilon_values))
        object.__setattr__(self, "runs", _check_integer(self.runs, "runs", minimum=1))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _check_seed(seed) -> int:
    """The one seed rule: ``seed`` as an int in [0, 2**64), else ``ValueError``."""
    number = _check_integer(seed, "seed")
    if not 0 <= number < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return number


@dataclass(frozen=True)
class CellResult:
    """Aggregated error metrics for one (n, p, epsilon) grid cell."""

    n: int
    p: float
    epsilon: float
    avg_err_naive: float
    avg_err_naive_analytic: float
    avg_err_bayes: float
    prob_bayes_better: float
    se_naive: float
    se_bayes: float
    ties: int
    runs: int
    seed: int

    @property
    def noise_std(self) -> float:
        return calibrate(self.epsilon).noise_std

    @property
    def prob_naive_better(self) -> float:
        """Complement share; ties count as better for neither side."""
        return 1.0 - self.prob_bayes_better - self.ties / self.runs


def _draw_runs(runs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The row rule: ``(count_uniforms[run], unit_noise[run])`` for every run of a sweep."""
    rows = np.random.Generator(np.random.Philox(key=seed)).random((runs, 2))
    return rows[:, 0], _laplace_quantiles(rows[:, 1])


def _score_cell(
    prior: BinomialPrior, level: PrivacyLevel, true_counts, unit_noise, seed: int
) -> CellResult:
    """Absolute errors of the raw responses and of their posterior-mean correction."""
    # The Laplace quantile is +-scale_b times a level-free magnitude, so
    # rescaling the unit draw equals a draw at this level bitwise.
    responses = true_counts + unit_noise * level.scale_b
    corrected = bayes_estimate_batch(prior, level, responses)
    runs = responses.size
    err_naive = np.abs(responses - true_counts)
    err_bayes = np.abs(corrected - true_counts)
    return CellResult(
        n=prior.n,
        p=prior.p,
        epsilon=level.epsilon,
        avg_err_naive=float(err_naive.mean()),
        avg_err_naive_analytic=level.scale_b,
        avg_err_bayes=float(err_bayes.mean()),
        prob_bayes_better=int((err_bayes < err_naive).sum()) / runs,
        se_naive=float(err_naive.std(ddof=1) / math.sqrt(runs)) if runs > 1 else float("nan"),
        se_bayes=float(err_bayes.std(ddof=1) / math.sqrt(runs)) if runs > 1 else float("nan"),
        ties=int((err_bayes == err_naive).sum()),
        runs=runs,
        seed=seed,
    )


def run_cell(n: int, p: float, epsilon: float, runs: int, seed: int) -> CellResult:
    """Simulate one grid cell, as the one-cell sweep.

    Per run: a true count from the prior and one calibrated noise draw,
    then absolute errors of the raw response and of its posterior-mean
    correction.  The result equals the matching cell of any sweep with the
    same seed and runs, bitwise.

    Raises:
        ValueError: on invalid population, privacy, run or seed parameters.
        FloatingPointError: naming the offending run if the posterior degenerates.
    """
    return run_sweep(SweepConfig((n,), (p,), (epsilon,), runs, seed))[0]


def run_sweep(config: SweepConfig) -> tuple[CellResult, ...]:
    """Evaluate every (n, p, epsilon) cell of the configured grid.

    The runs are drawn once and scored by every cell.  Cells come in grid
    order (n outer, then p, then epsilon); an error in any cell ends the sweep.
    """
    cells = []
    levels = [calibrate(epsilon) for epsilon in config.epsilon_values]
    count_uniforms, unit_noise = _draw_runs(config.runs, config.seed)
    for n in config.n_values:
        for p in config.p_values:
            prior = BinomialPrior(n=n, p=p)
            counts = _quantiles(prior, count_uniforms)
            for level in levels:
                cells.append(_score_cell(prior, level, counts, unit_noise, config.seed))
    return tuple(cells)


def write_csv(cells, stream) -> None:
    """Emit one row per cell: the :data:`CSV_HEADER` attributes of the cell, in order.

    Floats are written with shortest round-trip precision and the line
    terminator is pinned, so equal results serialise to equal bytes.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for cell in cells:
        writer.writerow([getattr(cell, name) for name in CSV_HEADER])
