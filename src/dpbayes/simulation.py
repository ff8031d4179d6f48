"""Monte Carlo comparison of the naive and posterior-mean estimators.

Each run draws a true count from the binomial population model, perturbs it
with calibrated Laplace noise, and scores both estimators by absolute error.
Every run owns a counter-based random stream keyed by ``(seed, run_index)``;
:func:`run_stream` is its definition.  A sweep draws each run once per n and
scores it in every (p, epsilon) cell, so cells are compared under common
random numbers and a cell's result does not depend on the grid around it.
To draw, the sweep re-keys one Philox to ``(seed, run_index)`` per run
instead of building a generator per run; the numbers equal ``run_stream``'s
bitwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .estimators import bayes_estimate_batch
from .mechanism import PrivacyLevel, calibrate, sample_noise
from .prior import BinomialPrior

__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_P_VALUES",
    "DEFAULT_EPSILON_VALUES",
    "DEFAULT_RUNS",
    "CSV_HEADER",
    "SweepConfig",
    "CellResult",
    "CellFailure",
    "SweepResult",
    "run_stream",
    "run_cell",
    "run_sweep",
    "write_csv",
]

DEFAULT_N_VALUES = (100, 1000)
DEFAULT_P_VALUES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
DEFAULT_EPSILON_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
DEFAULT_RUNS = 100_000

CSV_HEADER = (
    "n",
    "p",
    "epsilon",
    "noise_std",
    "avg_err_naive",
    "avg_err_naive_analytic",
    "avg_err_bayes",
    "prob_bayes_better",
    "se_naive",
    "se_bayes",
    "runs",
    "seed",
)

_SEED_LIMIT = 1 << 64

# Every run draws its noise once, at epsilon = 1; a cell rescales that draw.
_UNIT_LEVEL = calibrate(1.0)

# Count uniforms are drawn into one block of at most this many doubles
# (512 KB), or one run's n when that is larger, and thresholded a block of
# runs at a time.
_BLOCK_DOUBLES = 1 << 16


def _check_seed(seed) -> int:
    value = int(seed)
    if isinstance(seed, (bool, np.bool_)) or value != seed or not 0 <= value < _SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


def run_stream(seed: int, run_index: int) -> np.random.Generator:
    """Counter-based random stream for one run, keyed by (seed, run index).

    Streams for distinct run indices are independent.  Runs with the same
    index deliberately share a stream across grid cells, so cells are
    compared under common random numbers.

    Raises:
        ValueError: if the seed is not an integer in [0, 2**64).
    """
    key = np.array([_check_seed(seed), run_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        runs = int(self.runs)
        if isinstance(self.runs, (bool, np.bool_)) or runs != self.runs or runs < 1:
            raise ValueError(f"runs must be an integer of at least 1, got {self.runs!r}")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "seed", _check_seed(self.seed))


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
        return math.sqrt(2.0) / self.epsilon

    @property
    def prob_naive_better(self) -> float:
        """Complement share; ties count as better for neither side."""
        return 1.0 - self.prob_bayes_better - self.ties / self.runs


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that aborted, with the error message (and run index when known)."""

    n: int
    p: float
    epsilon: float
    message: str


@dataclass(frozen=True)
class SweepResult:
    """All surviving cells of a sweep, in grid order, plus any failures."""

    config: SweepConfig
    cells: tuple
    failures: tuple = ()


def _draw_runs(n: int, p_values: tuple, runs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Every run at one n, drawn once: ``(true_counts[p index, run], unit_noise[run])``.

    Run ``r`` reads its stream in a fixed order: ``n`` count uniforms,
    thresholded at every ``p``, then one noise draw at epsilon = 1.  One
    Philox is re-keyed to ``(seed, r)`` for each run, which yields the same
    numbers as ``run_stream(seed, r)`` without building a generator per run.
    """
    bit_generator = np.random.Philox(key=0)  # re-keyed before every run
    stream = np.random.Generator(bit_generator)
    # The state Philox(key=[seed, run_index]) starts from: counter zero, empty buffer.
    key = [seed, 0]
    start = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    thresholds = np.asarray(p_values, dtype=np.float64)[:, None, None]
    rows = min(runs, max(1, _BLOCK_DOUBLES // n))
    block = np.empty((rows, n), dtype=np.float64)
    true_counts = np.empty((len(p_values), runs), dtype=np.float64)
    unit_noise = np.empty(runs, dtype=np.float64)
    for first in range(0, runs, rows):
        count = min(rows, runs - first)
        for row in range(count):
            key[1] = first + row
            bit_generator.state = start
            stream.random(out=block[row])
            unit_noise[first + row] = sample_noise(_UNIT_LEVEL, stream)
        true_counts[:, first : first + count] = (block[:count] < thresholds).sum(axis=2)
    return true_counts, unit_noise


def _score_cell(
    prior: BinomialPrior, level: PrivacyLevel, true_counts, unit_noise, seed: int
) -> CellResult:
    """Absolute errors of the raw responses and of their posterior-mean correction."""
    # sample_noise returns +-scale_b times a level-free magnitude, so
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
        FloatingPointError: naming the offending run if the posterior
            degenerates; the cell aborts rather than report partial sums.
    """
    result = run_sweep(SweepConfig((n,), (p,), (epsilon,), runs, seed))
    if result.failures:
        raise FloatingPointError(result.failures[0].message)
    return result.cells[0]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every (n, p, epsilon) cell of the configured grid.

    Each run is drawn once per n and scored by every (p, epsilon) cell.  A
    cell whose posterior degenerates is collected as a failure and the
    sweep continues; the surviving cells keep grid order (n outer, then p,
    then epsilon).
    """
    cells = []
    failures = []
    levels = [calibrate(epsilon) for epsilon in config.epsilon_values]
    for n in config.n_values:
        true_counts, unit_noise = _draw_runs(n, config.p_values, config.runs, config.seed)
        for counts, p in zip(true_counts, config.p_values):
            prior = BinomialPrior(n=n, p=p)
            for level in levels:
                try:
                    cells.append(_score_cell(prior, level, counts, unit_noise, config.seed))
                except FloatingPointError as exc:
                    message = f"{exc} (row = run index)"
                    failures.append(CellFailure(n=n, p=p, epsilon=level.epsilon, message=message))
    return SweepResult(config=config, cells=tuple(cells), failures=tuple(failures))


def write_csv(result: SweepResult, stream) -> None:
    """Emit one row per cell with the fixed column set.

    Floats are written with shortest round-trip precision and the line
    terminator is pinned, so equal results serialise to equal bytes.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for cell in result.cells:
        writer.writerow(
            [
                cell.n,
                cell.p,
                cell.epsilon,
                cell.noise_std,
                cell.avg_err_naive,
                cell.avg_err_naive_analytic,
                cell.avg_err_bayes,
                cell.prob_bayes_better,
                cell.se_naive,
                cell.se_bayes,
                cell.runs,
                cell.seed,
            ]
        )
