"""Shared fixtures: the heavy Monte Carlo grids are computed once per session."""

from __future__ import annotations

import os

import pytest

import dpbayes
from dpbayes import SweepConfig, run_sweep

# Frozen seed for every statistical assertion in the suite, chosen once and
# never re-chosen to make a test pass.  The tightest assertion is acceptance
# criterion 4 at n = 1000, epsilon = 0.5: prob_bayes_better sits 3.59
# standard errors above 1/2 where 3 are required.  Its exact expectation is
# 3.39 (tests/exact_errors.py), so that margin is thin by nature, not by seed.
ACCEPTANCE_SEED = 31337

HEAVY_RUNS = 100_000
GRID_N_VALUES = (100, 1000)
GRID_EPSILONS = (0.05, 0.1, 0.2, 0.5, 1.0)
SWEEP_P_VALUES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)


def child_env() -> dict:
    """This environment with the tested package's source first on PYTHONPATH, for a child."""
    src = os.path.dirname(os.path.dirname(dpbayes.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.fixture(scope="session")
def acceptance_seed() -> int:
    return ACCEPTANCE_SEED


@pytest.fixture(scope="session")
def reference_grid_cells():
    """p = 0.3 cells over n x epsilon at 10^5 runs; shared by the heavy tests."""
    config = SweepConfig(GRID_N_VALUES, (0.3,), GRID_EPSILONS, HEAVY_RUNS, ACCEPTANCE_SEED)
    return {(cell.n, cell.epsilon): cell for cell in run_sweep(config)}


@pytest.fixture(scope="session")
def p_sweep_cells():
    """n = 100, epsilon = 0.1 cells across match probabilities at 10^5 runs."""
    config = SweepConfig((100,), SWEEP_P_VALUES, (0.1,), HEAVY_RUNS, ACCEPTANCE_SEED)
    return {cell.p: cell for cell in run_sweep(config)}
