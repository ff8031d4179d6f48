"""Shared fixtures: the heavy Monte Carlo grids are computed once per session."""

from __future__ import annotations

import pytest

from dpbayes import SweepConfig, run_sweep

# Frozen seed for every statistical assertion in the suite.  Chosen once and
# checked to give representative (not cherry-picked extreme) margins; the
# tightest assertion sits at about 4 standard errors from its threshold.
ACCEPTANCE_SEED = 31337

HEAVY_RUNS = 100_000
GRID_N_VALUES = (100, 1000)
GRID_EPSILONS = (0.05, 0.1, 0.2, 0.5, 1.0)
SWEEP_P_VALUES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)


def _sweep_cells(config: SweepConfig) -> tuple:
    result = run_sweep(config)
    assert not result.failures, result.failures
    return result.cells


@pytest.fixture(scope="session")
def acceptance_seed() -> int:
    return ACCEPTANCE_SEED


@pytest.fixture(scope="session")
def reference_grid_cells():
    """p = 0.3 cells over n x epsilon at 10^5 runs; shared by the heavy tests."""
    config = SweepConfig(GRID_N_VALUES, (0.3,), GRID_EPSILONS, HEAVY_RUNS, ACCEPTANCE_SEED)
    return {(cell.n, cell.epsilon): cell for cell in _sweep_cells(config)}


@pytest.fixture(scope="session")
def p_sweep_cells():
    """n = 100, epsilon = 0.1 cells across match probabilities at 10^5 runs."""
    config = SweepConfig((100,), SWEEP_P_VALUES, (0.1,), HEAVY_RUNS, ACCEPTANCE_SEED)
    return {cell.p: cell for cell in _sweep_cells(config)}
