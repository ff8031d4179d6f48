"""Sweep cells against their exact expected errors.

``exact_errors.cell_moments`` gives, per (n, p, epsilon), the exact mean
and variance of one run's corrected error and the exact probability that
the corrected estimate wins.  Every cell of the default grid (at 2000 runs,
two seeds) and every ``conftest.py`` fixture cell must lie within a
Bonferroni-sized |z| of those values.  The bound is fixed here from the
number of comparisons, not from the z-scores it judges.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.stats import binom, norm

from dpbayes import SweepConfig, run_sweep
from exact_errors import cell_moments

GATE_RUNS = 2000
GATE_SEEDS = (0, 31337)
DEFAULT_CELLS = len(SweepConfig.n_values) * len(SweepConfig.p_values) * len(SweepConfig.epsilon_values)
FIXTURE_CELLS = 17
# Three statistics per cell: avg_err_naive, avg_err_bayes, prob_bayes_better.
COMPARISONS = 3 * (len(GATE_SEEDS) * DEFAULT_CELLS + FIXTURE_CELLS)
# Family-wise false-alarm rate 1e-3, split evenly over every comparison.
FAMILY_ALPHA = 1e-3
Z_BOUND = float(norm.isf(FAMILY_ALPHA / (2 * COMPARISONS)))


def z_scores(cell) -> dict:
    """Each reported statistic of a cell in standard errors from its exact value."""
    exact = cell_moments(cell.n, cell.p, cell.epsilon)
    runs, scale = cell.runs, 1.0 / cell.epsilon
    share = exact.prob_better
    return {
        # |Laplace(1/eps)| has mean and standard deviation 1/eps.
        "avg_err_naive": (cell.avg_err_naive - scale) / (scale / math.sqrt(runs)),
        "avg_err_bayes": (cell.avg_err_bayes - exact.abs_err) / math.sqrt(exact.err_var / runs),
        "prob_bayes_better":
            (cell.prob_bayes_better - share) / math.sqrt(share * (1.0 - share) / runs),
    }


def assert_within_bound(cells, label: str) -> None:
    scored = [(abs(z), name, (c.n, c.p, c.epsilon)) for c in cells
              for name, z in z_scores(c).items()]
    worst = max(scored)
    print(f"[oracle] {label}: largest |z| {worst[0]:.2f} ({worst[1]} at {worst[2]}), "
          f"bound {Z_BOUND:.2f}")
    outside = [entry for entry in scored if entry[0] > Z_BOUND]
    assert not outside, outside


def quad_reference(n: int, p: float, epsilon: float) -> dict:
    """The same expectations by adaptive quadrature over the dense posterior mean."""
    k = np.arange(n + 1, dtype=np.float64)
    mass = binom.pmf(k, n, p)

    def mu(y):
        distance = np.abs(y - k)
        weights = mass * np.exp(-epsilon * (distance - distance.min()))
        return float(weights @ k / weights.sum())

    # Every point where an integrand jumps or kinks, from sign changes on a grid.
    grid = np.linspace(-n - 1.0, 2.0 * n + 1.0, 60_001)
    means = np.array([mu(y) for y in grid])
    curves = [(means - c, lambda y, c=c: mu(y) - c) for c in k]
    curves += [(means + grid - 2.0 * c, lambda y, c=c: mu(y) + y - 2.0 * c) for c in k]
    curves.append((means - grid, lambda y: mu(y) - y))
    points = set(range(n + 1))
    for values, f in curves:
        for i in np.flatnonzero(np.diff(np.sign(values))):
            points.add(optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    edges = [-np.inf, *sorted(points), np.inf]

    def expect(g):
        def integrand(y):
            m = mu(y)
            return float(mass * 0.5 * epsilon * np.exp(-epsilon * np.abs(y - k)) @ g(m, y))

        return sum(integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))

    return {
        "abs_err": expect(lambda m, y: np.abs(m - k)),
        "sq_err": expect(lambda m, y: (m - k) ** 2),
        "prob_better": expect(lambda m, y: (np.abs(m - k) < np.abs(y - k)).astype(float)),
    }


class TestExactErrors:
    @pytest.mark.parametrize("n, p, epsilon", [(3, 0.3, 0.5), (5, 0.5, 2.0), (6, 0.7, 0.05)])
    def test_matches_adaptive_quadrature(self, n, p, epsilon):
        exact = cell_moments(n, p, epsilon)
        for name, value in quad_reference(n, p, epsilon).items():
            assert getattr(exact, name) == pytest.approx(value, rel=1e-10, abs=1e-11), name

    @pytest.mark.parametrize("n", SweepConfig.n_values)
    def test_integration_identities_on_the_default_grid(self, n):
        # E[mu(Y)] = E[K] (tower rule) and the law of Y has total mass one.
        # The posterior mean has the least mean squared error, so it beats
        # both the raw response (2/eps^2) and the prior mean (n p (1 - p)).
        for p in SweepConfig.p_values:
            for epsilon in SweepConfig.epsilon_values:
                exact = cell_moments(n, p, epsilon)
                assert abs(exact.bias) < 1e-12 * n, (p, epsilon, exact)
                assert abs(exact.total_mass - 1.0) < 1e-11, (p, epsilon, exact)
                assert exact.sq_err < min(2.0 / epsilon**2, n * p * (1.0 - p)), (p, epsilon)
                assert 0.0 < exact.err_var and 0.5 < exact.prob_better < 1.0, (p, epsilon)

    def test_quadrature_has_converged(self):
        for n, p, epsilon in ((1000, 0.5, 0.05), (1000, 0.02, 2.0), (100, 0.98, 0.5)):
            coarse, fine = cell_moments(n, p, epsilon), cell_moments(n, p, epsilon, nodes=40)
            assert coarse.abs_err == pytest.approx(fine.abs_err, rel=1e-12)
            assert coarse.sq_err == pytest.approx(fine.sq_err, rel=1e-12)
            assert coarse.prob_better == fine.prob_better


class TestSweepMatchesExactErrors:
    def test_bound_was_fixed_in_advance(self):
        assert COMPARISONS == 555
        assert Z_BOUND == pytest.approx(4.774, abs=1e-3)

    @pytest.mark.parametrize("seed", GATE_SEEDS)
    def test_default_grid(self, seed):
        cells = run_sweep(SweepConfig(runs=GATE_RUNS, seed=seed))
        assert len(cells) == DEFAULT_CELLS
        assert_within_bound(cells, f"default grid, {GATE_RUNS} runs, seed {seed}")

    def test_fixture_cells(self, reference_grid_cells, p_sweep_cells):
        cells = [*reference_grid_cells.values(), *p_sweep_cells.values()]
        assert len(cells) == FIXTURE_CELLS
        assert_within_bound(cells, "conftest.py fixture cells")
