"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints one summary line (visible with ``pytest -s`` or on
failure); the ``pytest -v`` PASSED/FAILED status is the per-criterion
verdict.  The heavy Monte Carlo grids come from session-scoped fixtures in
``conftest.py`` and use the frozen acceptance seed.
"""

from __future__ import annotations

import math

import numpy as np

from dpbayes import (
    BinomialPrior,
    SweepConfig,
    bayes_estimate_batch,
    calibrate,
    dp_ratio_check,
    out_of_range_bounds,
    out_of_range_probability,
    posterior,
    run_sweep,
    sample_noise,
    uncertainty_widths,
)

from conftest import ACCEPTANCE_SEED


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_analytic_widths():
    prior = BinomialPrior(n=10_000, p=0.3)
    binomial_width, laplace_width = uncertainty_widths(prior, calibrate(0.1))
    ok = (
        abs(binomial_width - 91.6) <= 0.1
        and abs(laplace_width - 28.2) <= 0.1
        and abs(binomial_width - 91.651) < 1e-3
        and abs(laplace_width - 28.284) < 1e-3
    )
    report(1, ok, f"widths = ({binomial_width:.4f}, {laplace_width:.4f})")


def test_criterion_2_naive_error_matches_analytic(reference_grid_cells):
    worst = None
    for (n, eps), cell in reference_grid_cells.items():
        if eps not in (0.05, 0.1, 0.5, 1.0):
            continue
        gap = abs(cell.avg_err_naive - 1.0 / eps)
        margin = gap / cell.se_naive
        if worst is None or margin > worst[0]:
            worst = (margin, n, eps)
        if gap > 3.0 * cell.se_naive:
            report(2, False, f"n={n} eps={eps}: |{cell.avg_err_naive:.4f} - {1/eps}| > 3 SE")
    report(2, True, f"all cells within 3 SE of 1/eps (worst {worst[0]:.2f} SE at n={worst[1]}, eps={worst[2]})")


def test_criterion_3_bayes_dominates_mean_error(reference_grid_cells):
    min_gap_se = math.inf
    for (n, eps), cell in reference_grid_cells.items():
        gap = cell.avg_err_naive - cell.avg_err_bayes
        if gap < 0.0:
            report(3, False, f"n={n} eps={eps}: bayes error above naive")
        if eps <= 0.2:
            combined = math.hypot(cell.se_naive, cell.se_bayes)
            min_gap_se = min(min_gap_se, gap / combined)
            if gap <= 3.0 * combined:
                report(3, False, f"n={n} eps={eps}: gap {gap:.4f} not beyond 3 combined SE")
    report(3, True, f"bayes error never above naive; min strong-privacy gap {min_gap_se:.1f} combined SE")


def test_criterion_4_improvement_probability(reference_grid_cells):
    min_margin = math.inf
    for (n, eps), cell in reference_grid_cells.items():
        if eps > 0.5:
            continue
        share = cell.prob_bayes_better
        se = math.sqrt(share * (1.0 - share) / cell.runs)
        margin = (share - 0.5) / se
        min_margin = min(min_margin, margin)
        if share <= 0.5 or margin < 3.0:
            report(4, False, f"n={n} eps={eps}: prob {share:.4f} margin {margin:.2f} SE")
    report(4, True, f"prob_bayes_better > 0.5 everywhere at eps <= 0.5 (min margin {min_margin:.2f} SE)")


def test_criterion_5_p_sweep_shape(p_sweep_cells):
    errors = {p: cell.avg_err_bayes for p, cell in p_sweep_cells.items()}
    centre_is_max = max(errors, key=errors.get) == 0.5
    interior = [errors[p] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    extremes_are_min = max(errors[0.02], errors[0.98]) < min(interior)
    ok = centre_is_max and extremes_are_min
    report(5, ok, f"bayes error peaks at p=0.5 ({errors[0.5]:.3f}), extreme-p errors "
                  f"{errors[0.02]:.3f}/{errors[0.98]:.3f} below all interior values")


def test_criterion_6_out_of_range_law():
    level = calibrate(0.1)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    noise = np.array([sample_noise(level, rng) for _ in range(100_000)])
    for a in (0, 25, 50, 100):
        target = out_of_range_probability(a, 100, level)
        observed = float(((a + noise < 0.0) | (a + noise > 100.0)).mean())
        se = math.sqrt(target * (1.0 - target) / noise.size)
        if abs(observed - target) > 3.0 * se:
            report(6, False, f"a={a}: observed {observed:.5f} vs {target:.5f} beyond 3 SE")
    for n in range(1, 201):
        bounds = out_of_range_bounds(n, level)
        probs = [out_of_range_probability(a, n, level) for a in range(n + 1)]
        hi, lo = max(probs), min(probs)
        arg_hi = frozenset(a for a, q in enumerate(probs) if q == hi)
        arg_lo = frozenset(a for a, q in enumerate(probs) if q == lo)
        ok = (
            bounds.argmax == arg_hi == frozenset({0, n})
            and bounds.argmin == arg_lo
            and bounds.max_prob == hi
            and bounds.min_prob == lo
            and ((n % 2 == 1 and (n - 1) // 2 in bounds.argmin)
                 or (n % 2 == 0 and bounds.argmin == frozenset({n // 2})))
        )
        if not ok:
            report(6, False, f"n={n}: scan disagrees (argmin {sorted(arg_lo)} vs {sorted(bounds.argmin)})")
    report(6, True, "exit frequencies within 3 SE at a in {0,25,50,100}; "
                    "exhaustive scan n <= 200 confirms argmax {0,n} and the half-way argmin")


def test_criterion_7_estimator_oracle():
    worst = 0.0
    for n in range(1, 31):
        for p in (0.1, 0.3, 0.5, 0.9):
            prior = BinomialPrior(n=n, p=p)
            for eps in (0.1, 0.5, 1.0, 5.0):
                level = calibrate(eps)
                ys = np.arange(-10.0, 41.0)
                ours = bayes_estimate_batch(prior, level, ys)
                for y, value in zip(ys, ours):
                    weights = [
                        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) * math.exp(-eps * abs(y - k))
                        for k in range(n + 1)
                    ]
                    reference = sum(k * w for k, w in enumerate(weights)) / sum(weights)
                    scale = max(abs(reference), 1e-12)
                    worst = max(worst, abs(value - reference) / scale)
                    if abs(value - reference) > 1e-9 * scale:
                        report(7, False, f"n={n} p={p} eps={eps} y={y}: {value!r} vs {reference!r}")
    report(7, True, f"matches linear-space oracle, worst relative gap {worst:.2e}")


def test_criterion_8_property_suite():
    failures = []

    level = calibrate(0.1)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    draws = np.array([sample_noise(level, rng) for _ in range(1_000_000)])
    target_var = 2.0 * level.scale_b**2
    var_gap = abs(draws.var() / target_var - 1.0)
    if var_gap > 0.02:
        failures.append(f"sampler variance off by {var_gap:.3%}")

    big = BinomialPrior(n=10_000, p=0.3)
    for y in (-1e5, -500.0, 0.0, 3000.0, 1e5):
        total = posterior(big, level, y).sum()
        if abs(total - 1.0) > 1e-9:
            failures.append(f"normalisation off by {abs(total - 1.0):.2e} at y={y}")

    for n in (100, 10_000):
        prior = BinomialPrior(n=n, p=0.3)
        values = bayes_estimate_batch(prior, level, np.array([-1e6, 1e6]))
        if not np.all((values >= 0.0) & (values <= n)):
            failures.append(f"estimate left [0, {n}] under adversarial y")

    for eps in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        lvl = calibrate(eps)
        grid = np.linspace(-10.0 * lvl.scale_b, 100.0 + 10.0 * lvl.scale_b, 10_001)
        for a1, a2 in ((50, 51), (51, 50), (0, 1), (100, 99)):
            if not dp_ratio_check(lvl, a1, a2, grid):
                failures.append(f"ratio bound failed at eps={eps}, counts ({a1}, {a2})")

    grid = dict(n_values=(100,), p_values=(0.3, 0.7), epsilon_values=(0.1, 1.0))
    swept = run_sweep(SweepConfig(**grid, runs=2_000, seed=ACCEPTANCE_SEED))
    alone = tuple(
        run_sweep(SweepConfig((n,), (p,), (eps,), runs=2_000, seed=ACCEPTANCE_SEED))[0]
        for n in grid["n_values"] for p in grid["p_values"] for eps in grid["epsilon_values"]
    )
    if swept != alone:
        failures.append("sweep cells differ from independent one-cell sweeps")

    report(8, not failures, "; ".join(failures) if failures else
           f"variance gap {var_gap:.3%}; normalisation, range, ratio bound, "
           "sweep/one-cell-sweep bitwise agreement all hold")
