"""Output checks for the benchmark, independent of the package under test.

Every check returns a list of problems; an empty list means the output is
correct.  The reference posterior mean here is computed with scipy's binomial
log-pmf and ``logsumexp``, not with the package's own kernel, so it can catch
a kernel that is fast but wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Same columns, same order, as the package's documented CSV schema.
CSV_HEADER = (
    "n", "p", "epsilon", "noise_std", "avg_err_naive", "avg_err_naive_analytic",
    "avg_err_bayes", "prob_bayes_better", "se_naive", "se_bayes", "runs", "seed",
)

# avg_err_naive must lie within this many standard errors of 1/epsilon.  Wide
# on purpose: a correct sweep misses it with negligible probability.
NAIVE_ERROR_SIGMAS = 10.0
POSTERIOR_REL_TOL = 1e-9


def check_sweep_csv(text: str, cells: list, runs: int, seed: int) -> list:
    """Check a sweep CSV against the grid it was asked for.

    ``cells`` lists the expected ``(n, p, epsilon)`` in grid order.  Returns
    one ``(cell_index, problem)`` pair per bad cell; a wrong header makes
    every cell bad.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        return [(i, "bad or missing header") for i in range(len(cells))]
    body = rows[1:]
    problems = []
    for i, cell in enumerate(cells):
        if i >= len(body):
            problems.append((i, "missing row"))
            continue
        problem = _check_row(body[i], cell, runs, seed)
        if problem:
            problems.append((i, problem))
    if len(body) > len(cells):
        problems.append((len(cells), f"{len(body) - len(cells)} extra rows"))
    return problems


def _check_row(row: list, cell: tuple, runs: int, seed: int) -> str:
    if len(row) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(row)}"
    try:
        values = dict(zip(CSV_HEADER, (float(v) for v in row)))
    except ValueError:
        return f"non-numeric field in {row}"
    if not all(math.isfinite(v) for v in values.values()):
        return f"non-finite field in {row}"
    n, p, epsilon = cell
    if (values["n"], values["p"], values["epsilon"]) != (n, p, epsilon):
        return f"cell {(values['n'], values['p'], values['epsilon'])} where {cell} was expected"
    if values["runs"] != runs or values["seed"] != seed:
        return f"runs/seed {values['runs']}/{values['seed']} where {runs}/{seed} was expected"
    if abs(values["avg_err_naive"] - 1.0 / epsilon) > NAIVE_ERROR_SIGMAS * values["se_naive"]:
        return (f"avg_err_naive {values['avg_err_naive']} is more than {NAIVE_ERROR_SIGMAS:g} "
                f"se ({values['se_naive']}) from 1/epsilon")
    if not 0.0 <= values["avg_err_bayes"] <= n:
        return f"avg_err_bayes {values['avg_err_bayes']} outside [0, {n}]"
    if not 0.0 <= values["prob_bayes_better"] <= 1.0:
        return f"prob_bayes_better {values['prob_bayes_better']} outside [0, 1]"
    return ""


def oracle_responses(n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded test responses: both extremes, integers in [0, n], and reals around them."""
    spread = 5.0 / epsilon
    return np.concatenate([
        [-1e6, 1e6, 0.0, float(n)],
        rng.integers(0, n + 1, size=8).astype(np.float64),
        rng.uniform(-spread, n + spread, size=20),
    ])


def reference_posterior_mean(n: int, p: float, epsilon: float, ys) -> np.ndarray:
    """Posterior mean of Binomial(n, p) under a Laplace(1/epsilon) response, in log space."""
    # Imported here, not at the top, so set-up time measures the package's imports.
    from scipy.special import logsumexp
    from scipy.stats import binom

    k = np.arange(n + 1, dtype=np.float64)
    log_prior = binom.logpmf(k, n, p)
    log_w = log_prior[None, :] - epsilon * np.abs(np.asarray(ys, dtype=np.float64)[:, None] - k)
    means = np.exp(logsumexp(log_w, axis=1, b=k[None, :]) - logsumexp(log_w, axis=1))
    return np.clip(means, 0.0, float(n))


def check_posterior(n: int, p: float, epsilon: float, ys, got) -> list:
    """Compare posterior means with the reference at relative tolerance 1e-9."""
    want = reference_posterior_mean(n, p, epsilon, ys)
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"n={n} p={p} eps={epsilon}: shape {got.shape}, expected {want.shape}"]
    problems = []
    for y, g, w in zip(ys, got, want):
        if not math.isclose(g, w, rel_tol=POSTERIOR_REL_TOL, abs_tol=0.0):
            problems.append(f"n={n} p={p} eps={epsilon} y={y!r}: got {g!r}, reference {w!r}")
    return problems


def check_answer(line: str, noisy_value: float, epsilon: float, true_count: int) -> list:
    """The released line carries exactly the noisy value and epsilon."""
    try:
        released = json.loads(line)
    except ValueError:
        return [f"answer line is not JSON: {line!r}"]
    if not isinstance(released, dict) or set(released) != {"noisy_value", "epsilon"}:
        return [f"answer line must hold exactly noisy_value and epsilon: {line!r}"]
    problems = []
    if released["noisy_value"] != noisy_value or released["epsilon"] != epsilon:
        problems.append(f"answer line {line!r} differs from noisy value {noisy_value!r} "
                        f"and epsilon {epsilon!r}")
    if released["noisy_value"] == true_count:
        problems.append(f"answer line {line!r} releases the true count")
    return problems


def check_estimate(estimate: float, n: int) -> list:
    if not (isinstance(estimate, float) and 0.0 <= estimate <= n):
        return [f"corrected estimate {estimate!r} outside [0, {n}]"]
    return []
