#!/usr/bin/env python3
"""Run the default estimator-comparison grid and print per-study summaries.

Writes the full sweep CSV, then prints four views of it: mean absolute
error against privacy level for each database size, the match-probability
sweep, and the share of runs where the corrected estimate beats the raw
response.  The full grid at the default 10^5 runs takes about 1 second
for the whole script (0.9-1.2 s over 7 runs on a 2-core x86-64 machine,
numpy 2.4.6); pass --runs 2000 for a quick look.
"""

from __future__ import annotations

import argparse
import sys
import time

from dpbayes import SweepConfig, run_sweep, write_csv
from dpbayes.cli import check_out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=SweepConfig.runs,
                        help="Monte Carlo runs per cell (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=SweepConfig.seed,
                        help="base seed (default: %(default)s)")
    parser.add_argument("--out", default="sweep_results.csv",
                        help="CSV output path (default: %(default)s)")
    args = parser.parse_args(argv)

    # As in `dpbayes sweep`, bad settings and an --out that cannot be written
    # exit 2 before the sweep runs or anything is printed or written.
    try:
        config = SweepConfig(runs=args.runs, seed=args.seed)
        check_out_path(args.out)
        total = len(config.n_values) * len(config.p_values) * len(config.epsilon_values)
        print(f"running {total} cells at {config.runs} runs each (seed {config.seed})")
        start = time.time()
        cells = run_sweep(config)
        print(f"done in {time.time() - start:.1f}s")
        with open(args.out, "w", newline="") as stream:
            write_csv(cells, stream)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(cells)} rows to {args.out}")

    by_key = {(c.n, c.p, c.epsilon): c for c in cells}

    for n in config.n_values:
        print(f"\nmean absolute error vs privacy level (n={n}, p=0.3)")
        print(f"{'eps':>6} {'noise_std':>10} {'naive':>10} {'analytic':>10} {'bayes':>10}")
        for eps in config.epsilon_values:
            cell = by_key[(n, 0.3, eps)]
            print(f"{eps:>6} {cell.noise_std:>10.3f} {cell.avg_err_naive:>10.3f} "
                  f"{cell.avg_err_naive_analytic:>10.3f} {cell.avg_err_bayes:>10.3f}")

    print("\nmatch-probability sweep (n=100, eps=0.1)")
    print(f"{'p':>6} {'bayes err':>10} {'P(bayes better)':>16}")
    for p in config.p_values:
        cell = by_key[(100, p, 0.1)]
        print(f"{p:>6} {cell.avg_err_bayes:>10.3f} {cell.prob_bayes_better:>16.4f}")

    print("\nshare of runs where the correction is strictly closer (p=0.3)")
    print(f"{'eps':>6}" + "".join(f" {f'n={n}':>10}" for n in config.n_values))
    for eps in config.epsilon_values:
        row = [f"{eps:>6}"]
        for n in config.n_values:
            row.append(f"{by_key[(n, 0.3, eps)].prob_bayes_better:>10.4f}")
        print("".join(row))

    return 0


if __name__ == "__main__":
    sys.exit(main())
