"""Command line: Monte Carlo sweeps, noisy queries, closed-form analytics.

Exit codes: 0 on success, 2 on usage or input errors (bad flags, bad
predicate, missing or malformed data file), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .estimators import _check_epsilon_n, bayes_estimate
from .mechanism import PrivacyLevel, out_of_range_bounds, out_of_range_probability
from .prior import BinomialPrior, uncertainty_widths
from .querydb import Predicate, load_records, noisy_count_query, public_answer
from .simulation import SweepConfig, _check_seed, run_sweep, write_csv


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; ``main`` only reads it.

    It is constant: its help texts read only ``SweepConfig``'s class defaults.
    """
    parser = argparse.ArgumentParser(
        prog="dpbayes",
        description="Differentially private counting queries and estimator studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the Monte Carlo estimator-comparison grid")
    # Each dest is a SweepConfig field: the flags given build the config.
    sweep.add_argument("--n", dest="n_values", type=int, nargs="+", default=None,
                       help=f"database sizes (default: {list(SweepConfig.n_values)})")
    sweep.add_argument("--p", dest="p_values", type=float, nargs="+", default=None,
                       help=f"match probabilities (default: {list(SweepConfig.p_values)})")
    sweep.add_argument("--eps", dest="epsilon_values", type=float, nargs="+", default=None,
                       help=f"privacy levels (default: {list(SweepConfig.epsilon_values)})")
    sweep.add_argument("--runs", type=int, default=None,
                       help=f"Monte Carlo runs per cell (default: {SweepConfig.runs})")
    sweep.add_argument("--seed", type=int, default=None,
                       help=f"base seed (default: {SweepConfig.seed})")
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    query = sub.add_parser("query", help="answer one noisy counting query over a CSV file")
    query.add_argument("--data", required=True, help="CSV file, header row first")
    query.add_argument("--where", required=True,
                       help="predicate: 'field equals V', 'field not-equals V', "
                            "or 'field in-set V1,V2,...'")
    query.add_argument("--eps", type=float, required=True, help="privacy level")
    query.add_argument("--seed", type=int, default=None,
                       help="noise seed (default: OS entropy)")
    query.add_argument("--p", type=float, default=None,
                       help="assumed per-record match probability; "
                            "also print the posterior-mean correction (needs --n-known)")
    query.add_argument("--n-known", type=int, default=None,
                       help="database size assumed by the correction; required with --p")

    analyze = sub.add_parser("analyze", help="closed-form out-of-range and width reports")
    analyze.add_argument("--n", type=int, required=True, help="database size")
    analyze.add_argument("--eps", type=float, required=True, help="privacy level")
    analyze.add_argument("--p", type=float, default=None,
                         help="match probability; compare population and noise "
                              "1-sigma interval widths")
    analyze.add_argument("--a", type=int, default=None,
                         help="true count to report the out-of-range probability for")
    analyze.add_argument("--bounds", action="store_true",
                         help="report extremes of the out-of-range probability")
    return parser


def cmd_sweep(args) -> int:
    # SweepConfig supplies every setting whose flag was not given.
    names = (field.name for field in dataclasses.fields(SweepConfig))
    given = {key: getattr(args, key) for key in names if getattr(args, key) is not None}
    config = SweepConfig(**given)
    if args.out is not None:
        check_out_path(args.out)
    cells = run_sweep(config)
    if args.out is not None:
        with open(args.out, "w", newline="") as stream:
            write_csv(cells, stream)
    else:
        write_csv(cells, sys.stdout)
    return 0


def check_out_path(path) -> None:
    """Raise ``OSError`` if ``path`` cannot be opened to write a file; creates nothing.

    An existing path must be a writable non-directory, such as a file or
    ``/dev/null``; a new one needs a writable directory, and an empty one
    names no file.  ``dpbayes sweep`` and ``scripts/run_studies.py`` check
    ``--out`` before the sweep, so a bad path fails at once and a failed
    sweep leaves no empty file.
    """
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        directory = os.path.dirname(path) or os.curdir
        writable = path != "" and os.path.isdir(directory) and os.access(directory, os.W_OK)
    if not writable:
        raise OSError(f"cannot write {path!r}: "
                      "not a writable file or a new name in a writable directory")


def cmd_query(args) -> int:
    # Every usage error surfaces before the release, so none spends budget.
    level = PrivacyLevel(args.eps)
    pred = Predicate.parse(args.where)
    # The model is the analyst's: a size read from the table can be the true count.
    if (args.p is None) != (args.n_known is None):
        raise ValueError("--p and --n-known go together: give both or neither")
    prior = None
    if args.p is not None:
        prior = BinomialPrior(n=args.n_known, p=args.p)
        _check_epsilon_n(prior.n, level.epsilon)
    seed = None if args.seed is None else _check_seed(args.seed)
    # Lines are split in latin-1, one character per byte, and each is decoded
    # alone (a text stream decodes 8 KB ahead), so a decode error names its
    # row; utf-8-sig skips a spreadsheet's byte-order mark.
    with open(args.data, newline="", encoding="latin-1") as stream:
        db = load_records(line.encode("latin-1").decode("utf-8" if row else "utf-8-sig")
                          for row, line in enumerate(stream))
    if seed is not None:
        print(
            "warning: this seeded release is reproducible; "
            "anyone who knows the seed can subtract the noise",
            file=sys.stderr,
        )
    result = noisy_count_query(db, pred, level, np.random.default_rng(seed))
    print(public_answer(result))
    if prior is not None:
        corrected = bayes_estimate(prior, level, result.noisy_value)
        print(json.dumps({"bayes_estimate": corrected, "n": prior.n, "p": prior.p}))
    return 0


def cmd_analyze(args) -> int:
    level = PrivacyLevel(args.eps)
    if args.p is not None:
        binomial_width, laplace_width = uncertainty_widths(BinomialPrior(args.n, args.p), level)
        print(f"binomial 1-sigma interval width: {binomial_width:.4f}")
        print(f"laplace 1-sigma interval width:  {laplace_width:.4f}")
    if args.bounds:
        bounds = out_of_range_bounds(args.n, level)
        print(
            f"max out-of-range probability: {bounds.max_prob:.7f} "
            f"at a in {sorted(bounds.argmax)}"
        )
        print(
            f"min out-of-range probability: {bounds.min_prob:.7g} "
            f"at a in {sorted(bounds.argmin)}"
        )
    if args.a is not None:
        probability = out_of_range_probability(args.a, args.n, level)
        print(f"P(out of range | a={args.a}, n={args.n}, eps={level.epsilon}) = {probability:.7g}")
    if args.p is None and not args.bounds and args.a is None:
        # No selector given: print a small table over quartile counts.
        print("a,out_of_range_probability")
        for a in sorted({0, args.n // 4, args.n // 2, (3 * args.n) // 4, args.n}):
            print(f"{a},{out_of_range_probability(a, args.n, level):.7g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    commands = {"sweep": cmd_sweep, "query": cmd_query, "analyze": cmd_analyze}
    try:
        return commands[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Bad input is a usage error; anything else is a runtime failure.
        return 2 if isinstance(exc, (ValueError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
