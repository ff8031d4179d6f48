"""One benchmark child process: set up one workload, run it, check it, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``sys.path`` and
the BLAS thread counts pinned to 1.  The last line of standard output is a
JSON object with this child's measurements.

Modes:
  setup    set up the workload and report how long that took, then exit.
  measure  set up, then run closed-loop operations, untraced, for the given
           number of seconds; then run the posterior oracle.
  trace    set up with the layer wrappers installed, then alternate
           untraced and traced passes of identical work.

All times use ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so ``--t0`` taken by the parent before starting this
process is comparable with this process's readings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import checks
from gauge import Gauge
from tracer import Tracer

P_VALUES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
EPSILON_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


def _note(problems: list, messages) -> None:
    """Keep the first few problem messages of a run; they go into the report."""
    problems.extend(list(messages)[: max(0, 20 - len(problems))])


def _derived_seed(seed: int, stream: int) -> int:
    """A 32-bit value drawn from (seed, stream); feeds the program its seeds."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class SweepWorkload:
    """``dpbayes.cli.main(["sweep", ...])`` over a fixed grid, one call per operation.

    One pass is one sweep call.  Every call gets the same arguments, so every
    call must write the same bytes.
    """

    # Benchmark-wide metric name -> this workload's own name for it.
    END_TO_END = {"ops_per_s": "cell_runs_per_s", "op_p50_ms": "sweep_call_p50_ms"}

    def __init__(self, n: int, p_values: tuple, epsilon_values: tuple, runs: int, gauge: str):
        self.n = n
        self.cells = [(n, p, eps) for p in p_values for eps in epsilon_values]
        self.p_values = p_values
        self.epsilon_values = epsilon_values
        self.runs = runs
        self.gauge = gauge

    def setup(self, seed: int, workdir: str) -> None:
        self.cli = importlib.import_module("dpbayes.cli")
        self.estimators = importlib.import_module("dpbayes.estimators")
        self.sweep_seed = _derived_seed(seed, 0)
        self.oracle_seed = seed
        self.out = os.path.join(workdir, "sweep.csv")
        self.argv = (
            ["sweep", "--n", str(self.n), "--p", *map(str, self.p_values),
             "--eps", *map(str, self.epsilon_values), "--runs", str(self.runs),
             "--seed", str(self.sweep_seed), "--out", self.out]
        )
        self.csv_sha256 = None
        self.csv_bytes = 0
        self.problems = []

    def run_pass(self) -> tuple:
        """One sweep call; returns ([seconds], operations, failed operations)."""
        start = time.perf_counter()
        code = self.cli.main(self.argv)
        elapsed = time.perf_counter() - start
        with open(self.out, "rb") as stream:
            data = stream.read()
        os.remove(self.out)
        self.csv_bytes = len(data)
        problems = checks.check_sweep_csv(data.decode(), self.cells, self.runs, self.sweep_seed)
        _note(self.problems, (message for _, message in problems))
        bad = {i for i, _ in problems}
        digest = hashlib.sha256(data).hexdigest()
        if self.csv_sha256 is None:
            self.csv_sha256 = digest
        elif digest != self.csv_sha256:
            _note(self.problems, ["sweep CSV bytes differ between identical calls"])
            bad = set(range(len(self.cells)))
        if code != 0:
            _note(self.problems, [f"sweep exited with {code}"])
            bad = set(range(len(self.cells)))
        return [elapsed], len(self.cells), len(bad)

    def oracle(self) -> tuple:
        """Posterior means of the package against the reference, per grid cell."""
        rng = np.random.default_rng(self.oracle_seed)
        ys = checks.oracle_responses(self.n, min(self.epsilon_values), rng)
        mechanism = importlib.import_module("dpbayes.mechanism")
        prior_mod = importlib.import_module("dpbayes.prior")
        failed = 0
        for n, p, eps in self.cells:
            got = self.estimators.bayes_estimate_batch(
                prior_mod.BinomialPrior(n=n, p=p), mechanism.calibrate(eps), ys)
            problems = checks.check_posterior(n, p, eps, ys, got)
            failed += bool(problems)
            _note(self.problems, problems[:3])
        return len(self.cells), failed

    def summary(self, seconds: list) -> dict:
        """Throughput and latency of the sweep calls, as (value, unit) by metric name."""
        rate = len(self.cells) * self.runs / statistics.median(seconds)
        return {"cell_runs_per_s": (rate, "1/s"),
                "sweep_call_p50_ms": (1e3 * statistics.median(seconds), "ms")}

    def info(self) -> dict:
        return {"cells_per_call": len(self.cells), "runs_per_cell": self.runs,
                "sweep_seed": self.sweep_seed, "csv_sha256": self.csv_sha256}


FIELDS = {
    "city": ("Rome", "Milan", "Naples", "Turin", "Palermo", "Genoa", "Bologna", "Florence"),
    "sex": ("F", "M"),
    "age_band": ("0-17", "18-29", "30-44", "45-59", "60-74", "75+"),
    "occupation": ("clerk", "nurse", "teacher", "driver", "farmer", "engineer",
                   "retired", "student", "artist", "cook", "lawyer", "miner"),
    "plan": ("basic", "plus", "premium", "none"),
}


class QueryWorkload:
    """An in-process analyst session over one loaded CSV; one query per operation.

    One pass is one cycle through the seeded query mix.
    """

    END_TO_END = {"ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms"}
    gauge = "objects"

    def __init__(self, rows: int, queries: int):
        self.rows = rows
        self.queries = queries

    def setup(self, seed: int, workdir: str) -> None:
        self.querydb = importlib.import_module("dpbayes.querydb")
        self.estimators = importlib.import_module("dpbayes.estimators")
        self.mechanism = importlib.import_module("dpbayes.mechanism")
        self.prior = importlib.import_module("dpbayes.prior")
        rng = np.random.default_rng([seed, 1])
        names = list(FIELDS)
        codes = {}
        for name in names:
            choices = FIELDS[name]
            weights = rng.dirichlet(np.full(len(choices), 2.0))
            codes[name] = rng.choice(len(choices), size=self.rows, p=weights)
        columns = [np.asarray(FIELDS[name])[codes[name]] for name in names]
        text = ",".join(names) + "\n" + "".join(
            ",".join(row) + "\n" for row in zip(*columns))
        self.db = self.querydb.load_records(io.StringIO(text))
        self.mix = []
        for _ in range(self.queries):
            name = names[rng.integers(len(names))]
            choices = FIELDS[name]
            relation = ("equals", "not-equals", "in-set")[rng.integers(3)]
            if relation == "in-set":
                picked = rng.choice(len(choices), size=rng.integers(2, min(3, len(choices)) + 1),
                                    replace=False)
            else:
                picked = rng.choice(len(choices), size=1)
            hits = np.isin(codes[name], picked)
            expected = int(hits.sum() if relation != "not-equals" else (~hits).sum())
            text = f"{name} {relation} " + ",".join(choices[i] for i in picked)
            epsilon = EPSILON_VALUES[rng.integers(len(EPSILON_VALUES))]
            p = P_VALUES[rng.integers(len(P_VALUES))]
            self.mix.append((text, epsilon, p, expected))
        self.noise_rng = np.random.default_rng([seed, 2])
        self.csv_bytes = 0
        self.problems = []

    def run_pass(self) -> tuple:
        """One cycle through the mix; returns (seconds per query, queries, failed)."""
        failed = 0
        latencies = []
        for text, epsilon, p, expected in self.mix:
            elapsed, problems = self._query(text, epsilon, p, expected)
            latencies.append(elapsed)
            if problems:
                failed += 1
                _note(self.problems, problems)
        return latencies, len(self.mix), failed

    def _query(self, text, epsilon, p, expected):
        querydb, clock = self.querydb, time.perf_counter
        start = clock()
        predicate = querydb.Predicate.parse(text)
        level = self.mechanism.calibrate(epsilon)
        result = querydb.noisy_count_query(self.db, predicate, level, self.noise_rng)
        line = querydb.public_answer(result)
        estimate = self.estimators.bayes_estimate(
            self.prior.BinomialPrior(n=self.db.size, p=p), level, result.noisy_value)
        elapsed = clock() - start
        problems = checks.check_answer(line, result.noisy_value, epsilon, result.true_count)
        problems += checks.check_estimate(estimate, self.db.size)
        if result.true_count != expected:
            problems.append(f"{text!r}: true count {result.true_count}, expected {expected}")
        return elapsed, problems

    def oracle(self) -> tuple:
        return 0, 0

    def summary(self, seconds: list) -> dict:
        """Throughput and latency of the queries, as (value, unit) by metric name.

        Throughput is the median over blocks of one pass each, so one slow
        stretch does not move it; p99 is reported only with at least ten
        samples above it.
        """
        per_pass = len(self.mix)
        rates = [per_pass / sum(seconds[i:i + per_pass])
                 for i in range(0, len(seconds) - per_pass + 1, per_pass)]
        summary = {"queries_per_s": (statistics.median(rates), "1/s"),
                   "query_p50_ms": (1e3 * statistics.median(seconds), "ms")}
        if len(seconds) >= 1100:
            p99 = statistics.quantiles(seconds, n=100)[98]
            summary["query_p99_ms"] = (1e3 * p99, "ms")
            summary["query_samples_above_p99"] = (sum(s > p99 for s in seconds), "count")
        return summary

    def info(self) -> dict:
        return {"db_rows": self.db.size, "queries_per_pass": len(self.mix)}


WORKLOADS = {
    "sweep-grid-n100": lambda: SweepWorkload(100, P_VALUES, EPSILON_VALUES, runs=1000,
                                             gauge="interpreter"),
    "sweep-cell-n10k": lambda: SweepWorkload(10_000, (0.3,), (0.1,), runs=4096,
                                             gauge="large-arrays"),
    "query-n20k": lambda: QueryWorkload(rows=20_000, queries=256),
}

# Sizes for the benchmark's own smoke test.
TINY = {
    "sweep-grid-n100": lambda: SweepWorkload(100, (0.1, 0.9), (0.5, 2.0), runs=20,
                                             gauge="interpreter"),
    "sweep-cell-n10k": lambda: SweepWorkload(10_000, (0.3,), (0.1,), runs=8,
                                             gauge="large-arrays"),
    "query-n20k": lambda: QueryWorkload(rows=300, queries=16),
}


def measure(workload, seconds: float, gauge: Gauge) -> dict:
    """Closed loop of passes for ``seconds``; times are rescaled by the speed gauge."""
    raw, scaled, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        samples, ops, bad = workload.run_pass()
        factor = gauge.scale()
        raw += samples
        scaled += [s * factor for s in samples]
        attempted += ops
        failed += bad
    # Before the oracle, whose reference implementation has its own footprint.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops, bad = workload.oracle()
    metrics = workload.summary(scaled)
    info = {name: list(value) for name, value in metrics.items()}
    info.update({f"raw.{name}": list(value) for name, value in workload.summary(raw).items()})
    info.update(workload.info(), samples=len(raw), gauge_median_slowness=gauge.median())
    return {"attempted": attempted + ops, "failed": failed + bad,
            "metrics": {name: metrics[own] for name, own in workload.END_TO_END.items()},
            "info": info, "peak_rss_mb": peak_rss_mb}


# Counters that must repeat exactly from pass to pass at a fixed seed.
PASS_COUNTERS = (
    "simulation.run_stream.calls", "simulation.stream_key_reuse",
    "prior.sample_true_count.calls", "prior.uniforms_drawn",
    "mechanism.sample_noise.calls",
    "estimators.bayes_estimate_batch.calls", "estimators.bayes_estimate_batch.rows",
    "estimators.posterior_cells", "estimators.bayes_estimate.calls",
    "querydb.noisy_count_query.calls", "querydb.records_scanned",
    "simulation.csv_bytes",
)


def _pass_metrics(tracer: Tracer, wall: float, csv_bytes: int) -> dict:
    m = tracer.metric
    calls = m("simulation.run_stream", "calls")
    keys = len(tracer.stream_keys)
    return {
        "simulation.run_stream.calls": calls,
        "simulation.run_stream.s": m("simulation.run_stream", "s"),
        "simulation.stream_key_reuse": calls / keys if keys else 0.0,
        "simulation.run_cell.s": m("simulation.run_cell", "s"),
        "simulation.run_cell.self_s": m("simulation.run_cell", "self_s"),
        "prior.sample_true_count.calls": m("prior.sample_true_count", "calls"),
        "prior.sample_true_count.s": m("prior.sample_true_count", "s"),
        "prior.uniforms_drawn": tracer.counters.get("prior.uniforms_drawn", 0),
        "mechanism.sample_noise.calls": m("mechanism.sample_noise", "calls"),
        "mechanism.sample_noise.s": m("mechanism.sample_noise", "s"),
        "estimators.bayes_estimate_batch.calls": m("estimators.bayes_estimate_batch", "calls"),
        "estimators.bayes_estimate_batch.rows":
            tracer.counters.get("estimators.bayes_estimate_batch.rows", 0),
        "estimators.bayes_estimate_batch.s": m("estimators.bayes_estimate_batch", "s"),
        "estimators.posterior_cells": tracer.counters.get("estimators.posterior_cells", 0),
        "estimators.bayes_estimate.calls": m("estimators.bayes_estimate", "calls"),
        "estimators.bayes_estimate.s": m("estimators.bayes_estimate", "s"),
        "querydb.noisy_count_query.calls": m("querydb.noisy_count_query", "calls"),
        "querydb.noisy_count_query.s": m("querydb.noisy_count_query", "s"),
        "querydb.records_scanned": tracer.counters.get("querydb.records_scanned", 0),
        "querydb.public_answer.s": m("querydb.public_answer", "s"),
        "simulation.write_csv.s": m("simulation.write_csv", "s"),
        "simulation.csv_bytes": csv_bytes,
        "cli.self_s": m("cli.main", "self_s"),
        "trace.unattributed_s": wall - tracer.layer_self_seconds(),
    }


def _is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


def trace(workload, seconds: float, tracer: Tracer, gauge: Gauge) -> dict:
    """Alternate untraced and traced passes (U T T U U T ...) of identical work.

    Counters come from the first traced pass and must repeat on every later
    one; times are medians over the traced passes.
    """
    untraced, traced, traced_walls = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    order = 0
    while min(len(traced), len(untraced)) < 2 or time.perf_counter() < deadline:
        traced_pass = order % 4 in (1, 2)
        order += 1
        tracer.reset()
        if traced_pass:
            tracer.install(workload)
        start = time.perf_counter()
        try:
            _, ops, bad = workload.run_pass()
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        factor = gauge.scale()
        attempted += ops
        failed += bad
        if not traced_pass:
            untraced.append(wall * factor)
            continue
        traced_walls.append(wall * factor)
        metrics = _pass_metrics(tracer, wall, workload.csv_bytes)
        traced.append({k: v * factor if _is_time(k) else v for k, v in metrics.items()})
        first = {k: traced[0][k] for k in PASS_COUNTERS}
        if any(traced[-1][k] != first[k] for k in PASS_COUNTERS):
            failed += ops
            _note(workload.problems, ["traced counters differ between identical passes"])
    ops, bad = workload.oracle()
    metrics = {name: statistics.median(p[name] for p in traced) for name in traced[0]}
    metrics.update({k: traced[0][k] for k in PASS_COUNTERS})
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced) - 1.0
    return {"attempted": attempted + ops, "failed": failed + bad, "metrics": metrics,
            "info": {"traced_passes": len(traced), "untraced_passes": len(untraced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter reading taken just before this process started")
    parser.add_argument("--workdir", required=True, help="scratch directory for program outputs")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]()
    tracer = Tracer()
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        if args.mode == "trace":
            tracer.install(workload)
        workload.setup(args.seed, workdir)
        tracer.uninstall()
        setup_raw_s = time.perf_counter() - args.t0
        # Set-up is mostly imports, which is interpreter work.
        setup_factor = 1.0 / Gauge("interpreter").last
        setup_s = setup_raw_s * setup_factor
        gauge = Gauge(workload.gauge) if args.mode != "setup" else None
        setup_trace = {
            "querydb.load_records.s": tracer.metric("querydb.load_records", "s") * setup_factor,
            "querydb.records_loaded": tracer.counters.get("querydb.records_loaded", 0),
        }
        report = {"setup_raw_s": setup_raw_s, "setup_s": setup_s}
        if args.mode == "measure":
            report.update(measure(workload, args.seconds, gauge), problems=workload.problems)
        elif args.mode == "trace":
            report.update(trace(workload, args.seconds, tracer, gauge), problems=workload.problems)
            report["metrics"].update(setup_trace)
            tracer.write_spans(os.path.join(
                args.workdir, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    dpbayes = sys.modules.get("dpbayes")
    report["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "dpbayes_file": os.path.relpath(dpbayes.__file__) if dpbayes else None,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
