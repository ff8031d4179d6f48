"""dpbayes benchmark: sweep throughput and query latency, timed per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (``child.py``), one client and
one thread, with ``src`` on the import path and BLAS threads pinned to 1.

``--trace 0`` measures the end-to-end metrics untraced: several set-up-only
children give ``setup_s`` (median), then one child runs the workload for
``--seconds`` seconds.  ``--trace 1`` runs one child that alternates
untraced and traced passes and reports the per-layer metrics.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the ungated details: the run environment, sample counts, the sweep CSV's
sha256, ``failed_ops_frac`` and the workload's own metric names.  The same
details go to ``.perfbench/<workload>-seed<N>-trace<T>.json``, and a traced
run writes its spans to ``.perfbench/<workload>-seed<N>-spans.jsonl``.

Times are scaled by a machine-speed gauge (see ``gauge.py``); the details
also carry the raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sweep-grid-n100", "sweep-cell-n10k", "query-n20k")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up-only children per run, in addition to the measuring child.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150.0

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms")
PER_LAYER = (
    "simulation.run_stream.calls", "simulation.run_stream.s", "simulation.stream_key_reuse",
    "simulation.run_cell.s", "simulation.run_cell.self_s",
    "prior.sample_true_count.calls", "prior.sample_true_count.s", "prior.uniforms_drawn",
    "mechanism.sample_noise.calls", "mechanism.sample_noise.s",
    "estimators.bayes_estimate_batch.calls", "estimators.bayes_estimate_batch.rows",
    "estimators.bayes_estimate_batch.s", "estimators.posterior_cells",
    "estimators.bayes_estimate.calls", "estimators.bayes_estimate.s",
    "querydb.load_records.s", "querydb.records_loaded",
    "querydb.noisy_count_query.calls", "querydb.noisy_count_query.s",
    "querydb.records_scanned", "querydb.public_answer.s",
    "simulation.write_csv.s", "simulation.csv_bytes", "cli.self_s",
    "trace.unattributed_s", "trace.overhead_frac",
)


def _unit(name: str) -> str:
    if name.endswith("_frac") or name.endswith("_reuse"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def git_sha() -> str:
    """HEAD of the checkout, read from its .git directory if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args, mode: str, env: dict) -> dict:
    """Start one child, wait for it, and return its report (the last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} child timed out after {CHILD_TIMEOUT_S:g} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpbayes", "__init__.py")):
        print(f"error: no dpbayes package under {SRC}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.trace:
            report = run_child(args, "trace", env)
            metrics = {name: {"value": report["metrics"][name], "unit": _unit(name)}
                       for name in PER_LAYER}
            details = report["info"]
        else:
            setups = [run_child(args, "setup", env) for _ in range(SETUP_SAMPLES)]
            report = run_child(args, "measure", env)
            setups.append(report)
            values = dict(report["metrics"])
            values["setup_s"] = (statistics.median(r["setup_s"] for r in setups), "s")
            values["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
            metrics = {name: {"value": values[name][0], "unit": values[name][1]}
                       for name in END_TO_END}
            details = dict(report["info"],
                           **{"raw.setup_s": [statistics.median(r["setup_raw_s"] for r in setups), "s"]})
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    details["failed_ops_frac"] = [failed / attempted, "ratio"]
    details["problems"] = report["problems"]
    details["env"] = dict(
        report["env"], git_sha=git_sha(), nproc=os.cpu_count(),
        threads={var: env[var] for var in THREAD_VARS},
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(result, details=details), f, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
