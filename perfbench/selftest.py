"""The benchmark's own tests, in plain Python.

    python3 perfbench/selftest.py

Runs every workload at smoke-test sizes, checks that traced counters repeat
exactly, that the output checks reject wrong outputs, and that the benchmark
refuses to run without the package's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    return result


def test_smoke_untraced():
    for workload in run.WORKLOADS:
        metrics = smoke(workload, 0)["metrics"]
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)


def test_traced_counters_repeat():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    counted.append("simulation.stream_key_reuse")
    for workload in run.WORKLOADS:
        first, second = (smoke(workload, 1)["metrics"] for _ in range(2))
        assert {k: first[k] for k in counted} == {k: second[k] for k in counted}, workload


def test_posterior_check_rejects_unclipped_response():
    rng = np.random.default_rng(0)
    for n, p, eps in ((100, 0.3, 0.1), (10_000, 0.3, 0.1)):
        ys = checks.oracle_responses(n, eps, rng)
        reference = checks.reference_posterior_mean(n, p, eps, ys)
        assert checks.check_posterior(n, p, eps, ys, reference) == []
        assert len(checks.check_posterior(n, p, eps, ys, ys)) >= 2  # at least y = +-1e6
        nudged = reference * (1 + 1e-8)
        assert checks.check_posterior(n, p, eps, ys, nudged)


def test_posterior_check_accepts_package():
    from dpbayes import BinomialPrior, bayes_estimate_batch, calibrate

    rng = np.random.default_rng(1)
    ys = checks.oracle_responses(100, 0.05, rng)
    got = bayes_estimate_batch(BinomialPrior(100, 0.02), calibrate(2.0), ys)
    assert checks.check_posterior(100, 0.02, 2.0, ys, got) == []


def test_answer_check_rejects_leaks():
    good = json.dumps({"noisy_value": 12.5, "epsilon": 0.1})
    assert checks.check_answer(good, 12.5, 0.1, 11) == []
    leaking = json.dumps({"noisy_value": 12.5, "epsilon": 0.1, "true_count": 11})
    assert checks.check_answer(leaking, 12.5, 0.1, 11)
    assert checks.check_answer(json.dumps({"noisy_value": 11, "epsilon": 0.1}), 11, 0.1, 11)
    assert checks.check_answer(json.dumps({"noisy_value": 12.5}), 12.5, 0.1, 11)
    assert checks.check_estimate(-0.5, 10) and checks.check_estimate(10.5, 10)
    assert checks.check_estimate(3.0, 10) == []


def test_sweep_csv_check_rejects_bad_rows():
    from dpbayes import SweepConfig, run_sweep, write_csv
    import io

    cells = [(100, 0.3, 0.5), (100, 0.3, 2.0)]
    stream = io.StringIO()
    write_csv(run_sweep(SweepConfig((100,), (0.3,), (0.5, 2.0), runs=50, seed=9)), stream)
    text = stream.getvalue()
    assert checks.check_sweep_csv(text, cells, 50, 9) == []
    lines = text.splitlines(keepends=True)
    assert len(checks.check_sweep_csv("".join(lines[:2]), cells, 50, 9)) == 1
    assert len(checks.check_sweep_csv("x" + text, cells, 50, 9)) == 2
    assert checks.check_sweep_csv(text.replace(",50,9", ",50,8"), cells, 50, 9)
    fields = lines[1].split(",")
    fields[6] = "101.0"  # avg_err_bayes above n
    assert checks.check_sweep_csv(lines[0] + ",".join(fields) + lines[2], cells, 50, 9)
    fields = lines[1].split(",")
    fields[4] = "nan"
    assert checks.check_sweep_csv(lines[0] + ",".join(fields) + lines[2], cells, 50, 9)


def test_refuses_without_sources():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("query-n20k", 0, cwd=bare)
        assert out.returncode != 0 and out.stdout == "", (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
