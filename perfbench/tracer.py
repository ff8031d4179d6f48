"""Layer timing from outside the package.

Each layer's public functions are replaced, under the names their callers
look them up by (``dpbayes.simulation.sample_true_count``, not
``dpbayes.prior.sample_true_count``), with a wrapper that records calls,
time and self time (time not covered by wrapped callees).  Calls made once
per cell or per query also get a span; calls made once per Monte Carlo run
only add to the aggregates, so the trace stays bounded whatever the run
count.  The benchmark's own pass and query functions get spans too, as
roots that group the layer spans of one pass or query; they are not layers,
so their self time stays unattributed.  ``uninstall`` restores the
originals, so untraced passes run the package's own functions.
"""

from __future__ import annotations

import importlib
import json
import time


def _stream_key(tracer, args, kwargs, result):
    seed = kwargs.get("seed", args[0] if args else None)
    index = kwargs.get("run_index", args[1] if len(args) > 1 else None)
    tracer.stream_keys.add((seed, index))


def _uniforms(tracer, args, kwargs, result):
    tracer.add("prior.uniforms_drawn", (kwargs.get("prior") or args[0]).n)


def _posterior_rows(tracer, args, kwargs, result):
    prior = kwargs.get("prior") or args[0]
    rows = len(kwargs["ys"] if "ys" in kwargs else args[2])
    tracer.add("estimators.bayes_estimate_batch.rows", rows)
    tracer.add("estimators.posterior_cells", rows * (prior.n + 1))


def _records_scanned(tracer, args, kwargs, result):
    tracer.add("querydb.records_scanned", (kwargs.get("db") or args[0]).size)


def _records_loaded(tracer, args, kwargs, result):
    tracer.add("querydb.records_loaded", result.size)


# (module, attribute path under it, layer metric name, span per call, counter)
TARGETS = (
    ("dpbayes.cli", "main", "cli.main", True, None),
    ("dpbayes.cli", "run_sweep", "simulation.run_sweep", True, None),
    ("dpbayes.cli", "write_csv", "simulation.write_csv", True, None),
    ("dpbayes.simulation", "run_cell", "simulation.run_cell", True, None),
    ("dpbayes.simulation", "run_stream", "simulation.run_stream", False, _stream_key),
    ("dpbayes.simulation", "sample_true_count", "prior.sample_true_count", False, _uniforms),
    ("dpbayes.simulation", "sample_noise", "mechanism.sample_noise", False, None),
    ("dpbayes.simulation", "bayes_estimate_batch", "estimators.bayes_estimate_batch", True,
     _posterior_rows),
    ("dpbayes.querydb", "load_records", "querydb.load_records", True, _records_loaded),
    ("dpbayes.querydb", "Predicate.parse", "querydb.Predicate.parse", True, None),
    ("dpbayes.querydb", "noisy_count_query", "querydb.noisy_count_query", True, None),
    ("dpbayes.querydb", "count_query", "querydb.count_query", False, _records_scanned),
    ("dpbayes.querydb", "sample_noise", "mechanism.sample_noise", False, None),
    ("dpbayes.querydb", "public_answer", "querydb.public_answer", True, None),
    ("dpbayes.estimators", "bayes_estimate", "estimators.bayes_estimate", True, None),
)

# Benchmark-side spans (workload attribute, span name): the root of each pass,
# and of each query, so that the layer spans of one query share a parent.
BENCH_TARGETS = (("run_pass", "bench.pass"), ("_query", "bench.query"))

_MISSING = object()


class Tracer:
    """Aggregates per layer function, counters, and spans for the calls that get one."""

    def __init__(self):
        self._installed = []
        self._stack = []
        self._next_id = 0
        self.spans = []
        self.reset()

    def reset(self):
        """Start a new pass: zero the aggregates and counters; spans are kept."""
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.counters = {}
        self.stream_keys = set()

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def install(self, workload) -> None:
        for module_name, path, name, span, count in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, span, count, layer=True)
        for attr, name in BENCH_TARGETS:
            self._patch(workload, attr, name, True, None, layer=False)

    def _patch(self, owner, attr, name, span, count, layer) -> None:
        # A later version of the package may no longer call this name.
        if not hasattr(owner, attr):
            return
        self._installed.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), span, count, layer))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def write_spans(self, path: str) -> None:
        """One JSON line per span, times in seconds from the first span's start."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start_s": start - origin, "end_s": end - origin}) + "\n")

    def _enter(self):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, 0.0]  # span id, time covered by wrapped callees
        self._stack.append(frame)
        return parent, frame

    def _leave(self, parent, frame, name, start, end, span, layer):
        self._stack.pop()
        elapsed = end - start
        if parent is not None:
            parent[1] += elapsed
        if layer:
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += elapsed
            total[2] += elapsed - frame[1]
        if span:
            self.spans.append((frame[0], parent[0] if parent else None, name, start, end))

    def _wrap(self, name, fn, span, count, layer):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, frame = self._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(parent, frame, name, start, clock(), span, layer)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_self_seconds(self) -> float:
        return sum(total[2] for total in self.totals.values())

    def metric(self, name: str, field: str) -> float:
        """``field`` is ``calls``, ``s`` or ``self_s`` of one wrapped layer function."""
        total = self.totals.get(name, [0, 0.0, 0.0])
        return total[("calls", "s", "self_s").index(field)]
