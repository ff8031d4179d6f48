"""Machine-speed gauge: a fixed reference kernel timed between passes.

On a shared machine the speed of a core drifts, by up to a factor of about
two within a minute, because of load from other tenants that the benchmark
cannot see or control.  Longer runs do not average that out.  So each
workload names the kernel below that does the same kind of work it does,
the gauge times that kernel before and after every timed pass, and the
benchmark divides the pass's times by the kernel's slowness against the
reference machine: the result is the time the pass would have taken on the
machine the benchmark was defined on.  Raw times are reported alongside.
The kernels never touch the package under test.

Which kernel tracks which workload was measured, not guessed: over 200 s
of passes, scaling by the matching kernel cut the spread of 20 s window
medians from 13-16% to 3-5%, and no other kernel or blend did better.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _interpreter(records) -> None:
    """Interpreter loop, Philox set-ups and small numpy calls, like a sweep at small n."""
    acc = 0.0
    for i in range(40_000):
        acc += math.log1p(i * 1e-6)
    for i in range(800):
        gen = np.random.Generator(np.random.Philox(key=np.array([1, i], dtype=np.uint64)))
        acc += float((gen.random(100) < 0.3).sum())
    x = np.arange(50_000.0)
    for i in range(20):
        acc += float(np.exp(-np.abs(x - i)).sum())


def _objects(records) -> None:
    """Predicate scans over many small dicts, like counting queries."""
    for i in range(30):
        value = str(i % 11)
        sum(1 for record in records if record.get("b") == value)


def _large_arrays(records) -> None:
    """Elementwise passes over arrays larger than the caches, like a dense posterior."""
    x = np.arange(2_000_000.0)
    for i in range(2):
        np.exp(-np.abs(x - i)).sum()


# kind -> (kernel, its median time in seconds on the machine the benchmark
# was defined on: 2 vCPUs, Python 3.11, numpy 2.4).  Only the scale of the
# reported numbers depends on the reference times.
KERNELS = {
    "interpreter": (_interpreter, 0.027),
    "objects": (_objects, 0.026),
    "large-arrays": (_large_arrays, 0.040),
}


class Gauge:
    """Slowness readings of one kernel, taken around consecutive passes.

    Built after the workload's set-up, so its data and warm-up do not count
    as set-up time.
    """

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.records = ([{"a": str(i % 7), "b": str(i % 11), "c": str(i % 13)}
                         for i in range(20_000)] if kind == "objects" else None)
        self.slowness()  # warm-up: first calls pay for lazy set-up inside numpy
        self.last = self.slowness()
        self.readings = [self.last]

    def slowness(self) -> float:
        """Run the kernel once; return its time relative to the reference."""
        start = time.perf_counter()
        self.kernel(self.records)
        return (time.perf_counter() - start) / self.reference_s

    def scale(self) -> float:
        """Read again; return the factor for the pass since the last reading."""
        now = self.slowness()
        factor = 2.0 / (self.last + now)
        self.last = now
        self.readings.append(now)
        return factor

    def median(self) -> float:
        return statistics.median(self.readings)
