"""Peak-memory probe: run a snippet in a fresh interpreter and report its VmHWM growth."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

_PROBE = (
    "def peak_kib():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return int(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
    "before = peak_kib()\n"
    "{body}"
    "print(peak_kib() - before)\n"
)


def peak_growth_mb(body: str, *argv: str, setup: str = "") -> float:
    """Growth of VmHWM in MB while ``body`` runs, after ``setup``, in a new interpreter.

    VmHWM, unlike ru_maxrss, does not inherit the peak of the process that
    started the child.  ``argv`` reaches the child as ``sys.argv[1:]``.
    Skips the calling test where ``/proc/self/status`` does not exist.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    code = setup + _PROBE.format(body=body)
    child = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                           check=True, timeout=120)
    return int(child.stdout) / 1024
