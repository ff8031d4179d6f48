"""The package's public names: each module's ``__all__`` owns its own."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import dpbayes

MODULES = ("estimators", "mechanism", "prior", "querydb", "simulation")

# The names the package exported before the module lists owned them; each
# must stay exported as the very object its module defines.
EXPORTED = {
    "estimators": ("bayes_estimate", "bayes_estimate_batch", "naive_estimate", "posterior"),
    "mechanism": (
        "OutOfRangeBounds", "PrivacyLevel", "calibrate", "dp_ratio_check", "laplace_density",
        "out_of_range_bounds", "out_of_range_probability", "sample_noise",
    ),
    "prior": ("BinomialPrior", "log_mass_vector", "uncertainty_widths"),
    "querydb": (
        "Predicate", "QueryResult", "RecordSet", "count_query", "load_records",
        "noisy_count_query", "public_answer",
    ),
    "simulation": (
        "CellResult", "SweepConfig", "run_sweep", "write_csv",
    ),
}


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES
             for name in importlib.import_module(f"dpbayes.{module}").__all__]
    assert len(dpbayes.__all__) == len(set(dpbayes.__all__))
    assert sorted(dpbayes.__all__) == sorted(union)


def test_exported_names_are_their_modules_objects():
    assert sum(map(len, EXPORTED.values())) == 26
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"dpbayes.{module}")
        for name in names:
            assert name in dpbayes.__all__
            assert getattr(dpbayes, name) is getattr(owner, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dpbayes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dpbayes.__all__)


def test_runtime_imports_leave_scipy_out():
    # numpy is the one runtime dependency; scipy serves the tests only.
    code = ("import sys, dpbayes, dpbayes.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpbayes.__file__)))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert child.stdout.strip() == "[]"
