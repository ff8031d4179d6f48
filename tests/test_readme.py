"""The README's command-line and library examples run as written, and print what it records."""

from __future__ import annotations

import hashlib
import platform
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dpbayes.cli import main
from dpbayes.simulation import CSV_HEADER

from conftest import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def readme_commands() -> list:
    """The ``dpbayes ...`` lines of the first ``sh`` block under "Command line"."""
    lines = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dpbayes ")]


def write_people(directory: Path) -> None:
    cities = ["Rome", "Milan", "Naples", "Turin"]
    rows = "".join(f"{cities[i % 4]},{20 + i % 50}\n" for i in range(200))
    (directory / "people.csv").write_text("city,age\n" + rows)


def test_readme_has_commands():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"query", "analyze", "sweep"}


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    write_people(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, f"{argv}: {err}"


def test_readme_library_block_runs(tmp_path, monkeypatch):
    write_people(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library", "python"), str(README), "exec"), {})


def test_readme_csv_schema_is_the_header():
    # CSV_HEADER is CellResult's fields, so README's block is what pins the columns.
    assert readme_block("CSV schema", "").strip() == ",".join(CSV_HEADER)


# A timing or peak-memory figure, such as "0.6-1.0 ms", "2.13 µs" or "48 MB".
FIGURE = re.compile(r"\d(?:[\d.]*\d)?\s?(?:[µμ]s|ms|s|MB|GB)\b")


def readme_statements() -> list:
    """README's sentences and list items outside code blocks, each joined onto one line."""
    prose = re.sub(r"^ *```.*?^ *```", "", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    items = re.split(r"\n\s*\n|\n(?= *- )", prose)
    return [sentence for item in items
            for sentence in re.split(r"(?<=[.!?])\s+(?=[A-Z`(])", " ".join(item.split()))]


def test_readme_figures_name_their_source():
    # A figure measured once goes stale unless a committed BENCH_*.json keeps
    # its measurement or a tier-1 test checks it, so each names one of those.
    root = README.parent
    tests = "".join(path.read_text() for path in (root / "tests").glob("test_*.py"))
    assert FIGURE.search("grows peak RSS by about 2 MB, in 0.50-0.66 s")
    unsourced = [
        statement for statement in readme_statements() if FIGURE.search(statement)
        and not any((root / name).is_file() for name in re.findall(r"BENCH_\w+\.json", statement))
        and not any(f"def {name}(" in tests for name in re.findall(r"\b(test_\w+)", statement))
    ]
    assert unsourced == []


def readme_sweep_digests() -> list:
    """``(name, argv, sha256, sha256 without AVX-512)`` per row of README's digest table."""
    section = README.read_text().split("## Reproducibility", 1)[1]
    rows = re.findall(
        r"^ *\| ([\w-]+) \| `dpbayes (sweep[^`]*)` \| `([0-9a-f]{64})` \| `([0-9a-f]{64})` \|$",
        section, re.MULTILINE)
    return [(name, shlex.split(command), *digests) for name, command, *digests in rows]


def test_readme_records_four_sweep_digests():
    assert [name for name, *_ in readme_sweep_digests()] == [
        "default-grid", "seed-0", "seed-31337", "cell-n10k",
    ]


# The noise goes through numpy's log1p and the posterior means through its
# log and exp, so the bytes are pinned only where README says they hold.
pinned_build = pytest.mark.skipif(
    np.__version__ != "2.4.6" or platform.machine() not in ("x86_64", "AMD64"),
    reason="README's pinned outputs hold for numpy 2.4.6 on x86-64",
)


@pinned_build
@pytest.mark.parametrize("argv, digest", [
    pytest.param(argv, digest, id=name) for name, argv, digest, _ in readme_sweep_digests()
])
def test_readme_sweep_hashes(argv, digest, tmp_path, capsys):
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__["X86_V4"]:
        pytest.skip("README's first digest column holds where numpy dispatches AVX-512")
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pinned_build
@pytest.mark.parametrize("argv, digest", [
    pytest.param(argv, digest, id=name) for name, argv, _, digest in readme_sweep_digests()
])
def test_readme_sweep_hashes_without_avx512(argv, digest, tmp_path):
    # On a CPU without AVX-512 the variable changes nothing, so this column
    # is checked everywhere.
    out = tmp_path / "sweep.csv"
    child = subprocess.run(
        [sys.executable, "-m", "dpbayes.cli", *argv, "--out", str(out)],
        env={**child_env(), "NPY_DISABLE_CPU_FEATURES": "X86_V4"},
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pinned_build
def test_readme_seeded_query_lines(tmp_path, monkeypatch, capsys):
    (tmp_path / "people.csv").write_text("city\nRome\nOslo\nRome\n")
    monkeypatch.chdir(tmp_path)
    program, *argv = shlex.split(readme_block("Reproducibility", "sh"))
    assert (program, argv[0]) == ("dpbayes", "query")
    assert main(argv) == 0
    assert capsys.readouterr().out == textwrap.dedent(readme_block("Reproducibility", "text"))
