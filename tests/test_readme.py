"""The README's command-line and library examples run as written."""

from __future__ import annotations

import hashlib
import io
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dpbayes import SweepConfig, run_sweep, write_csv
from dpbayes.cli import main
from dpbayes.simulation import CSV_HEADER

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


@pytest.mark.skipif(
    np.__version__ != "2.4.6" or platform.machine() not in ("x86_64", "AMD64"),
    reason="README's hashes hold for numpy 2.4.6 on x86-64",
)
@pytest.mark.parametrize("seed, digest", [
    (0, "23680d6067db367f5f19090ab79150bcffde21a58862533b3822200434e64e35"),
    (31337, "bdad3d1165faccf136c616326e89bb9964d22236d620d99c813404257a187370"),
], ids=["seed-0", "seed-31337"])
def test_readme_sweep_hashes(seed, digest):
    # The posterior means go through numpy's log and exp, so the bytes are
    # pinned only where README says they hold.
    buffer = io.StringIO()
    write_csv(run_sweep(SweepConfig(runs=2000, seed=seed)), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest
    assert f"`{digest[:8]}…{digest[-4:]}`" in README.read_text()
