"""The README's command-line and library examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from dpbayes.cli import main

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
