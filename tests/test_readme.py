"""The README's command-line examples run as written."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

import dpbayes.cli as cli_module
from dpbayes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The ``dpbayes ...`` lines of the first ``sh`` block under "Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dpbayes ")]


def test_readme_has_commands():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"query", "analyze", "sweep"}


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    cities = ["Rome", "Milan", "Naples", "Turin"]
    rows = "".join(f"{cities[i % 4]},{20 + i % 50}\n" for i in range(200))
    (tmp_path / "people.csv").write_text("city,age\n" + rows)
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"n_values": [50], "p_values": [0.3], "epsilon_values": [0.5, 1.0], "runs": 200}
    ))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli_module.SEED_ENV_VAR, raising=False)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0, f"{argv}: {err}"
