"""Smoke test of scripts/run_studies.py on a tiny run count."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from dpbayes.simulation import CSV_HEADER

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_studies.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_studies", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_grid_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load_script().main(["--runs", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 84
    printed = capsys.readouterr().out
    assert "wrote 84 rows" in printed
    assert "match-probability sweep" in printed


def test_bad_settings_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load_script().main(["--runs", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: runs")
    assert captured.out == ""
    assert not out.exists()


def test_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    # The path is checked before the sweep runs, and nothing is created.
    out = tmp_path / "missing" / "sweep.csv"
    script = load_script()
    monkeypatch.setattr(script, "run_sweep", lambda config: pytest.fail("sweep ran"))
    assert script.main(["--runs", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == []
