"""Command-line behaviour: exit codes, output formats, seed resolution."""

from __future__ import annotations

import json

import pytest

import dpbayes.cli as cli_module
import dpbayes.querydb as querydb_module
from dpbayes import sample_noise
from dpbayes.cli import main
from dpbayes.simulation import CSV_HEADER, SweepResult

DATA = (
    "city,age,plan\n"
    "Rome,30,basic\n"
    "Milan,40,plus\n"
    "Rome,25,plus\n"
    "Naples,50,basic\n"
    "Rome,61,basic\n"
    "Turin,33,plus\n"
    "Milan,47,basic\n"
    "Genoa,29,plus\n"
    "Rome,38,plus\n"
    "Bari,55,basic\n"
)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(DATA)
    return str(path)


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv(cli_module.SEED_ENV_VAR, raising=False)


class MedianStream:
    """Every uniform is 0.5, so every Laplace draw is exactly 0."""

    def random(self):
        return 0.5


@pytest.fixture
def median_noise(monkeypatch):
    """Make the query path's noise draws see the median uniform."""
    monkeypatch.setattr(
        querydb_module, "sample_noise", lambda level, rng: sample_noise(level, MedianStream())
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_writes_csv_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "0.5", "1.0",
            "--runs", "50", "--seed", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_writes_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0",
            "--runs", "50", "--seed", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2

    def test_deterministic_output(self, capsys):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "60", "--seed", "4")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "60")
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, "4")
        _, from_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv(cli_module.SEED_ENV_VAR)
        _, from_default, _ = run_cli(capsys, *argv, "--seed", "4")
        assert from_env == from_default

    def test_flag_beats_env(self, capsys, monkeypatch):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "60")
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, "1")
        _, with_flag, _ = run_cli(capsys, *argv, "--seed", "4")
        monkeypatch.delenv(cli_module.SEED_ENV_VAR)
        _, reference, _ = run_cli(capsys, *argv, "--seed", "4")
        assert with_flag == reference

    def test_config_file_supplies_settings(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            '{"n_values": [100], "p_values": [0.3], "epsilon_values": [1.0],'
            ' "runs": 60, "seed": 4}'
        )
        _, from_file, _ = run_cli(capsys, "sweep", "--config", str(config))
        _, from_flags, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0",
            "--runs", "60", "--seed", "4",
        )
        assert from_file == from_flags

    def test_flags_beat_config_file(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            '{"n_values": [100], "p_values": [0.3], "epsilon_values": [1.0],'
            ' "runs": 60, "seed": 1}'
        )
        _, overridden, _ = run_cli(capsys, "sweep", "--config", str(config), "--seed", "4")
        _, reference, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0",
            "--runs", "60", "--seed", "4",
        )
        assert overridden == reference

    def test_bad_config_file_is_usage_error(self, capsys, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert run_cli(capsys, "sweep", "--config", str(bad_json))[0] == 2
        unknown_key = tmp_path / "unknown.json"
        unknown_key.write_text('{"bogus": 1}')
        code, _, err = run_cli(capsys, "sweep", "--config", str(unknown_key))
        assert code == 2
        assert "bogus" in err
        scalar_grid = tmp_path / "scalar.json"
        scalar_grid.write_text('{"n_values": 100}')
        assert run_cli(capsys, "sweep", "--config", str(scalar_grid))[0] == 2
        assert run_cli(capsys, "sweep", "--config", str(tmp_path / "absent.json"))[0] == 2

    @pytest.mark.parametrize(
        "key, value",
        [("runs", True), ("runs", 60.0), ("seed", 2.9), ("seed", False),
         ("n_values", [True]), ("n_values", [100.0])],
    )
    def test_non_integer_config_values_are_usage_errors(self, capsys, tmp_path, key, value):
        settings = {"n_values": [100], "p_values": [0.3], "epsilon_values": [1.0],
                    "runs": 60, "seed": 4}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({**settings, key: value}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out) == (2, "")
        assert key in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 4)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, monkeypatch, seed):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50")
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert (code, out) == (2, "")
        assert "seed" in err
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, seed)
        assert run_cli(capsys, *argv)[0] == 2

    def test_bad_grid_value_is_usage_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "1.5", "--eps", "1.0", "--runs", "50"
        )
        assert (code, out) == (2, "")

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50"
        )
        assert code == 2
        assert "DPBAYES_SEED" in err

    def test_failing_cell_exits_one(self, capsys, monkeypatch):
        def fake_run_sweep(config):
            from dpbayes.simulation import CellFailure

            return SweepResult(
                config=config,
                cells=(),
                failures=(CellFailure(n=100, p=0.3, epsilon=1.0, message="boom at row 3"),),
            )

        monkeypatch.setattr(cli_module, "run_sweep", fake_run_sweep)
        code, out, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50"
        )
        assert code == 1
        assert "cell failed" in err
        assert "boom at row 3" in err

    def test_unexpected_error_exits_one(self, capsys, monkeypatch):
        def explode(config):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli_module, "run_sweep", explode)
        code, _, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50"
        )
        assert code == 1
        assert "disk on fire" in err


class TestQuery:
    def test_median_hook_returns_true_count(self, capsys, data_file, median_noise):
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1"
        )
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert set(payload) == {"noisy_value", "epsilon"}
        assert payload["noisy_value"] == 4.0
        assert payload["epsilon"] == 0.1

    def test_deterministic_given_seed(self, capsys, data_file):
        argv = ("query", "--data", data_file, "--where", "city equals Rome",
                "--eps", "0.1", "--seed", "7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert json.loads(first.splitlines()[0])["noisy_value"] != 4.0

    def test_env_seed_fallback(self, capsys, data_file, monkeypatch):
        argv = ("query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1")
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, "7")
        _, from_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv(cli_module.SEED_ENV_VAR)
        _, from_flag, _ = run_cli(capsys, *argv, "--seed", "7")
        assert from_env == from_flag

    def test_unknown_field_still_answers(self, capsys, data_file, median_noise):
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "region equals north", "--eps", "0.1"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["noisy_value"] == 0.0

    def test_estimate_stays_in_range(self, capsys, data_file):
        # Seed chosen so the noisy value is negative; the correction is not.
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--seed", "2", "--estimate", "--p", "0.4",
        )
        assert code == 0
        first, second = out.splitlines()[:2]
        noisy = json.loads(first)["noisy_value"]
        payload = json.loads(second)
        assert noisy < 0.0
        assert 0.0 <= payload["bayes_estimate"] <= payload["n"]
        assert payload["n"] == 10
        assert payload["p"] == 0.4

    def test_estimate_with_known_size(self, capsys, data_file, median_noise):
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--estimate", "--p", "0.04", "--n-known", "100",
        )
        assert code == 0
        payload = json.loads(out.splitlines()[1])
        assert payload["n"] == 100
        assert 0.0 <= payload["bayes_estimate"] <= 100.0

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "query", "--data", str(tmp_path / "nope.csv"),
            "--where", "city equals Rome", "--eps", "0.1",
        )
        assert code == 2
        assert "error:" in err

    def test_bad_predicate_is_usage_error(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city like Rome", "--eps", "0.1"
        )
        assert code == 2
        assert "error:" in err

    def test_bad_epsilon_is_usage_error(self, capsys, data_file):
        code, _, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "-1"
        )
        assert code == 2

    def test_estimate_without_p_is_usage_error(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--estimate",
        )
        assert code == 2
        assert "--p" in err

    def test_malformed_data_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2,3\n")
        code, _, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "a equals 1", "--eps", "0.1"
        )
        assert code == 2
        assert "row 2" in err


class TestQueryReleasePath:
    @pytest.mark.parametrize(
        "extra",
        [
            ("--estimate",),
            ("--estimate", "--p", "1.5"),
            ("--estimate", "--p", "0.3", "--n-known", "0"),
        ],
    )
    def test_usage_error_releases_nothing(self, capsys, data_file, monkeypatch, extra):
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--seed", "3", *extra,
        )
        assert (code, out, calls) == (2, "", [])
        assert "error:" in err

    def test_duplicate_header_releases_nothing(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "twice.csv"
        path.write_text("city,plan,city\nRome,basic,Milan\n")
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, out, calls) == (2, "", [])
        assert "row 1" in err and "'city'" in err

    def test_seed_flag_warns(self, capsys, data_file):
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--seed", "7",
        )
        assert code == 0 and len(out.splitlines()) == 1
        assert len(err.splitlines()) == 1
        assert "seed" in err and "subtract" in err

    def test_seed_env_warns(self, capsys, data_file, monkeypatch):
        monkeypatch.setenv(cli_module.SEED_ENV_VAR, "7")
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1"
        )
        assert code == 0
        assert len(err.splitlines()) == 1
        assert "seed" in err and "subtract" in err

    def test_unseeded_release_is_silent(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("extra", [(), ("--estimate", "--p", "0.6")])
    def test_output_never_carries_the_true_count(self, capsys, tmp_path, extra):
        path = tmp_path / "members.csv"
        path.write_text("member\n" + "yes\n" * 1337 + "no\n" * 666)
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "member equals yes",
            "--eps", "0.1", "--seed", "11", *extra,
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + bool(extra)
        assert "1337" not in out and "1337" not in err


class TestAnalyze:
    def test_widths_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--n", "10000", "--eps", "0.1", "--p", "0.3", "--widths"
        )
        assert code == 0
        assert "91.65" in out
        assert "28.28" in out

    def test_bounds_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--bounds")
        assert code == 0
        assert "0.5000227" in out
        assert "[0, 100]" in out
        assert "[50]" in out

    def test_bounds_report_odd_size(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "101", "--eps", "0.1", "--bounds")
        assert code == 0
        assert "[50, 51]" in out

    def test_single_count_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--a", "50")
        assert code == 0
        assert "0.006737947" in out

    def test_default_table(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,out_of_range_probability"
        assert len(lines) == 6  # header plus the five quartile counts

    def test_widths_without_p_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--widths")
        assert code == 2
        assert "--p" in err

    def test_bad_size_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--n", "0", "--eps", "0.1", "--bounds")
        assert code == 2

    def test_out_of_range_count_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--a", "101")
        assert code == 2


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "sweep", "--bogus")[0] == 2

    def test_removed_flags_are_usage_errors(self, capsys, data_file):
        assert run_cli(capsys, "sweep", "--runs", "5", "--shards", "2")[0] == 2
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--noise-hook", "median",
        )
        assert (code, out) == (2, "")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2