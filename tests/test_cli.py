"""Command-line behaviour: exit codes, output formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import dpbayes.cli as cli_module
import dpbayes.querydb as querydb_module
from dpbayes import sample_noise
from dpbayes.cli import main
from dpbayes.simulation import CSV_HEADER, SweepConfig

from conftest import child_env

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


# An integer that no float can hold: float() of it raises OverflowError.
BEYOND_FLOAT = str(10**400)


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

    def test_environment_never_seeds(self, capsys, monkeypatch):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "60")
        monkeypatch.setenv("DPBAYES_SEED", "4")
        _, from_env, _ = run_cli(capsys, *argv)
        monkeypatch.delenv("DPBAYES_SEED")
        _, from_default, _ = run_cli(capsys, *argv, "--seed", "0")
        assert from_env == from_default

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ((), SweepConfig()),
            (("--n", "100", "--p", "0.3", "--eps", "0.5", "--runs", "60", "--seed", "4"),
             SweepConfig((100,), (0.3,), (0.5,), 60, 4)),
        ],
        ids=["defaults", "every-flag"],
    )
    def test_each_flag_lands_in_its_field(self, capsys, monkeypatch, argv, expected):
        configs = []

        def spy(config):
            configs.append(config)
            return ()

        monkeypatch.setattr(cli_module, "run_sweep", spy)
        assert run_cli(capsys, "sweep", *argv)[0] == 0
        assert configs == [expected]

    @pytest.mark.parametrize(
        "flag, value",
        [("--runs", "60.0"), ("--seed", "2.9"), ("--n", "100.0"), ("--n", "true"),
         ("--p", "0.3x")],
    )
    def test_non_numeric_flag_values_are_usage_errors(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        code, out, _ = run_cli(capsys, "sweep", flag, value)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 4)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        argv = ("sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50")
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert (code, out) == (2, "")
        assert "seed" in err

    def test_bad_grid_value_is_usage_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "1.5", "--eps", "1.0", "--runs", "50"
        )
        assert (code, out) == (2, "")

    def test_epsilon_n_above_the_bound_is_usage_error(self, capsys, monkeypatch):
        # epsilon * n = 1e11 > 2**33: refused before any cell runs.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        code, out, err = run_cli(
            capsys, "sweep", "--n", "10", "1000", "--p", "0.3", "--eps", "1.0", "1e8",
            "--runs", "50",
        )
        assert (code, out) == (2, "")
        assert "2**33" in err

    def test_epsilon_whose_error_sums_overflow_exits_2_before_the_sweep(self, capsys,
                                                                      monkeypatch):
        # At 10**5 runs, epsilon 2e-152 used to write se_naive = inf and exit 0.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        code, out, err = run_cli(capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "2e-152")
        assert (code, out) == (2, "")
        assert err == ("error: epsilon 2e-152 is too small for 100000 runs: "
                       "the sums of squared errors would overflow\n")

    @pytest.mark.parametrize(
        "argv",
        [("--n", BEYOND_FLOAT, "--eps", "0.1", "--runs", "10"), ("--runs", BEYOND_FLOAT)],
        ids=["n", "runs"],
    )
    def test_integer_beyond_the_float_range_is_usage_error(self, capsys, monkeypatch, argv):
        # Such an n used to escape as OverflowError (exit 1), and such runs
        # were refused as too many for the smallest epsilon.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out) == (2, "")
        assert "within the float range" in err and BEYOND_FLOAT in err

    @pytest.mark.parametrize("target", ["missing/sweep.csv", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_is_usage_error_before_the_sweep(self, capsys, monkeypatch, tmp_path,
                                                          target):
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        out_file = tmp_path / target
        code, out, err = run_cli(capsys, "sweep", "--runs", "50", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write")
        assert sorted(tmp_path.iterdir()) == []

    def test_empty_out_is_usage_error_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        # "" does not exist and its dirname falls back to the current directory.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: pytest.fail("sweep ran"))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "sweep", "--runs", "50", "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write ''")
        assert sorted(tmp_path.iterdir()) == []

    def test_out_may_be_dev_null(self, capsys, monkeypatch):
        # /dev/null sits in a directory that only root may write.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: ())
        assert run_cli(capsys, "sweep", "--runs", "50", "--out", os.devnull) == (0, "", "")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write in a read-only directory")
    def test_existing_file_in_a_read_only_directory_is_written(self, capsys, monkeypatch,
                                                               tmp_path):
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: ())
        out_file = tmp_path / "sweep.csv"
        out_file.write_text("old\n")
        tmp_path.chmod(0o555)
        try:
            code = run_cli(capsys, "sweep", "--runs", "50", "--out", str(out_file))[0]
        finally:
            tmp_path.chmod(0o755)
        assert code == 0
        assert out_file.read_text().splitlines() == [",".join(CSV_HEADER)]

    def test_existing_file_is_checked_not_its_directory(self, capsys, monkeypatch, tmp_path):
        # The directory reads as read-only to os.access, whoever runs the test.
        monkeypatch.setattr(cli_module, "run_sweep", lambda config: ())
        out_file = tmp_path / "sweep.csv"
        out_file.write_text("old\n")
        access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: os.fspath(path) != str(tmp_path) and access(path, mode)
        )
        assert run_cli(capsys, "sweep", "--runs", "50", "--out", str(out_file))[0] == 0
        assert out_file.read_text().splitlines() == [",".join(CSV_HEADER)]

    @pytest.mark.parametrize(
        "error", [RuntimeError("disk on fire"),
                  FloatingPointError("posterior normalisation degenerated at row 3")],
        ids=["unexpected", "failing-cell"],
    )
    def test_unexpected_error_exits_one(self, capsys, monkeypatch, tmp_path, error):
        def explode(config):
            raise error

        monkeypatch.setattr(cli_module, "run_sweep", explode)
        out_file = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--n", "100", "--p", "0.3", "--eps", "1.0", "--runs", "50",
            "--out", str(out_file),
        )
        assert code == 1
        assert err == f"error: {error}\n"
        assert out == ""
        assert not out_file.exists()


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

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, median_noise):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark; read as part
        # of the first header, it would make every count on that field 0.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + DATA.encode())
        code, out, _ = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["noisy_value"] == 4.0

    def test_deterministic_given_seed(self, capsys, data_file):
        argv = ("query", "--data", data_file, "--where", "city equals Rome",
                "--eps", "0.1", "--seed", "7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert json.loads(first.splitlines()[0])["noisy_value"] != 4.0

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
            "--eps", "0.1", "--seed", "2", "--p", "0.4", "--n-known", "10",
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
            "--eps", "0.1", "--p", "0.04", "--n-known", "100",
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

    @pytest.mark.parametrize(
        "content, where, count",
        [
            (DATA, "city equals Rome", 4),
            (DATA.replace("\n", "\r\n"), "city equals Rome", 4),
            (DATA.replace("\n", "\r"), "city equals Rome", 4),
            # The UTF-8 bytes of \u00c5 end in 0x85, a line break (NEL) in latin-1.
            ("city\n\u00c5land\nS\u00e3o\n\u00c5land\n", "city equals \u00c5land", 2),
            ("city\na\u2028b\nRome\n", "city equals a\u2028b", 1),
        ],
        ids=["lf", "crlf", "cr", "nel-byte", "line-separator"],
    )
    def test_rows_are_read_as_written(self, capsys, tmp_path, median_noise, content, where, count):
        path = tmp_path / "rows.csv"
        path.write_bytes(content.encode())
        code, out, _ = run_cli(capsys, "query", "--data", str(path), "--where", where, "--eps", "0.1")
        assert code == 0
        assert json.loads(out.splitlines()[0])["noisy_value"] == count

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

    def test_n_known_without_p_is_usage_error(self, capsys, data_file):
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--n-known", "50",
        )
        assert (code, out) == (2, "")
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
            ("--p", "1.5"),
            ("--p", "0.3", "--n-known", "0"),
            ("--n-known", "50"),
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

    @pytest.mark.parametrize(
        "extra",
        [
            ("--eps", "5e-324"),
            ("--eps", "1e-308"),
            ("--eps", "1e9", "--p", "0.3", "--n-known", "10"),  # epsilon * n = 1e10 > 2**33
            ("--eps", "1e8", "--p", "0.3", "--n-known", "1000"),
        ],
    )
    def test_epsilon_out_of_bounds_releases_nothing(self, capsys, data_file, monkeypatch, extra):
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--seed", "3", *extra,
        )
        assert (code, out, calls) == (2, "", [])
        assert "error:" in err

    def test_n_known_beyond_the_float_range_releases_nothing(self, capsys, data_file, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--seed", "3", "--p", "0.3", "--n-known", BEYOND_FLOAT,
        )
        assert (code, out, calls) == (2, "", [])
        assert "within the float range" in err and BEYOND_FLOAT in err

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

    def test_empty_header_releases_nothing(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "blank.csv"
        path.write_text("\ncity\nRome\n")
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, out, calls) == (2, "", [])
        assert err == "error: row 1: empty header\n"

    def test_data_not_in_utf8_releases_nothing(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "latin1.csv"
        path.write_bytes("city\nRome\nS\u00e3o Paulo\n".encode("latin-1"))
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, out, calls) == (2, "", [])
        assert "utf-8" in err

    def test_decode_error_names_its_row(self, capsys, tmp_path, monkeypatch):
        # The bad byte sits 25 006 bytes in, past the text layer's 8 KB read-ahead.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"city\n" + b"Rome\n" * 5000 + "S\u00e3o Paulo\n".encode("latin-1"))
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: row 5002: 'utf-8' codec")

    def test_oversized_field_names_its_row_and_releases_nothing(self, capsys, tmp_path,
                                                                 monkeypatch):
        # csv's default field limit is 131 072 characters; the limit is not raised.
        path = tmp_path / "wide.csv"
        path.write_text("city\nRome\n" + "x" * 200_000 + "\nRome\n")
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: row 3: field larger than field limit")

    def test_nul_byte_is_never_a_runtime_failure(self, capsys, tmp_path):
        # Python 3.10's csv refuses the byte (exit 2, naming row 3); later ones read it.
        path = tmp_path / "nul.csv"
        path.write_text("city\nRome\nRo\x00me\nRome\n")
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "city equals Rome", "--eps", "0.1"
        )
        assert code in (0, 2), err
        if code == 2:
            assert out == ""
            assert err.startswith("error: row 3: ")
        else:
            assert list(json.loads(out)) == ["noisy_value", "epsilon"]

    def test_p_without_n_known_releases_nothing(self, capsys, tmp_path, monkeypatch):
        # Every row matches, so a size read from the table would be the true count.
        path = tmp_path / "members.csv"
        path.write_text("member\n" + "yes\n" * 1337 + "no\n" * 666)
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--where", "member not-equals zzz",
            "--eps", "0.1", "--p", "0.5",
        )
        assert (code, out, calls) == (2, "", [])
        assert "--n-known" in err and "2003" not in err

    @pytest.mark.parametrize(
        "extra",
        [
            ("--eps", "0.1", "--seed", "-1"),
            ("--eps", "0.1", "--p", "0.3"),
            ("--eps", "0.1", "--n-known", "10"),
            ("--eps", "1e9", "--p", "0.3", "--n-known", "10"),
        ],
        ids=["seed", "lone-p", "lone-n-known", "epsilon-n"],
    )
    def test_flags_are_checked_before_the_data_is_read(self, capsys, tmp_path, extra):
        code, out, err = run_cli(
            capsys, "query", "--data", str(tmp_path / "absent.csv"),
            "--where", "city equals Rome", *extra,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "absent.csv" not in err

    @pytest.mark.parametrize("seed", [str(2**64), "-1"], ids=lambda seed: f"flag-{seed}")
    def test_seed_outside_64_bits_releases_nothing(self, capsys, data_file, monkeypatch, seed):
        calls = []
        monkeypatch.setattr(cli_module, "noisy_count_query", lambda *args: calls.append(args))
        argv = ["query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1",
                "--seed", seed]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, calls) == (2, "", [])
        assert "seed" in err

    def test_seed_flag_warns(self, capsys, data_file):
        code, out, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--seed", "7",
        )
        assert code == 0 and len(out.splitlines()) == 1
        assert len(err.splitlines()) == 1
        assert "seed" in err and "subtract" in err

    def test_environment_never_seeds_a_release(self, capsys, data_file, monkeypatch):
        seeds = []
        real = cli_module.np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(cli_module.np.random, "default_rng", spy)
        monkeypatch.setenv("DPBAYES_SEED", "7")
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, err, seeds) == (0, "", [None])

    def test_unseeded_release_is_silent(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.1"
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "extra",
        [
            ("--where", "member equals yes"),
            ("--where", "member equals yes", "--p", "0.6", "--n-known", "2000"),
            # Every row matches: the table's row count is this release's true count.
            ("--where", "member not-equals zzz", "--p", "0.6", "--n-known", "2500"),
        ],
    )
    def test_output_never_carries_the_true_count(self, capsys, tmp_path, extra):
        path = tmp_path / "members.csv"
        path.write_text("member\n" + "yes\n" * 1337 + "no\n" * 666)
        code, out, err = run_cli(
            capsys, "query", "--data", str(path), "--eps", "0.1", "--seed", "11", *extra,
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + ("--p" in extra)
        # 1337 rows say yes; 2003 is the row count.
        for true_count in ("1337", "2003"):
            assert true_count not in out and true_count not in err


class TestAnalyze:
    def test_runs_as_a_module(self):
        child = subprocess.run(
            [sys.executable, "-m", "dpbayes.cli", "analyze", "--n", "4", "--eps", "1", "--a", "2"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        # exp(-2): half from each side of [0, 4].
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == "P(out of range | a=2, n=4, eps=1.0) = 0.1353353\n"

    def test_widths_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--n", "10000", "--eps", "0.1", "--p", "0.3")
        assert code == 0
        assert len(out.splitlines()) == 2
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

    def test_widths_with_bad_p_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--p", "1.5")
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_bad_size_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--n", "0", "--eps", "0.1", "--bounds")
        assert code == 2

    @pytest.mark.parametrize(
        "mode", [(), ("--bounds",), ("--p", "0.3"), ("--a", "0")],
        ids=["table", "bounds", "widths", "count"],
    )
    def test_size_beyond_the_float_range_is_usage_error(self, capsys, mode):
        # Every mode used to exit 1 with "int too large to convert to float".
        code, out, err = run_cli(capsys, "analyze", "--n", BEYOND_FLOAT, "--eps", "0.1", *mode)
        assert (code, out) == (2, "")
        assert "within the float range" in err and BEYOND_FLOAT in err

    def test_out_of_range_count_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--a", "101")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # A bad n under the default table; a bad a after the width
            # lines, then after the bound lines.
            ("--n", "0", "--eps", "1"),
            ("--n", "4", "--eps", "1", "--p", "0.5", "--a", "9"),
            ("--n", "4", "--eps", "1", "--bounds", "--a", "9"),
        ],
    )
    def test_usage_error_prints_no_report(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "sweep", "--bogus")[0] == 2

    def test_removed_flags_are_usage_errors(self, capsys, data_file, tmp_path):
        assert run_cli(capsys, "sweep", "--runs", "5", "--shards", "2")[0] == 2
        config = tmp_path / "sweep.json"
        config.write_text("{}")
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "10", "--p", "0.3", "--eps", "1.0", "--runs", "5",
            "--config", str(config),
        )
        assert (code, out) == (2, "")
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--noise-hook", "median",
        )
        assert (code, out) == (2, "")
        code, out, _ = run_cli(
            capsys, "query", "--data", data_file, "--where", "city equals Rome",
            "--eps", "0.1", "--estimate", "--p", "0.3",
        )
        assert (code, out) == (2, "")
        code, out, _ = run_cli(capsys, "analyze", "--n", "100", "--eps", "0.1", "--widths")
        assert (code, out) == (2, "")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


class TestParserReuse:
    """``main`` builds one parser per process and no call leaves state in it."""

    def test_one_parser_per_process(self):
        assert cli_module.build_parser() is cli_module.build_parser()

    def test_each_call_prints_what_a_fresh_process_prints(self, capsys, monkeypatch, data_file):
        # Usage lines wrap at the terminal width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ("sweep", "--n", "5", "--p", "0.3", "--eps", "1", "--runs", "3"),
            # --p must not carry over: the seven default match probabilities.
            ("sweep", "--n", "5", "--eps", "1", "--runs", "3"),
            ("sweep", "--n", "5", "--bogus"),
            ("analyze", "--n", "100", "--eps", "0.1", "--a", "50"),
            ("query", "--data", data_file, "--where", "city equals Rome", "--eps", "0.5",
             "--seed", "7", "--p", "0.3", "--n-known", "10"),
        ]
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert len(in_process[1][1].splitlines()) == 1 + len(SweepConfig.p_values)
        assert in_process[2][0] == 2
        code = "import sys; from dpbayes.cli import main; sys.exit(main())"
        children = [subprocess.Popen([sys.executable, "-c", code, *argv], env=child_env(),
                                     text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                    for argv in calls]
        for argv, got, child in zip(calls, in_process, children):
            out, err = child.communicate(timeout=60)
            assert got == (child.returncode, out, err), argv
