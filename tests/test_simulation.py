"""Monte Carlo harness: determinism, CSV schema, and error metrics."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

import dpbayes.simulation as simulation_module
from dpbayes import (
    BinomialPrior,
    CellResult,
    SweepConfig,
    bayes_estimate_batch,
    calibrate,
    run_cell,
    run_stream,
    run_sweep,
    sample_noise,
    write_csv,
)
from dpbayes.simulation import CSV_HEADER


class StubStream:
    """Returns one fixed uniform, as the last draw of a run's stream."""

    def __init__(self, value):
        self.value = float(value)

    def random(self):
        return self.value


class TestRunStream:
    def test_same_key_same_stream(self):
        assert run_stream(7, 3).random(4).tolist() == run_stream(7, 3).random(4).tolist()

    def test_distinct_runs_distinct_streams(self):
        a = run_stream(7, 3).random(4)
        b = run_stream(7, 4).random(4)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = run_stream(7, 3).random(4)
        b = run_stream(8, 3).random(4)
        assert not np.array_equal(a, b)

    def test_rejects_seeds_outside_64_bits(self):
        # Reducing seeds modulo 2**64 would make s and s + 2**64 alias.
        run_stream(0, 0).random()
        run_stream(2**64 - 1, 0).random()
        for seed in (-1, 2**64, 2**64 + 5, 2**70, 2.5):
            with pytest.raises(ValueError):
                run_stream(seed, 0)
        with pytest.raises(ValueError):
            run_cell(10, 0.3, 1.0, 50, 2**64 + 5)

    @pytest.mark.parametrize("seed", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_seeds(self, seed):
        with pytest.raises(ValueError):
            run_stream(seed, 0)


def reference_draws(n, p_values, runs, seed):
    """Per-run loop over ``run_stream``: the draws the sweep must reproduce."""
    true_counts = np.empty((len(p_values), runs))
    unit_noise = np.empty(runs)
    for run_index in range(runs):
        stream = run_stream(seed, run_index)
        uniforms = stream.random(n)
        true_counts[:, run_index] = [int((uniforms < p).sum()) for p in p_values]
        unit_noise[run_index] = sample_noise(calibrate(1.0), stream)
    return true_counts, unit_noise


BLOCK = simulation_module._BLOCK_DOUBLES


class TestDrawRuns:
    @pytest.mark.parametrize(
        "n, runs, seed",
        [
            (100, BLOCK // 100 - 1, 5),  # one short of a full block
            (100, BLOCK // 100, 5),  # exactly one block
            (100, BLOCK // 100 + 1, 5),  # one run into a second block
            (1, 3, 5),
            (BLOCK + 1, 3, 5),  # wider than the block budget: one run a block
            (37, 50, 2**64 - 1),
        ],
    )
    def test_matches_run_stream_loop(self, n, runs, seed):
        p_values = (0.0, 0.02, 0.3, 0.5, 0.98, 1.0)
        true_counts, unit_noise = simulation_module._draw_runs(n, p_values, runs, seed)
        expected_counts, expected_noise = reference_draws(n, p_values, runs, seed)
        assert true_counts.tobytes() == expected_counts.tobytes()
        assert unit_noise.tobytes() == expected_noise.tobytes()


class TestAnalyticNaiveError:
    @pytest.mark.parametrize("epsilon, expected", [(0.1, 10.0), (0.5, 2.0), (1.0, 1.0)])
    def test_closed_form(self, epsilon, expected):
        cell = run_cell(10, 0.3, epsilon, runs=2, seed=0)
        assert cell.avg_err_naive_analytic == pytest.approx(expected, rel=1e-15)

    def test_monte_carlo_agreement(self):
        level = calibrate(0.1)
        rng = np.random.default_rng(777)
        draws = np.abs([sample_noise(level, rng) for _ in range(1_000_000)])
        assert np.mean(draws) == pytest.approx(level.scale_b, rel=0.01)


class TestRunCell:
    def test_smoke(self):
        cell = run_cell(100, 0.3, 0.5, runs=500, seed=1)
        assert isinstance(cell, CellResult)
        assert cell.runs == 500
        assert cell.avg_err_naive > 0.0
        assert cell.avg_err_bayes > 0.0
        assert 0.0 <= cell.prob_bayes_better <= 1.0
        assert cell.avg_err_naive_analytic == 2.0
        assert cell.noise_std == pytest.approx(math.sqrt(2.0) / 0.5, rel=1e-12)
        assert cell.se_naive > 0.0 and cell.se_bayes > 0.0

    def test_probability_shares_sum_to_one(self):
        cell = run_cell(100, 0.3, 0.5, runs=2_000, seed=3)
        total = cell.prob_bayes_better + cell.prob_naive_better + cell.ties / cell.runs
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        first = run_cell(100, 0.3, 0.1, runs=1_000, seed=42)
        second = run_cell(100, 0.3, 0.1, runs=1_000, seed=42)
        assert first == second

    def test_matches_per_run_reference_loop(self):
        # Reference: every run draws its count and its noise at the cell's own
        # level, with nothing shared between cells.
        n, p, epsilon, runs, seed = 50, 0.3, 0.2, 400, 11
        level = calibrate(epsilon)
        counts = np.empty(runs)
        responses = np.empty(runs)
        for run_index in range(runs):
            stream = run_stream(seed, run_index)
            counts[run_index] = int((stream.random(n) < p).sum())
            responses[run_index] = counts[run_index] + sample_noise(level, stream)
        err_naive = np.abs(responses - counts)
        corrected = bayes_estimate_batch(BinomialPrior(n=n, p=p), level, responses)
        err_bayes = np.abs(corrected - counts)
        cell = run_cell(n, p, epsilon, runs=runs, seed=seed)
        assert cell.avg_err_naive == float(err_naive.mean())
        assert cell.avg_err_bayes == float(err_bayes.mean())
        assert cell.se_bayes == float(err_bayes.std(ddof=1) / math.sqrt(runs))
        assert cell.prob_bayes_better == int((err_bayes < err_naive).sum()) / runs

    def test_seed_changes_results(self):
        a = run_cell(100, 0.3, 0.1, runs=1_000, seed=1)
        b = run_cell(100, 0.3, 0.1, runs=1_000, seed=2)
        assert a.avg_err_naive != b.avg_err_naive

    def test_common_random_numbers_across_cells(self):
        # Run r consumes n uniforms for the count and then one for the noise,
        # so at fixed n two cells with different p draw identical noise and
        # the naive error (which is just |noise|) matches bitwise.
        a = run_cell(100, 0.0, 0.1, runs=200, seed=9)
        b = run_cell(100, 0.3, 0.1, runs=200, seed=9)
        assert a.avg_err_naive == b.avg_err_naive
        shifted = run_cell(1000, 0.0, 0.1, runs=200, seed=9)
        assert a.avg_err_naive != shifted.avg_err_naive

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            run_cell(100, 0.3, 0.1, runs=0, seed=1)

    @pytest.mark.parametrize(
        "args", [(0, 0.3, 0.1, 5, 1), (100, 1.5, 0.1, 5, 1), (100, 0.3, 0.0, 5, 1),
                 (100, 0.3, 0.1, 5, -1)],
    )
    def test_rejects_bad_cell_parameters(self, args):
        with pytest.raises(ValueError):
            run_cell(*args)

    def test_aborting_cell_names_run_index(self, monkeypatch):
        def broken(prior, level, ys):
            raise FloatingPointError("posterior normalisation degenerated at row 17")

        monkeypatch.setattr(simulation_module, "bayes_estimate_batch", broken)
        with pytest.raises(FloatingPointError, match="row 17"):
            run_cell(100, 0.3, 0.1, runs=50, seed=1)


class TestRunSweep:
    def test_grid_order_and_size(self):
        config = SweepConfig(
            n_values=(100,),
            p_values=(0.1, 0.5),
            epsilon_values=(0.5, 1.0, 2.0),
            runs=200,
            seed=5,
        )
        result = run_sweep(config)
        assert len(result.cells) == 6
        assert [(c.p, c.epsilon) for c in result.cells] == [
            (0.1, 0.5), (0.1, 1.0), (0.1, 2.0), (0.5, 0.5), (0.5, 1.0), (0.5, 2.0),
        ]
        assert result.failures == ()

    def test_failures_do_not_stop_the_sweep(self, monkeypatch):
        real_batch = simulation_module.bayes_estimate_batch

        def flaky(prior, level, ys):
            if level.epsilon == 1.0:
                raise FloatingPointError("boom at row 3")
            return real_batch(prior, level, ys)

        monkeypatch.setattr(simulation_module, "bayes_estimate_batch", flaky)
        config = SweepConfig(
            n_values=(100,), p_values=(0.3,), epsilon_values=(0.5, 1.0, 2.0), runs=100, seed=1
        )
        result = run_sweep(config)
        assert len(result.cells) == 2
        assert len(result.failures) == 1
        assert result.failures[0].epsilon == 1.0
        assert "row 3" in result.failures[0].message

    def test_only_posterior_failures_are_collected(self, monkeypatch):
        def buggy(prior, level, ys):
            raise TypeError("a bug, not a cell failure")

        monkeypatch.setattr(simulation_module, "bayes_estimate_batch", buggy)
        with pytest.raises(TypeError):
            run_sweep(SweepConfig(n_values=(10,), p_values=(0.3,), epsilon_values=(1.0,), runs=5))

    def test_draws_each_run_once_per_n(self, monkeypatch):
        keys = []
        base = np.random.Philox

        class Philox(base):
            # Named like its base: numpy checks a state's "bit_generator" against it.
            @property
            def state(self):
                return base.state.__get__(self)

            @state.setter
            def state(self, value):
                keys.append(tuple(int(part) for part in value["state"]["key"]))
                base.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Philox)
        config = SweepConfig(
            n_values=(10, 20), p_values=(0.1, 0.5, 0.9), epsilon_values=(0.5, 1.0), runs=7, seed=3
        )
        assert len(run_sweep(config).cells) == 12
        assert keys == [(3, r) for r in range(7)] * 2

    def test_cells_match_independent_run_cell_calls(self):
        config = SweepConfig(
            n_values=(1, 30), p_values=(0.0, 0.4, 1.0), epsilon_values=(0.05, 0.7, 3.0),
            runs=300, seed=2**64 - 1,
        )
        expected = tuple(
            run_cell(n, p, eps, runs=300, seed=2**64 - 1)
            for n in (1, 30) for p in (0.0, 0.4, 1.0) for eps in (0.05, 0.7, 3.0)
        )
        assert run_sweep(config).cells == expected

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 1e-3, 7.3])
    def test_rescaled_unit_noise_is_a_draw_at_epsilon(self, epsilon):
        # The sweep draws noise once at epsilon = 1 and rescales it per cell.
        rng = np.random.default_rng(5)
        uniforms = np.concatenate([rng.random(2000), [2.0**-53, 0.5, 1.0 - 2.0**-53]])
        unit, level = calibrate(1.0), calibrate(epsilon)
        for u in uniforms:
            direct = sample_noise(level, StubStream(u))
            assert sample_noise(unit, StubStream(u)) * level.scale_b == direct

    def test_default_grid_shape(self):
        config = SweepConfig()
        assert len(config.n_values) * len(config.p_values) * len(config.epsilon_values) == 84
        assert config.runs == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_values": ()},
            {"p_values": ()},
            {"epsilon_values": ()},
            {"runs": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 2.5},
            {"runs": 2.5},
            {"n_values": (100, 0)},
            {"n_values": (10.5,)},
            {"p_values": (0.3, 1.5)},
            {"epsilon_values": (1.0, 0.0)},
            {"epsilon_values": (math.inf,)},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_values": (True,)},
            {"p_values": (False,)},
            {"epsilon_values": (True,)},
            {"runs": True},
            {"seed": False},
            {"seed": np.False_},
        ],
    )
    def test_config_rejects_bools(self, kwargs):
        # Each of these used to run as n = 1, p = 0, epsilon = 1, one run or seed 0.
        with pytest.raises(ValueError):
            SweepConfig(**{"n_values": (10,), "p_values": (0.3,), "epsilon_values": (1.0,),
                           "runs": 5, "seed": 0, **kwargs})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["n_values", "runs", "seed"])
    def test_config_rejects_non_finite(self, key, value):
        # int(inf) raises OverflowError, which used to escape unconverted.
        kwargs = {"n_values": (10,), "p_values": (0.3,), "epsilon_values": (1.0,), "runs": 5,
                  "seed": 0}
        kwargs[key] = (value,) if key == "n_values" else value
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    def test_run_cell_rejects_bools(self):
        with pytest.raises(ValueError):
            run_cell(True, 0.3, True, True, False)
        with pytest.raises(ValueError):
            run_stream(True, 0)


class TestWriteCsv:
    def make_result(self):
        config = SweepConfig(
            n_values=(100,), p_values=(0.3,), epsilon_values=(0.5, 1.0), runs=300, seed=8
        )
        return run_sweep(config)

    def test_header_and_shape(self):
        buffer = io.StringIO()
        write_csv(self.make_result(), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0] == (
            "n,p,epsilon,noise_std,avg_err_naive,avg_err_naive_analytic,"
            "avg_err_bayes,prob_bayes_better,se_naive,se_bayes,runs,seed"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_HEADER)

    def test_round_trips_full_precision(self):
        result = self.make_result()
        buffer = io.StringIO()
        write_csv(result, buffer)
        row = buffer.getvalue().splitlines()[1].split(",")
        cell = result.cells[0]
        assert int(row[0]) == cell.n
        assert float(row[4]) == cell.avg_err_naive
        assert float(row[7]) == cell.prob_bayes_better
        assert int(row[10]) == cell.runs
        assert int(row[11]) == cell.seed


class TestHeavyGridShape:
    """Statistical shape of the heavy grids (session-scoped fixtures)."""

    def test_no_ties_at_scale(self, reference_grid_cells):
        assert all(cell.ties == 0 for cell in reference_grid_cells.values())

    def test_bayes_error_decreases_with_weaker_privacy(self, reference_grid_cells):
        for n in (100, 1000):
            errors = [reference_grid_cells[(n, eps)].avg_err_bayes for eps in (0.05, 0.1, 0.2, 0.5, 1.0)]
            assert errors == sorted(errors, reverse=True)

    def test_bayes_never_loses_on_average(self, reference_grid_cells):
        for cell in reference_grid_cells.values():
            assert cell.avg_err_bayes <= cell.avg_err_naive

    def test_balanced_predicates_are_hardest(self, p_sweep_cells):
        # A tight prior (extreme p) makes the corrector nearly always closer,
        # so the improvement probability bottoms out at p = 1/2 while the
        # Bayes error peaks there.
        centre = p_sweep_cells[0.5]
        assert centre.prob_bayes_better == min(
            cell.prob_bayes_better for cell in p_sweep_cells.values()
        )
        for p, cell in p_sweep_cells.items():
            if p != 0.5:
                assert cell.avg_err_bayes < centre.avg_err_bayes
