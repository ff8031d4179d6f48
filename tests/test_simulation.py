"""Monte Carlo harness: determinism, CSV schema, and error metrics."""

from __future__ import annotations

import io
import math
import sys

import numpy as np
import pytest
from scipy.stats import binom

import dpbayes.simulation as simulation_module
from dpbayes import (
    BinomialPrior,
    CellResult,
    SweepConfig,
    bayes_estimate_batch,
    calibrate,
    run_sweep,
    sample_noise,
    write_csv,
)
from dpbayes.mechanism import _laplace_quantiles
from dpbayes.prior import _quantiles
from dpbayes.simulation import CSV_HEADER, _draw_runs

from conftest import ACCEPTANCE_SEED, GRID_EPSILONS, GRID_N_VALUES, HEAVY_RUNS
from test_prior import EDGE_UNIFORMS
from vmhwm import peak_growth_mb


class StubStream:
    """Returns one chosen uniform, once: sample_noise at that u, drawing nothing more."""

    def __init__(self, value):
        self.values = [float(value)]

    def random(self):
        return self.values.pop()


def sweep_rows(runs, seed):
    """The row rule, read directly: row r of the sweep's one stream is run r."""
    return np.random.Generator(np.random.Philox(key=seed)).random((runs, 2))


def one_cell(n, p, epsilon, runs, seed):
    """The one cell of a one-cell sweep."""
    return run_sweep(SweepConfig((n,), (p,), (epsilon,), runs, seed))[0]


def reference_counts(n, p, uniforms):
    """Binomial(n, p) quantiles of uniforms in (0, 1) by scipy, independent of the package."""
    if p in (0.0, 1.0):
        return np.full(np.shape(uniforms), n * p)
    return binom.ppf(uniforms, n, p)


class TestRunStream:
    """A run's random numbers are its row of the sweep's one Philox stream."""

    def test_same_key_same_stream(self):
        first = simulation_module._draw_runs(20, 7)
        second = simulation_module._draw_runs(20, 7)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))

    def test_distinct_runs_distinct_streams(self):
        rows = sweep_rows(50, 7)
        assert len({tuple(row) for row in rows.tolist()}) == 50

    def test_distinct_seeds_distinct_streams(self):
        a = simulation_module._draw_runs(4, 7)
        b = simulation_module._draw_runs(4, 8)
        assert not np.array_equal(a[0], b[0]) and not np.array_equal(a[1], b[1])

    def test_rejects_seeds_outside_64_bits(self):
        # Reducing seeds modulo 2**64 would make s and s + 2**64 alias.
        assert SweepConfig(seed=0).seed == 0
        assert SweepConfig(seed=2**64 - 1).seed == 2**64 - 1
        for seed in (-1, 2**64, 2**64 + 5, 2**70, 2.5):
            with pytest.raises(ValueError):
                SweepConfig(seed=seed)

    @pytest.mark.parametrize("seed", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_seeds(self, seed):
        with pytest.raises(ValueError):
            SweepConfig(seed=seed)


class TestDrawRuns:
    @pytest.mark.parametrize(
        "n, runs, seed",
        [
            (100, 654, 5),
            (100, 655, 5),
            (100, 656, 5),
            (1, 3, 5),
            (65537, 3, 5),
            (37, 50, 2**64 - 1),
        ],
    )
    def test_matches_run_stream_loop(self, n, runs, seed):
        # Reference: run r reads its two uniforms as row r of one stream, in
        # order, and turns them into its count and its unit noise one by one.
        p_values = (0.0, 0.02, 0.3, 0.5, 0.98, 1.0)
        rows = sweep_rows(runs, seed)
        count_uniforms, unit_noise = simulation_module._draw_runs(runs, seed)
        assert count_uniforms.tobytes() == rows[:, 0].tobytes()
        expected_noise = [sample_noise(calibrate(1.0), StubStream(u)) for u in rows[:, 1]]
        assert unit_noise.tobytes() == np.array(expected_noise).tobytes()
        for p in p_values:
            counts = _quantiles(BinomialPrior(n=n, p=p), count_uniforms)
            assert counts.tolist() == reference_counts(n, p, rows[:, 0]).tolist()

    @pytest.mark.parametrize("runs", [1, 2, 999])
    def test_rows_are_a_prefix(self, runs):
        # The counter-based stream makes R runs the first R runs of any longer sweep.
        shorter = simulation_module._draw_runs(runs, 11)
        longer = simulation_module._draw_runs(runs + 1, 11)
        assert shorter[0].tobytes() == longer[0][:runs].tobytes()
        assert shorter[1].tobytes() == longer[1][:runs].tobytes()

    def test_zero_noise_uniform_is_the_smallest_uniform(self, monkeypatch):
        # A uniform of 0 stands for the smallest positive uniform, 2**-53, so
        # the noise stays finite.
        base = np.random.Generator

        class Generator(base):
            def random(self, size=None):
                out = base.random(self, size)
                out[::2, 1] = 0.0
                return out

        monkeypatch.setattr(np.random, "Generator", Generator)
        _, unit_noise = simulation_module._draw_runs(6, 3)
        smallest = sample_noise(calibrate(1.0), StubStream(2.0**-53))
        assert smallest == -52.0 * math.log(2.0)
        assert unit_noise[::2].tolist() == [smallest] * 3
        assert np.all(unit_noise[1::2] != smallest)
        cell = one_cell(100, 0.3, 0.5, runs=6, seed=3)
        assert math.isfinite(cell.avg_err_bayes) and math.isfinite(cell.se_naive)

    def test_edge_noise_uniforms_match_sample_noise(self, monkeypatch):
        # The one-pass draw equals sample_noise bitwise at the ends of [0, 1)
        # and on both sides of the median, where the sign flips through +0.0.
        edges = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
        base = np.random.Generator

        class Generator(base):
            def random(self, size=None):
                out = base.random(self, size)
                out[:, 1] = edges
                return out

        monkeypatch.setattr(np.random, "Generator", Generator)
        _, unit_noise = simulation_module._draw_runs(len(edges), 3)
        expected = [sample_noise(calibrate(1.0), StubStream(u)) for u in edges]
        assert unit_noise.tobytes() == np.array(expected).tobytes()
        assert unit_noise[3] == 0.0 and math.copysign(1.0, unit_noise[3]) == 1.0
        assert np.sign(unit_noise).tolist() == [-1.0, -1.0, -1.0, 0.0, 1.0, 1.0]


class TestAnalyticNaiveError:
    @pytest.mark.parametrize("epsilon, expected", [(0.1, 10.0), (0.5, 2.0), (1.0, 1.0)])
    def test_closed_form(self, epsilon, expected):
        cell = one_cell(10, 0.3, epsilon, runs=2, seed=0)
        assert cell.avg_err_naive_analytic == pytest.approx(expected, rel=1e-15)

    def test_monte_carlo_agreement(self):
        level = calibrate(0.1)
        rng = np.random.default_rng(777)
        draws = np.abs([sample_noise(level, rng) for _ in range(1_000_000)])
        assert np.mean(draws) == pytest.approx(level.scale_b, rel=0.01)


class TestRunCell:
    """One cell, as the one-cell sweep that stands for it."""

    def test_smoke(self):
        cell = one_cell(100, 0.3, 0.5, runs=500, seed=1)
        assert isinstance(cell, CellResult)
        assert cell.runs == 500
        assert cell.avg_err_naive > 0.0
        assert cell.avg_err_bayes > 0.0
        assert 0.0 <= cell.prob_bayes_better <= 1.0
        assert cell.avg_err_naive_analytic == 2.0
        assert cell.noise_std == pytest.approx(math.sqrt(2.0) / 0.5, rel=1e-12)
        assert cell.se_naive > 0.0 and cell.se_bayes > 0.0

    @pytest.mark.parametrize("epsilon", [3.0, 0.03])
    def test_noise_std_is_the_level_s(self, epsilon):
        # sqrt(2)/epsilon differs from the level's sqrt(2)*(1/epsilon) in the last bit here.
        assert one_cell(10, 0.3, epsilon, runs=2, seed=0).noise_std == calibrate(epsilon).noise_std

    def test_deterministic(self):
        first = one_cell(100, 0.3, 0.1, runs=1_000, seed=42)
        second = one_cell(100, 0.3, 0.1, runs=1_000, seed=42)
        assert first == second

    def test_matches_per_run_reference_loop(self):
        # Reference: every run inverts its own row at the cell's (n, p) and
        # draws its noise at the cell's own level, with nothing shared.
        n, p, epsilon, runs, seed = 50, 0.3, 0.2, 400, 11
        level = calibrate(epsilon)
        counts = np.empty(runs)
        responses = np.empty(runs)
        for run_index, (u_count, u_noise) in enumerate(sweep_rows(runs, seed)):
            counts[run_index] = binom.ppf(u_count, n, p)
            responses[run_index] = counts[run_index] + sample_noise(level, StubStream(u_noise))
        err_naive = np.abs(responses - counts)
        corrected = bayes_estimate_batch(BinomialPrior(n=n, p=p), level, responses)
        err_bayes = np.abs(corrected - counts)
        cell = one_cell(n, p, epsilon, runs=runs, seed=seed)
        assert cell.avg_err_naive == float(err_naive.mean())
        assert cell.avg_err_bayes == float(err_bayes.mean())
        assert cell.se_bayes == float(err_bayes.std(ddof=1) / math.sqrt(runs))
        assert cell.prob_bayes_better == int((err_bayes < err_naive).sum()) / runs

    def test_seed_changes_results(self):
        a = one_cell(100, 0.3, 0.1, runs=1_000, seed=1)
        b = one_cell(100, 0.3, 0.1, runs=1_000, seed=2)
        assert a.avg_err_naive != b.avg_err_naive

    def test_common_random_numbers_across_cells(self):
        # Run r's noise is the same in every cell of a sweep, whatever n and
        # p are, so the naive error (which is just |noise|) matches bitwise.
        a = one_cell(100, 0.0, 0.1, runs=200, seed=9)
        b = one_cell(100, 0.3, 0.1, runs=200, seed=9)
        assert a.avg_err_naive == b.avg_err_naive
        shifted = one_cell(1000, 0.0, 0.1, runs=200, seed=9)
        assert a.avg_err_naive == shifted.avg_err_naive

    def test_memory_stays_bounded_at_a_million_records(self):
        # A run costs two uniforms whatever n is, so a cell at n = 10**6 is
        # cheap.  What grows with n is O(n) per (n, p, epsilon): the prior's
        # masses and the posterior's block sums, about 17 MB at commit
        # 586582e (three runs).  Measured in a fresh process as growth of VmHWM.
        growth_mb = peak_growth_mb(
            "cell = run_sweep(SweepConfig((10**6,), (0.3,), (0.1,), 1000, 0))[0]\n"
            "assert cell.runs == 1000 and cell.avg_err_bayes > 0.0\n",
            setup="from dpbayes import SweepConfig, run_sweep\n",
        )
        assert growth_mb < 128

    def test_aborting_cell_names_run_index(self, monkeypatch):
        def broken(prior, levels, ys, out):
            raise FloatingPointError("posterior normalisation degenerated at row 17")

        monkeypatch.setattr(simulation_module, "_posterior_means", broken)
        with pytest.raises(FloatingPointError, match="row 17"):
            one_cell(100, 0.3, 0.1, runs=50, seed=1)


class TestRunSweep:
    def test_grid_order_and_size(self):
        config = SweepConfig(
            n_values=(100,),
            p_values=(0.1, 0.5),
            epsilon_values=(0.5, 1.0, 2.0),
            runs=200,
            seed=5,
        )
        cells = run_sweep(config)
        assert type(cells) is tuple
        assert len(cells) == 6
        assert [(c.p, c.epsilon) for c in cells] == [
            (0.1, 0.5), (0.1, 1.0), (0.1, 2.0), (0.5, 0.5), (0.5, 1.0), (0.5, 2.0),
        ]

    @pytest.mark.parametrize(
        "error", [FloatingPointError("posterior normalisation degenerated at row 3"),
                  TypeError("a bug in the kernel")],
        ids=["posterior", "bug"],
    )
    def test_cell_errors_end_the_sweep(self, monkeypatch, error):
        # No cell is collected as failed: the first error propagates and
        # the passes after it are never scored.  A pass scores one prior's
        # levels, so the error comes from the second (n, p) of four.
        real_kernel = simulation_module._posterior_means
        scored = []

        def flaky(prior, levels, ys, out):
            if (prior.n, prior.p) == (100, 0.5):
                raise error
            scored.append((prior.n, prior.p))
            return real_kernel(prior, levels, ys, out)

        monkeypatch.setattr(simulation_module, "_posterior_means", flaky)
        config = SweepConfig(
            n_values=(100, 200), p_values=(0.3, 0.5), epsilon_values=(0.5, 1.0, 2.0), runs=100,
            seed=1,
        )
        with pytest.raises(type(error), match=str(error)):
            run_sweep(config)
        assert scored == [(100, 0.3)]

    def test_draws_each_run_once_per_sweep(self, monkeypatch):
        keys = []
        base = np.random.Philox

        def recording_philox(*args, **kwargs):
            keys.append(kwargs.get("key"))
            return base(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", recording_philox)
        config = SweepConfig(
            n_values=(10, 20), p_values=(0.1, 0.5, 0.9), epsilon_values=(0.5, 1.0), runs=7, seed=3
        )
        assert len(run_sweep(config)) == 12
        assert keys == [3]

    def test_cells_match_independent_run_cell_calls(self):
        config = SweepConfig(
            n_values=(1, 30), p_values=(0.0, 0.4, 1.0), epsilon_values=(0.05, 0.7, 3.0),
            runs=300, seed=2**64 - 1,
        )
        expected = tuple(
            one_cell(n, p, eps, runs=300, seed=2**64 - 1)
            for n in (1, 30) for p in (0.0, 0.4, 1.0) for eps in (0.05, 0.7, 3.0)
        )
        assert run_sweep(config) == expected

    @pytest.mark.parametrize("runs, passes", [(2**16 // 4, [4, 2]), (2**16 // 4 + 1, [3, 3])])
    def test_level_passes_equal_one_cell_sweeps(self, monkeypatch, runs, passes):
        # A pass scores at most 2**16 responses, so six levels split unevenly;
        # each cell still equals its one-cell sweep, bitwise.
        kernel = simulation_module._posterior_means
        seen = []

        def recording(prior, levels, ys, out):
            seen.append(len(levels))
            return kernel(prior, levels, ys, out)

        monkeypatch.setattr(simulation_module, "_posterior_means", recording)
        epsilons = SweepConfig.epsilon_values
        cells = run_sweep(SweepConfig((100,), (0.3,), epsilons, runs, 7))
        assert seen == passes
        assert cells == tuple(one_cell(100, 0.3, eps, runs, 7) for eps in epsilons)

    def test_sorted_counts_are_scattered_back_to_their_runs(self, monkeypatch):
        # The sweep inverts its count uniforms in ascending order and scatters
        # the counts back to run order; every cell equals, bit for bit, the
        # cell scored from the quantiles of the uniforms in run order, with
        # repeated uniforms and the edge uniforms among them.
        rng = np.random.default_rng(23)
        draws = rng.random(300)
        uniforms = np.concatenate([EDGE_UNIFORMS, EDGE_UNIFORMS, draws[:40], draws])
        rng.shuffle(uniforms)
        runs, seed = uniforms.size, 3
        _, unit_noise = _draw_runs(runs, seed)
        monkeypatch.setattr(simulation_module, "_draw_runs",
                            lambda runs, seed: (uniforms.copy(), unit_noise))
        config = SweepConfig((1, 30, 1000), (0.0, 0.02, 0.5, 0.98, 1.0), (0.1, 2.0), runs, seed)
        levels = [calibrate(epsilon) for epsilon in config.epsilon_values]
        expected = []
        for n in config.n_values:
            for p in config.p_values:
                prior = BinomialPrior(n=n, p=p)
                counts = _quantiles(prior, uniforms)
                expected += simulation_module._score_cells(prior, levels, counts, unit_noise, seed)
        assert list(map(repr, run_sweep(config))) == list(map(repr, expected))

    def test_level_passes_keep_the_memory_of_one_level(self):
        # At 10**5 runs a pass holds one level, so six levels peak where one
        # does; six at once would hold 9.6 MB of errors alone.  Measured in a
        # fresh process as growth of VmHWM.
        body = "run_sweep(SweepConfig((100,), (0.3,), {}, 10**5, 0))\n"
        setup = "from dpbayes import SweepConfig, run_sweep\n"
        one = peak_growth_mb(body.format((1.0,)), setup=setup)
        six = peak_growth_mb(body.format(SweepConfig.epsilon_values), setup=setup)
        assert six - one < 1.0

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
            {"n_values": (0,)},
            {"n_values": (100, 0)},
            {"n_values": (10.5,)},
            {"p_values": (1.5,)},
            {"p_values": (0.3, 1.5)},
            {"epsilon_values": (0.0,)},
            {"epsilon_values": (1.0, 0.0)},
            {"epsilon_values": (math.inf,)},
            {"epsilon_values": (5e-324,)},
            {"epsilon_values": (0.5, 1e7)},  # epsilon * n = 1e10 > 2**33 at n = 1000
            {"runs": None},
            {"seed": None},
            {"n_values": b"d", "p_values": (0.3,), "epsilon_values": (1.0,)},  # not n = 100
            {"n_values": 100},
            {"p_values": "0.3"},
            {"epsilon_values": None},
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
            {"seed": True},
            {"seed": np.True_},
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


def refuses_for_overflow(epsilon, runs):
    try:
        SweepConfig((100,), (0.3,), (1.0, epsilon), runs, 0)
    except ValueError as exc:
        assert f"too small for {runs} runs" in str(exc)
        return True
    return False


def smallest_accepted_epsilon(runs):
    """The smallest epsilon ``SweepConfig`` takes at ``runs``: the bound, to the ulp."""
    epsilon = 52 * math.log(2) * math.sqrt(runs) / math.sqrt(sys.float_info.max)
    for _ in range(8):
        if refuses_for_overflow(epsilon, runs):
            epsilon = math.nextafter(epsilon, math.inf)
        elif not refuses_for_overflow(math.nextafter(epsilon, 0.0), runs):
            epsilon = math.nextafter(epsilon, 0.0)
        else:
            return epsilon
    pytest.fail(f"no bound within 8 ulps of {epsilon!r} at {runs} runs")


class TestErrorSumBound:
    """A raw error is at most 52*ln(2)/epsilon, so runs * that squared must be finite."""

    @pytest.mark.parametrize("runs", [1, 4, 2000, 100_000])
    def test_bound_from_both_sides(self, runs):
        epsilon = smallest_accepted_epsilon(runs)
        assert epsilon == pytest.approx(2.688e-153 * math.sqrt(runs), rel=1e-3)
        assert not refuses_for_overflow(epsilon, runs)
        assert refuses_for_overflow(math.nextafter(epsilon, 0.0), runs)
        # The smallest epsilon PrivacyLevel takes is far below this bound.
        assert refuses_for_overflow(2.1e-307, runs)

    def test_worst_noise_at_the_smallest_epsilon_stays_finite(self, monkeypatch):
        # Half the runs take the largest noise and half none: the largest
        # spread the errors can have.  A numpy overflow warning fails the test.
        runs = 4
        epsilon = smallest_accepted_epsilon(runs)
        unit_noise = _laplace_quantiles(np.array([2.0**-53, 0.5] * (runs // 2)))
        monkeypatch.setattr(simulation_module, "_draw_runs",
                            lambda runs, seed: (np.full(runs, 0.5), unit_noise))
        (cell,) = run_sweep(SweepConfig((100,), (0.3,), (epsilon,), runs, 0))
        largest = 52 * math.log(2) / epsilon
        assert cell.avg_err_naive == pytest.approx(largest / 2, rel=1e-12)
        assert cell.se_naive == pytest.approx(largest / (2 * math.sqrt(3)), rel=1e-12)
        assert math.isfinite(cell.avg_err_bayes) and math.isfinite(cell.se_bayes)


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
        lines = buffer.getvalue().splitlines()
        row = lines[1].split(",")
        cell = result[0]
        assert int(row[0]) == cell.n
        assert float(row[4]) == cell.avg_err_naive
        assert float(row[7]) == cell.prob_bayes_better
        assert int(row[10]) == cell.runs
        assert int(row[11]) == cell.seed
        # A data line is its cell, each value in its shortest round-trip form.
        assert lines[1:] == [",".join(map(str, cell)) for cell in result]


class TestHeavyGridShape:
    """Statistical shape of the heavy grids (session-scoped fixtures)."""

    def test_no_ties_at_scale(self, reference_grid_cells):
        # Recompute each cell's runs from the row rule: no run is a tie, and
        # the wins and the mean error are the cell's columns, bit for bit.
        count_uniforms, unit_noise = _draw_runs(HEAVY_RUNS, ACCEPTANCE_SEED)
        for n in GRID_N_VALUES:
            prior = BinomialPrior(n=n, p=0.3)
            counts = _quantiles(prior, count_uniforms)
            for epsilon in GRID_EPSILONS:
                level = calibrate(epsilon)
                responses = counts + unit_noise * level.scale_b
                err_naive = np.abs(responses - counts)
                err_bayes = np.abs(bayes_estimate_batch(prior, level, responses) - counts)
                cell = reference_grid_cells[(n, epsilon)]
                assert int((err_bayes == err_naive).sum()) == 0
                assert int((err_bayes < err_naive).sum()) / HEAVY_RUNS == cell.prob_bayes_better
                assert float(err_bayes.mean()) == cell.avg_err_bayes

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
