import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hawkes_evolve import KernelBank, bank_to_json
from hawkes_evolve.cli import parse_grid, run


@pytest.fixture
def bank_file(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0))))
    return str(path)


class TestParseGrid:
    def test_inclusive_endpoint(self):
        assert np.allclose(parse_grid("0:1:0.25"), [0, 0.25, 0.5, 0.75, 1.0])

    def test_single_point(self):
        assert np.allclose(parse_grid("2:2:1"), [2.0])

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("1:0:0.1")
        with pytest.raises(ValueError):
            parse_grid("0:1:0")

    @pytest.mark.parametrize("text", ["0:inf:1", "0:1:inf", "-inf:0:1", "nan:1:0.5",
                                      "0:nan:0.5", "0:1:nan"])
    def test_non_finite_parts_rejected(self, text):
        # inf once overflowed in int(), or gave an empty grid; nan failed
        # with a message that did not name the grid.
        with pytest.raises(ValueError, match="grid parts must be finite"):
            parse_grid(text)

    def test_overflowing_point_count_rejected(self):
        # Finite parts whose point count overflows once raised an uncaught
        # OverflowError.
        with pytest.raises(ValueError, match="0:1e300:1e-300"):
            parse_grid("0:1e300:1e-300")

    @pytest.mark.parametrize("text", ["0:1e9:1e-9", "0:1:1e-7"])
    def test_huge_point_count_rejected(self, text):
        # 10^18 points once raised an uncaught MemoryError, and 10^7 points
        # allocated 76 MiB; the count is now checked before any allocation.
        with pytest.raises(ValueError, match=text):
            parse_grid(text)

    def test_sweep_grid_unchanged(self):
        assert parse_grid("0:1:0.02").tolist() == (0.02 * np.arange(51)).tolist()


class TestExitCodes:
    def test_missing_bank_file(self, tmp_path):
        code = run(["regime", "--bank", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_bank(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"base_rates": [1, 2]}')
        code = run(["regime", "--bank", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_flag(self, bank_file, tmp_path):
        assert run(["regime", "--bank", bank_file, "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 2

    def test_regime_of_an_exploding_bank(self, tmp_path):
        # No stationary renewal rates: the regime is undecided, not subcritical.
        bank = tmp_path / "explode.json"
        bank.write_text(bank_to_json(KernelBank.exponential(
            (1.0, 1.0, 1.2), ((6.0, 0.0), (0.0, 6.0)), (2.0, 2.5), 0.4, 1.0)))
        assert run(["regime", "--bank", str(bank), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "regime.json").exists()

    @pytest.mark.parametrize("h", ["0", "nan"])
    def test_generator_check_window_named(self, h, bank_file, tmp_path, capsys):
        # The error once named the horizon, a field the user never set.
        assert run(["generator-check", "--bank", bank_file, "--h", h,
                    "--out", str(tmp_path)]) == 2
        assert "h must be finite and > 0" in capsys.readouterr().err

    def test_negative_seed_named(self, bank_file, tmp_path, capsys):
        # numpy once rejected it with "expected non-negative integer".
        assert run(["simulate", "--bank", bank_file, "--horizon", "1", "--seed", "-1",
                    "--out", str(tmp_path)]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_generator_check_needs_two_replications(self, bank_file, tmp_path):
        assert run(["generator-check", "--bank", bank_file, "--reps", "1",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "generator_check.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "rho"])
    def test_zero_runs_rejected(self, command, bank_file, tmp_path, capsys):
        extra = (["--f-grid", "0:1:0.5"] if command == "sweep"
                 else ["--f", "0.75", "--epsilon", "0"])
        assert run([command, "--bank", bank_file, "--horizon", "10", "--runs", "0",
                    "--threads", "1", "--out", str(tmp_path)] + extra) == 2
        assert "n_runs" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    def test_non_finite_base_rate_rejected(self, tmp_path):
        # Such a bank once made simulate loop until it was killed.
        bad = tmp_path / "nan.json"
        bad.write_text(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0)))
                       .replace("2.0", "NaN", 1))
        assert run(["simulate", "--bank", str(bad), "--horizon", "1",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "events.csv").exists()

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:1:inf", "0:1:nan"])
    def test_non_finite_grid_rejected(self, grid, bank_file, tmp_path, capsys):
        # 0:inf:1 once died with an OverflowError traceback and exit code 1,
        # which means a negative statistical verdict.
        assert run(["simulate", "--bank", bank_file, "--horizon", "1", "--grid", grid,
                    "--out", str(tmp_path)]) == 2
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / "intensity.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_overflowing_grid_rejected(self, command, bank_file, tmp_path, capsys):
        # Once an OverflowError or a MemoryError traceback and exit code 1,
        # which means a negative statistical verdict.
        flag = "--grid" if command == "simulate" else "--f-grid"
        for grid in ("0:1e300:1e-300", "0:1e9:1e-9"):
            assert run([command, "--bank", bank_file, "--horizon", "1", flag, grid,
                        "--out", str(tmp_path)]) == 2
            assert grid in capsys.readouterr().err

    def test_nan_time_rejected(self, bank_file, tmp_path):
        # Once wrote NaN rows and exited 0.
        assert run(["expect", "--bank", bank_file, "--t-max", "nan", "--method", "paper",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "expectations.csv").exists()

    def test_population_fitness_out_of_range_rejected(self, bank_file, tmp_path):
        # f = nan once exited 0 with L = 0 throughout lr.csv.
        assert run(["population", "--bank", bank_file, "--horizon", "5", "--f", "nan",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "lr.csv").exists()

    def test_gnuplot_only_where_a_plot_is_written(self, bank_file, tmp_path):
        assert run(["regime", "--bank", bank_file, "--gnuplot", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--grid=-1:5:1"], "record_grid"),
        (["population", "--snapshot-grid=-1:5:1"], "snapshot_grid"),
        (["simulate", "--grid", "-1:5:1"], "--grid"),
    ], ids=["record_grid", "snapshot_grid", "grid_read_as_a_flag"])
    def test_negative_grid_rejected(self, argv, name, bank_file, tmp_path, capsys):
        # Every path starts at t = 0.  Without "=", argparse reads -1:5:1
        # as a flag and rejects the command line itself.
        assert run(argv + ["--bank", bank_file, "--horizon", "5",
                           "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flags, message", [
        (["--points", "0"], "--points must be between 1 and"),
        (["--points", "-3"], "--points must be between 1 and"),
        (["--points", str(10**12)], "--points must be between 1 and"),
        (["--t-max", "0"], "--t-max must be finite and > 0"),
        (["--t-max", "-1"], "--t-max must be finite and > 0"),
        (["--t-max", "inf"], "--t-max must be finite and > 0"),
    ], ids=["no_points", "negative_points", "huge_points", "zero_t_max",
            "negative_t_max", "infinite_t_max"])
    def test_expect_grid_bounded(self, flags, message, bank_file, tmp_path, capsys):
        # --points 0 once wrote a table with no rows and exited 0, and a
        # huge count tried to allocate gigabytes.
        assert run(["expect", "--bank", bank_file, "--method", "paper", "--out",
                    str(tmp_path)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "expectations.csv").exists()

    @pytest.mark.parametrize("argv, bank, message", [
        (["simulate", "--horizon", "1"], bank_to_json(KernelBank.exponential(
            (1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (1.0, 2.0), 0.0, 1.0, death_delta=0.2)),
         "constant offset"),
        (["expect", "--method", "paper"], bank_to_json(KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.0), 0.4, 1.0)),
         "equal decay rates"),
        (["regime"], '{"base_rates": [1, 2', "delimiter"),
    ], ids=["offset_bank_simulated", "paper_curve_at_equal_decay_rates", "bank_not_json"])
    def test_value_error_subclasses_exit_2(self, argv, bank, message, tmp_path, capsys):
        # UnsupportedKernelError, DegenerateParametersError and
        # json.JSONDecodeError, each a ValueError.
        path = tmp_path / "bank.json"
        path.write_text(bank)
        assert run(argv + ["--bank", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_expect_single_point(self, bank_file, tmp_path):
        assert run(["expect", "--bank", bank_file, "--method", "paper", "--points", "1",
                    "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "expectations.csv").read_text().splitlines()) == 1 + 3


def _set(key, value):
    """A function that sets ``key`` of a Poisson bank's document to ``value``."""
    def edit(doc):
        doc[key] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: 5, "a bank document must be a JSON object"),
    (_set("base_rates", [[1], 0.8, 1.2]), "base_rates entry must be a number"),
    (_set("death_kernel", 3), "death_kernel must be a JSON object"),
], ids=["not_an_object", "nested_rate", "kernel_not_an_object"])
def test_malformed_bank_file_exits_2(edit, message, tmp_path, capsys):
    # Each of these once ended in a TypeError traceback and exit code 1.
    bank = tmp_path / "bank.json"
    doc = json.loads(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0))))
    bank.write_text(json.dumps(edit(doc)))
    assert run(["regime", "--bank", str(bank), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Artifacts are strict JSON: a non-finite value is written as null."""

    def test_rho_of_runs_that_end_empty(self, tmp_path):
        # Deaths outpace births, so some runs end with N = 0 and rho = NaN.
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(KernelBank.poisson((1.0, 1.0, 3.0))))
        assert run(["rho", "--bank", str(bank), "--f", "0.5", "--epsilon", "0.5",
                    "--horizon", "50", "--runs", "4", "--threads", "1",
                    "--out", str(tmp_path)]) == 0
        doc = _strict_json((tmp_path / "rho.json").read_text())
        assert None in doc["terminal_rho"]

    def test_sweep_of_runs_that_end_empty(self, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(KernelBank.poisson((1.0, 1.0, 3.0))))
        assert run(["sweep", "--bank", str(bank), "--f-grid", "0:1:0.5", "--horizon", "50",
                    "--runs", "4", "--seed", "1", "--threads", "1",
                    "--out", str(tmp_path)]) == 0
        doc = _strict_json((tmp_path / "sweep.json").read_text())
        assert None in doc["r_fc_over_n"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, extra", [
        ("sweep", ["--f-grid", "0:1:0.5"]),
        ("rho", ["--f", "0.5", "--epsilon", "0.5"]),
    ])
    def test_every_run_ends_empty(self, command, extra, tmp_path):
        # Births at rate 0.3 against deaths at rate 5: with seed 0 no run
        # ends with an individual.  fc_hat once read f_grid[-1] = 1.0, and
        # numpy's "Mean of empty slice" warning reached stderr.
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(KernelBank.poisson((0.2, 0.1, 5.0))))
        assert run([command, "--bank", str(bank), "--horizon", "10", "--runs", "2",
                    "--threads", "1", "--out", str(tmp_path)] + extra) == 0
        doc = _strict_json((tmp_path / f"{command}.json").read_text())
        if command == "sweep":
            assert doc["fc_hat"] is None and doc["avg_cdf"] == [None] * 3
        else:
            assert doc["mean_rho"] is None and doc["terminal_rho"] == [None] * 2

    def test_generator_check_with_infinite_z(self, tmp_path):
        # At h = 1e-6 two replications see no event, so the spread is zero
        # and z is infinite.
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(CROSS_BANK))
        assert run(["generator-check", "--bank", str(bank), "--reps", "2", "--h", "1e-6",
                    "--out", str(tmp_path)]) == 1
        doc = _strict_json((tmp_path / "generator_check.json").read_text())
        assert None in [entry["z"] for entry in doc]


class TestSubcommands:
    def test_regime_json(self, bank_file, tmp_path, capsys):
        assert run(["regime", "--bank", bank_file, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "regime.json").read_text())
        assert doc["regime"] == "phase_transition"
        assert doc["fc_paper"] == pytest.approx(0.5)
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_simulate_deterministic_output(self, bank_file, tmp_path):
        args = ["simulate", "--bank", bank_file, "--horizon", "20",
                "--seed", "7", "--out", str(tmp_path)]
        assert run(args) == 0
        first = (tmp_path / "events.csv").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "events.csv").read_bytes() == first
        header = first.decode().splitlines()[0]
        assert header == "time,mark,n1,n2,n3,N"

    def test_simulate_intensity_grid(self, bank_file, tmp_path):
        assert run(["simulate", "--bank", bank_file, "--horizon", "10",
                    "--grid", "0:10:5", "--gnuplot", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "intensity.csv").read_text().splitlines()
        assert lines[0] == "t,lambda1,lambda2,lambda3_gated"
        assert len(lines) == 4
        assert (tmp_path / "intensity.gp").exists()

    def test_expect_both_methods(self, bank_file, tmp_path):
        assert run(["expect", "--bank", bank_file, "--t-max", "5",
                    "--points", "6", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "expectations.csv").read_text().splitlines()
        assert lines[0] == "t,value,method,index"
        assert len(lines) == 1 + 6 * 2 * 3

    def test_population_artifacts(self, bank_file, tmp_path):
        assert run(["population", "--bank", bank_file, "--horizon", "10",
                    "--f", "0.5", "--snapshot-grid", "0:10:5",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "partition.csv").read_text().splitlines()[0] \
            == "t,site_fitness,count"
        assert (tmp_path / "lr.csv").read_text().splitlines()[0] == "t,L,R,N,f"

    def test_sweep_artifacts(self, bank_file, tmp_path):
        assert run(["sweep", "--bank", bank_file, "--f-grid", "0:1:0.5",
                    "--horizon", "20", "--runs", "3", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["fc_paper"] == pytest.approx(0.5)
        assert len(doc["avg_cdf"]) == 3

    def test_rho_artifact(self, bank_file, tmp_path):
        assert run(["rho", "--bank", bank_file, "--f", "0.75", "--epsilon", "0",
                    "--horizon", "50", "--runs", "2", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "rho.json").read_text())
        assert doc["limit_paper"] == pytest.approx(0.25)
        assert len(doc["terminal_rho"]) == 2

    def test_gof_exit_zero_on_good_fit(self, bank_file, tmp_path):
        assert run(["gof", "--bank", bank_file, "--horizon", "200",
                    "--seed", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gof.json").read_text())
        assert set(doc) == {"1", "2", "3"}

    def test_threads_env_fallback(self, bank_file, tmp_path, monkeypatch):
        monkeypatch.setenv("HAWKES_EVOLVE_THREADS", "1")
        assert run(["rho", "--bank", bank_file, "--f", "0.75", "--epsilon", "0",
                    "--horizon", "20", "--runs", "2", "--seed", "1",
                    "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["sweep", "rho"])
    @pytest.mark.parametrize("flag, env, message", [
        ("0", None, "--threads must be >= 1, got 0"),
        ("-4", None, "--threads must be >= 1, got -4"),
        (None, "0", "HAWKES_EVOLVE_THREADS must be >= 1, got 0"),
        (None, "two", "HAWKES_EVOLVE_THREADS must be an integer >= 1, got 'two'"),
    ], ids=["flag_zero", "flag_negative", "env_zero", "env_not_an_integer"])
    def test_bad_pool_size_rejected(self, bank_file, tmp_path, capsys, monkeypatch,
                                    command, flag, env, message):
        # A size below 1 once ran serially and exited 0; "two" exited 2
        # with int()'s message, which named neither the variable nor the flag.
        argv = {"sweep": ["sweep", "--f-grid", "0:1:0.5"],
                "rho": ["rho", "--f", "0.75", "--epsilon", "0"]}[command]
        if flag is not None:
            argv += ["--threads", flag]
        if env is not None:
            monkeypatch.setenv("HAWKES_EVOLVE_THREADS", env)
        assert run(argv + ["--horizon", "20", "--runs", "2", "--seed", "1",
                           "--bank", bank_file, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}.*"))


# Cross-exciting bank with every jump size at 0.4 of its decay rate.
CROSS_BANK = KernelBank.exponential(
    (1.0, 0.8, 1.2), ((0.4, 0.6), (0.4, 0.6)), (1.0, 1.5), 0.4, 1.0)
BANKS = {"poisson": KernelBank.poisson((2.0, 1.0, 1.0)), "cross": CROSS_BANK}
RUNS = {
    "simulate-markov": (["simulate", "--engine", "markov", "--horizon", "20", "--seed", "7",
                         "--grid", "0:20:2"], ("events.csv", "intensity.csv")),
    "simulate-thinning": (["simulate", "--engine", "thinning", "--horizon", "20",
                           "--seed", "7", "--grid", "0:20:2"], ("events.csv", "intensity.csv")),
    "population": (["population", "--horizon", "20", "--seed", "3", "--f", "0.5",
                    "--snapshot-grid", "0:20:5"], ("partition.csv", "lr.csv")),
    "sweep": (["sweep", "--f-grid", "0:1:0.25", "--horizon", "50", "--runs", "3",
               "--seed", "1", "--threads", "1"], ("sweep.json",)),
    "rho": (["rho", "--f", "0.75", "--epsilon", "0.25", "--horizon", "50", "--runs", "3",
             "--seed", "1", "--threads", "1"], ("rho.json",)),
    "gof": (["gof", "--horizon", "200", "--seed", "2"], ("gof.json",)),
    # Three blocks of the batched engine: 2048, 2048 and 904 states.
    "generator-check": (["generator-check", "--reps", "5000", "--seed", "1", "--h", "0.01"],
                        ("generator_check.json",)),
    "expect": (["expect", "--method", "both"], ("expectations.csv",)),
}
ARTIFACT_SHA256 = {
    ("cross", "simulate-markov"): {
        "events.csv": "1396ac24b590b81e26a3996c7d844418c5fba534b68bbdc1656268618f95191c",
        "intensity.csv": "d282940026e46ac66a6538eb59a0582db8ce3e33a76c0f8de497884b66c0a969",
    },
    ("cross", "simulate-thinning"): {
        "events.csv": "1396ac24b590b81e26a3996c7d844418c5fba534b68bbdc1656268618f95191c",
        "intensity.csv": "d282940026e46ac66a6538eb59a0582db8ce3e33a76c0f8de497884b66c0a969",
    },
    ("cross", "population"): {
        "partition.csv": "e023028206ff81282c37eb35090e0540c5dd0d12f7a0db82b4048badc56b6acf",
        "lr.csv": "0085ecfaf5197220ea9db70dfe71f6c804db44a1f62b830526a19bf3f0d8bd17",
    },
    ("cross", "sweep"): {
        "sweep.json": "710e80f39ba3c3834f2c1f31787a8e46fb81fc49842d6902577a03292b44012c",
    },
    ("cross", "rho"): {
        "rho.json": "b7fe29f56fd2dd2e5f40f0fd35084e96b91185c3721ec7c353479b9bdfd069f6",
    },
    ("cross", "gof"): {
        "gof.json": "e0bbda32956a51b1db8b78f52d0014c179178a577e9d4db3746a8bc275dadc60",
    },
    ("cross", "generator-check"): {
        "generator_check.json":
            "d5a20f5fa21f685d3efc237b77d9d76d133dfb517f232a0ce133ea570f856d4d",
    },
    ("cross", "expect"): {
        "expectations.csv": "0b6cefdea408e23bc0a033b88f850c44dc61912e31e32bf4ed8c9a7afeb42730",
    },
    ("poisson", "simulate-markov"): {
        "events.csv": "f59f1240da93b67c471418028b7b5d02c8287e617582d7d85daee7b629d61bc4",
        "intensity.csv": "7ec45b40ed5595f402f8b79761ef512ea4134c5f194e36304e458d4b69419df7",
    },
    ("poisson", "simulate-thinning"): {
        "events.csv": "f59f1240da93b67c471418028b7b5d02c8287e617582d7d85daee7b629d61bc4",
        "intensity.csv": "7ec45b40ed5595f402f8b79761ef512ea4134c5f194e36304e458d4b69419df7",
    },
    ("poisson", "population"): {
        "partition.csv": "0ae587bf8e6b8238399f14f1d5467bb4d04ec9d6295a8a52f273a3c9fefc4cec",
        "lr.csv": "aac3a680bc1c5088243d38c9cbf822d5e609c26eb6eea3be09f1648a14e6fa9d",
    },
    ("poisson", "sweep"): {
        "sweep.json": "a146b5e5e41793e7877aaab3a1fbe8cb5aa465ed156f5afc6ec99ebe57076903",
    },
    ("poisson", "rho"): {
        "rho.json": "1a09ff1270e70df1395f39a19e887d5a1d6bf9e09871fa0bc7f431e009a64c6d",
    },
    ("poisson", "gof"): {
        "gof.json": "93b7b91887d175a964c5dd0cd2e0b651587e82f7b3bc576f1cf01839f5d77079",
    },
    ("poisson", "generator-check"): {
        "generator_check.json":
            "a51e38bd1fb73f55e2bffab85b42187dc8de571fd329483c8b8645be614c8f42",
    },
    ("poisson", "expect"): {
        "expectations.csv": "de54a80c3090f2e620c35205f651acf4884e5c4d81060b8cd3601e20d25bb847",
    },
}


class TestArtifactBytes:
    """SHA-256 of each artifact of small fixed-seed runs, to catch any byte change."""

    @pytest.mark.parametrize("bank", sorted(BANKS))
    @pytest.mark.parametrize("command", list(RUNS))
    def test_digests_pinned(self, bank, command, tmp_path):
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(bank_to_json(BANKS[bank]))
        args, artifacts = RUNS[command]
        assert run(args + ["--bank", str(bank_path), "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in artifacts}
        assert digests == ARTIFACT_SHA256[bank, command]


# Runs each argv list through cli.run in one fresh interpreter (this one
# has scipy loaded already) and prints, per run, its exit code and the
# scipy modules loaded so far; the first entry is after the import alone.
_SCIPY_PROBE = """
import json, sys
from hawkes_evolve.cli import run

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [[0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = run(argv)
    seen.append([code, scipy_modules()])
print(json.dumps(seen))
"""
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh_python(code, *args):
    """Last line of standard output of code run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]


def _scipy_after(runs):
    return json.loads(_fresh_python(_SCIPY_PROBE, json.dumps(runs)))


class TestScipyDeferred:
    """scipy is imported only by the renewal solve and the KS test."""

    def test_no_scipy_outside_the_renewal_route_and_gof(self, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(CROSS_BANK))
        common = ["--bank", str(bank), "--out", str(tmp_path)]
        runs = [
            ["regime"] + common,
            ["simulate", "--horizon", "5", "--grid", "0:5:1"] + common,
            ["sweep", "--f-grid", "0:1:0.5", "--horizon", "5", "--runs", "2",
             "--threads", "1"] + common,
            ["population", "--horizon", "5", "--f", "0.5"] + common,
            ["rho", "--f", "0.75", "--epsilon", "0", "--horizon", "5", "--runs", "2",
             "--threads", "1"] + common,
            ["generator-check", "--reps", "100"] + common,
            ["expect", "--method", "paper", "--t-max", "2", "--points", "3"] + common,
        ]
        seen = _scipy_after(runs)
        assert len(seen) == len(runs) + 1
        # generator-check may return 1 on so few replications; 2 would be an error.
        assert all(code != 2 and modules == [] for code, modules in seen)

    def test_renewal_loads_linalg_and_gof_loads_stats(self, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(CROSS_BANK))
        common = ["--bank", str(bank), "--out", str(tmp_path)]
        (_, start), (code, renewal), (gof_code, gof) = _scipy_after([
            ["expect", "--method", "renewal", "--t-max", "2", "--points", "3"] + common,
            ["gof", "--horizon", "5"] + common,
        ])
        assert start == [] and code == 0
        assert "scipy.linalg" in renewal
        assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in renewal)
        assert gof_code in (0, 1) and "scipy.stats" in gof

    def test_module_entry_point_exit_codes(self, tmp_path):
        # The hawkes-evolve console script calls the same main().
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(CROSS_BANK))
        env = dict(os.environ, PYTHONPATH=SRC)
        for name, code in (("bank.json", 0), ("missing.json", 2)):
            done = subprocess.run([sys.executable, "-m", "hawkes_evolve.cli", "regime",
                                   "--bank", str(tmp_path / name), "--out", str(tmp_path)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == code, done.stderr
        assert (tmp_path / "regime.json").exists()

    def test_numpy_random_loads_with_the_package(self):
        # numpy loads it lazily; pool workers forked by sweep and rho
        # inherit it instead of each importing it on every call.
        assert _fresh_python("import sys, hawkes_evolve; "
                             "print('numpy.random' in sys.modules)") == "True"
