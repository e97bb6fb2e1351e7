import argparse
import hashlib
import json
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_evolve import KernelBank, SimConfig, bank_to_json, experiments
from hawkes_evolve.cli import build_parser, parse_grid, run


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

    @pytest.mark.parametrize("text, points", [
        ("0:1:0.6", [0.0, 0.6]),
        ("0:10:6", [0.0, 6.0]),
        ("0:1:0.4", [0.0, 0.4, 0.8]),
    ])
    def test_no_point_past_stop(self, text, points):
        # The step count is rounded, and 0:1:0.6 once read [0, 0.6, 1.2].
        assert parse_grid(text).tolist() == points

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(-100, 100), span=st.floats(0, 100), step=st.floats(1e-3, 10))
    def test_last_point_within_a_step_of_stop(self, start, span, step):
        stop = start + span
        grid = parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert grid[0] == start
        # Past stop by no more than rounding (a billionth of a step, plus a
        # few ulps of numbers below 200), and short of it by less than a step.
        assert grid[-1] <= stop + 2e-9 * step
        assert stop - grid[-1] < step

    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(-100, 100), k=st.integers(0, 1000), step=st.floats(1e-3, 10))
    def test_endpoint_kept_on_a_whole_number_of_steps(self, start, k, step):
        stop = start + k * step
        grid = parse_grid(f"{start!r}:{stop!r}:{step!r}")
        assert len(grid) == k + 1 and grid[-1] == stop

    def test_endpoint_kept_far_from_zero(self):
        # 1537 steps; start + 1537 * step rounds to one ulp past stop.
        grid = parse_grid("7850852925.97:7850857461.657:2.951")
        assert len(grid) == 1538 and grid[-1] == pytest.approx(7850857461.657, abs=1e-5)


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
        (["simulate", "--horizon", "1"], bank_to_json(KernelBank.poisson((1.0, 1.0, 1.0))).replace(
            '"delta": 0.0\n  }\n}', '"delta": 0.2\n  }\n}'),
         "death_kernel delta must be 0"),
        (["expect", "--method", "paper"], bank_to_json(KernelBank.exponential(
            (1.0, 0.8, 1.2), ((0.4, 0.6), (0.2, 0.3)), (1.0, 1.0), 0.4, 1.0)),
         "equal decay rates"),
        (["regime"], '{"base_rates": [1, 2', "delimiter"),
    ], ids=["offset_bank_simulated", "paper_curve_at_equal_decay_rates", "bank_not_json"])
    def test_value_error_subclasses_exit_2(self, argv, bank, message, tmp_path, capsys):
        # A plain ValueError, DegenerateParametersError and
        # json.JSONDecodeError, each a ValueError.
        path = tmp_path / "bank.json"
        path.write_text(bank)
        out = tmp_path / "out"
        assert run(argv + ["--bank", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        # --out is created once the bank loads, and only the expect case's bank does.
        assert out.exists() is (argv[0] == "expect")

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


def _drop_alpha(doc):
    del doc["birth_kernels"][0][1]["alpha"]
    return doc


def test_missing_bank_key_named(tmp_path, capsys):
    # A missing key once escaped as a KeyError whose text was only the key.
    bank = tmp_path / "bank.json"
    doc = json.loads(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0))))
    bank.write_text(json.dumps(_drop_alpha(doc)))
    assert run(["regime", "--bank", str(bank), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: birth_kernels[0][1] is missing 'alpha'\n"


def test_unknown_kernel_key_named(tmp_path, capsys):
    # The message once read "unknown kernel keys", naming no kernel.
    bank = tmp_path / "bank.json"
    doc = json.loads(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0))))
    doc["birth_kernels"][1][0]["gamma"] = 1
    bank.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["regime", "--bank", str(bank), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: birth_kernels[1][0] has unknown keys: ['gamma']\n"
    assert not out.exists()


# The arguments each subcommand needs besides --bank and --out.
REQUIRED_ARGS = {
    "expect": [],
    "simulate": ["--horizon", "1"],
    "population": ["--horizon", "1"],
    "sweep": ["--f-grid", "0:1:0.5", "--horizon", "1", "--runs", "1", "--threads", "1"],
    "rho": ["--f", "0.5", "--epsilon", "0", "--horizon", "1", "--runs", "1",
            "--threads", "1"],
    "gof": ["--horizon", "1"],
    "generator-check": ["--reps", "2"],
    "regime": [],
}


def _bad_bank(tmp_path, kind):
    """A bank path that fails to load: missing, not JSON, or missing a key."""
    path = tmp_path / "bank.json"
    if kind == "not_json":
        path.write_text('{"base_rates": [1, 2')
    elif kind == "missing_key":
        doc = json.loads(bank_to_json(KernelBank.poisson((2.0, 1.0, 1.0))))
        del doc["death_kernel"]
        path.write_text(json.dumps(doc))
    return path


class TestFailedLoadWritesNothing:
    """The bank is read before --out is created, so a bad bank leaves no trace."""

    @pytest.mark.parametrize("kind", ["missing_file", "not_json", "missing_key"])
    @pytest.mark.parametrize("command", list(REQUIRED_ARGS))
    def test_out_not_created(self, command, kind, tmp_path, capsys):
        # regime once exited 2 here but left an empty --out behind.
        bank = _bad_bank(tmp_path, kind)
        out = tmp_path / "out"
        assert run([command, "--bank", str(bank), "--out", str(out)]
                   + REQUIRED_ARGS[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if kind == "missing_file" else ["bank.json"])

    def test_expect_names_the_bank_first(self, tmp_path, capsys):
        bank = _bad_bank(tmp_path, "missing_key")
        assert run(["expect", "--bank", str(bank), "--points", "0",
                    "--out", str(tmp_path / "out")]) == 2
        assert "the bank document is missing 'death_kernel'" in capsys.readouterr().err


class TestGridEnds:
    """A start:stop:step grid whose step does not divide the span stops short of stop."""

    def test_sweep(self, bank_file, tmp_path):
        # Once exited 2 with "f_grid points must be in [0, 1], got 1.2".
        assert run(["sweep", "--bank", bank_file, "--f-grid", "0:1:0.6", "--horizon", "5",
                    "--runs", "1", "--threads", "1", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "sweep.json").read_text())["f_grid"] == [0.0, 0.6]

    def test_population_snapshots(self, bank_file, tmp_path):
        # Once wrote a snapshot labelled t = 12 on a path to horizon 10.
        assert run(["population", "--bank", bank_file, "--horizon", "10",
                    "--snapshot-grid", "0:10:6", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "partition.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"0", "6"}

    def test_population_snapshots_stop_at_the_horizon(self, bank_file, tmp_path):
        # Once wrote the final partition under t = 10, 15 and 20 as well.
        assert run(["population", "--bank", bank_file, "--horizon", "5",
                    "--snapshot-grid", "0:20:5", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "partition.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"0", "5"}


# Each subcommand's options as flag: (type, default, choices, required),
# written from the parser before its shared options were consolidated.
OPTIONS = {
    "expect": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--gnuplot": (None, False, None, False),
        "--t-max": (float, 10.0, None, False),
        "--points": (int, 101, None, False),
        "--method": (None, "both", ["paper", "renewal", "both"], False),
    },
    "simulate": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--gnuplot": (None, False, None, False),
        "--engine": (None, "markov", ["markov", "thinning"], False),
        "--horizon": (float, None, None, True),
        "--seed": (int, 0, None, False),
        "--grid": (None, None, None, False),
    },
    "population": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--engine": (None, "markov", ["markov", "thinning"], False),
        "--horizon": (float, None, None, True),
        "--seed": (int, 0, None, False),
        "--f": (float, None, None, False),
        "--snapshot-grid": (None, None, None, False),
    },
    "sweep": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--gnuplot": (None, False, None, False),
        "--threads": (int, None, None, False),
        "--f-grid": (None, None, None, True),
        "--horizon": (float, None, None, True),
        "--runs": (int, 50, None, False),
        "--seed": (int, 0, None, False),
    },
    "rho": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--threads": (int, None, None, False),
        "--f": (float, None, None, True),
        "--epsilon": (float, None, None, True),
        "--horizon": (float, None, None, True),
        "--runs": (int, 50, None, False),
        "--seed": (int, 0, None, False),
    },
    "gof": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--engine": (None, "markov", ["markov", "thinning"], False),
        "--horizon": (float, None, None, True),
        "--seed": (int, 0, None, False),
    },
    "generator-check": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
        "--h": (float, 1e-3, None, False),
        "--reps": (int, 100_000, None, False),
        "--seed": (int, 0, None, False),
    },
    "regime": {
        "--bank": (None, None, None, True),
        "--out": (None, ".", None, False),
    },
}
# Help text by flag, the same in every subcommand that has the flag
# except rho's --f, which has none.
OPTION_HELP = {
    "--bank": "kernel bank JSON file",
    "--out": "output directory (default: cwd)",
    "--gnuplot": "also emit a gnuplot script next to the CSV",
    "--threads": "replication pool size (default: HAWKES_EVOLVE_THREADS or the CPU count)",
    "--t-max": "end of the time grid",
    "--points": "grid size",
    "--grid": "start:stop:step grid for intensity recording",
    "--f": "threshold for the left/right occupancy trajectory",
    "--snapshot-grid": "start:stop:step grid of partition snapshots",
    "--f-grid": "start:stop:step fitness grid",
    "--h": "drift window",
}


def _subcommands():
    parser = build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("command", list(OPTIONS))
def test_options_pinned(command):
    options = {}
    for action in _subcommands()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag, = action.option_strings
        options[flag] = (action.type, action.default, action.choices, action.required)
        expected = None if (command, flag) == ("rho", "--f") else OPTION_HELP.get(flag)
        assert action.help == expected, flag
    assert options == OPTIONS[command]


def test_subcommands_pinned():
    assert list(_subcommands()) == list(OPTIONS)


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

    @pytest.mark.parametrize("rates, grid, empty", [
        ((2.0, 1.0, 1.0), ["--snapshot-grid", "0:10:6"], ["0,,0"]),
        ((0.2, 0.1, 5.0), [], ["10,,0"]),
    ], ids=["empty_start", "empty_end"])
    def test_empty_partition_written(self, rates, grid, empty, tmp_path):
        # An empty partition once wrote no row, so the snapshot at t = 0
        # and the final partition of a run that died out went missing.
        bank = tmp_path / "bank.json"
        bank.write_text(bank_to_json(KernelBank.poisson(rates)))
        assert run(["population", "--bank", str(bank), "--horizon", "10", "--out",
                    str(tmp_path)] + grid) == 0
        rows = (tmp_path / "partition.csv").read_text().splitlines()
        assert rows[0] == "t,site_fitness,count"
        assert [row for row in rows[1:] if row.endswith(",,0")] == empty

    def test_sweep_artifacts(self, bank_file, tmp_path):
        assert run(["sweep", "--bank", bank_file, "--f-grid", "0:1:0.5",
                    "--horizon", "20", "--runs", "3", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["fc_paper"] == pytest.approx(0.5)
        assert len(doc["avg_cdf"]) == 3

    def test_capped_sweep_exits_one(self, bank_file, tmp_path, capsys, monkeypatch):
        # Every run stops at its fifth event: the artifacts are written, one
        # line on stderr names the capped runs, and the exit code is 1.
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        assert run(["sweep", "--bank", bank_file, "--f-grid", "0:1:0.5",
                    "--horizon", "20", "--runs", "3", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "3 of 3 runs stopped at max_events" in err
        assert (tmp_path / "sweep.json").exists() and (tmp_path / "sweep.csv").exists()

    def test_capped_rho_exits_one(self, bank_file, tmp_path, capsys, monkeypatch):
        # As for sweep: rho.json is written, one line on stderr names the
        # capped runs, and the exit code is 1.
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        assert run(["rho", "--bank", bank_file, "--f", "0.75", "--epsilon", "0.25",
                    "--horizon", "50", "--runs", "3", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rho: 3 of 3 runs stopped at max_events" in err
        doc = json.loads((tmp_path / "rho.json").read_text())
        assert "n_capped" not in doc and len(doc["terminal_rho"]) == 3

    def test_capped_generator_check_exits_one(self, bank_file, tmp_path, capsys, monkeypatch):
        # Every path stops at its fifth event, long before h = 10:
        # generator_check.json is written, one line on stderr names the
        # capped paths, and the exit code is 1.
        monkeypatch.setattr(experiments, "SimConfig", partial(SimConfig, max_events=5))
        assert run(["generator-check", "--bank", bank_file, "--h", "10", "--reps", "1000",
                    "--seed", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "generator-check: 1000 of 1000 runs stopped at max_events" in err
        doc = json.loads((tmp_path / "generator_check.json").read_text())
        assert [row["function"] for row in doc] == ["1", "n1+n2-n3", "l1", "l1*l2", "n3*l3"]
        assert "n_capped" not in doc[0]

    def test_rho_artifact(self, bank_file, tmp_path):
        assert run(["rho", "--bank", bank_file, "--f", "0.75", "--epsilon", "0",
                    "--horizon", "50", "--runs", "2", "--seed", "1",
                    "--threads", "1", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "rho.json").read_text())
        assert doc["limit_paper"] == pytest.approx(0.25)
        assert len(doc["terminal_rho"]) == 2

    def test_gof_exit_zero_on_good_fit(self, bank_file, tmp_path):
        # gof exits 1 when any of its three KS tests reads p <= 0.01, so a
        # correct simulation fails about 3% of seeds.  Over 60 seeds, more
        # than 6 failures has probability about 0.2%.
        failures = 0
        for seed in range(60):
            out = tmp_path / str(seed)
            out.mkdir()
            code = run(["gof", "--bank", bank_file, "--horizon", "200",
                        "--seed", str(seed), "--out", str(out)])
            assert code in (0, 1)
            failures += code
            doc = json.loads((out / "gof.json").read_text())
            assert set(doc) == {"1", "2", "3"}
        assert failures <= 6

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
        "events.csv": "d119cfb9af78a735a4c2fdef2b0098e6a2e6aff10f22d6514ca7dd950d353aa4",
        "intensity.csv": "4f2a47cf04d4ad30f043446b920d3abceee49f2c405eb1b1866933d4a5011c7d",
    },
    ("cross", "simulate-thinning"): {
        "events.csv": "d119cfb9af78a735a4c2fdef2b0098e6a2e6aff10f22d6514ca7dd950d353aa4",
        "intensity.csv": "4f2a47cf04d4ad30f043446b920d3abceee49f2c405eb1b1866933d4a5011c7d",
    },
    ("cross", "population"): {
        "partition.csv": "e08127d9c157b86358adabde22fd079ebfc4bce2b4eb0bf2bed6f36e0af368ac",
        "lr.csv": "d7e4abda815027f54503f8034f7546e088b56c42b0a4c26a42ba1bbdb43466b1",
    },
    ("cross", "sweep"): {
        "sweep.json": "8c22c006739894f8b03ad3b72cf21ff7f27de20c8b40c44d0425b2518a5c60a2",
    },
    ("cross", "rho"): {
        "rho.json": "0f4704ae348565dd63da689425bdf493efb3b5926dac7da8138cdd488c904a4d",
    },
    ("cross", "gof"): {
        "gof.json": "84fc342f744cbaa693f8fd346ca5dd472f1fe1e4c7d5024a160a12889ee27bf8",
    },
    ("cross", "generator-check"): {
        "generator_check.json":
            "d5a20f5fa21f685d3efc237b77d9d76d133dfb517f232a0ce133ea570f856d4d",
    },
    ("cross", "expect"): {
        "expectations.csv": "0b6cefdea408e23bc0a033b88f850c44dc61912e31e32bf4ed8c9a7afeb42730",
    },
    ("poisson", "simulate-markov"): {
        "events.csv": "c1bf99e375d7747e04c4b37a4f83b3e90310518b49a1d5a3aa7a5022cb91c534",
        "intensity.csv": "7ec45b40ed5595f402f8b79761ef512ea4134c5f194e36304e458d4b69419df7",
    },
    ("poisson", "simulate-thinning"): {
        "events.csv": "c1bf99e375d7747e04c4b37a4f83b3e90310518b49a1d5a3aa7a5022cb91c534",
        "intensity.csv": "7ec45b40ed5595f402f8b79761ef512ea4134c5f194e36304e458d4b69419df7",
    },
    ("poisson", "population"): {
        "partition.csv": "202e885f4a484d6b75db22d7295fe676a8bd49a93297383ae08dfe9c93e0c42e",
        "lr.csv": "7022b95b5a3af6498a06c86879b724e01f4a177baede6bda3a47b8dfbf1fa8d5",
    },
    ("poisson", "sweep"): {
        "sweep.json": "767bec8d7d721f5e3d6338fad83830f8aa55a0a970b873dd1d781494a24a5b51",
    },
    ("poisson", "rho"): {
        "rho.json": "9ac70328576c38fff10a5e9cffb807b75f960b06289d7f2a7bdcae31976f2f23",
    },
    ("poisson", "gof"): {
        "gof.json": "bde8ae9fb357bcb0c840597bda866fe4dbb4589cdcc80cb027bad930f5679239",
    },
    ("poisson", "generator-check"): {
        "generator_check.json":
            "a51e38bd1fb73f55e2bffab85b42187dc8de571fd329483c8b8645be614c8f42",
    },
    ("poisson", "expect"): {
        "expectations.csv": "de54a80c3090f2e620c35205f651acf4884e5c4d81060b8cd3601e20d25bb847",
    },
}
# Digests that depend on numpy's exp dispatch target (conftest.py), where
# ARTIFACT_SHA256 holds the X86_V4 one.  gof's KS p-value for process 1 on
# the Poisson bank reads 0.7249543521421838 on X86_V4 and ...837 below it.
ARTIFACT_SHA256_BY_TARGET = {
    ("poisson", "gof"): {
        "X86_V4": ARTIFACT_SHA256["poisson", "gof"],
        "X86_V3": {
            "gof.json": "ad39e46ecafc30b531c763366ecf223f8f9986638cb22d34eb0978973333ae23",
        },
        "baseline(X86_V2)": {
            "gof.json": "ad39e46ecafc30b531c763366ecf223f8f9986638cb22d34eb0978973333ae23",
        },
    },
}


# Exit codes other than 0.  gof's death residual on the Poisson bank at
# seed 2 reads KS p = 0.00997, at its 1% cut.
ARTIFACT_EXIT = {("poisson", "gof"): 1}


class TestArtifactBytes:
    """SHA-256 of each artifact of small fixed-seed runs, to catch any byte change."""

    @pytest.mark.parametrize("bank", sorted(BANKS))
    @pytest.mark.parametrize("command", list(RUNS))
    def test_digests_pinned(self, bank, command, tmp_path, for_exp_target):
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(bank_to_json(BANKS[bank]))
        args, artifacts = RUNS[command]
        code = run(args + ["--bank", str(bank_path), "--out", str(tmp_path)])
        assert code == ARTIFACT_EXIT.get((bank, command), 0)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in artifacts}
        by_target = ARTIFACT_SHA256_BY_TARGET.get((bank, command))
        assert digests == (ARTIFACT_SHA256[bank, command] if by_target is None
                           else for_exp_target(by_target))


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
