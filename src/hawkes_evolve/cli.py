"""Command line front end.

One verb per analysis family.  ``run`` reads and validates the kernel
bank JSON before anything is written, naming a missing key in its
error, so a bank that fails to load leaves no output directory behind;
only then does the subcommand write plot-ready CSV/JSON artifacts into
the output directory.  A ``start:stop:step`` grid never goes past
``stop``.  Exit codes: 0 success, 2 validation error (single-line
diagnostic on stderr), 1 when a statistical check the subcommand
performs comes out negative, or when a ``sweep`` run stopped at
``max_events`` (single line on stderr; the artifacts are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from .core import IntensityState, KernelBank, bank_from_json
from .expectations import (
    classify_regime,
    expected_intensity_paper,
    expected_intensity_renewal,
)
from .experiments import (
    generator_drift_check,
    gof_report,
    phase_transition_sweep,
    rho_convergence_check,
)
from .population import simulate_population
from .simulate import SimConfig, check_grid, intensities_at, simulate


# The most points a grid may have; every grid this package needs has a
# few hundred at most, and a count near 10^8 would allocate gigabytes.
MAX_GRID_POINTS = 10**6


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive uniform grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not np.all(np.isfinite((start, stop, step))):
        raise ValueError(f"grid parts must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"grid needs step > 0 and stop >= start, got {text!r}")
    count = (stop - start) / step
    if not count < MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points, got {text!r}")
    grid = start + step * np.arange(int(round(count)) + 1)
    # The rounded count reaches an endpoint that the division put just
    # short, and may overshoot stop by a fraction of a step.  Keep points
    # up to stop plus rounding: a billionth of a step, and a few ulps of
    # the grid's magnitude for a grid far from 0.
    return grid[grid <= stop + 1e-9 * step + 4 * np.spacing(max(abs(start), abs(stop)))]


def _resolve_threads(value: Optional[int]) -> int:
    """The pool size: --threads, else HAWKES_EVOLVE_THREADS, else the CPU count.

    A size below 1, or a variable that is not an integer, raises a
    ValueError naming where it came from.
    """
    source = "--threads"
    if value is None:
        env = os.environ.get("HAWKES_EVOLVE_THREADS")
        if env is None:
            return os.cpu_count() or 1
        source = "HAWKES_EVOLVE_THREADS"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer >= 1, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _json_value(obj):
    """``obj`` with each non-finite float replaced by None, so it writes as strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _json_text(obj) -> str:
    return json.dumps(_json_value(obj), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")


def _write_gnuplot(path: str, csv_name: str, title: str, columns: list[tuple[int, str]]) -> None:
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key outside",
        "plot " + ", \\\n     ".join(
            f"'{csv_name}' using 1:{c} with lines title '{label}'" for c, label in columns
        ),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_CURVES = {"paper": expected_intensity_paper, "renewal": expected_intensity_renewal}


def _cmd_expect(args, bank: KernelBank) -> int:
    if not 1 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"--points must be between 1 and {MAX_GRID_POINTS}, got {args.points}")
    if not 0 < args.t_max < np.inf:
        raise ValueError(f"--t-max must be finite and > 0, got {args.t_max}")
    grid = np.linspace(0.0, args.t_max, args.points)
    methods = list(_CURVES) if args.method == "both" else [args.method]
    rows = []
    for i in (1, 2, 3):
        for method in methods:
            vals = _CURVES[method](bank, i, grid)
            rows.extend((f"{t:.10g}", f"{v:.10g}", method, i) for t, v in zip(grid, vals))
    out = os.path.join(args.out, "expectations.csv")
    _write_csv(out, ["t", "value", "method", "index"], rows)
    if args.gnuplot:
        _write_gnuplot(os.path.join(args.out, "expectations.gp"), "expectations.csv",
                       "mean intensities", [(2, "value")])
    return 0


def _cmd_simulate(args, bank: KernelBank) -> int:
    config = SimConfig(horizon=args.horizon, seed=args.seed, engine=args.engine)
    grid = None if args.grid is None else check_grid(parse_grid(args.grid), "record_grid")
    path = simulate(bank, config)
    rows = []
    n = [0, 0, 0]
    for t, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        n[mark - 1] += 1
        rows.append((f"{t:.12g}", mark, n[0], n[1], n[2], n[0] + n[1] - n[2]))
    _write_csv(os.path.join(args.out, "events.csv"),
               ["time", "mark", "n1", "n2", "n3", "N"], rows)
    if grid is not None:
        rows = [
            (f"{t:.10g}", f"{s[0]:.10g}", f"{s[1]:.10g}", f"{s[2]:.10g}")
            for t, s in zip(grid, intensities_at(path, bank, grid))
        ]
        _write_csv(os.path.join(args.out, "intensity.csv"),
                   ["t", "lambda1", "lambda2", "lambda3_gated"], rows)
        if args.gnuplot:
            _write_gnuplot(os.path.join(args.out, "intensity.gp"), "intensity.csv",
                           "sampled intensities",
                           [(2, "lambda1"), (3, "lambda2"), (4, "lambda3 gated")])
    return 0


def _cmd_population(args, bank: KernelBank) -> int:
    config = SimConfig(horizon=args.horizon, seed=args.seed, engine=args.engine)
    snap = None if args.snapshot_grid is None else parse_grid(args.snapshot_grid)
    pop = simulate_population(bank, config, f=args.f, snapshot_grid=snap)
    snapshots = pop.snapshots if snap is not None else [(args.horizon, pop.partition.sites())]
    rows = []
    for t, sites in snapshots:
        # A snapshot with no site writes one row, so that it still shows.
        rows += [(f"{t:.10g}", f"{x:.12g}", k) for x, k in sites] or [(f"{t:.10g}", "", 0)]
    _write_csv(os.path.join(args.out, "partition.csv"),
               ["t", "site_fitness", "count"], rows)
    if pop.lr_trajectory is not None:
        rows = [
            (f"{t:.12g}", int(l), int(r), int(n), f"{args.f:.10g}")
            for t, l, r, n in pop.lr_trajectory
        ]
        _write_csv(os.path.join(args.out, "lr.csv"), ["t", "L", "R", "N", "f"], rows)
    return 0


def _cmd_sweep(args, bank: KernelBank) -> int:
    f_grid = parse_grid(args.f_grid)
    result = phase_transition_sweep(bank, f_grid, args.horizon, args.runs, args.seed,
                                    threads=_resolve_threads(args.threads))
    _write_json(os.path.join(args.out, "sweep.json"), result.to_dict())
    rows = [(f"{f:.10g}", f"{v:.10g}") for f, v in zip(result.f_grid, result.avg_cdf)]
    _write_csv(os.path.join(args.out, "sweep.csv"), ["f", "avg_cdf"], rows)
    if args.gnuplot:
        _write_gnuplot(os.path.join(args.out, "sweep.gp"), "sweep.csv",
                       "terminal site distribution", [(2, "avg F_T")])
    if result.n_capped:
        print(f"sweep: {result.n_capped} of {args.runs} runs stopped at max_events; "
              "their terminal sites are truncated", file=sys.stderr)
        return 1
    return 0


def _cmd_rho(args, bank: KernelBank) -> int:
    report = rho_convergence_check(bank, args.f, args.epsilon, args.horizon,
                                   args.runs, args.seed,
                                   threads=_resolve_threads(args.threads))
    _write_json(os.path.join(args.out, "rho.json"), {
        "f": args.f,
        "epsilon": args.epsilon,
        "terminal_rho": report.terminal_rho.tolist(),
        "mean_rho": report.mean_rho,
        "zero_returns": report.zero_returns.tolist(),
        "limit_paper": report.limit_paper,
        "limit_renewal": report.limit_renewal,
    })
    return 0


def _cmd_gof(args, bank: KernelBank) -> int:
    config = SimConfig(horizon=args.horizon, seed=args.seed, engine=args.engine)
    path = simulate(bank, config)
    report = gof_report(path, bank)
    _write_json(os.path.join(args.out, "gof.json"), {
        str(i): {
            "n_events": e.n_events,
            "ks_stat": e.ks_stat,
            "p_value": e.p_value,
            "insufficient": e.insufficient,
        } for i, e in report.items()
    })
    failed = any(not e.insufficient and e.p_value <= 0.01 for e in report.values())
    return 1 if failed else 0


_POLY_FUNCTIONS = [
    ("1", lambda z: 1.0),
    ("n1+n2-n3", lambda z: z[0] + z[2] - z[4]),
    ("l1", lambda z: z[1]),
    ("l1*l2", lambda z: z[1] * z[3]),
    ("n3*l3", lambda z: z[4] * z[5]),
]


def _cmd_generator_check(args, bank: KernelBank) -> int:
    state = IntensityState()
    checks = generator_drift_check(bank, state, [f for _, f in _POLY_FUNCTIONS],
                                   h=args.h, n_reps=args.reps, seed=args.seed)
    payload = [{"function": name, "analytic": chk.analytic, "mc_mean": chk.mc_mean,
                "mc_stderr": chk.mc_stderr, "z": chk.z}
               for (name, _), chk in zip(_POLY_FUNCTIONS, checks)]
    _write_json(os.path.join(args.out, "generator_check.json"), payload)
    # One outlier in five is within normal MC noise at |z| = 3.
    return 1 if sum(abs(chk.z) >= 3 for chk in checks) > 1 else 0


def _cmd_regime(args, bank: KernelBank) -> int:
    doc = classify_regime(bank).to_dict()
    _write_json(os.path.join(args.out, "regime.json"), doc)
    print(_json_text(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkes-evolve",
        description="Simulation and analysis of the mutually-exciting birth-death "
                    "population model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option that several subcommands share is defined once, in a
    # parent parser that those subcommands list.
    def shared(*args, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    files = shared("--bank", required=True, help="kernel bank JSON file")
    files.add_argument("--out", default=".", help="output directory (default: cwd)")
    gnuplot = shared("--gnuplot", action="store_true",
                     help="also emit a gnuplot script next to the CSV")
    threads = shared("--threads", type=int, default=None,
                     help="replication pool size (default: HAWKES_EVOLVE_THREADS "
                          "or the CPU count)")
    engine = shared("--engine", choices=["markov", "thinning"], default="markov")
    horizon = shared("--horizon", type=float, required=True)
    seed = shared("--seed", type=int, default=0)
    runs = shared("--runs", type=int, default=50)

    def command(name, fn, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[files, *parents])
        p.set_defaults(fn=fn)
        return p

    p = command("expect", _cmd_expect, "tabulate the analytic mean-intensity curves", gnuplot)
    p.add_argument("--t-max", type=float, default=10.0, help="end of the time grid")
    p.add_argument("--points", type=int, default=101, help="grid size")
    p.add_argument("--method", choices=["paper", "renewal", "both"], default="both")

    p = command("simulate", _cmd_simulate, "sample one event path",
                gnuplot, engine, horizon, seed)
    p.add_argument("--grid", default=None,
                   help="start:stop:step grid for intensity recording")

    p = command("population", _cmd_population, "sample a fitness-structured trajectory",
                engine, horizon, seed)
    p.add_argument("--f", type=float, default=None,
                   help="threshold for the left/right occupancy trajectory")
    p.add_argument("--snapshot-grid", default=None,
                   help="start:stop:step grid of partition snapshots")

    p = command("sweep", _cmd_sweep, "terminal site-distribution sweep over runs",
                gnuplot, threads, horizon, runs, seed)
    p.add_argument("--f-grid", required=True, help="start:stop:step fitness grid")

    p = command("rho", _cmd_rho, "terminal left-mass fraction of the modified chain",
                threads, horizon, runs, seed)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    command("gof", _cmd_gof, "goodness of fit of one simulated path", engine, horizon, seed)

    p = command("generator-check", _cmd_generator_check,
                "drift check of the analytic generator at the empty state", seed)
    p.add_argument("--h", type=float, default=1e-3, help="drift window")
    p.add_argument("--reps", type=int, default=100_000)

    command("regime", _cmd_regime, "classify the long-run population regime")

    return parser


def run(argv) -> int:
    """Parse argv, read the bank, then create --out and run the subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        with open(args.bank, "r", encoding="utf-8") as fh:
            bank = bank_from_json(fh.read())
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args, bank)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
