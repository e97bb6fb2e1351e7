"""Command line front end.

One verb per analysis family; every subcommand reads a kernel bank from
JSON, runs, and writes plot-ready CSV/JSON artifacts into the output
directory.  Exit codes: 0 success, 2 validation error (single-line
diagnostic on stderr), 1 when a statistical check the subcommand
performs comes out negative.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from .core import IntensityState, KernelBank, UnsupportedKernelError, bank_from_json
from .expectations import (
    DegenerateParametersError,
    NoStationaryRateError,
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
from .simulate import SimConfig, simulate


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
    n = int(round(count))
    grid = start + step * np.arange(n + 1)
    # Half-step tolerance keeps the endpoint despite rounding.
    return grid[grid <= stop + 0.5 * step]


def _load_bank(path: str) -> KernelBank:
    with open(path, "r", encoding="utf-8") as fh:
        return bank_from_json(fh.read())


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


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _cmd_expect(args) -> int:
    bank = _load_bank(args.bank)
    grid = np.linspace(0.0, args.t_max, args.points)
    methods = ("paper", "renewal") if args.method == "both" else (args.method,)
    rows = []
    for i in (1, 2, 3):
        for method in methods:
            if method == "paper":
                vals = expected_intensity_paper(bank, i, grid)
            else:
                vals = expected_intensity_renewal(bank, i, grid)
            rows.extend((f"{t:.10g}", f"{v:.10g}", method, i) for t, v in zip(grid, vals))
    out = os.path.join(args.out, "expectations.csv")
    _write_csv(out, ["t", "value", "method", "index"], rows)
    if args.gnuplot:
        _write_gnuplot(os.path.join(args.out, "expectations.gp"), "expectations.csv",
                       "mean intensities", [(2, "value")])
    return 0


def _cmd_simulate(args) -> int:
    bank = _load_bank(args.bank)
    record = None if args.grid is None else tuple(parse_grid(args.grid))
    config = SimConfig(horizon=args.horizon, seed=args.seed, engine=args.engine,
                       record_grid=record)
    path = simulate(bank, config)
    rows = []
    n = [0, 0, 0]
    for t, mark in zip(path.events.times.tolist(), path.events.marks.tolist()):
        n[mark - 1] += 1
        rows.append((f"{t:.12g}", mark, n[0], n[1], n[2], n[0] + n[1] - n[2]))
    _write_csv(os.path.join(args.out, "events.csv"),
               ["time", "mark", "n1", "n2", "n3", "N"], rows)
    if path.intensity_samples is not None:
        rows = [
            (f"{t:.10g}", f"{s[0]:.10g}", f"{s[1]:.10g}", f"{s[2]:.10g}")
            for t, s in zip(path.grid, path.intensity_samples)
        ]
        _write_csv(os.path.join(args.out, "intensity.csv"),
                   ["t", "lambda1", "lambda2", "lambda3_gated"], rows)
        if args.gnuplot:
            _write_gnuplot(os.path.join(args.out, "intensity.gp"), "intensity.csv",
                           "sampled intensities",
                           [(2, "lambda1"), (3, "lambda2"), (4, "lambda3 gated")])
    return 0


def _cmd_population(args) -> int:
    bank = _load_bank(args.bank)
    config = SimConfig(horizon=args.horizon, seed=args.seed, engine=args.engine)
    snap = None if args.snapshot_grid is None else parse_grid(args.snapshot_grid)
    pop = simulate_population(bank, config, f=args.f, snapshot_grid=snap)
    snapshots = pop.snapshots if snap is not None else [(args.horizon, pop.partition.sites())]
    rows = [
        (f"{t:.10g}", f"{x:.12g}", k)
        for t, sites in snapshots for x, k in sites
    ]
    _write_csv(os.path.join(args.out, "partition.csv"),
               ["t", "site_fitness", "count"], rows)
    if pop.lr_trajectory is not None:
        rows = [
            (f"{t:.12g}", int(l), int(r), int(n), f"{args.f:.10g}")
            for t, l, r, n in pop.lr_trajectory
        ]
        _write_csv(os.path.join(args.out, "lr.csv"), ["t", "L", "R", "N", "f"], rows)
    return 0


def _cmd_sweep(args) -> int:
    bank = _load_bank(args.bank)
    f_grid = parse_grid(args.f_grid)
    result = phase_transition_sweep(bank, f_grid, args.horizon, args.runs, args.seed,
                                    threads=_resolve_threads(args.threads))
    _write_json(os.path.join(args.out, "sweep.json"), result.to_dict())
    rows = [(f"{f:.10g}", f"{v:.10g}") for f, v in zip(result.f_grid, result.avg_cdf)]
    _write_csv(os.path.join(args.out, "sweep.csv"), ["f", "avg_cdf"], rows)
    if args.gnuplot:
        _write_gnuplot(os.path.join(args.out, "sweep.gp"), "sweep.csv",
                       "terminal site distribution", [(2, "avg F_T")])
    return 0


def _cmd_rho(args) -> int:
    bank = _load_bank(args.bank)
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


def _cmd_gof(args) -> int:
    bank = _load_bank(args.bank)
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


def _cmd_generator_check(args) -> int:
    bank = _load_bank(args.bank)
    state = IntensityState()
    checks = generator_drift_check(bank, state, [f for _, f in _POLY_FUNCTIONS],
                                   h=args.h, n_reps=args.reps, seed=args.seed)
    payload = []
    n_bad = 0
    for (name, _), chk in zip(_POLY_FUNCTIONS, checks):
        z = chk.z
        n_bad += abs(z) >= 3
        payload.append({
            "function": name,
            "analytic": chk.analytic,
            "mc_mean": chk.mc_mean,
            "mc_stderr": chk.mc_stderr,
            "z": None if z != z else z,
        })
    _write_json(os.path.join(args.out, "generator_check.json"), payload)
    # One outlier in five is within normal MC noise at |z| = 3.
    return 1 if n_bad > 1 else 0


def _cmd_regime(args) -> int:
    bank = _load_bank(args.bank)
    doc = classify_regime(bank).to_dict()
    _write_json(os.path.join(args.out, "regime.json"), doc)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkes-evolve",
        description="Simulation and analysis of the mutually-exciting birth-death "
                    "population model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False, gnuplot=False):
        p.add_argument("--bank", required=True, help="kernel bank JSON file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        if gnuplot:
            p.add_argument("--gnuplot", action="store_true",
                           help="also emit a gnuplot script next to the CSV")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="replication pool size (default: HAWKES_EVOLVE_THREADS "
                                "or the CPU count)")

    p = sub.add_parser("expect", help="tabulate the analytic mean-intensity curves")
    common(p, gnuplot=True)
    p.add_argument("--t-max", type=float, default=10.0, help="end of the time grid")
    p.add_argument("--points", type=int, default=101, help="grid size")
    p.add_argument("--method", choices=["paper", "renewal", "both"], default="both")
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("simulate", help="sample one event path")
    common(p, gnuplot=True)
    p.add_argument("--engine", choices=["markov", "thinning"], default="markov")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None,
                   help="start:stop:step grid for intensity recording")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("population", help="sample a fitness-structured trajectory")
    common(p)
    p.add_argument("--engine", choices=["markov", "thinning"], default="markov")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", type=float, default=None,
                   help="threshold for the left/right occupancy trajectory")
    p.add_argument("--snapshot-grid", default=None,
                   help="start:stop:step grid of partition snapshots")
    p.set_defaults(fn=_cmd_population)

    p = sub.add_parser("sweep", help="terminal site-distribution sweep over runs")
    common(p, threads=True, gnuplot=True)
    p.add_argument("--f-grid", required=True, help="start:stop:step fitness grid")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("rho", help="terminal left-mass fraction of the modified chain")
    common(p, threads=True)
    p.add_argument("--f", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("gof", help="goodness of fit of one simulated path")
    common(p)
    p.add_argument("--engine", choices=["markov", "thinning"], default="markov")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gof)

    p = sub.add_parser("generator-check",
                       help="drift check of the analytic generator at the empty state")
    common(p)
    p.add_argument("--h", type=float, default=1e-3, help="drift window")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generator_check)

    p = sub.add_parser("regime", help="classify the long-run population regime")
    common(p)
    p.set_defaults(fn=_cmd_regime)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args)
    except (ValueError, KeyError, OSError, UnsupportedKernelError,
            DegenerateParametersError, NoStationaryRateError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
