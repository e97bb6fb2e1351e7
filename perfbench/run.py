"""Run one benchmark workload of hawkes-evolve and print its metrics.

    python3 perfbench/run.py --workload mc_cross --seed 1 --seconds 15 --trace 0

Paths are taken from this file, so any working directory works.  The
package is imported from ``src/`` beside this directory.  The run
repeats fixed-size rounds of the workload until ``--seconds`` have
passed and checks every round's outputs.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.  Times are
rescaled to a reference machine speed (see speed.py).  A copy of the
result, with the raw times and the machine record, is written to
``perfbench/out/``.  README.md says what each metric means.
"""

import os
import sys
import time

import speed

PROBE = speed.SpeedProbe()
SAMPLE0 = PROBE.sample()
# Set-up is timed from here, before numpy, scipy or the package is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("mc_cross", "engines_cross", "sweep_cli", "drift_check")
# Set-up is timed once in this process and again in fresh processes
# after the measured phase; the metric is the median.
SETUP_SAMPLES = 5
POOL_THREADS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description="hawkes-evolve benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured phase; rounds start until it has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(args, threads: int, work_dir: str):
    """Import the package from src/ and build the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "hawkes_evolve", "__init__.py")):
        print(f"error: no hawkes_evolve package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, threads, work_dir)


def pin_to_one_cpu() -> None:
    """Keep a single-process workload on one CPU, so the speed probe samples that CPU.

    Affinity on Linux is per thread, and the probe's thread is already
    running, so every thread of the process is pinned.
    """
    cpu = {max(os.sched_getaffinity(0))}
    for thread in threading.enumerate():
        os.sched_setaffinity(thread.native_id, cpu)


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_time() -> tuple:
    """(rescaled, raw) set-up time of this process, up to now."""
    raw = time.perf_counter() - T0
    return raw * PROBE.factor(SAMPLE0, PROBE.sample()), raw


def setup_probe(args) -> tuple:
    """Set-up time measured in a fresh interpreter, rescaled and raw."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(float(x) for x in done.stdout.split())


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure(args, work_dir: str) -> tuple:
    threads = min(POOL_THREADS, len(os.sched_getaffinity(0)))
    if args.workload != "sweep_cli":
        pin_to_one_cpu()
    wl = setup(args, threads, work_dir)
    setups = [setup_time()]
    rows, errors = [], []  # (replications, wall, wall rescaled, cpu, cpu rescaled) per round
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < args.seconds:
        watch = speed.Stopwatch(PROBE, cpu_seconds)
        res = wl.score(r, [watch.time(chunk) for chunk in wl.chunks(r)])
        rows.append((res.replications, watch.wall, watch.wall_scaled, watch.cpu,
                     watch.cpu_scaled))
        attempted, failed = attempted + res.attempted, failed + res.failed
        errors += res.errors
        r += 1
    errors += wl.check()
    peak = peak_rss_mib()
    setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "setup_s": ("s", statistics.median(s for s, _ in setups)),
        "replications_per_s": ("1/s", statistics.median(row[0] / row[2] for row in rows)),
        "cpu_s": ("s", statistics.median(row[4] for row in rows)),
        "peak_rss_mib": ("MiB", peak),
    }
    return metrics, attempted, failed, errors, {"setup_samples": setups, "rounds": rows}


def measure_traced(args, work_dir: str) -> tuple:
    """Each round runs twice on the same inputs, untraced and traced, in alternating order.

    Only the untraced pass is scored and counted.  Pool workers would not
    report spans, so the sweep runs on one worker in both passes.
    """
    from spans import Tracer

    pin_to_one_cpu()
    wl = setup(args, 1, work_dir)
    tracer = Tracer()
    overheads, errors = [], []
    traced_raw = traced_scaled = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < args.seconds:
        watches = {}
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            watch = watches[traced] = speed.Stopwatch(PROBE, cpu_seconds)
            if traced:
                tracer.install()
            try:
                outputs = [watch.time(chunk) for chunk in wl.chunks(r)]
            finally:
                tracer.uninstall()
            if not traced:
                res = wl.score(r, outputs)
        traced_raw += watches[True].wall
        traced_scaled += watches[True].wall_scaled
        overheads.append(watches[True].wall_scaled - watches[False].wall_scaled)
        attempted, failed = attempted + res.attempted, failed + res.failed
        errors += res.errors
        r += 1
    errors += wl.check()
    # The spans are raw; the traced passes' mean rescaling applies to all of them.
    factor = traced_scaled / traced_raw
    metrics = tracer.layer_metrics(r, factor)
    metrics["tracing_overhead_s"] = ("s", statistics.median(overheads))
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.csv"))
    return metrics, attempted, failed, errors, {"rounds": r, "spans": len(tracer),
                                                "factor": factor}


def main(argv) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            pin_to_one_cpu()
            setup(args, 1, work_dir)
            print("%.6f %.6f" % setup_time())
            return 0
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, errors, extra = run(args, work_dir)
    finally:
        PROBE.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, errors=errors, machine=machine(), **extra)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
