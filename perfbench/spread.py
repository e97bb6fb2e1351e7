"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

For every workload and end-to-end metric it prints the median of the
runs and the distance between the first and third quartile as a share
of the median, next to the metric's bound in BENCHMARK.json.  Runs go
one after another, never in parallel, so they do not disturb each
other.  Everything is also written to perfbench/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(med) if med else None,
                             "bound": bounds[name], "values": values}
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:14s} {name:40s} median {s['median']:.6g}  "
                  f"spread {spread}  bound {s['bound']}", flush=True)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
