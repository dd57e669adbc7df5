#!/usr/bin/env python3
"""Run the benchmark over several seeds and record each metric's spread.

    python3 perfbench/baseline.py [--runs 10] [--traced-runs 3]
        [--first-seed 101] [--workloads spec_sweep,controlled]
        [--out perfbench/BASELINE.json] [--label TEXT]

Each run is one `perfbench/run.py` invocation with its own seed and the
run length BENCHMARK.json sets. For every workload x metric the output
holds the median, the quartiles (statistics.quantiles(values, n=4)),
the spread (q3 - q1) / median and, for end-to-end metrics, that spread
as a share of the metric's bound. Every run must report correct.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("baseline: failed: " + " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("baseline: incorrect result: " + " ".join(cmd))
    return result


def summarise(values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
        out["spread_over_bound"] = out["spread"] / bound
    out["values"] = values
    return out


def collect(workload, seeds, seconds, trace, bounds):
    values, attempted, failed = {}, 0, 0
    for seed in seeds:
        result = run(workload, seed, seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("  %s seed %d trace %d done" % (workload, seed, trace),
              flush=True)
    metrics = {name: summarise(v, bounds.get(name))
               for name, v in sorted(values.items())}
    return metrics, attempted, failed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=3)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    ap.add_argument("--label", default="",
                    help="what was measured, e.g. the library commit")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("baseline: --runs must be at least 2 for quartiles")

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    traced_seeds = seeds[:args.traced_runs]
    doc = {"label": args.label,
           "host": {"machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "run_seconds": seconds, "seeds": seeds,
           "traced_seeds": traced_seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        e2e, attempted, failed = collect(workload, seeds, seconds, 0, bounds)
        entry = {"end_to_end": e2e, "attempted": attempted, "failed": failed}
        if len(traced_seeds) >= 2:
            entry["per_layer"] = collect(workload, traced_seeds, seconds, 1,
                                         {})[0]
        doc["workloads"][workload] = entry
        for name, s in e2e.items():
            print("%-12s %-22s median %-12.6g spread %.4f (%.2f of bound)"
                  % (workload, name, s["median"], s["spread"],
                     s["spread_over_bound"]), flush=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("wrote " + os.path.relpath(args.out, ROOT))


if __name__ == "__main__":
    main()
