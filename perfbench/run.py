#!/usr/bin/env python3
"""End-to-end benchmark of vguard.

Usage (from anywhere; paths resolve against this file):

    python3 perfbench/run.py --workload spec_sweep --seed 1 --seconds 10 \\
        --trace 0

Builds the library and the benchmark binary (perfbench_vguard) into
.bench_build/perfbench (RelWithDebInfo, the repository default) on first
use, runs the workload in fresh processes, checks every simulation
result, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the binary
traced and reports the per-layer metrics, writing its spans as Chrome
trace-event JSON to .bench_out/. --record stores this seed's run
digests as the correctness oracle under perfbench/oracle/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench_vguard")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
# Cold set-ups per run: the timed process's own plus this many set-up-only
# processes (the library memoises set-up, so only a new process
# repeats it).
EXTRA_SETUPS = 2
# Seconds the binary's reference kernel takes on an idle host (4-vCPU
# Intel Xeon VM). Every timed interval is scaled by the kernel's
# seconds around it over this value, because the other tenants of a
# shared host change its speed by up to 2x over seconds to minutes
# (see ReferenceKernel in main.cpp). The scaling removes part of that
# drift, not all: under the same contention the simulator slows 1.1-1.6
# times as much as the kernel, in log terms.
REF_NOMINAL_S = 0.075
# Every perfbench_vguard process of a run must finish within this many seconds
# after the build.
RUN_BUDGET_S = 170


def with_units(values, specs):
    """{name: {"value", "unit"}} for every metric BENCHMARK.json lists."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        fail("perfbench_vguard reported no value for " + ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_vguard"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % log)


def child(args, *extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT,
                              timeout=max(1.0, args.deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("perfbench_vguard timed out: %s" % " ".join(cmd))
    if proc.returncode != 0:
        fail("perfbench_vguard exited with %d: %s"
             % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench_vguard printed nothing: %s" % " ".join(cmd))
    return json.loads(lines[-1])


def oracle_path(args):
    return os.path.join(HERE, "oracle",
                        "%s.seed-%d.json" % (args.workload, args.seed))


def oracle_failures(args, digests, passes):
    """Run-passes whose digest differs from the recorded oracle."""
    path = oracle_path(args)
    if not os.path.exists(path):
        return 0
    with open(path) as f:
        want = json.load(f)["digests"]
    bad = sorted(k for k in set(want) | set(digests)
                 if want.get(k) != digests.get(k))
    for name in bad[:10]:
        print("perfbench: oracle mismatch: %s: want %s got %s"
              % (name, want.get(name), digests.get(name)), file=sys.stderr)
    return len(bad) * passes


def end_to_end(args):
    timed = child(args)
    setups = [timed] + [child(args, "--setup-only")
                        for _ in range(EXTRA_SETUPS)]
    setup_s = [d["setup_s"] * REF_NOMINAL_S / d["setup_ref_s"]
               for d in setups]
    rates = [cycles / seconds * ref / REF_NOMINAL_S
             for seconds, cycles, _, ref in timed["passes"]]
    values = {
        # The upper quartile of the passes: other tenants of a shared
        # host only ever slow a pass down, and the reference kernel
        # catches slow-downs between passes but not all of those inside
        # one, so the fast passes track the simulator most closely.
        "sim_cycles_per_s": (statistics.quantiles(rates, n=4)[2]
                             if len(rates) > 1 else rates[0]),
        "setup_s": statistics.median(setup_s),
        # High-water after set-up and the first pass, i.e. what one
        # artifact process holds; later passes add only allocator
        # fragmentation.
        "peak_rss_mb": timed["passes"][0][2],
        "model.table3_err_mv": timed["table3_err_mv"],
    }
    metrics = with_units(values, SPEC["end_to_end"])
    print("%s seed %d: %d passes [raw cycles/s, reference s] %s; "
          "set-ups [raw s, reference s] %s"
          % (args.workload, args.seed, len(rates),
             [(round(c / s, 1), round(r, 5))
              for s, c, _, r in timed["passes"]],
             [(round(d["setup_s"], 4), round(d["setup_ref_s"], 5))
              for d in setups]))
    return timed, len(rates), metrics


def per_layer(args):
    os.makedirs(OUT, exist_ok=True)
    trace = os.path.join(OUT, "trace-%s-seed-%d.json"
                         % (args.workload, args.seed))
    traced = child(args, "--traced", "--trace-out", trace)
    metrics = with_units(traced["layers"], SPEC["per_layer"])
    print("%s seed %d: spans written to %s"
          % (args.workload, args.seed, os.path.relpath(trace, ROOT)))
    return traced, traced["pass_count"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's digests as the oracle")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    args.deadline = time.time() + RUN_BUDGET_S
    result, passes, metrics = (per_layer if args.trace else end_to_end)(args)
    digests = result["digests"]
    if args.record:
        os.makedirs(os.path.dirname(oracle_path(args)), exist_ok=True)
        with open(oracle_path(args), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "digests": digests}, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded %d digests to %s"
              % (len(digests), os.path.relpath(oracle_path(args), ROOT)))

    attempted = result["attempted"]
    failed = min(attempted,
                 result["failed"] + oracle_failures(args, digests, passes))
    print("failed_frac %d/%d = %.6g (oracle: %s)"
          % (failed, attempted, failed / attempted,
             "recorded" if os.path.exists(oracle_path(args))
             else "none for this seed; determinism and cross-path only"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
