#!/usr/bin/env python3
"""Build and run the INDaaS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0 --repeat 10

The first form builds perfbench/perfbench.exe with dune, runs one workload
in its own process and passes its output through; the last line is the
JSON result. "all" runs every workload, one process each, and ends with a
JSON line whose metric names are prefixed "<workload>/". --repeat N runs
the workload N times with seeds N, N+1, ... and prints each metric's
median, quartiles and quartile spread (as a share of the median), the
figures the bounds in BENCHMARK.json are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["serve-churn", "audit-fattree", "audit-prob", "pia-psop"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "service"))):
        fail("run from the root of an INDaaS source checkout (no dune-project or lib/ here)", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed", 3)


def run_once(workload, seed, seconds, trace, echo):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail("%s (seed %d) exited with code %d" % (workload, seed, proc.returncode), 4)
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload, args):
    runs = [run_once(workload, args.seed + i, args.seconds, args.trace, echo=False)
            for i in range(args.repeat)]
    print("%s: %d runs, seeds %d..%d" % (workload, args.repeat, args.seed,
                                         args.seed + args.repeat - 1))
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("  failed/attempted per run: %s" % ", ".join("%d/%d" % s for s in shares))
    print("  %-30s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "spread"))
    medians = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print("  %-30s %14.6g %14.6g %14.6g %7.1f%%  %s" % (name, q1, med, q3, 100 * spread,
                                                           first["unit"]))
        medians[name] = {"value": med, "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": medians,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        if args.repeat > 0:
            results[w] = repeat(w, args)
        else:
            results[w] = run_once(w, args.seed, args.seconds, args.trace, echo=True)
            if len(workloads) > 1:
                print("%s: %s" % (w, json.dumps(results[w])))
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, name): m
                        for w, r in results.items() for name, m in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
