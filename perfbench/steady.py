#!/usr/bin/env python3
"""Steadiness check: runs each workload in two sets of runs of the same
build, alternating between the sets, and prints for every end-to-end
metric each set's median and quartiles, the spread of each set (the
distance between the quartiles as a share of the median), and how much
worse the second set's median is than the first's, against the metric's
bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10]

Every workload of BENCHMARK.json runs, each run for its `run_seconds`
and with its own seed. The output ends with a Markdown table per
workload and a verdict line; README.md records it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed a check")
    return result, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    all_ok = True
    for workload in names:
        sets = ([], [])
        walls = []
        for i in range(opts.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = 1000 * (s + 1) + i
                result, wall = run_once(bench["command"], workload, seed, seconds)
                sets[s].append(result)
                walls.append(wall)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"{workload} set {'AB'[s]} seed {seed}: {wall:.1f} s wall {values}",
                      file=sys.stderr, flush=True)
        print(f"\n### {workload}: {opts.runs} + {opts.runs} runs, "
              f"{seconds} s each, wall per run {statistics.median(walls):.1f} s (median)\n")
        print("| metric | set A median [q1, q3] | spread A | set B median [q1, q3] "
              "| spread B | B worse than A | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            worse = (b[0] - a[0]) / a[0]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound and a[3] <= bound and b[3] <= bound
            steady = a[3] < bound / 3 and b[3] < bound / 3
            verdict = ("ok" if ok else "FAIL") + ("" if steady else ", spread above bound/3")
            all_ok &= ok
            print(f"| {name} | {a[0]:.4g} [{a[1]:.4g}, {a[2]:.4g}] | {a[3]:.3f} "
                  f"| {b[0]:.4g} [{b[1]:.4g}, {b[2]:.4g}] | {b[3]:.3f} "
                  f"| {worse:+.3f} | {bound} | {verdict} |")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\nfailed share: A {shares[0]}, B {shares[1]}")
        all_ok &= shares[0] == shares[1]
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
