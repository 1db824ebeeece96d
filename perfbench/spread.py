#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0] [--out results.json]

Run from the root of the repository. For every workload and end-to-end
metric it prints the median over the seeds and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json. A
spread above a third of its bound is marked; setup_s is exempt from the
spread rule. Raw results go to --out (default .bench_build/spread.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                 "spread.json"))
    a = p.parse_args()
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    results = {}
    worst_ok = True
    for w in a.workloads.split(","):
        runs = []
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace",
                 str(a.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            r = json.loads(lines[-1])
            r["log"] = lines[:-1]
            if proc.returncode != 0 or not r["correct"] or r["failed"]:
                print("%s seed %d: FAILED run" % (w, seed))
                for line in r["log"]:
                    if line.startswith("# CHECK FAILED"):
                        print("  " + line)
                worst_ok = False
            runs.append(r)
        results[w] = runs
        print("%s (%d seeds)" % (w, len(runs)))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    mark = "  OVER BOUND"
                    worst_ok = False
                elif spread > bound / 3:
                    mark = "  over a third of bound"
            print("  %-32s median %14.4f  spread %6.3f  bound %s%s" %
                  (m["name"], med, spread, bound, mark))
    os.makedirs(os.path.dirname(a.out), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(results, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
