#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr; the benchmark's own lines go to stdout, and the last of them
is the result object. --self-test runs the binary's unit checks, then a
short traced and untraced run of every workload, and checks that each run
passes its correctness checks and reports exactly the metrics BENCHMARK.json
names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run(binary, args):
    """Runs the binary, echoing its stdout; returns (exit code, last line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def self_test(binary):
    code, _ = run(binary, ["--self-test"])
    if code != 0:
        return code
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, last = run(binary, ["--workload", w["name"], "--seed", "1",
                                      "--seconds", "2", "--trace", str(trace)])
            where = "%s trace=%d" % (w["name"], trace)
            if code != 0:
                bad.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(last)
            if not result["correct"] or result["failed"] != 0:
                bad.append("%s: checks failed" % where)
            if sorted(result["metrics"]) != sorted(wanted[trace]):
                bad.append("%s: metrics differ from BENCHMARK.json" % where)
    for b in bad:
        print("self-test FAILED: " + b)
    if not bad:
        print("self-test: every workload passed")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 2
    if a.self_test:
        return self_test(binary)
    code, last = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds),
                              "--trace", str(a.trace)])
    if code != 0 or not last.startswith("{"):
        print("benchmark failed (exit code %d)" % code, file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
