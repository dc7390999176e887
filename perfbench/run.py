#!/usr/bin/env python3
"""Build and run the lazy-AXML benchmark.

    python3 perfbench/run.py --workload city|scan|splice|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark program
(perfbench/lazybench.ml) is built from source with dune into
.bench_build/, then run once; its output is passed through. The last
line of standard output is the result object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the
build fails, when any answer is wrong, or when the result line is
missing or malformed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
TARGET = "./perfbench/lazybench.exe"
WORKLOADS = ("city", "scan", "splice", "serve")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project here; run from a source checkout",
              file=sys.stderr)
        return False
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    return subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode == 0


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["metrics"], dict) and res["metrics"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("run.py: no result line", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
