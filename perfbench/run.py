#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program and the
library sources it links (Release, under $CARGO_TARGET_DIR or
.bench_build) when they are missing or stale, then runs it. The
program's output is passed through unchanged: one line per metric, then
one JSON object as the last line. Exits non-zero when the checkout has no
library sources, the build fails, or the output differs from the
reference.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sharded-batch", "inline-mixed", "multiquery-shared")


def build(build_dir):
    """Configures (first time) and builds the benchmark program; returns its path."""
    with open(os.path.join(build_dir, "build.log"), "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                       stdout=log, stderr=subprocess.STDOUT, check=True)
    return os.path.join(build_dir, "oosp_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "runtime", "session.hpp")):
        print("run.py: library sources not found under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError:
        print("run.py: build failed; see " + os.path.join(build_dir, "build.log"),
              file=sys.stderr)
        return 2

    spans = os.path.join(build_dir, "spans-%s.tsv" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
