#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare spread to bounds.

    python3 perfbench/steady.py [--workload NAME|all] [--runs 10] [--seed0 1]
                                [--trace 0|1] [--out summary.json]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) from the root of
the checkout, with BENCHMARK.json's run_seconds. For each metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median next to the metric's bound. A spread above
a third of its bound is marked "noisy", above the bound "OVER". setup_s
is exempt from the spread rule. --out writes the summary as JSON. Exits
non-zero when a run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady.py: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("steady.py: %s seed %d produced incorrect output" % (workload, seed))
    return result["metrics"]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in names if args.workload == "all" else [args.workload]:
        samples = {}
        for i in range(args.runs):
            metrics = run_once(workload, args.seed0 + i, bench["run_seconds"], args.trace)
            for name, m in metrics.items():
                samples.setdefault(name, {"unit": m["unit"], "values": []})
                samples[name]["values"].append(m["value"])
        print("%s: %d runs, seeds %d..%d" % (workload, args.runs, args.seed0,
                                               args.seed0 + args.runs - 1))
        print("  %-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                                  "bound"))
        summary[workload] = {}
        for name, s in samples.items():
            row = summarize(s["values"])
            row["unit"] = s["unit"]
            summary[workload][name] = row
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] is not None:
                flag = "OVER" if row["spread"] > bound else (
                    "noisy" if row["spread"] > bound / 3 else "ok")
            print("  %-32s %14.6g %14.6g %14.6g %8s %6s %s" % (
                name, row["median"], row["q1"], row["q3"],
                "-" if row["spread"] is None else "%.4f" % row["spread"],
                "" if bound is None else bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
