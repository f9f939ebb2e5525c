#!/usr/bin/env python3
"""Summarize Google Benchmark JSON output and gate it against baselines.

Subcommands:

A run may repeat each benchmark (--benchmark_repetitions=N): every
command then works on the median of a counter over the repetitions, and
check also prints their min and max. Google Benchmark's own aggregate
rows (mean, median, stddev, cv) are ignored.

  extract RUN.json
      Print a flat {benchmark -> {counter -> median}} summary of a
      --benchmark_out=RUN.json file (the BENCH_<name>.json CI artifact).

  check RUN.json BASELINE.json [--tolerance 0.15]
      Compare a run against a committed baseline (bench/baselines/*.json)
      and exit non-zero if any gated metric's median regresses beyond the
      tolerance. "higher" gates fail when value < baseline * (1 - tol);
      "lower" gates fail when value > baseline * (1 + tol).

  baseline RUN.json --bench NAME --gate BENCH:COUNTER[:DIRECTION[:MARGIN]] ...
           [--out FILE]
      Write a baseline file from a measured run. Each gate's stored
      baseline is the measured value derated by MARGIN (default 0.3):
      measured * (1 - margin) for "higher", * (1 + margin) for "lower" —
      so routine machine-to-machine variance does not trip the gate and
      only genuine regressions (further >tolerance below the derated
      value) fail CI.

Baseline file schema:

  {
    "bench": "bench_p4_agg",
    "gates": [
      {"benchmark": "P4/agg-ooo/delay:0.5w", "counter": "speedup",
       "baseline": 2.31, "direction": "higher"}
    ]
  }

Only stdlib; runs anywhere python3 does.
"""

import argparse
import contextlib
import json
import re
import signal
import statistics
import sys

# Die quietly when piped into `head` and friends.
with contextlib.suppress(AttributeError, ValueError):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Keys of a benchmark entry that are not user counters.
_RESERVED = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "family_index", "per_family_instance_index", "aggregate_name",
    "aggregate_unit", "label", "error_occurred", "error_message",
}

_NAME_SUFFIX = re.compile(r"/(iterations|repeats|threads|min_time|min_warmup_time):[^/]+")


def clean_name(name):
    """Strip runtime-argument suffixes google-benchmark appends to names."""
    return _NAME_SUFFIX.sub("", name)


def load_samples(path):
    """RUN.json -> {clean benchmark name -> {counter/time -> [one value per
    repetition]}}."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        metrics = {k: v for k, v in entry.items()
                   if k not in _RESERVED and isinstance(v, (int, float))}
        metrics["real_time"] = entry.get("real_time")
        metrics["cpu_time"] = entry.get("cpu_time")
        samples = out.setdefault(clean_name(entry["name"]), {})
        for counter, value in metrics.items():
            samples.setdefault(counter, []).append(value)
    return out


def load_run(path):
    """RUN.json -> {clean benchmark name -> {counter/time -> median}}."""
    return {name: {c: statistics.median(v) for c, v in counters.items()}
            for name, counters in load_samples(path).items()}


def cmd_extract(args):
    print(json.dumps({"source": args.run, "benchmarks": load_run(args.run)},
                     indent=2, sort_keys=True))
    return 0


def cmd_check(args):
    run = load_samples(args.run)
    with open(args.baseline) as f:
        base = json.load(f)
    tol = args.tolerance
    failures = []
    for gate in base.get("gates", []):
        name, counter = gate["benchmark"], gate["counter"]
        baseline = float(gate["baseline"])
        higher = gate.get("direction", "higher") == "higher"
        metrics = run.get(name)
        if metrics is None or counter not in metrics:
            failures.append(f"{name} [{counter}]: missing from run")
            print(f"FAIL {name} [{counter}]: not found in {args.run}")
            continue
        samples = [float(v) for v in metrics[counter]]
        value = statistics.median(samples)
        floor = baseline * (1.0 - tol)
        ceil = baseline * (1.0 + tol)
        ok = value >= floor if higher else value <= ceil
        bound = f">= {floor:.4g}" if higher else f"<= {ceil:.4g}"
        status = "ok  " if ok else "FAIL"
        print(f"{status} {name} [{counter}]: median {value:.4g} of {len(samples)} "
              f"(min {min(samples):.4g}, max {max(samples):.4g}; "
              f"baseline {baseline:.4g}, require {bound})")
        if not ok:
            failures.append(
                f"{name} [{counter}]: {value:.4g} vs baseline {baseline:.4g} "
                f"(require {bound})")
    if failures:
        for f_ in failures:
            # GitHub Actions error annotation; harmless elsewhere.
            print(f"::error::benchmark regression: {f_}")
        return 1
    if not base.get("gates"):
        print(f"note: no gates defined in {args.baseline}")
    return 0


def cmd_baseline(args):
    run = load_run(args.run)
    gates = []
    for spec in args.gate:
        # Benchmark names themselves contain ':' (e.g. "P2/.../batch:256"),
        # so gate specs use '@' as the separator.
        parts = spec.split("@")
        if len(parts) < 2:
            raise SystemExit(f"bad --gate {spec!r}: want BENCH@COUNTER[@DIR[@MARGIN]]")
        name, counter = parts[0], parts[1]
        direction = parts[2] if len(parts) > 2 and parts[2] else "higher"
        margin = float(parts[3]) if len(parts) > 3 else args.margin
        if direction not in ("higher", "lower"):
            raise SystemExit(f"bad --gate {spec!r}: direction must be higher|lower")
        metrics = run.get(name)
        if metrics is None or counter not in metrics:
            raise SystemExit(f"--gate {spec!r}: {name} [{counter}] not in {args.run}")
        measured = float(metrics[counter])
        derated = measured * (1.0 - margin if direction == "higher" else 1.0 + margin)
        gates.append({
            "benchmark": name,
            "counter": counter,
            "baseline": round(derated, 4),
            "direction": direction,
            "measured": round(measured, 4),
        })
    doc = {"bench": args.bench, "gates": gates}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="summarize a benchmark JSON file")
    pe.add_argument("run")
    pe.set_defaults(fn=cmd_extract)

    pc = sub.add_parser("check", help="gate a run against a baseline file")
    pc.add_argument("run")
    pc.add_argument("baseline")
    pc.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    pc.set_defaults(fn=cmd_check)

    pb = sub.add_parser("baseline", help="write a baseline file from a run")
    pb.add_argument("run")
    pb.add_argument("--bench", required=True, help="bench target name")
    pb.add_argument("--gate", action="append", required=True,
                    metavar="BENCH@COUNTER[@DIR[@MARGIN]]",
                    help="gated metric; DIR is higher|lower (default higher)")
    pb.add_argument("--margin", type=float, default=0.3,
                    help="default derating margin (default 0.3)")
    pb.add_argument("--out", "-o", help="output file (default stdout)")
    pb.set_defaults(fn=cmd_baseline)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
