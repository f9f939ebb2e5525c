#!/usr/bin/env bash
# Re-measure the committed perf-gate baselines in bench/baselines/.
#
# Run this after an INTENTIONAL performance change (better or worse), on
# a quiet machine, and commit the regenerated files together with the
# change that motivated them. The stored baselines are derated from the
# measured values (see scripts/bench_metrics.py baseline --margin), and
# the CI gate allows a further 15% below them, so only real regressions
# trip the perf job. For a one-off intentionally-regressing PR, prefer
# the `perf-regression-ok` label over rewriting history here.
#
# Usage: scripts/update_baselines.sh [build-dir]   (default: build-perf)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-perf}"
BENCHES=(bench_p2_batch bench_p3_multiquery bench_r3_overload bench_p4_agg)

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}"

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
# Five repetitions, as in the CI perf job: the gate compares their median.
for b in "${BENCHES[@]}"; do
  echo "== $b (short mode, 5 repetitions)"
  OOSP_BENCH_SHORT=1 "$BUILD/bench/$b" \
    --benchmark_repetitions=5 \
    --benchmark_out="$OUT/BENCH_$b.json" --benchmark_out_format=json
done

mkdir -p bench/baselines

# Gated headline metrics. Ratios (speedup, recall) are machine-portable;
# absolute ev/s is not, so it is never gated. Recall is deterministic, so
# it gets a tight margin; timing ratios get the default 0.3.
python3 scripts/bench_metrics.py baseline "$OUT/BENCH_bench_p2_batch.json" \
  --bench bench_p2_batch \
  --gate 'P2/session-ooo/batch:256@speedup' \
  -o bench/baselines/bench_p2_batch.json
python3 scripts/bench_metrics.py baseline "$OUT/BENCH_bench_p3_multiquery.json" \
  --bench bench_p3_multiquery \
  --gate 'P3/mqo-shared/queries:16@speedup' \
  -o bench/baselines/bench_p3_multiquery.json
python3 scripts/bench_metrics.py baseline "$OUT/BENCH_bench_r3_overload.json" \
  --bench bench_r3_overload \
  --gate 'Overload/by-lateness/load:4x@recall@higher@0.05' \
  -o bench/baselines/bench_r3_overload.json
python3 scripts/bench_metrics.py baseline "$OUT/BENCH_bench_p4_agg.json" \
  --bench bench_p4_agg \
  --gate 'P4/agg-ooo/delay:0.5w@speedup' \
  --gate 'P4/agg-ooo/delay:1w@speedup' \
  -o bench/baselines/bench_p4_agg.json

echo "baselines updated:"
git diff --stat -- bench/baselines
