// Experiment R-P3 — shared multi-query scan (MQO) throughput.
//
// Fixed: a single-shard kOoo session over N standing queries that share
// the SEQ(T0, T1) prefix and key attribute but differ in a step-local
// threshold on the first step (a0.val >= …), W = 1000, 10% disorder,
// high key cardinality. Every arrival is pattern input for every query,
// so the per-query-engine plan (share_scans(false), the baseline) runs
// admission, clock observation, dedup, stack insertion, construction and
// the purge cadence N times per event. The shared-scan plan runs the
// arrival side once, and since the N queries differ only in a step-local
// threshold they form one construction class: one anchored walk per
// insertion serves all of them, each query's threshold narrowing a
// bitmask of the members still alive. The sweep varies N — the gap
// widens with the number of co-resident queries.
//
// Sharing is semantically invisible (test_mqo pins bit-identical output
// across seeds × shards × batch sizes, including recovery); this
// benchmark measures what the shared pipeline buys in wall-clock terms.
//
// Reported counters:
//   ev/s      end-to-end events per second (Session ingest + engines)
//   matches   matches delivered to the sink (identical shared vs solo)
//   speedup   shared-plan ev/s relative to the per-query-engine run at
//             the same query count (reported on the shared runs)
//
// Short mode for CI soak: OOSP_BENCH_SHORT=1 shrinks the stream ~8x so
// the sweep finishes in seconds while keeping the shape comparable.
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "runtime/session.hpp"

namespace {

using namespace oosp;
using benchutil::Scenario;

bool short_mode() {
  const char* v = std::getenv("OOSP_BENCH_SHORT");
  return v != nullptr && *v != '\0' && *v != '0';
}

const Scenario& scenario() {
  static const Scenario sc = [] {
    SyntheticConfig cfg;
    cfg.num_events = short_mode() ? 20'000 : 150'000;
    cfg.num_types = 2;
    cfg.key_cardinality = 8'192;
    cfg.mean_gap = 1;
    cfg.seed = 3003;
    SyntheticWorkload proto(cfg);
    return benchutil::make_scenario(cfg, proto.seq_query(2, true, 1'000), 0.10, 300);
  }();
  return sc;
}

// N shared-prefix queries: same chain and key, different first-step
// thresholds (val is uniform on [0, 999], so selectivity spans the
// sweep). Query 0 is the unfiltered scenario query.
std::vector<std::string> query_set(std::size_t n) {
  const Scenario& sc = scenario();
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sc.workload->seq_query(
        2, true, 1'000,
        i == 0 ? -1 : static_cast<std::int64_t>((i * 960) / n)));
  return out;
}

double& solo_evps(std::size_t nqueries) {
  static std::map<std::size_t, double> evps;
  return evps[nqueries];
}

void run_mqo(benchmark::State& state, std::size_t nqueries, bool shared) {
  const Scenario& sc = scenario();
  const std::vector<std::string> queries = query_set(nqueries);
  std::uint64_t matches = 0;
  std::uint64_t groups = 0;
  double evps = 0.0;
  for (auto _ : state) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    SessionConfig cfg;
    cfg.engine(EngineKind::kOoo)
        .slack(sc.slack)
        .shards(1)
        .share_scans(shared)
        .metrics(true);  // exercised so the mqo gauges cost what they cost
    for (const std::string& q : queries) cfg.query(q);
    Session session(sc.workload->registry(), cfg, sink);
    const auto t0 = std::chrono::steady_clock::now();
    for (const Event& e : sc.arrivals) session.push(e);
    session.finish();
    const auto t1 = std::chrono::steady_clock::now();
    matches = sink->matches().size();
    groups = static_cast<std::uint64_t>(
        session.metrics_snapshot().gauge("oosp_mqo_groups"));
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    evps = secs > 0.0 ? static_cast<double>(sc.arrivals.size()) / secs : 0.0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc.arrivals.size()));
  state.counters["ev/s"] = benchmark::Counter(evps);
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matches));
  state.counters["groups"] = benchmark::Counter(static_cast<double>(groups));
  if (!shared) {
    solo_evps(nqueries) = evps;
  } else if (solo_evps(nqueries) > 0.0) {
    state.counters["speedup"] = benchmark::Counter(evps / solo_evps(nqueries));
  }
}

void register_benchmarks() {
  // Per-query-engine baseline first so the shared run can report its
  // speedup; benchmarks execute in registration order.
  for (const std::size_t n : {2, 4, 8, 16}) {
    benchmark::RegisterBenchmark(
        ("P3/mqo-solo/queries:" + std::to_string(n)).c_str(),
        [n](benchmark::State& state) { run_mqo(state, n, false); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
    benchmark::RegisterBenchmark(
        ("P3/mqo-shared/queries:" + std::to_string(n)).c_str(),
        [n](benchmark::State& state) { run_mqo(state, n, true); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return oosp::benchutil::run_benchmark_main(argc, argv);
}
