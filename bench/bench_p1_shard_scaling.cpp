// Experiment R-P1 — shard scaling of the parallel runtime.
//
// Fixed: the F6 partitioned workload (3-step keyed query, W = 1000,
// 10% disorder, high key cardinality so keys spread evenly), 1M events
// pushed through the Session API. Sweeps the shard count over
// {1, 2, 4, 8}, once with per-event `push` and once with `push_batch`
// of 1024 events; both reach the same staged producer route at N > 1
// shards. The query is fully keyed, so every event hashes to exactly one
// shard and the ordered merge reproduces the single-shard output bit for
// bit (test_sharded pins that); this benchmark measures what that costs
// / buys in wall-clock terms. A run of 50k events (about 25 ms) was too
// short to separate two builds on a VM whose speed drifts in
// multi-second phases, hence the 1M default; OOSP_BENCH_SHORT=1 (the CI
// perf job) keeps 50k.
//
// Reported counters:
//   ev/s      end-to-end events per second (routing + engines + merge)
//   matches   merged matches delivered to the sink
//   speedup   ev/s relative to the shards:1 run of the same push mode
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <span>
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
    cfg.num_events = short_mode() ? 50'000 : 1'000'000;
    cfg.num_types = 3;
    cfg.key_cardinality = 1'024;
    cfg.mean_gap = 5;
    cfg.seed = 2001;
    SyntheticWorkload proto(cfg);
    return benchutil::make_scenario(cfg, proto.seq_query(3, true, 1'000), 0.10, 300);
  }();
  return sc;
}

// ev/s of the shards:1 run, per push mode (index 0: push, 1: push_batch).
double& baseline_evps(bool batched) {
  static double evps[2] = {0.0, 0.0};
  return evps[batched ? 1 : 0];
}

constexpr std::size_t kBatch = 1'024;

void run_sharded(benchmark::State& state, std::size_t shards, bool batched) {
  const Scenario& sc = scenario();
  const std::span<const Event> all(sc.arrivals);
  std::uint64_t matches = 0;
  double evps = 0.0;
  for (auto _ : state) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(sc.workload->registry(),
                    SessionConfig{}
                        .engine(EngineKind::kOoo)
                        .slack(sc.slack)
                        .shards(shards)
                        .query(sc.query->text()),
                    sink);
    const auto t0 = std::chrono::steady_clock::now();
    if (batched) {
      for (std::size_t off = 0; off < all.size(); off += kBatch)
        session.push_batch(all.subspan(off, std::min(kBatch, all.size() - off)));
    } else {
      for (const Event& e : all) session.push(e);
    }
    session.finish();
    const auto t1 = std::chrono::steady_clock::now();
    if (session.shard_count() != shards)
      state.SkipWithError(session.shard_fallback_reason().c_str());
    matches = sink->matches().size();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    evps = secs > 0.0 ? static_cast<double>(all.size()) / secs : 0.0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all.size()));
  state.counters["ev/s"] = benchmark::Counter(evps);
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matches));
  if (shards == 1) baseline_evps(batched) = evps;
  if (baseline_evps(batched) > 0.0)
    state.counters["speedup"] = benchmark::Counter(evps / baseline_evps(batched));
}

void register_benchmarks() {
  for (const bool batched : {false, true}) {
    for (const std::size_t shards : {1, 2, 4, 8}) {
      const std::string mode = batched ? "session-ooo/batch:1024" : "session-ooo";
      benchmark::RegisterBenchmark(
          ("P1/" + mode + "/shards:" + std::to_string(shards)).c_str(),
          [shards, batched](benchmark::State& state) { run_sharded(state, shards, batched); })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return oosp::benchutil::run_benchmark_main(argc, argv);
}
