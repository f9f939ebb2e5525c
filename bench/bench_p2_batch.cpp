// Experiment R-P2 — batched ingestion throughput (Session::push_batch).
//
// Fixed: a single-shard kOoo session (inline MultiQueryRunner, no
// worker threads) over a keyed 2-step query with high key cardinality,
// W = 1000, 10% disorder — the many-mostly-idle-keys regime, where
// per-event ingestion spends its time on bookkeeping that rides on every
// arrival (routing, virtual dispatch, pending scan, purge cadence)
// rather than on construction. Sweeps the ingestion batch size; batch:1
// is per-event `push`, which reaches the inline runner as a batch of
// one, and is the baseline the speedup counter is relative to. Batching
// collapses purge passes that nothing observes (no resolution due
// between consecutive cadence marks) into the deepest one.
//
// Batching is semantically invisible (test_batch pins bit-identical
// output, including recovery at batch boundaries); this benchmark
// measures what the amortization buys in wall-clock terms.
//
// Reported counters:
//   ev/s      end-to-end events per second (Session ingest + engines)
//   matches   matches delivered to the sink
//   speedup   ev/s relative to the batch:1 run of the same binary
//
// Short mode for CI soak: OOSP_BENCH_SHORT=1 shrinks the stream ~8x so
// the sweep finishes in seconds while keeping the shape comparable.
#include <chrono>
#include <cstdlib>
#include <span>

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
    cfg.num_events = short_mode() ? 25'000 : 200'000;
    cfg.num_types = 3;
    cfg.key_cardinality = 8'192;
    cfg.mean_gap = 1;
    cfg.seed = 2002;
    SyntheticWorkload proto(cfg);
    return benchutil::make_scenario(cfg, proto.seq_query(2, true, 1'000), 0.10, 300);
  }();
  return sc;
}

double& baseline_evps() {
  static double evps = 0.0;
  return evps;
}

void run_batched(benchmark::State& state, std::size_t batch) {
  const Scenario& sc = scenario();
  std::uint64_t matches = 0;
  double evps = 0.0;
  for (auto _ : state) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(sc.workload->registry(),
                    SessionConfig{}
                        .engine(EngineKind::kOoo)
                        .slack(sc.slack)
                        .shards(1)
                        .metrics(false)
                        .query(sc.query->text()),
                    sink);
    const auto t0 = std::chrono::steady_clock::now();
    if (batch <= 1) {
      for (const Event& e : sc.arrivals) session.push(e);
    } else {
      for (std::size_t i = 0; i < sc.arrivals.size(); i += batch) {
        const std::size_t n = std::min(batch, sc.arrivals.size() - i);
        session.push_batch(std::span<const Event>(sc.arrivals.data() + i, n));
      }
    }
    session.finish();
    const auto t1 = std::chrono::steady_clock::now();
    matches = sink->matches().size();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    evps = secs > 0.0 ? static_cast<double>(sc.arrivals.size()) / secs : 0.0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc.arrivals.size()));
  state.counters["ev/s"] = benchmark::Counter(evps);
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matches));
  if (batch <= 1) baseline_evps() = evps;
  if (baseline_evps() > 0.0)
    state.counters["speedup"] = benchmark::Counter(evps / baseline_evps());
}

void register_benchmarks() {
  for (const std::size_t batch : {1, 16, 64, 256, 1024}) {
    benchmark::RegisterBenchmark(
        ("P2/session-ooo/batch:" + std::to_string(batch)).c_str(),
        [batch](benchmark::State& state) { run_batched(state, batch); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return oosp::benchutil::run_benchmark_main(argc, argv);
}
