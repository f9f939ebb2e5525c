// Experiment R-R2 — crash recovery: checkpoint overhead and recovery
// latency of the supervised sharded runtime.
//
// Two questions, two benchmark families over the same keyed workload:
//
// 1. CheckpointOverhead/every:K — what does a checkpoint cadence cost
//    when nothing fails? Sweeps checkpoint_every over {0 (supervision
//    off — the baseline), 1k, 10k, 100k} consumed events per shard and
//    reports end-to-end ev/s plus overhead_pct vs the 0 run. Each
//    checkpoint serializes the full engine state, so the cost is
//    (state size / cadence)-proportional; the acceptance bar is < 5% at
//    every:10k. The batch:1024 rows feed the same stream through
//    push_batch, whose stages join the upstream backup a ring chunk at a
//    time, with overhead_pct vs the batched 0 run.
//
// 2. Recovery/every:K — how long does one crash cost? Kills one worker
//    mid-stream (WorkerKillFault) and reports the supervisor's measured
//    restore+replay wall time (recovery_us) and replayed event count.
//    Replay is bounded by the backup ring, which a checkpoint trims to
//    at most checkpoint_every + queue backlog events — so recovery time
//    tracks the cadence, not the stream length.
//
// Short mode for CI soak: OOSP_BENCH_SHORT=1 shrinks the stream ~8x so
// the binary finishes in seconds under sanitizers.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <span>

#include "bench_util.hpp"
#include "runtime/session.hpp"
#include "stream/faults.hpp"

namespace {

using namespace oosp;
using benchutil::Scenario;

bool short_mode() {
  const char* v = std::getenv("OOSP_BENCH_SHORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

const Scenario& scenario() {
  static const Scenario sc = [] {
    SyntheticConfig cfg;
    cfg.num_events = short_mode() ? 25'000 : 200'000;
    cfg.num_types = 3;
    cfg.key_cardinality = 1'024;
    cfg.mean_gap = 5;
    cfg.seed = 4242;
    SyntheticWorkload proto(cfg);
    return benchutil::make_scenario(cfg, proto.seq_query(3, true, 1'000), 0.10, 300);
  }();
  return sc;
}

constexpr std::size_t kShards = 4;

SessionConfig base_config(const Scenario& sc, std::size_t checkpoint_every) {
  return SessionConfig{}
      .engine(EngineKind::kOoo)
      .slack(sc.slack)
      .shards(kShards)
      .checkpoint_every(checkpoint_every)
      .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0))
      .query(sc.query->text());
}

// ev/s of the every:0 run, per push mode (index 0: push, 1: push_batch).
double& baseline_evps(bool batched) {
  static double evps[2] = {0.0, 0.0};
  return evps[batched ? 1 : 0];
}

constexpr std::size_t kBatch = 1'024;

void checkpoint_overhead(benchmark::State& state, std::size_t every, bool batched = false) {
  const Scenario& sc = scenario();
  const std::span<const Event> all(sc.arrivals);
  double evps = 0.0;
  std::uint64_t checkpoints = 0, matches = 0;
  std::int64_t ckpt_bytes = 0;
  for (auto _ : state) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(sc.workload->registry(), base_config(sc, every), sink);
    const auto t0 = std::chrono::steady_clock::now();
    if (batched) {
      for (std::size_t off = 0; off < all.size(); off += kBatch)
        session.push_batch(all.subspan(off, std::min(kBatch, all.size() - off)));
    } else {
      for (const Event& e : all) session.push(e);
    }
    session.close();
    const auto t1 = std::chrono::steady_clock::now();
    if (session.shard_count() != kShards)
      state.SkipWithError(session.shard_fallback_reason().c_str());
    const MetricsSnapshot snap = session.metrics_snapshot();
    checkpoints = snap.counter("oosp_shard_checkpoints_total");
    ckpt_bytes = snap.gauge("oosp_shard_checkpoint_bytes");
    matches = sink->matches().size();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    evps = secs > 0.0 ? static_cast<double>(sc.arrivals.size()) / secs : 0.0;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc.arrivals.size()));
  state.counters["ev/s"] = benchmark::Counter(evps);
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matches));
  state.counters["ckpts"] = benchmark::Counter(static_cast<double>(checkpoints));
  state.counters["ckpt_bytes"] = benchmark::Counter(static_cast<double>(ckpt_bytes));
  if (every == 0) baseline_evps(batched) = evps;
  if (baseline_evps(batched) > 0.0)
    state.counters["overhead_pct"] = benchmark::Counter(
        100.0 * (baseline_evps(batched) - evps) / baseline_evps(batched));
}

void recovery_latency(benchmark::State& state, std::size_t every) {
  const Scenario& sc = scenario();
  double recovery_us = 0.0;
  std::uint64_t replayed = 0, restarts = 0, matches = 0;
  for (auto _ : state) {
    // Kill the worker that processes the mid-stream event; the replay
    // the supervisor then performs is what this benchmark times.
    WorkerKillFault fault({sc.arrivals[sc.arrivals.size() / 2].id});
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(sc.workload->registry(),
                    base_config(sc, every).kill_hook(fault.hook()), sink);
    for (const Event& e : sc.arrivals) session.push(e);
    session.close();
    if (session.shard_count() != kShards)
      state.SkipWithError(session.shard_fallback_reason().c_str());
    if (session.restarts() == 0) state.SkipWithError("kill never fired");
    const MetricsSnapshot snap = session.metrics_snapshot();
    if (const HistogramData* h = snap.histogram("oosp_shard_recovery_duration_us"))
      recovery_us = h->mean();
    replayed = session.replayed_events();
    restarts = session.restarts();
    matches = sink->matches().size();
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sc.arrivals.size()));
  state.counters["recovery_us"] = benchmark::Counter(recovery_us);
  state.counters["replayed"] = benchmark::Counter(static_cast<double>(replayed));
  state.counters["restarts"] = benchmark::Counter(static_cast<double>(restarts));
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matches));
}

void bench_overhead_off(benchmark::State& s) { checkpoint_overhead(s, 0); }
void bench_overhead_1k(benchmark::State& s) { checkpoint_overhead(s, 1'000); }
void bench_overhead_10k(benchmark::State& s) { checkpoint_overhead(s, 10'000); }
void bench_overhead_100k(benchmark::State& s) { checkpoint_overhead(s, 100'000); }
BENCHMARK(bench_overhead_off)->Name("CheckpointOverhead/every:0")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_overhead_1k)->Name("CheckpointOverhead/every:1k")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_overhead_10k)->Name("CheckpointOverhead/every:10k")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_overhead_100k)->Name("CheckpointOverhead/every:100k")->Unit(benchmark::kMillisecond);

void bench_overhead_batch_off(benchmark::State& s) { checkpoint_overhead(s, 0, true); }
void bench_overhead_batch_10k(benchmark::State& s) { checkpoint_overhead(s, 10'000, true); }
BENCHMARK(bench_overhead_batch_off)
    ->Name("CheckpointOverhead/batch:1024/every:0")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bench_overhead_batch_10k)
    ->Name("CheckpointOverhead/batch:1024/every:10k")
    ->Unit(benchmark::kMillisecond);

void bench_recovery_1k(benchmark::State& s) { recovery_latency(s, 1'000); }
void bench_recovery_10k(benchmark::State& s) { recovery_latency(s, 10'000); }
void bench_recovery_50k(benchmark::State& s) { recovery_latency(s, 50'000); }
BENCHMARK(bench_recovery_1k)->Name("Recovery/every:1k")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_recovery_10k)->Name("Recovery/every:10k")->Unit(benchmark::kMillisecond);
BENCHMARK(bench_recovery_50k)->Name("Recovery/every:50k")->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
