// Observability layer: metrics registry semantics (sharded slots, gauge
// aggregation, histogram buckets, text exposition), engine and session
// instrumentation, trace-hook lifecycle ordering, stats underflow
// guards, and shard-worker liveness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/spsc_queue.hpp"
#include "engine_test_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/session.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::spsc_pop_one;
using testutil::spsc_push_one;

// ----------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), ~std::uint64_t{0});

  // Every bucket's upper bound maps back into that bucket, and the next
  // value up maps into the next bucket — the boundaries are airtight.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const std::uint64_t ub = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(Histogram::bucket_index(ub), i) << "upper bound of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(ub + 1), i + 1) << "first of bucket " << i + 1;
  }
}

TEST(ObsHistogram, ObserveCountSumAndSignedClamp) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe_signed(-3);  // clamps to 0
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // the 0 and the clamped -3
  EXPECT_EQ(h.bucket(1), 1u);  // the 1
  EXPECT_EQ(h.bucket(3), 1u);  // the 5, in [4,7]
}

TEST(ObsHistogram, QuantileReturnsContainingBucketBound) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat");
  for (int i = 0; i < 99; ++i) h->observe(2);  // bucket 2, upper bound 3
  h->observe(1000);                            // bucket 10, upper bound 1023
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramData* d = snap.histogram("lat");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->quantile(0.5), 3u);
  EXPECT_EQ(d->quantile(0.99), 3u);
  EXPECT_EQ(d->quantile(1.0), 1023u);
  EXPECT_DOUBLE_EQ(d->mean(), (99 * 2 + 1000) / 100.0);
}

// ------------------------------------------------------------ Registry

TEST(MetricsRegistryTest, CounterSlotsAggregateOnScrape) {
  MetricsRegistry reg;
  Counter* a = reg.counter("oosp_things_total");
  Counter* b = reg.counter("oosp_things_total");  // second shard's slot
  ASSERT_NE(a, b);
  a->inc(3);
  b->inc(4);
  EXPECT_EQ(reg.slot_count("oosp_things_total"), 2u);
  EXPECT_EQ(reg.snapshot().counter("oosp_things_total"), 7u);
}

TEST(MetricsRegistryTest, GaugeAggregationSumVsMax) {
  MetricsRegistry reg;
  Gauge* d1 = reg.gauge("depth", GaugeAgg::kSum);
  Gauge* d2 = reg.gauge("depth", GaugeAgg::kSum);
  Gauge* k1 = reg.gauge("slack", GaugeAgg::kMax);
  Gauge* k2 = reg.gauge("slack", GaugeAgg::kMax);
  d1->set(10);
  d2->set(5);
  k1->set(10);
  k2->set(25);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauge("depth"), 15);
  EXPECT_EQ(snap.gauge("slack"), 25);
}

TEST(MetricsRegistryTest, HistogramSlotsSumBucketwise) {
  MetricsRegistry reg;
  Histogram* h1 = reg.histogram("lat");
  Histogram* h2 = reg.histogram("lat");
  h1->observe(2);
  h2->observe(3);
  h2->observe(100);
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramData* d = snap.histogram("lat");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 3u);
  EXPECT_EQ(d->sum, 105u);
  EXPECT_EQ(d->buckets[Histogram::bucket_index(2)], 2u);  // the 2 and the 3
  EXPECT_EQ(d->buckets[Histogram::bucket_index(100)], 1u);
}

TEST(MetricsRegistryTest, TypeMismatchRejected) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
  reg.gauge("g", GaugeAgg::kSum);
  EXPECT_THROW(reg.gauge("g", GaugeAgg::kMax), std::invalid_argument);
}

TEST(MetricsRegistryTest, SnapshotDoesNotResetButResetDoes) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c");
  Gauge* g = reg.gauge("g");
  Histogram* h = reg.histogram("h");
  c->inc(5);
  g->set(-2);
  h->observe(9);
  EXPECT_EQ(reg.snapshot().counter("c"), 5u);
  // Prometheus-style cumulative semantics: scraping is read-only.
  EXPECT_EQ(reg.snapshot().counter("c"), 5u);
  EXPECT_EQ(reg.snapshot().gauge("g"), -2);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 0u);
  EXPECT_EQ(snap.gauge("g"), 0);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.counter("oosp_events_total", "events ingested")->inc(42);
  reg.gauge("oosp_depth")->set(7);
  reg.histogram("oosp_lat")->observe(5);
  const std::string text = reg.scrape_text();
  EXPECT_NE(text.find("# TYPE oosp_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP oosp_events_total events ingested"), std::string::npos);
  EXPECT_NE(text.find("oosp_events_total 42"), std::string::npos);
  EXPECT_NE(text.find("oosp_depth 7"), std::string::npos);
  EXPECT_NE(text.find("oosp_lat_bucket{le=\"7\"} 1"), std::string::npos);
  EXPECT_NE(text.find("oosp_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("oosp_lat_sum 5"), std::string::npos);
  EXPECT_NE(text.find("oosp_lat_count 1"), std::string::npos);
}

// ------------------------------------------------- SpscQueue occupancy

TEST(SpscQueueObs, FullAtCapacityMinusOneAndSizeApprox) {
  // Regression guard for the reserved-slot design: a ring of 8 holds 7.
  SpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 7u);
  EXPECT_EQ(q.size_approx(), 0u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(spsc_push_one(q, i));
    EXPECT_EQ(q.size_approx(), static_cast<std::size_t>(i) + 1);
  }
  EXPECT_FALSE(spsc_push_one(q, 7));  // full with 7 = capacity() elements
  EXPECT_EQ(q.size_approx(), 7u);
  int v = 0;
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(spsc_pop_one(q, v));
  EXPECT_EQ(q.size_approx(), 0u);
  // Wrap-around: occupancy stays correct once the indices lap the ring.
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(spsc_push_one(q, 1));
    EXPECT_TRUE(spsc_push_one(q, 2));
    EXPECT_EQ(q.size_approx(), 2u);
    ASSERT_TRUE(spsc_pop_one(q, v));
    ASSERT_TRUE(spsc_pop_one(q, v));
    EXPECT_EQ(q.size_approx(), 0u);
  }
  // Peeked slots stay occupied until released: a worker's in-flight run
  // counts toward the depth that overload grading reads.
  EXPECT_TRUE(spsc_push_one(q, 1));
  EXPECT_TRUE(spsc_push_one(q, 2));
  EXPECT_EQ(q.peek(8).size(), 2u);
  EXPECT_EQ(q.size_approx(), 2u);
  q.release(2);
  EXPECT_EQ(q.size_approx(), 0u);
}

// ------------------------------------------------ Stats underflow guards

TEST(EngineStatsGuards, RemovingMoreThanLiveTripsDebugAssert) {
#ifdef NDEBUG
  GTEST_SKIP() << "OOSP_ASSERT is compiled out in NDEBUG builds";
#else
  EngineStats s;
  s.note_instance_added();
  s.note_instances_removed(1);
  // Double purge of the same instance: previously a silent u64 underflow
  // that corrupted footprint(); now a loud logic_error in debug builds.
  EXPECT_THROW(s.note_instances_removed(1), std::logic_error);

  EngineStats b;
  b.note_buffered(2);
  EXPECT_THROW(b.note_unbuffered(3), std::logic_error);
  b.note_unbuffered(2);
  EXPECT_THROW(b.note_unbuffered(1), std::logic_error);
#endif
}

// --------------------------------------------------- Engine instruments

class SessionObsTest : public ::testing::Test {
 protected:
  // a.k == b.k keyed workload with some disorder: 2 matches per key.
  std::vector<Event> keyed_stream(int keys) {
    std::vector<Event> events;
    EventId id = 0;
    for (int k = 0; k < keys; ++k) {
      const Timestamp base = 100 * k;
      events.push_back(make_event(reg_, "A", id++, base + 1, k));
      events.push_back(make_event(reg_, "B", id++, base + 5, k));
      events.push_back(make_event(reg_, "B", id++, base + 3, k));  // late
      events.push_back(make_event(reg_, "A", id++, base + 2, k));  // late
    }
    return events;
  }

  TypeRegistry reg_ = make_abcd_registry();
  static constexpr const char* kKeyed =
      "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";
};

TEST_F(SessionObsTest, SnapshotMatchesEngineStats) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg_,
                  SessionConfig{}.engine(EngineKind::kOoo).slack(10).query(kKeyed),
                  sink);
  for (const Event& e : keyed_stream(8)) session.push(e);
  session.close();

  ASSERT_TRUE(session.metrics_enabled());
  const MetricsSnapshot snap = session.metrics_snapshot();
  const EngineStats total = session.total_stats();
  EXPECT_EQ(snap.counter("oosp_session_events_total"), session.events_seen());
  EXPECT_EQ(snap.counter("oosp_engine_events_total"), total.events_seen);
  EXPECT_EQ(snap.counter("oosp_engine_late_events_total"), total.late_events);
  EXPECT_EQ(snap.counter("oosp_engine_matches_total"), total.matches_emitted);
  EXPECT_EQ(snap.counter("oosp_engine_purge_passes_total"), total.purge_passes);
  EXPECT_GT(total.matches_emitted, 0u);
  // Each match observed a stream-time detection latency.
  const HistogramData* lat = snap.histogram("oosp_engine_detection_latency_stream");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, total.matches_emitted);
}

TEST_F(SessionObsTest, CrossShardAggregationMatchesStatsMerge) {
  const auto run = [&](std::size_t shards) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(
        reg_,
        SessionConfig{}.engine(EngineKind::kOoo).slack(10).shards(shards).query(kKeyed),
        sink);
    for (const Event& e : keyed_stream(16)) session.push(e);
    session.close();
    return std::pair(session.metrics_snapshot(), session.total_stats());
  };

  const auto [snap1, stats1] = run(1);
  const auto [snap4, stats4] = run(4);

  // The scrape-side aggregation (sum over per-shard slots) must agree
  // with the stats-side aggregation (EngineStats::operator+= over
  // per-shard snapshots) — same counters, two independent paths.
  for (const auto* snap : {&snap1, &snap4}) {
    const EngineStats& total = snap == &snap1 ? stats1 : stats4;
    EXPECT_EQ(snap->counter("oosp_engine_events_total"), total.events_seen);
    EXPECT_EQ(snap->counter("oosp_engine_late_events_total"), total.late_events);
    EXPECT_EQ(snap->counter("oosp_engine_matches_total"), total.matches_emitted);
    EXPECT_EQ(snap->counter("oosp_engine_purge_passes_total"), total.purge_passes);
  }
  // And the two shard counts found the same matches.
  EXPECT_EQ(snap1.counter("oosp_engine_matches_total"),
            snap4.counter("oosp_engine_matches_total"));
  // Sharded-runtime families exist only in the sharded run.
  EXPECT_EQ(snap1.counters.count("oosp_shard_push_retries_total"), 0u);
  EXPECT_EQ(snap4.counters.count("oosp_shard_push_retries_total"), 1u);
  EXPECT_EQ(snap4.counter("oosp_shard_worker_failures_total"), 0u);
}

TEST_F(SessionObsTest, KSlackBufferInstruments) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(
      reg_, SessionConfig{}.engine(EngineKind::kKSlackInOrder).slack(10).query(kKeyed),
      sink);
  const auto events = keyed_stream(4);
  for (const Event& e : events) session.push(e);
  const MetricsSnapshot mid = session.metrics_snapshot();  // mid-run scrape
  session.close();
  const MetricsSnapshot snap = session.metrics_snapshot();
  // Arrival-side counters come from the wrapper only — no double count
  // even though the inner engine re-sees every released event.
  EXPECT_EQ(snap.counter("oosp_engine_events_total"), events.size());
  // Everything buffered was eventually released, exactly once.
  EXPECT_EQ(snap.counter("oosp_kslack_releases_total"), events.size());
  EXPECT_EQ(snap.gauge("oosp_kslack_reorder_depth"), 0);
  EXPECT_GE(mid.gauge("oosp_kslack_reorder_depth"), 0);
  EXPECT_EQ(snap.gauge("oosp_engine_effective_slack"), 10);
}

TEST_F(SessionObsTest, MetricsDisabledSessionStillRuns) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg_, SessionConfig{}.metrics(false).query(kKeyed), sink);
  for (const Event& e : keyed_stream(4)) session.push(e);
  session.close();
  EXPECT_FALSE(session.metrics_enabled());
  EXPECT_GT(sink->matches().size(), 0u);
  EXPECT_THROW(session.metrics_snapshot(), std::logic_error);
  EXPECT_THROW(session.metrics_text(), std::logic_error);
}

// ------------------------------------------------------ Trace lifecycle

class TraceLifecycleTest : public ::testing::Test {
 protected:
  std::vector<TraceKind> run(bool aggressive, const std::vector<Event>& events) {
    EngineOptions options;
    options.slack = 10;
    options.aggressive_negation = aggressive;
    options.trace = recorder_.hook();
    const CompiledQuery q = compile_query(kNegated, reg_);
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, options);
    for (const Event& e : events) engine->on_event(e);
    engine->finish();
    matches_ = sink->matches().size();
    return recorder_.kinds();
  }

  static std::size_t first(const std::vector<TraceKind>& kinds, TraceKind k) {
    const auto it = std::find(kinds.begin(), kinds.end(), k);
    return static_cast<std::size_t>(it - kinds.begin());
  }
  static std::size_t count(const std::vector<TraceKind>& kinds, TraceKind k) {
    return static_cast<std::size_t>(std::count(kinds.begin(), kinds.end(), k));
  }

  TypeRegistry reg_ = make_abcd_registry();
  TraceRecorder recorder_;
  std::size_t matches_ = 0;
  static constexpr const char* kNegated = "PATTERN SEQ(A a, !B b, C c) WITHIN 100";
};

TEST_F(TraceLifecycleTest, ConservativeSealThenEmit) {
  // A..C candidate is held (negation interval not sealed under K=10),
  // then the D tick advances the clock past the horizon: seal -> emit.
  const auto kinds = run(false, {make_event(reg_, "A", 1, 1),
                                 make_event(reg_, "C", 2, 5),
                                 make_event(reg_, "D", 3, 40)});
  EXPECT_EQ(matches_, 1u);
  ASSERT_EQ(count(kinds, TraceKind::kSeal), 1u);
  ASSERT_EQ(count(kinds, TraceKind::kEmit), 1u);
  EXPECT_LT(first(kinds, TraceKind::kStart), first(kinds, TraceKind::kSeal));
  EXPECT_LT(first(kinds, TraceKind::kSeal), first(kinds, TraceKind::kEmit));
  EXPECT_EQ(count(kinds, TraceKind::kRetract), 0u);
}

TEST_F(TraceLifecycleTest, ConservativeSealThenCancelOnLateNegative) {
  // The negative lands inside the pending candidate's interval before it
  // seals: the candidate is cancelled at seal time, never emitted.
  const auto kinds = run(false, {make_event(reg_, "A", 1, 1),
                                 make_event(reg_, "C", 2, 5),
                                 make_event(reg_, "B", 3, 3),  // late negative
                                 make_event(reg_, "D", 4, 40)});
  EXPECT_EQ(matches_, 0u);
  ASSERT_EQ(count(kinds, TraceKind::kSeal), 1u);
  ASSERT_EQ(count(kinds, TraceKind::kCancel), 1u);
  EXPECT_LT(first(kinds, TraceKind::kSeal), first(kinds, TraceKind::kCancel));
  EXPECT_EQ(count(kinds, TraceKind::kEmit), 0u);
}

TEST_F(TraceLifecycleTest, AggressiveEmitThenRetract) {
  // Aggressive negation emits immediately; the late negative inside the
  // unsealed interval then forces a retraction: emit -> retract.
  const auto kinds = run(true, {make_event(reg_, "A", 1, 1),
                                make_event(reg_, "C", 2, 5),
                                make_event(reg_, "B", 3, 3)});  // late negative
  ASSERT_EQ(count(kinds, TraceKind::kEmit), 1u);
  ASSERT_EQ(count(kinds, TraceKind::kRetract), 1u);
  EXPECT_LT(first(kinds, TraceKind::kEmit), first(kinds, TraceKind::kRetract));
}

// --------------------------------------------------- Periodic reporter

TEST(SessionReporter, PeriodicallyDeliversExposition) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  std::mutex mu;
  std::vector<std::string> reports;
  Session session(reg,
                  SessionConfig{}
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50")
                      .report_every(std::chrono::milliseconds(2))
                      .report_to([&](const std::string& text) {
                        std::lock_guard<std::mutex> lock(mu);
                        reports.push_back(text);
                      }),
                  sink);
  for (EventId i = 0; i < 200; ++i) {
    session.push(make_event(reg, i % 2 ? "B" : "A", i, Timestamp(i), 0));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  session.close();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(reports.empty());
  EXPECT_NE(reports.back().find("oosp_session_events_total"), std::string::npos);
  EXPECT_NE(reports.back().find("oosp_engine_matches_total"), std::string::npos);
}

// Regression: finish() used to leave the periodic reporter running while
// it drained the quarantine and bumped oosp_session_quarantine_drained_total,
// so a scrape could land between the two and publish a snapshot whose
// quarantine totals disagree. finish() must join the reporter FIRST — no
// report may be delivered after finish() returns. (The data race itself
// is the TSan job's catch; the joined-before-return contract is pinned
// here.)
TEST(SessionReporter, FinishStopsReporterBeforeQuarantineAccounting) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  auto scrapes = std::make_shared<std::atomic<std::uint64_t>>(0);
  EngineOptions opt;
  opt.late_policy = LatePolicy::kQuarantine;
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .options(opt)
                      .slack(5)
                      .shards(2)
                      .report_every(std::chrono::milliseconds(1))
                      .report_to([scrapes](const std::string&) {
                        scrapes->fetch_add(1, std::memory_order_relaxed);
                      })
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50"),
                  sink);
  for (EventId i = 0; i < 500; ++i)
    session.push(make_event(reg, i % 2 ? "B" : "A", i, Timestamp(i), (i / 2) % 8));
  // Stragglers past the slack horizon land in the quarantine finish() drains.
  session.push(make_event(reg, "A", 500, 0, 0));
  session.push(make_event(reg, "B", 501, 1, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // let it scrape

  session.finish();  // direct finish, NOT close(): the racy path
  const std::uint64_t at_finish = scrapes->load(std::memory_order_relaxed);
  EXPECT_GT(session.quarantined().size(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(scrapes->load(std::memory_order_relaxed), at_finish)
      << "reporter was still scraping after finish() returned";
}

// ------------------------------------------------- Worker liveness

// A trace hook that dies the moment any partial match opens — runs on
// the shard worker thread, so it kills the worker deterministically.
[[noreturn]] void poison_hook(void*, const TraceSpan&) {
  throw std::runtime_error("poisoned trace hook");
}

TEST(ShardLiveness, DeadWorkerSurfacesErrorInsteadOfHanging) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .shards(4)
                      .trace(TraceHook{&poison_hook, nullptr})
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50"),
                  sink);
  ASSERT_TRUE(session.sharded());
  // The producer may trip over the dead worker in on_event (backpressure
  // spin or fail-fast) or only at close() — either way the original
  // exception must surface, and nothing may hang.
  bool threw = false;
  try {
    for (EventId i = 0; i < 50'000; ++i)
      session.push(make_event(reg, i % 2 ? "B" : "A", i, Timestamp(i), i % 64));
    session.close();
  } catch (const std::runtime_error& ex) {
    threw = true;
    EXPECT_STREQ(ex.what(), "poisoned trace hook");
  }
  ASSERT_TRUE(threw);
  // The failure was counted, and a repeat close() is a clean no-op.
  EXPECT_GE(session.metrics_snapshot().counter("oosp_shard_worker_failures_total"), 1u);
  EXPECT_NO_THROW(session.close());
}

TEST(ShardLiveness, BackpressureRetriesAreCounted) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  // One usable queue slot per shard: the producer is guaranteed to spin.
  Session session(reg,
                  SessionConfig{}
                      .shards(2)
                      .queue_capacity(2)
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50"),
                  sink);
  ASSERT_TRUE(session.sharded());
  for (EventId i = 0; i < 20'000; ++i)
    session.push(make_event(reg, i % 2 ? "B" : "A", i, Timestamp(i), (i / 2) % 16));
  session.close();
  EXPECT_GT(session.metrics_snapshot().counter("oosp_shard_push_retries_total"), 0u);
  EXPECT_GT(sink->matches().size(), 0u);
}

}  // namespace
}  // namespace oosp
