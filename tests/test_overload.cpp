// Overload control: OverloadMonitor pressure grading and AIMD cut,
// per-policy Session behavior under a slow consumer (bounded producer
// latency, shed accounting, quality ordering of the shedding policies),
// and shedding composed with crash recovery (exactly-once preserved).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/oracle/oracle.hpp"
#include "engine_test_util.hpp"
#include "runtime/overload.hpp"
#include "runtime/session.hpp"
#include "runtime/verify.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;

// ------------------------------------------------------ OverloadMonitor

TEST(OverloadMonitor, GradesPressureByQueueDepth) {
  OverloadConfig cfg;  // warn 0.50, shed 0.875
  OverloadMonitor mon(cfg, /*queue_capacity=*/100, /*metrics=*/nullptr);
  EXPECT_EQ(mon.assess(0, 0), Pressure::kOk);
  EXPECT_EQ(mon.assess(49, 0), Pressure::kOk);
  EXPECT_EQ(mon.assess(50, 0), Pressure::kWarn);
  EXPECT_EQ(mon.assess(86, 0), Pressure::kWarn);
  EXPECT_EQ(mon.assess(87, 0), Pressure::kShed);
  EXPECT_EQ(mon.assess(100, 0), Pressure::kShed);
}

TEST(OverloadMonitor, WatermarkLagEscalatesIndependentOfDepth) {
  OverloadConfig cfg;  // lag_warn 4.0, lag_shed 16.0; scale starts at 1
  OverloadMonitor mon(cfg, 100, nullptr);
  EXPECT_EQ(mon.assess(0, 3), Pressure::kOk);
  EXPECT_EQ(mon.assess(0, 4), Pressure::kWarn);
  EXPECT_EQ(mon.assess(0, 16), Pressure::kShed);
  // Depth grade is never LOWERED by a small lag.
  EXPECT_EQ(mon.assess(87, 1), Pressure::kShed);
}

TEST(OverloadMonitor, CutTracksLatenessQuantileWithAimdRecovery) {
  OverloadConfig cfg;
  cfg.shed_quantile = 0.90;
  cfg.estimator.refresh_period = 8;
  OverloadMonitor mon(cfg, 100, nullptr);

  // Before any refresh the cut is effectively off (nothing sheds).
  EXPECT_FALSE(mon.shed_late(1'000'000, Pressure::kShed));

  for (int i = 0; i < 8; ++i) mon.observe(100);
  EXPECT_EQ(mon.lateness_cut(), 100);
  EXPECT_EQ(mon.lateness_scale(), 100);

  // Pricing requires pressure: a late event under kOk is never shed.
  EXPECT_FALSE(mon.shed_late(100, Pressure::kOk));
  EXPECT_TRUE(mon.shed_late(100, Pressure::kWarn));
  EXPECT_FALSE(mon.shed_late(99, Pressure::kShed));

  // A forced shed halves the cut (multiplicative decrease)...
  mon.note_forced_shed();
  EXPECT_EQ(mon.lateness_cut(), 50);

  // ...and while pressure stays bad the refresh only keeps it tight.
  mon.assess(100, 0);  // kShed
  for (int i = 0; i < 8; ++i) mon.observe(100);
  EXPECT_EQ(mon.lateness_cut(), 50);

  // Once pressure returns to kOk, refreshes relax it back to the target.
  mon.assess(0, 0);  // kOk
  for (int i = 0; i < 8; ++i) mon.observe(100);
  EXPECT_EQ(mon.lateness_cut(), 100);
}

// ------------------------------------------------- offered-load harness

// Arrival stream of A/B pairs (key = (i/2) % 8, WITHIN-50 partners every
// 16 events) where `late_every`-th events arrive `late_by` behind the
// stream-time high-water mark — a bimodal lateness mix: most events are
// perfectly fresh (lateness 0), the rest hopeless stragglers.
std::vector<Event> make_offered(const TypeRegistry& reg, std::size_t n,
                                Timestamp late_by) {
  std::vector<Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Timestamp base = static_cast<Timestamp>(i) * 2;
    const bool late = (i % 20) < 7 && base >= late_by;  // ~35% stragglers
    out.push_back(make_event(reg, (i % 2 == 0) ? "A" : "B",
                             static_cast<EventId>(i), late ? base - late_by : base,
                             /*k=*/static_cast<std::int64_t>((i / 2) % 8)));
  }
  return out;
}

constexpr const char* kPairQuery =
    "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";

struct PolicyRun {
  double recall = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t shed_metric = 0;
  std::uint64_t admitted = 0;  // events_seen by the single query's engines
};

// Drives `offered` through a 2-shard session with a throttled consumer
// under the given overload config; scores recall against the oracle over
// the FULL offered stream. Slack 150 + LatePolicy::kDrop: the >150-late
// stragglers contribute nothing even when admitted, which is exactly the
// structure kShedByLateness exploits.
PolicyRun run_policy(const TypeRegistry& reg, const std::vector<Event>& offered,
                     OverloadConfig cfg, std::chrono::microseconds delay) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(150)
                      .late_policy(LatePolicy::kDrop)
                      .shards(2)
                      .queue_capacity(64)
                      .overload(std::move(cfg))
                      .delay_hook([delay](const Event&) {
                        std::this_thread::sleep_for(delay);
                      })
                      .query(kPairQuery),
                  sink);
  EXPECT_EQ(session.shard_count(), 2u) << session.shard_fallback_reason();
  for (const Event& e : offered) session.push(e);
  session.close();

  PolicyRun r;
  r.shed = session.overload_shed();
  r.shed_metric = session.metrics_snapshot().counter("oosp_overload_shed_total");
  r.admitted = session.stats(0).events_seen;
  std::vector<MatchKey> expected = oracle_keys(session.query(0), offered);
  std::sort(expected.begin(), expected.end());
  const VerifyResult v = compare_keys(expected, sink->keys_for(0));
  r.recall = v.recall();
  return r;
}

// --------------------------------------------------- per-policy contract

TEST(OverloadSession, BlockPolicyShedsNothingAndStaysExact) {
  const TypeRegistry reg = make_abcd_registry();
  const auto offered = make_offered(reg, 4'000, /*late_by=*/400);
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(500)  // covers the stragglers: exact run
                      .shards(2)
                      .queue_capacity(64)
                      .delay_hook([](const Event&) {
                        std::this_thread::sleep_for(std::chrono::microseconds(5));
                      })
                      .query(kPairQuery),
                  sink);
  for (const Event& e : offered) session.push(e);
  session.close();

  EXPECT_EQ(session.overload_shed(), 0u);
  EXPECT_EQ(session.degraded_accounting().shed_events, 0u);
  EXPECT_FALSE(session.degraded_accounting().degraded());
  std::vector<MatchKey> expected = oracle_keys(session.query(0), offered);
  std::sort(expected.begin(), expected.end());
  const VerifyResult v = compare_keys(expected, sink->keys_for(0));
  EXPECT_TRUE(v.exact()) << "missed=" << v.missed
                         << " false_positives=" << v.false_positives;
}

TEST(OverloadSession, ShedNewestBoundsProducerLatencyAndAccountsEveryShed) {
  const TypeRegistry reg = make_abcd_registry();
  const std::size_t n = 2'000;
  const auto offered = make_offered(reg, n, 400);
  OverloadConfig cfg;
  cfg.policy = OverloadPolicy::kShedNewest;

  const auto t0 = std::chrono::steady_clock::now();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(150)
                      .shards(2)
                      .queue_capacity(64)
                      .overload(std::move(cfg))
                      .delay_hook([](const Event&) {
                        std::this_thread::sleep_for(std::chrono::microseconds(500));
                      })
                      .query(kPairQuery),
                  sink);
  for (const Event& e : offered) session.push(e);
  const auto producer_wall = std::chrono::steady_clock::now() - t0;
  session.close();

  // kBlock would pace the producer at the consumer's ~500us/event crawl
  // (~1s for 2k events); shedding keeps the producer unthrottled.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(producer_wall).count(),
            400);
  EXPECT_GT(session.overload_shed(), 0u);

  // Accounting closes: offered = admitted + shed, and every view of the
  // shed count (runner, degraded accounting, metric, per-query) agrees.
  // The single query references both fed types, so its engines' combined
  // events_seen IS the admitted count.
  EXPECT_EQ(session.stats(0).events_seen + session.overload_shed(), n);
  EXPECT_EQ(session.degraded_accounting().shed_events, session.overload_shed());
  EXPECT_TRUE(session.degraded_accounting().degraded());
  EXPECT_EQ(session.metrics_snapshot().counter("oosp_overload_shed_total"),
            session.overload_shed());
  EXPECT_EQ(session.overload_shed(0), session.overload_shed());
}

TEST(OverloadSession, ShedByLatenessRecallAtLeastShedNewest) {
  const TypeRegistry reg = make_abcd_registry();
  const auto offered = make_offered(reg, 20'000, /*late_by=*/400);

  OverloadConfig newest;
  newest.policy = OverloadPolicy::kShedNewest;
  OverloadConfig by_lateness;
  by_lateness.policy = OverloadPolicy::kShedByLateness;
  // With ~35% stragglers the 0.6-quantile of lateness sits in the fresh
  // mode, so the refreshed cut prices exactly the straggler mode out.
  by_lateness.shed_quantile = 0.6;
  // Generous bounded wait: fresh events queue up behind the throttled
  // consumer instead of being force-shed, trading latency for recall.
  by_lateness.fresh_wait = std::chrono::microseconds(50'000);

  const auto delay = std::chrono::microseconds(20);
  const PolicyRun blind = run_policy(reg, offered, newest, delay);
  const PolicyRun priced = run_policy(reg, offered, by_lateness, delay);

  // Both overloaded runs shed, and every shed is metered.
  EXPECT_GT(blind.shed, 0u);
  EXPECT_GT(priced.shed, 0u);
  EXPECT_EQ(blind.shed_metric, blind.shed);
  EXPECT_EQ(priced.shed_metric, priced.shed);
  EXPECT_EQ(blind.admitted + blind.shed, offered.size());
  EXPECT_EQ(priced.admitted + priced.shed, offered.size());

  // The quality claim: lateness-priced shedding preserves at least the
  // recall of blind newest-drop at the same offered load, because it
  // spends its losses on events the engines would late-drop anyway.
  EXPECT_GE(priced.recall, blind.recall)
      << "by-lateness recall " << priced.recall << " vs shed-newest "
      << blind.recall << " (shed " << priced.shed << " vs " << blind.shed << ")";
}

TEST(OverloadSession, FailPolicyThrowsOverloadErrorAndCloseStillDrains) {
  const TypeRegistry reg = make_abcd_registry();
  const auto offered = make_offered(reg, 200, 400);
  OverloadConfig cfg;
  cfg.policy = OverloadPolicy::kFail;
  cfg.fail_deadline = std::chrono::milliseconds(2);

  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(150)
                      .shards(2)
                      .queue_capacity(16)
                      .overload(std::move(cfg))
                      .delay_hook([](const Event&) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(10));
                      })
                      .query(kPairQuery),
                  sink);
  // A 10ms/event consumer against a 15-slot ring: the deadline expires
  // well before the 200-event offered stream is admitted.
  bool threw = false;
  try {
    for (const Event& e : offered) session.push(e);
  } catch (const OverloadError& err) {
    threw = true;
    EXPECT_LT(err.shard(), 2u);
    EXPECT_NE(std::string(err.what()).find("deadline"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(session.overload_shed(), 0u);  // kFail refuses, never sheds
  // The failure is the producer's: the session itself is still healthy
  // and close() drains what was admitted.
  session.close();
}

TEST(OverloadSession, FailedBatchLeavesNothingStagedForTheNextBatch) {
  // A push_batch that throws part-way must not leave the unpushed rest of
  // its batch staged: the next push_batch would admit those events too.
  const TypeRegistry reg = make_abcd_registry();
  const auto first = make_offered(reg, 200, 400);
  std::vector<Event> second;
  for (EventId i = 0; i < 4; ++i)
    second.push_back(make_event(reg, i % 2 ? "B" : "A", 1'000 + i,
                                static_cast<Timestamp>(1'000 + i),
                                static_cast<std::int64_t>(i / 2)));
  OverloadConfig cfg;
  cfg.policy = OverloadPolicy::kFail;
  cfg.fail_deadline = std::chrono::milliseconds(2);
  std::atomic<bool> slow{true};
  std::mutex mu;
  std::vector<EventId> processed;
  const auto processed_count = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return processed.size();
  };

  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(150)
                      .shards(2)
                      .queue_capacity(16)
                      .overload(std::move(cfg))
                      .delay_hook([&](const Event& e) {
                        if (slow.load()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
                        std::lock_guard<std::mutex> lock(mu);
                        processed.push_back(e.id);
                      })
                      .query(kPairQuery),
                  std::make_shared<CollectingTaggedSink>());
  EXPECT_THROW(session.push_batch(first), OverloadError);
  // Speed the workers up and wait until what the failed call admitted has
  // been processed (no progress across a 50 ms window).
  slow.store(false);
  std::size_t drained = 0;
  do {
    drained = processed_count();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  } while (processed_count() != drained);

  session.push_batch(second);
  session.close();
  std::vector<EventId> after(processed.begin() + static_cast<std::ptrdiff_t>(drained),
                             processed.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, (std::vector<EventId>{1'000, 1'001, 1'002, 1'003}));
}

// ------------------------------------------- shedding × crash recovery

TEST(OverloadSession, SheddingComposesWithRecoveryExactlyOnce) {
  const TypeRegistry reg = make_abcd_registry();
  const auto offered = make_offered(reg, 4'000, 400);
  OverloadConfig cfg;
  cfg.policy = OverloadPolicy::kShedNewest;

  // The hooks count PROCESSED events (shedding decides what is admitted,
  // so event ids are useless as triggers): the consumer crawls for the
  // first 300 — long enough for the paced producer to overrun the rings
  // and shed — then speeds up, and the 400th processed event kills its
  // worker exactly once. Shedding must not confuse the checkpoint/replay
  // path, and replay must not duplicate matches.
  auto processed = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto killed = std::make_shared<std::atomic<bool>>(false);
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(150)
                      .late_policy(LatePolicy::kDrop)
                      .shards(2)
                      .queue_capacity(16)
                      .checkpoint_every(16)
                      .overload(std::move(cfg))
                      .kill_hook([processed, killed](const Event&) {
                        return processed->load(std::memory_order_relaxed) >= 400 &&
                               !killed->exchange(true);
                      })
                      .delay_hook([processed](const Event&) {
                        if (processed->fetch_add(1, std::memory_order_relaxed) < 300)
                          std::this_thread::sleep_for(std::chrono::microseconds(300));
                      })
                      .query(kPairQuery),
                  sink);
  for (const Event& e : offered) {
    session.push(e);
    std::this_thread::sleep_for(std::chrono::microseconds(25));
  }
  session.close();

  EXPECT_TRUE(killed->load());
  EXPECT_GE(session.restarts(), 1u);
  EXPECT_GT(session.overload_shed(), 0u);
  EXPECT_GT(session.metrics_snapshot().counter("oosp_shard_checkpoints_total"), 0u);

  // Exactly-once over the ADMITTED stream: shedding and replay only ever
  // remove inputs, so for this positive SEQ query every produced match
  // must exist in the oracle set over the full offered stream, exactly
  // once — precision 1.0 means no replay duplicates and no phantoms.
  std::vector<MatchKey> expected = oracle_keys(session.query(0), offered);
  std::sort(expected.begin(), expected.end());
  const VerifyResult v = compare_keys(expected, sink->keys_for(0));
  EXPECT_EQ(v.precision(), 1.0) << "false_positives=" << v.false_positives;
}

}  // namespace
}  // namespace oosp
