// Sharded runtime: SPSC queue, partition analysis, ordered merge,
// exactly-once delivery, 1-vs-N shard output determinism, and the type id
// reserved for clock ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_queue.hpp"
#include "engine_test_util.hpp"
#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::spsc_pop_one;
using testutil::spsc_push_one;

// ---------------------------------------------------------------- SPSC

TEST(SpscQueue, CapacityIsPowerOfTwoMinusReservedSlot) {
  // One ring slot is reserved to tell full from empty.
  SpscQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);  // ring of 4
  SpscQueue<int> q2(64);
  EXPECT_EQ(q2.capacity(), 63u);  // ring of 64
}

TEST(SpscQueue, FifoOrderAndFullBehaviour) {
  SpscQueue<int> q(4);
  const int cap = static_cast<int>(q.capacity());
  for (int i = 0; i < cap; ++i) EXPECT_TRUE(spsc_push_one(q, i));
  EXPECT_FALSE(spsc_push_one(q, 99));  // full
  int v = -1;
  for (int i = 0; i < cap; ++i) {
    ASSERT_TRUE(spsc_pop_one(q, v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(spsc_pop_one(q, v));  // empty
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, CrossThreadTransfersEverythingInOrder) {
  constexpr int kN = 50'000;
  SpscQueue<int> q(1024);
  std::thread consumer([&] {
    int expect = 0, v = 0;
    while (expect < kN) {
      if (spsc_pop_one(q, v)) {
        ASSERT_EQ(v, expect);
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kN; ++i)
    while (!spsc_push_one(q, i)) std::this_thread::yield();
  consumer.join();
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------ PartitionSpec

class PartitionTest : public ::testing::Test {
 protected:
  std::vector<ShardQuerySpec> specs(std::initializer_list<const char*> queries) {
    std::vector<ShardQuerySpec> out;
    for (const char* text : queries)
      out.push_back(ShardQuerySpec{compile_query_shared(text, reg_)});
    return out;
  }

  TypeRegistry reg_ = make_abcd_registry();
};

TEST_F(PartitionTest, KeyedQueriesShareSlotsAndUnusedTypesAreTickOnly) {
  const auto s = specs({"PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50",
                        "PATTERN SEQ(B x, C y) WHERE x.k == y.k WITHIN 50"});
  std::string why;
  const auto spec = PartitionSpec::build(s, reg_, &why);
  ASSERT_TRUE(spec.has_value()) << why;
  EXPECT_EQ(spec->slot_for(reg_.lookup("A")), 0u);  // k is slot 0
  EXPECT_EQ(spec->slot_for(reg_.lookup("B")), 0u);
  EXPECT_EQ(spec->slot_for(reg_.lookup("C")), 0u);
  EXPECT_EQ(spec->slot_for(reg_.lookup("D")), PartitionSpec::kTickOnly);
}

TEST_F(PartitionTest, RejectsQueryWithoutFullKey) {
  const auto s = specs({"PATTERN SEQ(A a, B b) WITHIN 50"});
  std::string why;
  EXPECT_FALSE(PartitionSpec::build(s, reg_, &why).has_value());
  EXPECT_NE(why.find("equi-join"), std::string::npos) << why;
}

TEST_F(PartitionTest, RejectsConflictingKeyAttributes) {
  // A keys on slot 0 (k) for the first query, slot 1 (v) for the second:
  // no single hash routes A events correctly for both.
  const auto s = specs({"PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50",
                        "PATTERN SEQ(A a, C c) WHERE a.v == c.v WITHIN 50"});
  std::string why;
  EXPECT_FALSE(PartitionSpec::build(s, reg_, &why).has_value());
  EXPECT_NE(why.find("conflicting"), std::string::npos) << why;
}

TEST_F(PartitionTest, RejectsNegatedStepOutsideKeyClass) {
  // The !B step carries no key: its events must be visible to every
  // key's candidates, so the query set cannot be sharded.
  const auto s =
      specs({"PATTERN SEQ(A a, !B b, C c) WHERE a.k == c.k WITHIN 100"});
  std::string why;
  EXPECT_FALSE(PartitionSpec::build(s, reg_, &why).has_value());
  EXPECT_NE(why.find("negated"), std::string::npos) << why;
}

TEST_F(PartitionTest, AcceptsKeyedNegation) {
  const auto s = specs(
      {"PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k WITHIN 100"});
  std::string why;
  const auto spec = PartitionSpec::build(s, reg_, &why);
  ASSERT_TRUE(spec.has_value()) << why;
  EXPECT_EQ(spec->slot_for(reg_.lookup("B")), 0u);
}

// ------------------------------------------------------- ordered merge

TEST(MergeMatchStreams, CanonicalOrderAcrossStreams) {
  const TypeRegistry reg = make_abcd_registry();
  auto tagged = [&](QueryId q, EventId id, Timestamp ts) {
    Match m;
    m.events.push_back(make_event(reg, "A", id, ts));
    return TaggedMatch{q, std::move(m)};
  };
  std::vector<std::vector<TaggedMatch>> streams(2);
  streams[0].push_back(tagged(1, 5, 30));
  streams[0].push_back(tagged(0, 1, 10));  // emission order is not ts order
  streams[1].push_back(tagged(0, 2, 30));
  streams[1].push_back(tagged(0, 9, 20));

  const auto merged = merge_match_streams(std::move(streams));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].match.events[0].id, 1u);  // ts 10
  EXPECT_EQ(merged[1].match.events[0].id, 9u);  // ts 20
  EXPECT_EQ(merged[2].match.events[0].id, 2u);  // ts 30, query 0
  EXPECT_EQ(merged[3].match.events[0].id, 5u);  // ts 30, query 1
}

TEST(MergeMatchStreams, TiesOnSealAndQueryOrderByLaterEventIds) {
  const TypeRegistry reg = make_abcd_registry();
  auto tagged = [&](EventId first, EventId second) {
    Match m;
    m.events.push_back(make_event(reg, "A", first, 10));
    m.events.push_back(make_event(reg, "B", second, 30));
    return TaggedMatch{0, std::move(m)};
  };
  // Same seal_ts and query throughout; (5, 7) and (5, 3) share the first
  // event too and differ only in the second.
  std::vector<std::vector<TaggedMatch>> streams(2);
  streams[0].push_back(tagged(5, 7));
  streams[0].push_back(tagged(4, 9));
  streams[1].push_back(tagged(5, 3));

  const auto merged = merge_match_streams(std::move(streams));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(match_key(merged[0].match), (MatchKey{4, 9}));
  EXPECT_EQ(match_key(merged[1].match), (MatchKey{5, 3}));
  EXPECT_EQ(match_key(merged[2].match), (MatchKey{5, 7}));
}

// -------------------------------------------- exactly-once delivery

TEST(MultiQueryDelivery, TypeBothPositiveAndNegatedIsDeliveredOnce) {
  // Regression: B is a positive step of Q0 and a negated step of Q1. A
  // router that first delivers to all relevant queries and then
  // broadcasts clock ticks to negation holders would hand Q1 every B
  // twice — visible as inflated events_seen (and, with dedup enabled,
  // spurious events_deduped).
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg, sink);
  EngineOptions opt;
  opt.slack = 10;
  const QueryId q0 = runner.add_query(
      {"PATTERN SEQ(B a, C b) WHERE a.k == b.k WITHIN 100", EngineKind::kOoo, opt});
  const QueryId q1 = runner.add_query(
      {"PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k WITHIN 100",
       EngineKind::kOoo, opt});

  std::size_t events = 0, b_or_c = 0;
  EventId id = 0;
  for (Timestamp t = 0; t < 300; t += 5) {
    const char* type = (t % 15 == 0) ? "A" : ((t % 10 == 0) ? "B" : "C");
    runner.on_event(make_event(reg, type, id++, t, /*k=*/t % 3));
    ++events;
    b_or_c += (type[0] != 'A');
  }
  runner.finish();

  // Q1 references every fed type; Q0 only B and C. Exactly-once routing
  // means events_seen equals the number of deliveries owed, no more.
  EXPECT_EQ(runner.stats(q1).events_seen, events);
  EXPECT_EQ(runner.stats(q0).events_seen, b_or_c);
  EXPECT_EQ(runner.stats(q0).events_deduped, 0u);
  EXPECT_EQ(runner.stats(q1).events_deduped, 0u);
  EXPECT_EQ(runner.events_seen(), events);
}

TEST(MultiQueryDelivery, IrrelevantTypeTicksNegationHoldersOnly) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg, sink);
  const QueryId q_pos = runner.add_query(
      {"PATTERN SEQ(A a, B b) WITHIN 100", EngineKind::kOoo, EngineOptions{}});
  const QueryId q_neg = runner.add_query(
      {"PATTERN SEQ(A a, !B b, C c) WITHIN 100", EngineKind::kOoo, EngineOptions{}});
  runner.on_event(make_event(reg, "D", 0, 10));  // relevant to neither pattern
  runner.finish();
  EXPECT_EQ(runner.stats(q_pos).events_seen, 0u);  // no tick needed, none sent
  EXPECT_EQ(runner.stats(q_neg).events_seen, 1u);  // clock tick for sealing
  EXPECT_EQ(runner.events_routed(), 0u);
}

// -------------------------------------------------- Session / sharding

std::vector<std::pair<QueryId, MatchKey>> run_session(const SyntheticWorkload& wl,
                                                      const std::vector<Event>& arrivals,
                                                      Timestamp slack,
                                                      std::size_t shards,
                                                      std::size_t* got_shards = nullptr) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(slack)
                      .shards(shards)
                      .query(wl.seq_query(2, true, 400))
                      .query(wl.seq_query(3, true, 800)),
                  sink);
  for (const Event& e : arrivals) session.push(e);
  session.finish();
  if (got_shards) *got_shards = session.shard_count();
  std::vector<std::pair<QueryId, MatchKey>> out;
  for (const TaggedMatch& tm : sink->matches())
    out.emplace_back(tm.query, match_key(tm.match));
  return out;
}

TEST(SessionSharded, OneVsEightShardsIdenticalOrderedOutput) {
  SyntheticWorkload wl({.num_events = 20'000, .num_types = 4, .key_cardinality = 64,
                        .mean_gap = 5, .seed = 424});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(150), 0.25, 11);
  const auto arrivals = inj.deliver(ordered);
  const Timestamp slack = inj.slack_bound();

  std::size_t shards1 = 0, shards8 = 0;
  const auto base = run_session(wl, arrivals, slack, 1, &shards1);
  const auto par = run_session(wl, arrivals, slack, 8, &shards8);
  EXPECT_EQ(shards1, 1u);
  EXPECT_EQ(shards8, 8u);
  EXPECT_GT(base.size(), 100u) << "workload too sparse to be meaningful";

  // Not just the same multiset — the same SEQUENCE, element by element.
  ASSERT_EQ(par.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(par[i].first, base[i].first) << "query id diverges at " << i;
    ASSERT_EQ(par[i].second, base[i].second) << "match diverges at " << i;
  }
}

TEST(SessionSharded, ShardedMatchesAreExact) {
  // Two types, both bound by the query: every event is engine-relevant,
  // so cross-shard counters must add back up to the input size.
  SyntheticWorkload wl({.num_events = 8'000, .num_types = 2, .key_cardinality = 32,
                        .mean_gap = 6, .seed = 99});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(120), 0.2, 3);
  const auto arrivals = inj.deliver(ordered);

  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(inj.slack_bound())
                      .shards(4)
                      .query(wl.seq_query(2, true, 300)),
                  sink);
  for (const Event& e : arrivals) session.push(e);
  session.finish();
  ASSERT_EQ(session.shard_count(), 4u) << session.shard_fallback_reason();

  const CompiledQuery& q = session.query(0);
  const VerifyResult v =
      verify_against_oracle(q, arrivals, [&] {
        std::vector<Match> ms;
        for (const TaggedMatch& tm : sink->matches()) ms.push_back(tm.match);
        return ms;
      }());
  EXPECT_TRUE(v.exact()) << "expected=" << v.expected << " produced=" << v.produced
                         << " missed=" << v.missed
                         << " false_positives=" << v.false_positives;

  // Every event hashes to exactly one shard (no broadcast types here),
  // so merged per-engine counters add back up to the input size.
  EXPECT_EQ(session.stats(0).events_seen, arrivals.size());
  EXPECT_EQ(session.events_seen(), arrivals.size());
}

TEST(SessionSharded, UnshardableQueryFallsBackToSingleShard) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .slack(10)
                      .shards(4)
                      .query("PATTERN SEQ(A a, B b) WITHIN 50"),  // no key
                  sink);
  EXPECT_EQ(session.shard_count(), 1u);
  EXPECT_FALSE(session.sharded());
  EXPECT_FALSE(session.shard_fallback_reason().empty());

  session.push(make_event(reg, "A", 0, 10));
  session.push(make_event(reg, "B", 1, 20));
  session.finish();
  EXPECT_EQ(sink->matches().size(), 1u);
}

TEST(SessionSharded, PerQueryEngineOverridesApply) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  EngineOptions tight;
  tight.slack = 0;
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(100)
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50")
                      .query({"PATTERN SEQ(A a, C c) WHERE a.k == c.k WITHIN 50",
                              EngineKind::kInOrder, tight}),
                  sink);
  session.push(make_event(reg, "A", 0, 10, 1));
  session.push(make_event(reg, "B", 1, 20, 1));
  session.push(make_event(reg, "C", 2, 30, 1));
  session.finish();
  EXPECT_EQ(sink->keys_for(0).size(), 1u);
  EXPECT_EQ(sink->keys_for(1).size(), 1u);
  // The override carried its own slack: the in-order engine ran with 0.
  EXPECT_EQ(session.stats(1).effective_slack, 0);
  EXPECT_EQ(session.stats(0).effective_slack, 100);
}

// ------------------------------------------- backpressure regressions

// Regression: the worker used to publish `size_approx() + popped` as the
// queue-depth gauge AFTER its pop, while the producer concurrently
// refilled the freed slots — the sum could transiently exceed the ring's
// capacity. The gauge must only ever publish genuine occupancy readings.
TEST(SessionSharded, QueueDepthGaugeNeverExceedsCapacity) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(10)
                      .shards(2)
                      .queue_capacity(64)  // ring of 64, 63 usable slots
                      .delay_hook([](const Event&) {
                        std::this_thread::sleep_for(std::chrono::microseconds(2));
                      })
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50"),
                  sink);
  const std::int64_t capacity = 63;

  std::atomic<bool> stop{false};
  std::int64_t max_seen = 0;
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      max_seen = std::max(
          max_seen, session.metrics_snapshot().gauge("oosp_shard_queue_depth"));
    }
  });

  // Saturating batched pushes keep both rings at/near full while the
  // scraper races the worker's pop-side samples.
  std::vector<Event> batch;
  EventId id = 0;
  for (int round = 0; round < 200; ++round) {
    batch.clear();
    for (int i = 0; i < 128; ++i, ++id)
      batch.push_back(make_event(reg, (id % 2 == 0) ? "A" : "B", id,
                                 static_cast<Timestamp>(id),
                                 static_cast<std::int64_t>(id % 16)));
    session.push_batch(batch);
  }
  stop.store(true, std::memory_order_release);
  scraper.join();
  session.close();

  EXPECT_GT(max_seen, 0);  // the scraper actually observed occupancy
  EXPECT_LE(max_seen, capacity);
}

// Regression: push_batch's backpressure loop only checked the dead flag
// when a ring transaction pushed NOTHING — a worker killed mid-batch
// while its queue still had ROOM let the producer quietly keep filling a
// queue nobody would ever drain. The scalar path fails fast in that
// state; the batched path must too. The ring here is deliberately huge,
// so the old code's only dead check (the full-ring branch) never runs
// and only loop-top parity surfaces the death.
TEST(SessionSharded, DeadWorkerFailsFastFromPushBatchWithRoomToSpare) {
  const TypeRegistry reg = make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  // Recovery off: the batched routing path is exercised and a worker
  // death must surface as the stored exception, not be supervised away.
  Session session(reg,
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(10)
                      .shards(2)
                      .queue_capacity(8192)
                      .kill_hook([](const Event& e) { return e.id == 3; })
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50"),
                  sink);

  auto batch_of = [&](EventId base, int n) {
    std::vector<Event> batch;
    for (int i = 0; i < n; ++i) {
      const EventId id = base + static_cast<EventId>(i);
      batch.push_back(make_event(reg, (id % 2 == 0) ? "A" : "B", id,
                                 static_cast<Timestamp>(id),
                                 static_cast<std::int64_t>(id % 16)));
    }
    return batch;
  };

  // Deliver the victim, then wait for the kill to land: the failure
  // counter is bumped by the dying worker right before it marks itself
  // dead, so this poll makes the test deterministic.
  session.push_batch(batch_of(0, 8));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session.metrics_snapshot().counter("oosp_shard_worker_failures_total") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "worker never died";
    std::this_thread::yield();
  }

  // 16 distinct keys guarantee the dead shard is targeted; nearly all of
  // the 8191-slot ring is free, so only the loop-top dead check can
  // surface the error. A few rounds tolerate the tiny window between the
  // failure counter and the dead-flag publication.
  bool threw = false;
  EventId id = 8;
  try {
    for (int round = 0; round < 200; ++round) {
      session.push_batch(batch_of(id, 16));
      id += 16;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  } catch (const WorkerKilled& e) {
    threw = true;
    EXPECT_EQ(e.victim(), 3u);
  }
  EXPECT_TRUE(threw) << "producer kept filling a dead worker's queue";
  // Orderly teardown after the surfaced failure.
  session.close();
}

// -------------------------------------------------- reserved tick type

TEST(SessionSharded, PushedEventOfTheTickTypeIsRefusedBeforeAnythingIsStaged) {
  const TypeRegistry reg = make_abcd_registry();
  const std::string text = "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";
  std::vector<Event> stream;
  for (EventId id = 0; id < 400; ++id)
    stream.push_back(make_event(reg, id % 2 ? "B" : "A", id, static_cast<Timestamp>(id),
                                static_cast<std::int64_t>(id / 2 % 13)));
  // A batch whose pairs would complete matches, with a forged tick far
  // ahead of the stream in the middle: refused as a whole, so neither its
  // pairs nor its timestamp reach any shard.
  Event forged = make_event(reg, "A", 10'000, 1'000'000);
  forged.type = kTickType;
  std::vector<Event> refused;
  for (EventId id = 1'000; id < 1'008; ++id) {
    const auto ts = static_cast<Timestamp>(id - 805);  // 195 to 202
    refused.push_back(make_event(reg, id % 2 ? "B" : "A", id, ts, 7));
  }
  refused.insert(refused.begin() + 4, forged);
  // An unregistered type id is not reserved: it keeps its path.
  Event unknown = make_event(reg, "A", 10'001, 199);
  unknown.type = kInvalidType;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(reg, SessionConfig{}.slack(5).shards(shards).metrics(true).query(text),
                    sink);
    ASSERT_EQ(session.shard_count(), shards);
    // A refused call counts none of its events, neither in events_seen()
    // nor in the metric.
    const auto expect_counted = [&](std::uint64_t n) {
      EXPECT_EQ(session.events_seen(), n);
      EXPECT_EQ(session.metrics_snapshot().counter("oosp_session_events_total"), n);
    };
    const std::span<const Event> all(stream);
    session.push_batch(all.first(200));
    expect_counted(200);
    EXPECT_THROW(session.push_batch(refused), std::invalid_argument);
    expect_counted(200);
    EXPECT_THROW(session.push(forged), std::invalid_argument);
    expect_counted(200);
    EXPECT_NO_THROW(session.push(unknown));
    expect_counted(201);

    session.push_batch(all.subspan(200));
    session.close();
    expect_counted(stream.size() + 1);
    std::vector<MatchKey> got;
    for (const TaggedMatch& tm : sink->matches()) got.push_back(match_key(tm.match));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, oracle_keys(compile_query(text, reg), stream));
    EXPECT_EQ(session.total_stats().contract_violations, 0u);
  }
}

}  // namespace
}  // namespace oosp
