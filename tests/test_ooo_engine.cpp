// Unit tests: the native out-of-order engine — hand-built late-arrival
// scenarios covering every retroactive-construction anchor position,
// sealing, cancellation, purging and both RIP modes.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace oosp {
namespace {

using testutil::expect_exact;
using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::run_engine;
using testutil::run_engine_keys;

class OooEngineTest : public ::testing::Test {
 protected:
  OooEngineTest() : reg_(make_abcd_registry()) {}
  Event ev(const char* t, EventId id, Timestamp ts, std::int64_t k = 0,
           std::int64_t v = 0) {
    return make_event(reg_, t, id, ts, k, v);
  }
  EngineOptions slack(Timestamp k) {
    EngineOptions o;
    o.slack = k;
    return o;
  }
  TypeRegistry reg_;
};

TEST_F(OooEngineTest, InOrderStreamMatchesLikeBaseline) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 100", reg_);
  const std::vector<Event> events{ev("A", 0, 10), ev("B", 1, 20), ev("A", 2, 30),
                                  ev("B", 3, 40)};
  EXPECT_EQ(run_engine_keys(EngineKind::kOoo, q, events),
            run_engine_keys(EngineKind::kInOrder, q, events));
}

TEST_F(OooEngineTest, LateFirstStepEvent) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 100", reg_);
  // A(ts=10) arrives after B(ts=20): anchor at step 0, right-phase finds B.
  const auto keys = run_engine_keys(EngineKind::kOoo, q,
                                    {ev("B", 0, 20), ev("A", 1, 10)}, slack(50));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (MatchKey{1, 0}));
}

TEST_F(OooEngineTest, LateTriggerEvent) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 100", reg_);
  // B(ts=20) arrives after a newer A(ts=30): anchor at trigger, left-phase.
  const auto keys = run_engine_keys(
      EngineKind::kOoo, q, {ev("A", 0, 10), ev("A", 1, 30), ev("B", 2, 20)}, slack(50));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (MatchKey{0, 2}));  // only A@10 precedes B@20
}

TEST_F(OooEngineTest, LateMiddleStepEvent) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b, C c) WITHIN 100", reg_);
  // B(ts=20) arrives last: anchor in the middle, left+right phases.
  const auto keys = run_engine_keys(
      EngineKind::kOoo, q, {ev("A", 0, 10), ev("C", 1, 30), ev("B", 2, 20)}, slack(50));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (MatchKey{0, 2, 1}));
}

TEST_F(OooEngineTest, EachMatchEmittedExactlyOnce) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b, C c) WITHIN 100", reg_);
  // Multiple As and Cs around one late B: every (A,B,C) combination must
  // appear exactly once.
  const std::vector<Event> arrivals{ev("A", 0, 10), ev("A", 1, 12), ev("C", 2, 30),
                                    ev("C", 3, 32), ev("B", 4, 20)};
  const auto keys = run_engine_keys(EngineKind::kOoo, q, arrivals, slack(50));
  EXPECT_EQ(keys.size(), 4u);
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end()) << "duplicates";
}

TEST_F(OooEngineTest, InterleavedLateEventsAllPositions) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b, C c, D d) WITHIN 500",
                                        reg_);
  // Deliver one full match entirely in reverse timestamp order.
  const std::vector<Event> arrivals{ev("D", 0, 40), ev("C", 1, 30), ev("B", 2, 20),
                                    ev("A", 3, 10)};
  const auto keys = run_engine_keys(EngineKind::kOoo, q, arrivals, slack(100));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (MatchKey{3, 2, 1, 0}));
}

TEST_F(OooEngineTest, WindowEnforcedInRetroactiveConstruction) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b, C c) WITHIN 15", reg_);
  // Span A..C is 20 > 15 → no match even though the late B fits both sides.
  EXPECT_TRUE(run_engine_keys(EngineKind::kOoo, q,
                              {ev("A", 0, 10), ev("C", 1, 30), ev("B", 2, 20)},
                              slack(50))
                  .empty());
  // Span exactly 15 is allowed.
  const auto keys = run_engine_keys(
      EngineKind::kOoo, q, {ev("A", 0, 10), ev("C", 1, 25), ev("B", 2, 20)}, slack(50));
  EXPECT_EQ(keys.size(), 1u);
}

TEST_F(OooEngineTest, JoinPredicatesInBothPhases) {
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, B b, C c) WHERE a.k == b.k AND b.k == c.k WITHIN 100", reg_);
  const std::vector<Event> arrivals{
      ev("A", 0, 10, 1), ev("A", 1, 11, 2), ev("C", 2, 30, 1), ev("C", 3, 31, 2),
      ev("B", 4, 20, 1),  // late; must join only key-1 events
  };
  const auto keys = run_engine_keys(EngineKind::kOoo, q, arrivals, slack(50));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (MatchKey{0, 4, 2}));
}

TEST_F(OooEngineTest, PartitioningOnAndOffAgree) {
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, B b, C c) WHERE a.k == b.k AND b.k == c.k WITHIN 200", reg_);
  std::vector<Event> arrivals;
  // keys alternate; C's arrive before their B's.
  EventId id = 0;
  for (int i = 0; i < 30; ++i) {
    const Timestamp base = i * 40;
    const std::int64_t key = i % 3;
    arrivals.push_back(ev("A", id++, base + 1, key));
    arrivals.push_back(ev("C", id++, base + 21, key));
    arrivals.push_back(ev("B", id++, base + 11, key));  // late middle
  }
  EngineOptions with = slack(60);
  EngineOptions without = slack(60);
  without.partition_by_key = false;
  EXPECT_EQ(run_engine_keys(EngineKind::kOoo, q, arrivals, with),
            run_engine_keys(EngineKind::kOoo, q, arrivals, without));
  expect_exact(EngineKind::kOoo, q, arrivals, with, "partitioned");
}

TEST_F(OooEngineTest, PurgeNeverDropsNeededState) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 40", reg_);
  for (const std::size_t period : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    EngineOptions opt = slack(30);
    opt.purge_period = period;
    std::vector<Event> arrivals;
    EventId id = 0;
    for (int i = 0; i < 150; ++i) {
      const Timestamp base = i * 9;
      arrivals.push_back(ev(i % 2 ? "A" : "B", id++, base + 5));
      if (i % 4 == 0) arrivals.push_back(ev("B", id++, base - 20 < 0 ? 1 : base - 20));
    }
    // Arrival stream may exceed stated lateness bound; use true bound.
    Timestamp max_late = 0;
    {
      Timestamp clock = kMinTimestamp;
      for (const auto& e : arrivals) {
        if (clock != kMinTimestamp && e.ts < clock) max_late = std::max(max_late, clock - e.ts);
        clock = std::max(clock, e.ts);
      }
    }
    opt.slack = max_late;
    expect_exact(EngineKind::kOoo, q, arrivals, opt, "purge periods");
  }
}

TEST_F(OooEngineTest, PurgeBoundsMemoryUnderDisorder) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 50", reg_);
  EngineOptions opt = slack(40);
  opt.purge_period = 16;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
  EventId id = 0;
  for (int i = 0; i < 5'000; ++i)
    engine->on_event(ev(i % 2 ? "B" : "A", id++, static_cast<Timestamp>(i) * 4));
  const auto s = engine->stats_snapshot();
  EXPECT_GT(s.instances_purged, 4'000u);
  // W+K = 90 ticks ≈ 23 events of live horizon; generous bound.
  EXPECT_LT(s.footprint_peak, 120u);
}

TEST_F(OooEngineTest, NoPurgeGrowsUnbounded) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 50", reg_);
  EngineOptions opt = slack(40);
  opt.purge_period = 0;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
  for (int i = 0; i < 2'000; ++i)
    engine->on_event(ev(i % 2 ? "B" : "A", static_cast<EventId>(i),
                        static_cast<Timestamp>(i) * 4));
  EXPECT_EQ(engine->stats_snapshot().current_instances, 2'000u);
}

TEST_F(OooEngineTest, StatsLateEventsCounted) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 100", reg_);
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, slack(50));
  engine->on_event(ev("A", 0, 100));
  engine->on_event(ev("B", 1, 90));   // late
  engine->on_event(ev("B", 2, 120));  // in order
  EXPECT_EQ(engine->stats_snapshot().late_events, 1u);
  EXPECT_EQ(engine->name(), "ooo-native");
}

TEST_F(OooEngineTest, DuplicateTimestampsAcrossTypes) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b, C c) WITHIN 100", reg_);
  const std::vector<Event> arrivals{ev("C", 0, 30), ev("B", 1, 30), ev("A", 2, 10),
                                    ev("B", 3, 20), ev("C", 4, 20)};
  expect_exact(EngineKind::kOoo, q, arrivals, slack(100), "ts ties");
}

TEST_F(OooEngineTest, SameTypeMultipleStepsOutOfOrder) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A x, A y) WITHIN 100", reg_);
  const std::vector<Event> arrivals{ev("A", 0, 30), ev("A", 1, 10), ev("A", 2, 20)};
  // pairs with strictly increasing ts: (1,2),(1,0),(2,0)
  const auto keys = run_engine_keys(EngineKind::kOoo, q, arrivals, slack(50));
  EXPECT_EQ(keys.size(), 3u);
  expect_exact(EngineKind::kOoo, q, arrivals, slack(50), "same-type steps");
}

TEST_F(OooEngineTest, FinishFlushesWithoutClockAdvance) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, !B b, C c) WITHIN 100", reg_);
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, slack(1'000));
  engine->on_event(ev("A", 0, 10));
  engine->on_event(ev("C", 1, 30));
  // Interval (10,30) cannot seal with slack 1000 unless finish() forces it.
  EXPECT_EQ(sink->size(), 0u);
  engine->finish();
  EXPECT_EQ(sink->size(), 1u);
}

}  // namespace
}  // namespace oosp
