// Unit tests: driver, verification harness, sinks, match utilities,
// predicate schedules and the sorted stack.
#include <gtest/gtest.h>

#include <sstream>

#include "engine/core/schedule.hpp"
#include "engine/ooo/sorted_stack.hpp"
#include "engine_test_util.hpp"
#include "runtime/driver.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;

TEST(VerifyCompareKeys, ExactMatch) {
  const std::vector<MatchKey> a{{1, 2}, {3, 4}};
  const VerifyResult v = compare_keys(a, a);
  EXPECT_TRUE(v.exact());
  EXPECT_EQ(v.true_positives, 2u);
  EXPECT_DOUBLE_EQ(v.recall(), 1.0);
  EXPECT_DOUBLE_EQ(v.precision(), 1.0);
}

TEST(VerifyCompareKeys, MissedAndFalse) {
  const std::vector<MatchKey> expected{{1}, {2}, {3}};
  const std::vector<MatchKey> produced{{2}, {4}};
  const VerifyResult v = compare_keys(expected, produced);
  EXPECT_EQ(v.true_positives, 1u);
  EXPECT_EQ(v.missed, 2u);
  EXPECT_EQ(v.false_positives, 1u);
  EXPECT_FALSE(v.exact());
  EXPECT_NEAR(v.recall(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(v.precision(), 0.5, 1e-12);
}

TEST(VerifyCompareKeys, DuplicateProductionIsFalsePositive) {
  const std::vector<MatchKey> expected{{1}};
  const std::vector<MatchKey> produced{{1}, {1}};
  const VerifyResult v = compare_keys(expected, produced);
  EXPECT_EQ(v.true_positives, 1u);
  EXPECT_EQ(v.false_positives, 1u);
}

TEST(VerifyCompareKeys, EmptySides) {
  EXPECT_TRUE(compare_keys({}, {}).exact());
  const std::vector<MatchKey> one{{1}};
  EXPECT_EQ(compare_keys(one, {}).missed, 1u);
  EXPECT_EQ(compare_keys({}, one).false_positives, 1u);
  EXPECT_DOUBLE_EQ(compare_keys({}, one).recall(), 1.0);  // vacuous recall
}

TEST(Driver, ReportsThroughputAndDelays) {
  SyntheticWorkload wl({.num_events = 4'000, .num_types = 3, .seed = 20});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(60), 0.2, 7);
  const auto arrivals = inj.deliver(ordered);
  const CompiledQuery q = compile_query(wl.seq_query(2, true, 80), wl.registry());

  DriverConfig cfg;
  cfg.kind = EngineKind::kKSlackInOrder;
  cfg.options.slack = inj.slack_bound();
  const RunResult r = run_stream(q, arrivals, cfg);
  EXPECT_EQ(r.engine_name, "kslack+inorder-ssc");
  EXPECT_EQ(r.stats.events_seen, arrivals.size());
  EXPECT_GT(r.matches, 0u);
  EXPECT_EQ(r.delay.count(), r.matches);
  EXPECT_GT(r.events_per_second, 0.0);
  // The buffered engine pays ≈K on most results.
  EXPECT_GT(r.delay.mean(), 10.0);
  EXPECT_TRUE(r.collected.empty());

  cfg.kind = EngineKind::kOoo;
  cfg.collect_matches = true;
  const RunResult ro = run_stream(q, arrivals, cfg);
  EXPECT_EQ(ro.collected.size(), ro.matches);
  // Native engine detects most results with near-zero stream-time delay.
  EXPECT_LT(ro.delay.mean(), r.delay.mean());
}

TEST(Sinks, FunctionSinkForwards) {
  int called = 0;
  FunctionSink s([&](Match&&) { ++called; });
  Match m;
  m.events.push_back(Event{});
  s.on_match(std::move(m));
  EXPECT_EQ(called, 1);
}

TEST(Sinks, CollectingSinkSortedKeysKeepsDuplicates) {
  CollectingSink s;
  for (int i = 0; i < 2; ++i) {
    Match m;
    Event e;
    e.id = 5;
    m.events.push_back(e);
    s.on_match(std::move(m));
  }
  EXPECT_EQ(s.sorted_keys().size(), 2u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

TEST(MatchUtil, KeyAndOutput) {
  Match m;
  Event a, b;
  a.id = 3;
  a.ts = 1;
  b.id = 9;
  b.ts = 5;
  m.events = {a, b};
  m.detection_clock = 11;
  EXPECT_EQ(match_key(m), (MatchKey{3, 9}));
  EXPECT_EQ(m.first_ts(), 1);
  EXPECT_EQ(m.last_ts(), 5);
  EXPECT_EQ(m.detection_delay(), 6);
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find("#3@1"), std::string::npos);
}

TEST(Schedule, AssignsPredicatesAtLatestBoundStep) {
  TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, B b, C c) WHERE a.k == b.k AND a.k == c.k AND b.v > 1 "
      "WITHIN 10",
      reg);
  // Ascending order: a.k==b.k ready at pos 1; a.k==c.k at pos 2;
  // b.v>1 is local (excluded).
  const std::vector<std::size_t> asc{0, 1, 2};
  const auto sched = build_predicate_schedule(q, asc);
  EXPECT_TRUE(sched[0].empty());
  EXPECT_EQ(sched[1].size(), 1u);
  EXPECT_EQ(sched[2].size(), 1u);
  // Descending order: both joins become ready only when `a` binds (pos 2).
  const std::vector<std::size_t> desc{2, 1, 0};
  const auto dsched = build_predicate_schedule(q, desc);
  EXPECT_TRUE(dsched[0].empty());
  EXPECT_TRUE(dsched[1].empty());
  EXPECT_EQ(dsched[2].size(), 2u);
}

TEST(Schedule, RejectsIncompleteOrder) {
  TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg);
  const std::vector<std::size_t> partial{0};
  EXPECT_THROW(build_predicate_schedule(q, partial), std::invalid_argument);
}

namespace {
// Allocates a minimal arena event so inserts carry a live reference.
EventHandle mk_handle(EventArena& arena, EventId id, Timestamp ts) {
  Event e;
  e.id = id;
  e.ts = ts;
  return arena.alloc(e);
}
}  // namespace

TEST(SortedStack, InsertKeepsOrderAndReportsIndex) {
  SortedStack s;
  EventArena arena;
  auto ins = [&](EventId id, Timestamp ts) {
    return s.insert(ts, id, mk_handle(arena, id, ts));
  };
  EXPECT_EQ(ins(0, 10), 0u);
  EXPECT_EQ(ins(1, 30), 1u);  // append fast path
  EXPECT_EQ(ins(2, 20), 1u);  // splice in the middle
  EXPECT_EQ(ins(3, 20), 2u);  // tie breaks by id
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].ts, 10);
  EXPECT_EQ(s[1].id, 2u);
  EXPECT_EQ(s[2].id, 3u);
  EXPECT_EQ(s[3].ts, 30);
  EXPECT_EQ(arena.get(s[1].handle).id, 2u);  // handle resolves to the event
}

TEST(SortedStack, RangeQueries) {
  SortedStack s;
  EventArena arena;
  for (EventId i = 0; i < 5; ++i) {
    const auto ts = static_cast<Timestamp>(i) * 10;
    s.insert(ts, i, mk_handle(arena, i, ts));
  }
  EXPECT_EQ(s.count_ts_below(0), 0u);
  EXPECT_EQ(s.count_ts_below(1), 1u);
  EXPECT_EQ(s.count_ts_below(20), 2u);   // strictly below
  EXPECT_EQ(s.first_ts_above(20), 3u);   // strictly above
  EXPECT_EQ(s.first_ts_above(100), 5u);
}

TEST(SortedStack, PurgeReleasesArenaReferences) {
  SortedStack s;
  EventArena arena;
  for (EventId i = 0; i < 6; ++i) {
    const auto ts = static_cast<Timestamp>(i) * 10;
    s.insert(ts, i, mk_handle(arena, i, ts));
  }
  EXPECT_EQ(s.purge_before(25, arena), 3u);  // ts 0,10,20 gone
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].ts, 30);
  EXPECT_EQ(arena.live(), 3u);  // purge released the arena references
}

}  // namespace
}  // namespace oosp
