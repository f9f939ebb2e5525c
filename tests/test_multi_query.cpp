// Unit + integration tests: the multi-query runner.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "runtime/multi_query.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;

class MultiQueryTest : public ::testing::Test {
 protected:
  MultiQueryTest() : reg_(make_abcd_registry()) {}
  Event ev(const char* t, EventId id, Timestamp ts, std::int64_t k = 0) {
    return make_event(reg_, t, id, ts, k);
  }
  TypeRegistry reg_;
};

TEST_F(MultiQueryTest, RoutesEventsToRelevantEnginesOnly) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg_, sink);
  const QueryId q_ab =
      runner.add_query({"PATTERN SEQ(A a, B b) WITHIN 100", EngineKind::kOoo});
  const QueryId q_cd =
      runner.add_query({"PATTERN SEQ(C c, D d) WITHIN 100", EngineKind::kOoo});
  runner.on_event(ev("A", 0, 10));
  runner.on_event(ev("B", 1, 20));
  runner.on_event(ev("C", 2, 30));
  runner.on_event(ev("D", 3, 40));
  runner.finish();

  EXPECT_EQ(sink->keys_for(q_ab), (std::vector<MatchKey>{{0, 1}}));
  EXPECT_EQ(sink->keys_for(q_cd), (std::vector<MatchKey>{{2, 3}}));
  // Each engine saw only its own two events.
  EXPECT_EQ(runner.stats(q_ab).events_seen, 2u);
  EXPECT_EQ(runner.stats(q_cd).events_seen, 2u);
  EXPECT_EQ(runner.events_seen(), 4u);
  EXPECT_EQ(runner.events_routed(), 4u);
}

TEST_F(MultiQueryTest, IrrelevantEventsAreSkippedEntirely) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg_, sink);
  const QueryId q = runner.add_query(
      {"PATTERN SEQ(A a, B b) WITHIN 100", EngineKind::kInOrder});
  for (EventId i = 0; i < 50; ++i) runner.on_event(ev("D", i, 10 + (Timestamp)i));
  runner.finish();
  EXPECT_EQ(runner.events_routed(), 0u);
  EXPECT_EQ(runner.stats(q).events_seen, 0u);
}

TEST_F(MultiQueryTest, OverlappingQueriesShareTheScan) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg_, sink);
  const QueryId q1 =
      runner.add_query({"PATTERN SEQ(A a, B b) WITHIN 100", EngineKind::kOoo});
  const QueryId q2 =
      runner.add_query({"PATTERN SEQ(A x, A y) WITHIN 100", EngineKind::kOoo});
  runner.on_event(ev("A", 0, 10));
  runner.on_event(ev("A", 1, 20));
  runner.on_event(ev("B", 2, 30));
  runner.finish();
  EXPECT_EQ(sink->keys_for(q1).size(), 2u);  // (0,2), (1,2)
  EXPECT_EQ(sink->keys_for(q2).size(), 1u);  // (0,1)
}

TEST_F(MultiQueryTest, NegationQueriesGetClockTicksFromForeignTypes) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg_, sink);
  EngineOptions opt;
  opt.slack = 20;
  const QueryId q = runner.add_query(
      {"PATTERN SEQ(A a, !B b, C c) WITHIN 100", EngineKind::kOoo, opt});
  runner.on_event(ev("A", 0, 10));
  runner.on_event(ev("C", 1, 30));
  EXPECT_EQ(sink->keys_for(q).size(), 0u);  // unsealed: clock=30, K=20
  // A type-D event (irrelevant to the query) still advances the clock to
  // 60 > 30 + K, sealing and releasing the match.
  runner.on_event(ev("D", 2, 60));
  EXPECT_EQ(sink->keys_for(q).size(), 1u);
  // The clock tick was delivered, so the engine saw 3 events.
  EXPECT_EQ(runner.stats(q).events_seen, 3u);
}

TEST_F(MultiQueryTest, AddQueryAfterStartRejected) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg_, sink);
  runner.add_query({"PATTERN SEQ(A a, B b) WITHIN 10", EngineKind::kOoo});
  runner.on_event(ev("A", 0, 1));
  EXPECT_THROW(
      runner.add_query({"PATTERN SEQ(C c, D d) WITHIN 10", EngineKind::kOoo}),
      std::invalid_argument);
}

TEST_F(MultiQueryTest, ManyQueriesUnderDisorderAllExact) {
  SyntheticWorkload wl({.num_events = 3'000, .num_types = 4, .key_cardinality = 8,
                        .mean_gap = 4, .seed = 91});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(120), 0.25, 14);
  const auto arrivals = inj.deliver(ordered);

  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink);
  EngineOptions opt;
  opt.slack = inj.slack_bound();
  std::vector<std::string> queries{
      wl.seq_query(2, true, 100),
      wl.seq_query(3, true, 200),
      wl.seq_query(4, false, 150),
      wl.negation_query(150),
  };
  std::vector<QueryId> ids;
  for (const auto& q : queries)
    ids.push_back(runner.add_query({q, EngineKind::kOoo, opt}));
  for (const Event& e : arrivals) runner.on_event(e);
  runner.finish();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const CompiledQuery q = compile_query(queries[i], wl.registry());
    EXPECT_EQ(sink->keys_for(ids[i]), oracle_keys(q, arrivals)) << queries[i];
  }
}

}  // namespace
}  // namespace oosp
