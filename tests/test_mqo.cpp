// Shared multi-query scan (MQO): plan-time grouping, bit-identical
// output vs per-query engines across seeds × shard counts × batch
// sizes × query mixes, per-member stats invariants, registration-order
// guards, and crash recovery through the group checkpoint path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine_test_util.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "stream/faults.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

// ------------------------------------------------------------ planning

TEST(MqoPlanning, CompatibleQueriesGroupAndIncompatiblesGetAReason) {
  SyntheticWorkload wl({.num_events = 10, .num_types = 4, .key_cardinality = 8,
                        .mean_gap = 5, .seed = 1});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink);
  EngineOptions opt;
  opt.slack = 50;
  // Three compatible SEQ-prefix queries (same first type, same key).
  const QueryId a = runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, opt});
  const QueryId b = runner.add_query({wl.seq_query(3, true, 200), EngineKind::kOoo, opt});
  const QueryId c = runner.add_query(
      {wl.seq_query(2, true, 100, /*min_val=*/40), EngineKind::kOoo, opt});
  // Excluded: negation needs per-query sealing state.
  const QueryId n = runner.add_query({wl.negation_query(100), EngineKind::kOoo, opt});
  // Excluded: not the native OOO engine.
  const QueryId k =
      runner.add_query({wl.seq_query(2, true, 100), EngineKind::kInOrder, opt});
  // Excluded: adaptive slack retunes per engine.
  EngineOptions adaptive = opt;
  adaptive.adaptive_slack = true;
  const QueryId ad =
      runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, adaptive});
  // Excluded: the quarantine verdict depends on the per-query clock.
  EngineOptions parking = opt;
  parking.late_policy = LatePolicy::kQuarantine;
  const QueryId qu =
      runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, parking});
  runner.prepare();

  EXPECT_EQ(runner.group_count(), 1u);
  EXPECT_TRUE(runner.share_exclusion_reason(a).empty());
  EXPECT_TRUE(runner.share_exclusion_reason(b).empty());
  EXPECT_TRUE(runner.share_exclusion_reason(c).empty());
  EXPECT_FALSE(runner.share_exclusion_reason(n).empty());
  EXPECT_FALSE(runner.share_exclusion_reason(k).empty());
  EXPECT_FALSE(runner.share_exclusion_reason(ad).empty());
  EXPECT_FALSE(runner.share_exclusion_reason(qu).empty());
}

TEST(MqoPlanning, DisablingShareScansYieldsNoGroups) {
  SyntheticWorkload wl({.num_events = 10, .num_types = 2, .key_cardinality = 8,
                        .mean_gap = 5, .seed = 1});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink, /*share_scans=*/false);
  EngineOptions opt;
  opt.slack = 50;
  runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, opt});
  runner.add_query({wl.seq_query(2, true, 200), EngineKind::kOoo, opt});
  runner.prepare();
  EXPECT_EQ(runner.group_count(), 0u);
}

TEST(MqoPlanning, MismatchedOptionsDoNotGroup) {
  SyntheticWorkload wl({.num_events = 10, .num_types = 2, .key_cardinality = 8,
                        .mean_gap = 5, .seed = 1});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink);
  EngineOptions loose, tight;
  loose.slack = 50;
  tight.slack = 5;
  runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, loose});
  runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, tight});
  runner.prepare();
  // Different slack shapes different admission/purge state: no group.
  EXPECT_EQ(runner.group_count(), 0u);
}

// ------------------------------------------------- registration guards

TEST(MqoGuards, AddQueryAfterFirstEventThrows) {
  SyntheticWorkload wl({.num_events = 10, .num_types = 2, .key_cardinality = 4,
                        .mean_gap = 5, .seed = 2});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink);
  runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo});
  runner.on_event(wl.generate(1)[0]);
  EXPECT_THROW(runner.add_query({wl.seq_query(2, false, 100), EngineKind::kOoo}),
               std::invalid_argument);
}

TEST(MqoGuards, AddQueryAfterPrepareThrows) {
  SyntheticWorkload wl({.num_events = 10, .num_types = 2, .key_cardinality = 4,
                        .mean_gap = 5, .seed = 2});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(wl.registry(), sink);
  runner.add_query({wl.seq_query(2, true, 100), EngineKind::kOoo});
  runner.prepare();  // plan materialized: the engine set is now fixed
  EXPECT_THROW(runner.add_query({wl.seq_query(2, false, 100), EngineKind::kOoo}),
               std::logic_error);
}

TEST(MqoGuards, GroupRestoreAfterStartThrows) {
  SyntheticWorkload wl({.num_events = 64, .num_types = 2, .key_cardinality = 4,
                        .mean_gap = 5, .seed = 3});
  const auto arrivals = wl.generate();
  EngineOptions opt;
  opt.slack = 20;
  auto build = [&] {
    auto sink = std::make_shared<CollectingTaggedSink>();
    auto runner = std::make_unique<MultiQueryRunner>(wl.registry(), sink);
    runner->add_query({wl.seq_query(2, true, 100), EngineKind::kOoo, opt});
    runner->add_query({wl.seq_query(2, true, 200), EngineKind::kOoo, opt});
    return runner;
  };
  const auto donor = build();
  for (const Event& e : arrivals) donor->on_event(e);
  CheckpointWriter w;
  donor->snapshot(w);
  const auto frame = std::move(w).finalize();

  const auto tainted = build();
  tainted->prepare();
  ASSERT_EQ(tainted->group_count(), 1u);
  tainted->on_event(arrivals[0]);  // group already consumed an event
  CheckpointReader r(frame);
  EXPECT_THROW(tainted->restore(r), std::invalid_argument);
}

// ----------------------------------------------------- stats semantics

TEST(MqoStats, PerMemberCountersAndMetricsStayAccountable) {
  SyntheticWorkload wl({.num_events = 4'000, .num_types = 3, .key_cardinality = 16,
                        .mean_gap = 5, .seed = 11});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(90), 0.25, 7);
  const auto arrivals = inj.deliver(ordered);

  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(inj.slack_bound())
                      .query(wl.seq_query(2, true, 150))
                      .query(wl.seq_query(3, true, 300))
                      .query(wl.seq_query(2, true, 150, /*min_val=*/30)),
                  sink);
  for (const Event& e : arrivals) session.push(e);
  session.finish();

  // Arrival counters are replicated per relevant member: the 2-step
  // queries see T0/T1 arrivals, the 3-step query additionally sees T2.
  std::size_t t01 = 0;
  for (const Event& e : arrivals) t01 += (e.type <= 1);
  EXPECT_EQ(session.stats(0).events_seen, t01);
  EXPECT_EQ(session.stats(2).events_seen, t01);
  EXPECT_EQ(session.stats(1).events_seen, arrivals.size());

  // Every member reports real matches; the min_val variant is a strict
  // subset of its unfiltered sibling.
  EXPECT_GT(session.stats(0).matches_emitted, 0u);
  EXPECT_GT(session.stats(2).matches_emitted, 0u);
  EXPECT_LT(session.stats(2).matches_emitted, session.stats(0).matches_emitted);
  for (QueryId q = 0; q < 3; ++q)
    EXPECT_EQ(session.stats(q).matches_emitted, sink->keys_for(q).size()) << q;

  // Physical counters exist once (folded into the first member), so the
  // cross-query sum equals the group's physical reality — instances
  // inserted once per relevant arrival, not once per member.
  const EngineStats total = session.total_stats();
  EXPECT_GT(total.instances_inserted, 0u);
  EXPECT_LE(total.instances_inserted, arrivals.size());

  const MetricsSnapshot snap = session.metrics_snapshot();
  EXPECT_EQ(snap.gauge("oosp_mqo_groups"), 1);
  EXPECT_EQ(snap.counter("oosp_mqo_shared_insertions_total"),
            total.instances_inserted);
}

// ------------------------------------------------ bit-identical matrix

using Output = std::vector<std::pair<QueryId, MatchKey>>;

Output run_mix(const SyntheticWorkload& wl, const std::vector<Event>& arrivals,
               const std::vector<std::string>& queries, Timestamp slack,
               std::size_t shards, std::size_t batch, bool share,
               WorkerKillHook hook = {}, std::size_t checkpoint_every = 0) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  SessionConfig cfg;
  cfg.engine(EngineKind::kOoo).slack(slack).shards(shards).share_scans(share);
  cfg.metrics(false);
  for (const std::string& q : queries) cfg.query(q);
  if (checkpoint_every) {
    cfg.checkpoint_every(checkpoint_every)
        .max_restarts(20)
        .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0));
  }
  if (hook) cfg.kill_hook(std::move(hook));
  Session session(wl.registry(), cfg, sink);
  if (batch <= 1) {
    for (const Event& e : arrivals) session.push(e);
  } else {
    std::size_t i = 0;
    while (i < arrivals.size()) {
      const std::size_t n = std::min(batch, arrivals.size() - i);
      session.push_batch(std::span<const Event>(arrivals.data() + i, n));
      i += n;
    }
  }
  session.close();
  Output out;
  for (const TaggedMatch& tm : sink->matches())
    out.emplace_back(tm.query, match_key(tm.match));
  return out;
}

TEST(MqoMatrix, SharedScanOutputBitIdenticalToPerQueryEngines) {
  // Mix A: every query groups. Mix B: grouped + solo (negation, unkeyed
  // 4-step chain) so routing interleaves group and per-query slots.
  // Mix C: construction classes inside one group — two queries whose
  // WHERE text is the same but whose bindings are swapped (different
  // classes), a step-local filter on the second step (joins the W=150
  // family), and a one-member class (W=600) whose filter runs on the
  // group's unfiltered rows. Mix D: 70 threshold variants, more than one
  // class holds, so the family splits.
  const std::vector<std::string> mix_names{"grouped-only", "grouped+solo", "classes",
                                           "wide-family"};
  for (const std::uint64_t seed : {5ull, 71ull}) {
    SyntheticWorkload wl({.num_events = 6'000, .num_types = 4,
                          .key_cardinality = 24, .mean_gap = 4,
                          .seed = seed});
    const auto ordered = wl.generate();
    DisorderInjector inj(LatencyModel::uniform(110), 0.25, seed + 1);
    const auto arrivals = inj.deliver(ordered);
    const Timestamp slack = inj.slack_bound();

    std::vector<std::string> wide;
    for (std::int64_t i = 0; i < 70; ++i)
      wide.push_back(wl.seq_query(2, true, 150, i == 0 ? -1 : i * 12));
    const std::vector<std::vector<std::string>> mixes{
        {wl.seq_query(2, true, 150), wl.seq_query(3, true, 300),
         wl.seq_query(2, true, 150, /*min_val=*/25),
         wl.seq_query(2, true, 600)},
        {wl.seq_query(2, true, 150), wl.seq_query(3, true, 300),
         wl.negation_query(150), wl.seq_query(4, false, 200)},
        {wl.seq_query(2, true, 150),
         "PATTERN SEQ(T0 a, T1 b) WHERE a.key == b.key AND a.val < b.val WITHIN 150",
         "PATTERN SEQ(T0 b, T1 a) WHERE a.key == b.key AND a.val < b.val WITHIN 150",
         "PATTERN SEQ(T0 a0, T1 a1) WHERE a0.key == a1.key AND a1.val < 500 WITHIN 150",
         wl.seq_query(2, true, 150, /*min_val=*/200),
         wl.seq_query(2, true, 600, /*min_val=*/300)},
        wide,
    };
    for (std::size_t m = 0; m < mixes.size(); ++m) {
      // Baseline: one engine per query, single shard, per-event feed.
      const Output base =
          run_mix(wl, arrivals, mixes[m], slack, 1, 1, /*share=*/false);
      ASSERT_GT(base.size(), 50u)
          << mix_names[m] << " seed=" << seed << ": workload too sparse";
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t batch : {std::size_t{1}, std::size_t{64},
                                        std::size_t{257}}) {
          if (m == 1 && shards > 1) continue;  // negation mix is unshardable
          const Output got =
              run_mix(wl, arrivals, mixes[m], slack, shards, batch, true);
          ASSERT_EQ(got, base) << mix_names[m] << " seed=" << seed
                               << " shards=" << shards << " batch=" << batch;
        }
      }
    }
  }
}

TEST(MqoMatrix, QuarantineDrainIdenticalSharedVsSolo) {
  // Regression for the plan-time late-policy exclusion: a shared group's
  // union clock runs ahead of a member's solo clock, so sharing under
  // kQuarantine would park events a per-query engine processes. With the
  // exclusion in place, share_scans(true) must be a no-op here.
  SyntheticWorkload wl({.num_events = 3'000, .num_types = 3, .key_cardinality = 16,
                        .mean_gap = 5, .seed = 13});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(100), 0.3, 9);
  const auto arrivals = inj.deliver(ordered);

  EngineOptions opt;
  opt.slack = 5;  // far below the bound: plenty of quarantined stragglers
  opt.late_policy = LatePolicy::kQuarantine;
  auto run = [&](bool share) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(wl.registry(),
                    SessionConfig{}
                        .engine(EngineKind::kOoo)
                        .options(opt)
                        .share_scans(share)
                        .metrics(false)
                        .query(wl.seq_query(2, true, 150))
                        .query(wl.seq_query(3, true, 300)),
                    sink);
    for (const Event& e : arrivals) session.push(e);
    session.close();
    return session.quarantined();
  };
  const auto solo = run(false);
  const auto shared = run(true);
  ASSERT_GT(solo.size(), 0u);
  ASSERT_EQ(shared.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(shared[i].first, solo[i].first) << i;
    EXPECT_EQ(shared[i].second.id, solo[i].second.id) << i;
  }
}

// ----------------------------------------------- construction classes

// A class's walk skips an anchor whose neighbouring level holds nothing
// in range before any member's filter runs. Both range checks keep the
// window's closed edge: a late A exactly W before its B (anchor at the
// first ordinal, looking right) and an in-order B exactly W after its A
// (anchor at the last ordinal, looking left). Pairs W + 1 apart match
// neither way.
TEST(MqoClasses, WindowEdgeReachedFromEitherEnd) {
  const TypeRegistry reg = testutil::make_abcd_registry();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  MultiQueryRunner runner(reg, sink);
  EngineOptions opt;
  opt.slack = 200;
  for (const int min_v : {0, 5}) {
    runner.add_query({"PATTERN SEQ(A a, B b) WHERE a.k == b.k AND a.v >= " +
                          std::to_string(min_v) + " WITHIN 150",
                      EngineKind::kOoo, opt});
  }
  using testutil::make_event;
  const std::vector<Event> arrivals{
      make_event(reg, "B", 0, 150, 1, 9),  make_event(reg, "A", 1, 0, 1, 9),
      make_event(reg, "A", 2, 1000, 2, 9), make_event(reg, "B", 3, 1150, 2, 9),
      make_event(reg, "B", 4, 2151, 3, 9), make_event(reg, "A", 5, 2000, 3, 9),
      make_event(reg, "A", 6, 3000, 4, 9), make_event(reg, "B", 7, 3151, 4, 9)};
  for (const Event& e : arrivals) runner.on_event(e);
  runner.finish();
  ASSERT_EQ(runner.group_count(), 1u);
  const std::vector<MatchKey> want{{1, 0}, {2, 3}};  // (a, b) ids
  for (QueryId q = 0; q < 2; ++q) {
    std::vector<MatchKey> got = sink->keys_for(q);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "query " << q;
  }
}

// ------------------------------------------------------ crash recovery

TEST(MqoRecovery, KillAtBatchBoundariesRecoversThroughGroupCheckpoint) {
  SyntheticWorkload wl({.num_events = 600, .num_types = 2, .key_cardinality = 12,
                        .mean_gap = 6, .seed = 37});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(60), 0.25, 5);
  const auto arrivals = inj.deliver(ordered);
  const Timestamp slack = inj.slack_bound();
  const std::vector<std::string> queries{wl.seq_query(2, true, 150),
                                         wl.seq_query(2, true, 300),
                                         wl.seq_query(2, true, 150, /*min_val=*/20)};
  constexpr std::size_t kBatch = 64;

  const Output oracle =
      run_mix(wl, arrivals, queries, slack, 3, kBatch, /*share=*/true);
  ASSERT_GT(oracle.size(), 30u) << "workload too sparse to be meaningful";

  // Kill a worker exactly at each batch boundary: the victim is the
  // first event of a push_batch slice, so the death and the group-state
  // restore both land on the batched ingestion path.
  for (std::size_t boundary = kBatch; boundary < arrivals.size();
       boundary += 3 * kBatch) {
    WorkerKillFault fault({arrivals[boundary].id});
    const Output got = run_mix(wl, arrivals, queries, slack, 3, kBatch, true,
                               fault.hook(), /*checkpoint_every=*/13);
    ASSERT_EQ(fault.victims_remaining(), 0u) << "boundary " << boundary;
    ASSERT_EQ(got, oracle)
        << "output diverges after killing at batch boundary " << boundary;
  }
}

TEST(MqoRecovery, RunnerSnapshotRoundTripsWithGroups) {
  SyntheticWorkload wl({.num_events = 2'000, .num_types = 3, .key_cardinality = 12,
                        .mean_gap = 5, .seed = 23});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(80), 0.3, 17);
  const auto arrivals = inj.deliver(ordered);
  EngineOptions opt;
  opt.slack = inj.slack_bound();
  // Mixed plan: one group (in which the two W=150 queries form one
  // construction class) + one solo engine.
  const std::vector<std::string> queries{
      wl.seq_query(2, true, 150), wl.seq_query(3, true, 300),
      wl.negation_query(150), wl.seq_query(2, true, 150, /*min_val=*/40)};

  auto build = [&](std::shared_ptr<CollectingTaggedSink>& sink) {
    sink = std::make_shared<CollectingTaggedSink>();
    auto runner = std::make_unique<MultiQueryRunner>(wl.registry(), sink);
    for (const auto& q : queries)
      runner->add_query({q, EngineKind::kOoo, opt});
    return runner;
  };

  std::shared_ptr<CollectingTaggedSink> full_sink;
  const auto full = build(full_sink);
  for (const Event& e : arrivals) full->on_event(e);
  full->finish();

  for (const std::size_t cut : {std::size_t{1}, arrivals.size() / 3,
                                arrivals.size() / 2, arrivals.size() - 1}) {
    std::shared_ptr<CollectingTaggedSink> sink1;
    const auto r1 = build(sink1);
    for (std::size_t i = 0; i < cut; ++i) r1->on_event(arrivals[i]);
    CheckpointWriter w;
    r1->snapshot(w);
    const auto frame = std::move(w).finalize();

    std::shared_ptr<CollectingTaggedSink> sink2;
    const auto r2 = build(sink2);
    {
      CheckpointReader r(frame);
      r2->restore(r);
      r.expect_done();
    }
    // The restored runner re-snapshots to identical bytes.
    CheckpointWriter w2;
    r2->snapshot(w2);
    EXPECT_EQ(std::move(w2).finalize(), frame) << "cut=" << cut;
    EXPECT_EQ(r2->events_seen(), r1->events_seen());

    for (std::size_t i = cut; i < arrivals.size(); ++i) r2->on_event(arrivals[i]);
    r2->finish();

    // Arrival counters are counted per event type and folded into each
    // member; the checkpoint carries the folded values.
    for (QueryId q = 0; q < queries.size(); ++q) {
      const EngineStats got = r2->stats(q);
      const EngineStats want = full->stats(q);
      EXPECT_EQ(got.events_seen, want.events_seen) << "query " << q << " cut=" << cut;
      EXPECT_EQ(got.events_relevant, want.events_relevant) << "query " << q << " cut=" << cut;
      EXPECT_EQ(got.late_events, want.late_events) << "query " << q << " cut=" << cut;
      EXPECT_EQ(got.contract_violations, want.contract_violations)
          << "query " << q << " cut=" << cut;
    }

    // Union of pre-kill and post-restore matches == uninterrupted run.
    for (QueryId q = 0; q < queries.size(); ++q) {
      auto got = sink1->keys_for(q);
      for (const MatchKey& k : sink2->keys_for(q)) got.push_back(k);
      auto want = full_sink->keys_for(q);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "query " << q << " cut=" << cut;
    }
  }
}

}  // namespace
}  // namespace oosp
