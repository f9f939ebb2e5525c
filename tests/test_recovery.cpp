// Crash recovery: checkpoint codec integrity, engine snapshot/restore
// round-trips for every engine kind, and sharded-session supervision —
// kill-at-every-index exactly-once replay, restart-exhaustion policies,
// idempotent/concurrent close(), and quarantine drain at close.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
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

using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::make_test_engine;
using testutil::run_engine;

// ------------------------------------------------------------- codec

TEST(CheckpointCodec, RoundTripsPrimitivesAndComposites) {
  const TypeRegistry reg = make_abcd_registry();
  CheckpointWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.25);
  w.boolean(true);
  w.str("hello");
  w.tag("sect");
  const Event ev = make_event(reg, "B", 7, 123, 9, -4);
  w.event(ev);
  Match m;
  m.events = {ev};
  m.detection_clock = 999;
  w.match(m);
  EngineStats s;
  s.events_seen = 5;
  s.matches_emitted = 2;
  s.effective_slack = -7;
  w.stats(s);
  const auto frame = std::move(w).finalize();

  CheckpointReader r(frame);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  r.expect_tag("sect");
  const Event back = r.event();
  EXPECT_EQ(back.type, ev.type);
  EXPECT_EQ(back.id, ev.id);
  EXPECT_EQ(back.ts, ev.ts);
  EXPECT_EQ(back.arrival, ev.arrival);
  ASSERT_EQ(back.attrs.size(), 2u);
  EXPECT_EQ(back.attrs[0].as_int(), 9);
  EXPECT_EQ(back.attrs[1].as_int(), -4);
  const Match mback = r.match();
  EXPECT_EQ(match_key(mback), match_key(m));
  EXPECT_EQ(mback.detection_clock, 999);
  const EngineStats sback = r.stats();
  EXPECT_EQ(sback.events_seen, 5u);
  EXPECT_EQ(sback.matches_emitted, 2u);
  EXPECT_EQ(sback.effective_slack, -7);
  r.expect_done();
}

TEST(CheckpointCodec, RejectsTamperedFrames) {
  CheckpointWriter w;
  w.str("payload payload payload");
  const auto frame = std::move(w).finalize();

  // Pristine frame parses.
  EXPECT_NO_THROW(CheckpointReader{frame});

  auto bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(CheckpointReader{bad_magic}, CheckpointError);

  auto bad_version = frame;
  bad_version[4] = 0x7F;
  EXPECT_THROW(CheckpointReader{bad_version}, CheckpointError);

  auto truncated = frame;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(CheckpointReader{truncated}, CheckpointError);

  std::vector<std::uint8_t> tiny(frame.begin(), frame.begin() + 10);
  EXPECT_THROW(CheckpointReader{tiny}, CheckpointError);

  auto corrupt = frame;
  corrupt[20] ^= 0x01;  // payload bit flip -> checksum mismatch
  EXPECT_THROW(CheckpointReader{corrupt}, CheckpointError);

  auto trailing = frame;
  trailing.push_back(0x00);  // declared length no longer matches
  EXPECT_THROW(CheckpointReader{trailing}, CheckpointError);
}

TEST(CheckpointCodec, StructuralGuardsCatchSchemaDrift) {
  {
    CheckpointWriter w;
    w.tag("aaaa");
    const auto frame = std::move(w).finalize();
    CheckpointReader r(frame);
    EXPECT_THROW(r.expect_tag("bbbb"), CheckpointError);
  }
  {
    // A corrupt element count implying more bytes than the frame holds
    // must throw instead of attempting a giant allocation.
    CheckpointWriter w;
    w.u64(1ull << 60);
    const auto frame = std::move(w).finalize();
    CheckpointReader r(frame);
    EXPECT_THROW(r.count(8), CheckpointError);
  }
  {
    // Unread trailing bytes are a reader/writer disagreement.
    CheckpointWriter w;
    w.u32(1);
    w.u32(2);
    const auto frame = std::move(w).finalize();
    CheckpointReader r(frame);
    r.u32();
    EXPECT_THROW(r.expect_done(), CheckpointError);
  }
}

// --------------------------------------- engine snapshot round trips

const EngineKind kAllKinds[] = {EngineKind::kInOrder, EngineKind::kNfa,
                                EngineKind::kOoo, EngineKind::kKSlackInOrder,
                                EngineKind::kKSlackNfa};

std::vector<MatchKey> sorted_keys(const std::vector<Match>& ms) {
  std::vector<MatchKey> keys;
  keys.reserve(ms.size());
  for (const Match& m : ms) keys.push_back(match_key(m));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Feeds arrivals[0, cut), snapshots, restores into a FRESH engine,
// verifies the restored engine re-snapshots to identical bytes, then
// feeds the suffix to both engines, comparing their snapshots every 100
// events and at the end, before finish(): state the checkpoint does not
// carry (which shards a purge pass visits, which it recycles) must come
// back from restore exactly as the uninterrupted engine kept it, or the
// two purge differently. Returns the original's matches before the cut
// plus the restored engine's.
std::vector<MatchKey> interrupted_run(EngineKind kind, const CompiledQuery& q,
                                      const std::vector<Event>& arrivals,
                                      std::size_t cut, const EngineOptions& options) {
  const auto sink1 = std::make_shared<CollectingSink>();
  const auto engine1 = make_test_engine(kind, q, sink1, options);
  for (std::size_t i = 0; i < cut; ++i) engine1->on_event(arrivals[i]);
  const auto bytes = checkpoint_engine(*engine1);

  const auto sink2 = std::make_shared<CollectingSink>();
  const auto engine2 = make_test_engine(kind, q, sink2, options);
  restore_engine(*engine2, bytes);
  EXPECT_EQ(checkpoint_engine(*engine2), bytes)
      << to_string(kind) << " cut=" << cut
      << ": restored engine re-snapshots to different bytes";
  EXPECT_EQ(engine2->stats_snapshot().events_seen,
            engine1->stats_snapshot().events_seen);

  std::vector<Match> all = sink1->matches();
  bool diverged = false;
  for (std::size_t i = cut; i < arrivals.size(); ++i) {
    engine1->on_event(arrivals[i]);
    engine2->on_event(arrivals[i]);
    const bool compare = (i - cut) % 100 == 99 || i + 1 == arrivals.size();
    if (compare && !diverged && checkpoint_engine(*engine2) != checkpoint_engine(*engine1)) {
      diverged = true;
      ADD_FAILURE() << to_string(kind) << " cut=" << cut << ": after " << i + 1 - cut
                    << " more events the restored engine snapshots differently";
    }
  }
  engine2->finish();

  for (const Match& m : sink2->matches()) all.push_back(m);
  return sorted_keys(all);
}

struct SweepCase {
  const char* label;
  std::string query;
  EngineOptions options;
};

class SnapshotSweep : public ::testing::Test {
 protected:
  SnapshotSweep() : wl_(config(24)) { generate(); }

  // A key recurs about every 5 * key_cardinality ticks.
  static SyntheticConfig config(std::int64_t key_cardinality) {
    return {.num_events = 4'000, .num_types = 3, .key_cardinality = key_cardinality,
            .mean_gap = 5, .seed = 7};
  }

  void generate() {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(80), 0.3, 21);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
  }

  void run_case(EngineKind kind, const SweepCase& c) {
    const CompiledQuery q = compile_query(c.query, wl_.registry());
    const auto full = sorted_keys(run_engine(kind, q, arrivals_, c.options));
    const std::size_t n = arrivals_.size();
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, n / 3, n / 2, n - 1, n}) {
      const auto pieced = interrupted_run(kind, q, arrivals_, cut, c.options);
      ASSERT_EQ(pieced, full) << to_string(kind) << " " << c.label << " cut=" << cut
                              << ": snapshot/restore changed the match set";
    }
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
};

TEST_F(SnapshotSweep, KeyedSequenceAllEngines) {
  for (const EngineKind kind : kAllKinds) {
    EngineOptions opt;
    opt.slack = slack_;
    run_case(kind, {"keyed-seq", wl_.seq_query(2, true, 200), opt});
  }
}

TEST_F(SnapshotSweep, UnkeyedSequenceAllEngines) {
  for (const EngineKind kind : kAllKinds) {
    EngineOptions opt;
    opt.slack = slack_;
    run_case(kind, {"unkeyed-seq", wl_.seq_query(2, false, 60), opt});
  }
}

TEST_F(SnapshotSweep, NegationAllEngines) {
  for (const EngineKind kind : kAllKinds) {
    EngineOptions opt;
    opt.slack = slack_;
    run_case(kind, {"negation", wl_.negation_query(200), opt});
  }
}

TEST_F(SnapshotSweep, SparseKeysRecycleShardsAcrossTheCut) {
  // Keys recur every ~1,280 ticks, against W + K of about 280: key shards
  // empty and are recycled before and after every cut.
  wl_ = SyntheticWorkload(config(256));
  generate();
  for (const EngineKind kind : kAllKinds) {
    EngineOptions opt;
    opt.slack = slack_;
    run_case(kind, {"sparse-keyed-seq", wl_.seq_query(3, true, 200), opt});
    run_case(kind, {"sparse-negation", wl_.negation_query(200), opt});
  }
}

TEST_F(SnapshotSweep, AggressiveNegationRetractionsSurviveRestore) {
  EngineOptions opt;
  opt.slack = slack_;
  opt.aggressive_negation = true;
  run_case(EngineKind::kOoo, {"aggressive-negation", wl_.negation_query(200), opt});
}

TEST_F(SnapshotSweep, RobustnessOptionsSurviveRestore) {
  // Adaptive slack + dedup + quarantine: the state carried by the
  // estimator and admission control rides along.
  for (const EngineKind kind : {EngineKind::kOoo, EngineKind::kKSlackInOrder}) {
    EngineOptions opt;
    opt.slack = slack_ / 2;
    opt.adaptive_slack = true;
    opt.dedup_by_id = true;
    opt.late_policy = LatePolicy::kQuarantine;
    run_case(kind, {"robust-options", wl_.seq_query(2, true, 200), opt});
  }
}

TEST_F(SnapshotSweep, QuarantineContentsSurviveRestore) {
  // Quarantined events parked before the snapshot must drain from the
  // restored engine exactly as they would have from the original.
  EngineOptions opt;
  opt.slack = 0;  // everything late is quarantined
  opt.late_policy = LatePolicy::kQuarantine;
  const CompiledQuery q = compile_query(wl_.seq_query(2, true, 200), wl_.registry());

  const auto sink1 = std::make_shared<CollectingSink>();
  const auto engine1 = make_test_engine(EngineKind::kOoo, q, sink1, opt);
  const std::size_t cut = arrivals_.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) engine1->on_event(arrivals_[i]);
  const auto bytes = checkpoint_engine(*engine1);
  const auto expected = engine1->drain_quarantine();
  ASSERT_GT(expected.size(), 0u) << "workload produced no late events";

  const auto sink2 = std::make_shared<CollectingSink>();
  const auto engine2 = make_test_engine(EngineKind::kOoo, q, sink2, opt);
  restore_engine(*engine2, bytes);
  const auto restored = engine2->drain_quarantine();
  ASSERT_EQ(restored.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(restored[i].id, expected[i].id);
}

TEST(SnapshotGuards, KindQueryAndPolicyMismatchesAreRejected) {
  const TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q =
      compile_query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50", reg);
  EngineOptions opt;
  opt.slack = 10;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(EngineKind::kOoo, q, sink, opt);
  engine->on_event(make_event(reg, "A", 0, 10, 1));
  const auto bytes = checkpoint_engine(*engine);

  {  // different engine kind
    const auto other = make_test_engine(EngineKind::kNfa, q, sink, opt);
    EXPECT_THROW(restore_engine(*other, bytes), CheckpointError);
  }
  {  // different query
    const CompiledQuery q2 =
        compile_query("PATTERN SEQ(A a, C c) WHERE a.k == c.k WITHIN 50", reg);
    const auto other = make_test_engine(EngineKind::kOoo, q2, sink, opt);
    EXPECT_THROW(restore_engine(*other, bytes), CheckpointError);
  }
  {  // different negation policy variant (name encodes it)
    EngineOptions aggressive = opt;
    aggressive.aggressive_negation = true;
    const CompiledQuery qn =
        compile_query("PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k"
                      " WITHIN 50", reg);
    const auto conservative = make_test_engine(EngineKind::kOoo, qn, sink, opt);
    const auto nb = checkpoint_engine(*conservative);
    const auto other = make_test_engine(EngineKind::kOoo, qn, sink, aggressive);
    EXPECT_THROW(restore_engine(*other, nb), CheckpointError);
  }
}

// --------------------------------------------- session supervision

struct RecoveryRun {
  std::vector<std::pair<QueryId, MatchKey>> output;  // exact delivery order
  std::size_t restarts = 0;
  std::uint64_t replayed = 0;
  std::size_t dropped_shards = 0;
  std::size_t shard_count = 0;
};

RecoveryRun run_recovery_session(const SyntheticWorkload& wl,
                                 const std::vector<Event>& arrivals, Timestamp slack,
                                 WorkerKillHook hook,
                                 RestartPolicy policy = RestartPolicy::kFail,
                                 std::size_t max_restarts = 5,
                                 std::size_t checkpoint_every = 7) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  SessionConfig cfg;
  // The default cadence is small, so most kills land mid-interval.
  cfg.engine(EngineKind::kOoo)
      .slack(slack)
      .shards(3)
      .checkpoint_every(checkpoint_every)
      .max_restarts(max_restarts)
      .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0))
      .on_restart_exhausted(policy)
      .query(wl.seq_query(2, true, 200));
  if (hook) cfg.kill_hook(std::move(hook));
  Session session(wl.registry(), cfg, sink);
  for (const Event& e : arrivals) session.push(e);
  session.close();

  RecoveryRun run;
  run.shard_count = session.shard_count();
  run.restarts = session.restarts();
  run.replayed = session.replayed_events();
  run.dropped_shards = session.dropped_shards();
  for (const TaggedMatch& tm : sink->matches())
    run.output.emplace_back(tm.query, match_key(tm.match));
  return run;
}

class SessionRecovery : public ::testing::Test {
 protected:
  SessionRecovery()
      : wl_({.num_events = 250, .num_types = 2, .key_cardinality = 12,
             .mean_gap = 6, .seed = 33}) {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(60), 0.25, 5);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
    oracle_ = run_recovery_session(wl_, arrivals_, slack_, {});
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
  RecoveryRun oracle_;
};

TEST_F(SessionRecovery, KillAtEveryIndexYieldsBitIdenticalExactlyOnceOutput) {
  ASSERT_EQ(oracle_.shard_count, 3u);
  ASSERT_EQ(oracle_.restarts, 0u);
  ASSERT_GT(oracle_.output.size(), 20u) << "workload too sparse to be meaningful";

  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    WorkerKillFault fault({arrivals_[i].id});
    const RecoveryRun run =
        run_recovery_session(wl_, arrivals_, slack_, fault.hook());
    ASSERT_GE(run.restarts, 1u) << "kill at index " << i << " never fired";
    ASSERT_GE(run.replayed, 1u) << "victim " << i << " was not replayed";
    ASSERT_EQ(run.dropped_shards, 0u);
    // Not just the same multiset: the same SEQUENCE, element by element —
    // exactly-once, no duplicates, no holes, canonical order preserved.
    ASSERT_EQ(run.output, oracle_.output)
        << "output diverges after killing the worker at event index " << i;
    ASSERT_EQ(fault.victims_remaining(), 0u);
  }
}

TEST_F(SessionRecovery, LateKillWithoutACheckpointReplaysExactlyOnce) {
  // The cadence exceeds the stream, so no checkpoint is ever taken: every
  // result the shard emitted before the kill already went to the merger
  // (most of it to the sink), and the replay from the first event
  // regenerates all of it. Emission numbers drop the regenerated prefix.
  const std::size_t never = 10 * arrivals_.size();
  for (const std::size_t i :
       {arrivals_.size() * 3 / 4, arrivals_.size() - 10, arrivals_.size() - 1}) {
    WorkerKillFault fault({arrivals_[i].id});
    const RecoveryRun run = run_recovery_session(wl_, arrivals_, slack_, fault.hook(),
                                                 RestartPolicy::kFail, 5, never);
    ASSERT_EQ(run.restarts, 1u) << "kill at index " << i;
    ASSERT_GT(run.replayed, 1u) << "kill at index " << i;
    ASSERT_EQ(run.output, oracle_.output)
        << "output diverges after killing the worker at event index " << i;
    ASSERT_EQ(fault.victims_remaining(), 0u);
  }
}

TEST_F(SessionRecovery, MultipleKillsAcrossShardsStillExactlyOnce) {
  // Seeded fraction mode: ~8% of events are victims, spread over every
  // shard, with a budget large enough to absorb them all.
  WorkerKillFault fault(0.08, 99);
  auto stream = arrivals_;
  stream = fault.apply(std::move(stream));
  ASSERT_GT(fault.victims_remaining(), 3u);
  const RecoveryRun run = run_recovery_session(wl_, stream, slack_, fault.hook(),
                                               RestartPolicy::kFail,
                                               /*max_restarts=*/100);
  EXPECT_EQ(run.output, oracle_.output);
  EXPECT_GE(run.restarts, fault.victims_remaining());
  EXPECT_EQ(fault.victims_remaining(), 0u);
}

// Ticks in flight: an AGG query and a negation query at 4 shards, over a
// stream that leaves shard 3 without events for several slacks at a time.
// The idle shard's worker checkpoints on ticks and holds them in its
// backup, so a kill replays them; a tick seals windows and held
// candidates, so a replay that lost or misplaced one would renumber the
// shard's results or stamp them with another detection clock.
using TickedResult = std::tuple<QueryId, MatchKey, Timestamp>;

std::vector<TickedResult> run_ticked_session(const TypeRegistry& reg,
                                             const std::vector<Event>& stream, WorkerKillHook hook,
                                             std::size_t* restarts) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  SessionConfig cfg;
  cfg.slack(4)
      .shards(4)
      .checkpoint_every(7)
      .max_restarts(5)
      .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0))
      .query("AGG count(C) OVER 20 BY k")
      .query("PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k WITHIN 15");
  if (hook) cfg.kill_hook(std::move(hook));
  Session session(reg, cfg, sink);
  EXPECT_EQ(session.shard_count(), 4u);
  for (const Event& e : stream) session.push(e);
  session.close();
  *restarts = session.restarts();
  std::vector<TickedResult> out;
  for (const TaggedMatch& tm : sink->matches())
    out.emplace_back(tm.query, match_key(tm.match), tm.match.detection_clock);
  return out;
}

TEST(SessionRecoveryTicks, KillAtEveryIndexWithTicksInFlightIsExactlyOnce) {
  const TypeRegistry reg = make_abcd_registry();
  // One key per shard; shard 3's key pauses for five rounds of every
  // eight, about four slacks of stream time.
  std::int64_t key_of[4];
  for (std::size_t s = 0; s < 4; ++s) {
    key_of[s] = 0;
    while (ValueHasher{}(Value(key_of[s])) % 4 != s) ++key_of[s];
  }
  static const char* const kTypes[] = {"A", "C", "B", "C", "A", "A", "C"};
  std::vector<Event> stream;
  Timestamp ts = 0;
  for (std::size_t round = 0; round < 80; ++round) {
    for (std::size_t s = 0; s < 4; ++s) {
      if (s == 3 && round % 8 >= 3) continue;
      const EventId id = stream.size();
      stream.push_back(make_event(reg, kTypes[(round + s) % 7], id, ts += 1, key_of[s]));
    }
  }
  std::size_t restarts = 0;
  const auto uninterrupted = run_ticked_session(reg, stream, {}, &restarts);
  ASSERT_EQ(restarts, 0u);
  const std::size_t windows = static_cast<std::size_t>(std::count_if(
      uninterrupted.begin(), uninterrupted.end(),
      [](const TickedResult& r) { return std::get<0>(r) == 0; }));
  ASSERT_GT(windows, 10u);
  ASSERT_GT(uninterrupted.size() - windows, 10u) << "too few negation matches";

  for (std::size_t i = 0; i < stream.size(); ++i) {
    WorkerKillFault fault({stream[i].id});
    const auto run = run_ticked_session(reg, stream, fault.hook(), &restarts);
    ASSERT_GE(restarts, 1u) << "kill at index " << i << " never fired";
    ASSERT_EQ(run, uninterrupted) << "output diverges after killing the worker at index " << i;
    ASSERT_EQ(fault.victims_remaining(), 0u);
  }
}

TEST_F(SessionRecovery, ExhaustedBudgetFailPolicyRethrows) {
  // Kill on every event of one key: each respawn survives replay (the
  // hook is not consulted there) and dies on the next fresh event of
  // that key, burning exactly one restart each time.
  const std::int64_t poison_key = 3;
  const WorkerKillHook always = [poison_key](const Event& e) {
    return !e.attrs.empty() && e.attrs[0] == Value(poison_key);
  };
  EXPECT_THROW(
      run_recovery_session(wl_, arrivals_, slack_, always, RestartPolicy::kFail,
                           /*max_restarts=*/2),
      WorkerKilled);
}

TEST_F(SessionRecovery, ExhaustedBudgetDegradePolicyCompletesWithAccounting) {
  const std::int64_t poison_key = 3;
  const WorkerKillHook always = [poison_key](const Event& e) {
    return !e.attrs.empty() && e.attrs[0] == Value(poison_key);
  };
  const RecoveryRun run =
      run_recovery_session(wl_, arrivals_, slack_, always,
                           RestartPolicy::kDegradeDropShard, /*max_restarts=*/2);
  EXPECT_EQ(run.dropped_shards, 1u);
  EXPECT_EQ(run.restarts, 2u);
  // The run completed; the surviving shards' output is a subsequence of
  // the oracle (the dropped shard's post-checkpoint matches are lost).
  ASSERT_LE(run.output.size(), oracle_.output.size());
  std::size_t oi = 0;
  for (const auto& got : run.output) {
    while (oi < oracle_.output.size() && oracle_.output[oi] != got) ++oi;
    ASSERT_LT(oi, oracle_.output.size())
        << "degraded run emitted a match absent from the fault-free oracle";
    ++oi;
  }
}

TEST(SessionClose, IdempotentAndConcurrentWithReporter) {
  SyntheticWorkload wl({.num_events = 2'000, .num_types = 2, .key_cardinality = 16,
                        .mean_gap = 5, .seed = 17});
  const auto arrivals = wl.generate();
  const auto sink = std::make_shared<CollectingTaggedSink>();
  std::atomic<int> reports{0};
  Session session(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(50)
                      .shards(2)
                      .checkpoint_every(64)
                      .report_every(std::chrono::milliseconds(1))
                      .report_to([&](const std::string&) { ++reports; })
                      .query(wl.seq_query(2, true, 100)),
                  sink);
  for (const Event& e : arrivals) session.push(e);

  // Racing closes: exactly one performs the shutdown, the others block
  // until it is done; the match stream is delivered exactly once.
  std::thread t1([&] { session.close(); });
  std::thread t2([&] { session.close(); });
  session.close();
  t1.join();
  t2.join();
  session.close();   // idempotent afterwards too
  session.finish();  // and so is finish()

  const std::size_t delivered = sink->matches().size();
  EXPECT_GT(delivered, 0u);
  const auto sink2 = std::make_shared<CollectingTaggedSink>();
  {
    Session clean(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(50)
                      .query(wl.seq_query(2, true, 100)),
                  sink2);
    for (const Event& e : arrivals) clean.push(e);
    clean.close();
  }
  EXPECT_EQ(delivered, sink2->matches().size()) << "double close duplicated output";
}

TEST(SessionQuarantine, DrainedAtCloseAndCountedInMetrics) {
  SyntheticWorkload wl({.num_events = 3'000, .num_types = 2, .key_cardinality = 16,
                        .mean_gap = 5, .seed = 29});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(100), 0.3, 13);
  const auto arrivals = inj.deliver(ordered);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    EngineOptions opt;
    opt.slack = 5;  // far below the true bound: plenty of late events
    opt.late_policy = LatePolicy::kQuarantine;
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(wl.registry(),
                    SessionConfig{}
                        .engine(EngineKind::kOoo)
                        .options(opt)
                        .shards(shards)
                        .checkpoint_every(shards > 1 ? 128 : 0)
                        .query(wl.seq_query(2, true, 100)),
                    sink);
    for (const Event& e : arrivals) session.push(e);
    session.close();

    const auto& quarantined = session.quarantined();
    ASSERT_GT(quarantined.size(), 0u) << "shards=" << shards;
    EXPECT_EQ(quarantined.size(), session.total_stats().events_quarantined)
        << "shards=" << shards;
    EXPECT_EQ(session.metrics_snapshot().counter(
                  "oosp_session_quarantine_drained_total"),
              quarantined.size())
        << "shards=" << shards;
    // Canonical (query, ts, id) order: identical for every shard count.
    for (std::size_t i = 1; i < quarantined.size(); ++i) {
      const auto& a = quarantined[i - 1];
      const auto& b = quarantined[i];
      EXPECT_LE(a.first, b.first);
      if (a.first == b.first) {
        EXPECT_LE(a.second.ts, b.second.ts);
        if (a.second.ts == b.second.ts) {
          EXPECT_LT(a.second.id, b.second.id);
        }
      }
    }
  }
}

TEST(SessionRecoveryMetrics, CheckpointAndRecoveryInstrumentsPopulate) {
  SyntheticWorkload wl({.num_events = 1'500, .num_types = 2, .key_cardinality = 8,
                        .mean_gap = 5, .seed = 41});
  const auto arrivals = wl.generate();
  WorkerKillFault fault({arrivals[700].id});
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(wl.registry(),
                  SessionConfig{}
                      .engine(EngineKind::kOoo)
                      .slack(30)
                      .shards(2)
                      .checkpoint_every(50)
                      .restart_backoff(std::chrono::milliseconds(0),
                                       std::chrono::milliseconds(0))
                      .kill_hook(fault.hook())
                      .query(wl.seq_query(2, true, 100)),
                  sink);
  for (const Event& e : arrivals) session.push(e);
  session.close();

  const MetricsSnapshot snap = session.metrics_snapshot();
  EXPECT_GT(snap.counter("oosp_shard_checkpoints_total"), 0u);
  EXPECT_GT(snap.gauge("oosp_shard_checkpoint_bytes"), 0);
  EXPECT_EQ(snap.counter("oosp_shard_restarts_total"), 1u);
  EXPECT_GE(snap.counter("oosp_shard_replayed_events_total"), 1u);
  EXPECT_EQ(snap.counter("oosp_shard_dropped_shards_total"), 0u);
  const HistogramData* recovery = snap.histogram("oosp_shard_recovery_duration_us");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->count, 1u);
  EXPECT_EQ(session.restarts(), 1u);
  EXPECT_GE(session.replayed_events(), 1u);
}

}  // namespace
}  // namespace oosp
