// Slack-violation safety net tests: the three late policies, quarantine
// bounds and draining, schema validation, duplicate suppression, the
// adaptive K-slack estimator, and the accounting invariants tying them
// together (every contract violation lands in exactly one bucket).
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "engine_test_util.hpp"
#include "runtime/driver.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;

// --- SlackEstimator unit tests ----------------------------------------

TEST(SlackEstimator, FastGrowthCoversExcursionImmediately) {
  SlackEstimatorConfig cfg;
  cfg.headroom = 2.0;
  cfg.min_slack = 0;
  SlackEstimator est(cfg, 4);
  EXPECT_EQ(est.estimate(), 4);
  est.observe(10);  // leading edge of a spike: no refresh wait
  EXPECT_EQ(est.estimate(), 20);
}

TEST(SlackEstimator, RefreshRelaxesAfterCalm) {
  SlackEstimatorConfig cfg;
  cfg.window = 8;
  cfg.refresh_period = 4;
  cfg.headroom = 1.0;
  cfg.quantile = 0.5;
  cfg.min_slack = 0;
  SlackEstimator est(cfg, 0);
  est.observe(100);
  EXPECT_EQ(est.estimate(), 100);
  for (int i = 0; i < 8; ++i) est.observe(0);
  EXPECT_EQ(est.estimate(), 0);  // the spike left the window's median
}

TEST(SlackEstimator, ClampsToConfiguredRange) {
  SlackEstimatorConfig cfg;
  cfg.min_slack = 5;
  cfg.max_slack = 50;
  cfg.headroom = 10.0;
  SlackEstimator est(cfg, 0);
  EXPECT_EQ(est.estimate(), 5);
  est.observe(100);
  EXPECT_EQ(est.estimate(), 50);
}

TEST(SlackEstimator, SampleWindowIsBounded) {
  SlackEstimatorConfig cfg;
  cfg.window = 4;
  SlackEstimator est(cfg, 0);
  for (int i = 0; i < 10; ++i) est.observe(i);
  EXPECT_EQ(est.samples(), 4u);
}

TEST(LatePolicyNames, RoundTrip) {
  EXPECT_EQ(to_string(LatePolicy::kAdmit), "admit");
  EXPECT_EQ(to_string(LatePolicy::kDrop), "drop");
  EXPECT_EQ(to_string(LatePolicy::kQuarantine), "quarantine");
}

// --- late policies -----------------------------------------------------

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() : reg_(make_abcd_registry()) {}
  Event ev(const char* t, EventId id, Timestamp ts, std::int64_t k = 0) {
    return make_event(reg_, t, id, ts, k);
  }
  EngineOptions late(LatePolicy policy, Timestamp k = 5) {
    EngineOptions o;
    o.slack = k;
    o.late_policy = policy;
    o.purge_period = 0;  // keep state alive so kAdmit can still match
    return o;
  }
  TypeRegistry reg_;
};

// Shared scenario: K = 5, clock driven to 116, then B@105 arrives with
// lateness 11 — a contract violation whichever engine observes it.
TEST_F(RobustnessTest, AdmitPolicyProcessesViolatorBestEffort) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, late(LatePolicy::kAdmit));
  engine->on_event(ev("A", 0, 100));
  engine->on_event(ev("D", 1, 116));
  engine->on_event(ev("B", 2, 105));
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 1u);
  EXPECT_EQ(s.events_dropped_late, 0u);
  EXPECT_EQ(s.events_quarantined, 0u);
  EXPECT_EQ(sink->size(), 1u);  // state survived (no purge), so it matched
}

TEST_F(RobustnessTest, DropPolicyDiscardsViolatorWithAccounting) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, late(LatePolicy::kDrop));
  engine->on_event(ev("A", 0, 100));
  engine->on_event(ev("D", 1, 116));
  engine->on_event(ev("B", 2, 105));
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 1u);
  EXPECT_EQ(s.events_dropped_late, 1u);
  EXPECT_EQ(sink->size(), 0u);
  EXPECT_TRUE(engine->drain_quarantine().empty());
}

TEST_F(RobustnessTest, QuarantinePolicyParksViolatorForDrain) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine =
      testutil::make_test_engine(EngineKind::kOoo, q, sink, late(LatePolicy::kQuarantine));
  engine->on_event(ev("A", 0, 100));
  engine->on_event(ev("D", 1, 116));
  engine->on_event(ev("B", 2, 105));
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 1u);
  EXPECT_EQ(s.events_quarantined, 1u);
  EXPECT_EQ(s.events_dropped_late, 0u);
  EXPECT_EQ(sink->size(), 0u);
  const auto parked = engine->drain_quarantine();
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0].id, 2u);
  EXPECT_TRUE(engine->drain_quarantine().empty());  // drain is destructive
}

TEST_F(RobustnessTest, QuarantineOverflowFallsBackToDropAccounting) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  EngineOptions opt = late(LatePolicy::kQuarantine);
  opt.quarantine_capacity = 2;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
  engine->on_event(ev("A", 0, 100));
  engine->on_event(ev("D", 1, 120));  // seal watermark passes 107
  engine->on_event(ev("B", 2, 105));
  engine->on_event(ev("B", 3, 106));
  engine->on_event(ev("B", 4, 107));  // over capacity: dropped, not parked
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 3u);
  EXPECT_EQ(s.events_quarantined, 2u);
  EXPECT_EQ(s.events_dropped_late, 1u);
  // Invariant: every violation lands in exactly one bucket (or, under
  // kAdmit, in none).
  EXPECT_EQ(s.contract_violations, s.events_quarantined + s.events_dropped_late);
  const auto parked = engine->drain_quarantine();
  ASSERT_EQ(parked.size(), 2u);  // arrival order
  EXPECT_EQ(parked[0].id, 2u);
  EXPECT_EQ(parked[1].id, 3u);
}

TEST_F(RobustnessTest, KSlackBufferAppliesTheSamePolicies) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  // Clock 120 forces the release watermark to 115; B@105 then arrives
  // below it — it can only reach the inner engine out of order.
  const std::vector<Event> arrivals = {ev("A", 0, 100), ev("D", 1, 120),
                                       ev("B", 2, 105)};

  for (const LatePolicy policy :
       {LatePolicy::kAdmit, LatePolicy::kDrop, LatePolicy::kQuarantine}) {
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine =
        testutil::make_test_engine(EngineKind::kKSlackInOrder, q, sink, late(policy));
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    const EngineStats s = engine->stats_snapshot();
    EXPECT_EQ(s.contract_violations, 1u) << to_string(policy);
    switch (policy) {
      case LatePolicy::kAdmit:
        // Best effort worked out here: the violator drained from the
        // buffer behind A@100, so the inner engine still saw ts order.
        EXPECT_EQ(sink->size(), 1u);
        break;
      case LatePolicy::kDrop:
        EXPECT_EQ(s.events_dropped_late, 1u);
        EXPECT_EQ(sink->size(), 0u);
        break;
      case LatePolicy::kQuarantine:
        EXPECT_EQ(s.events_quarantined, 1u);
        EXPECT_EQ(engine->drain_quarantine().size(), 1u);
        EXPECT_EQ(sink->size(), 0u);
        break;
    }
  }
}

TEST_F(RobustnessTest, DriverCollectsQuarantineBeforeEngineTeardown) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  const std::vector<Event> arrivals = {ev("A", 0, 100), ev("D", 1, 116),
                                       ev("B", 2, 105)};
  DriverConfig cfg;
  cfg.kind = EngineKind::kOoo;
  cfg.options = late(LatePolicy::kQuarantine);
  cfg.collect_quarantine = true;
  const RunResult r = run_stream(q, arrivals, cfg);
  EXPECT_EQ(r.stats.events_quarantined, 1u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].id, 2u);
}

// --- schema validation and duplicate suppression -----------------------

TEST_F(RobustnessTest, MalformedEventsAreRejectedNotProcessed) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  Event unknown_type = ev("A", 1, 101);
  unknown_type.type = static_cast<TypeId>(99);
  Event bad_arity = ev("A", 2, 102);
  bad_arity.attrs.pop_back();
  Event bad_value = ev("A", 3, 103);
  bad_value.attrs[0] = Value(std::string("not an int"));
  const std::vector<Event> arrivals = {ev("A", 0, 100), unknown_type, bad_arity,
                                       bad_value, ev("B", 4, 104)};

  for (const EngineKind kind : {EngineKind::kInOrder, EngineKind::kNfa,
                                EngineKind::kOoo, EngineKind::kKSlackInOrder}) {
    EngineOptions opt;
    opt.slack = 5;
    opt.registry = &reg_;
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(kind, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);  // must not fault
    engine->finish();
    EXPECT_EQ(engine->stats_snapshot().events_rejected, 3u) << to_string(kind);
    EXPECT_EQ(sink->size(), 1u) << to_string(kind);  // the well-formed pair
  }
}

TEST_F(RobustnessTest, InvalidTypeIdRejectedEvenWithoutRegistry) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  Event poison = ev("A", 0, 100);
  poison.type = kInvalidType;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, {});
  engine->on_event(poison);
  engine->finish();
  EXPECT_EQ(engine->stats_snapshot().events_rejected, 1u);
}

TEST_F(RobustnessTest, DuplicateDeliveryInflatesMatchesUnlessDeduped) {
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, B b) WITHIN 10", reg_);
  // The same B delivered twice (same id, ts, payload — an at-least-once
  // transport retry).
  const std::vector<Event> arrivals = {ev("A", 0, 100), ev("B", 1, 103),
                                       ev("B", 1, 103)};
  for (const EngineKind kind :
       {EngineKind::kInOrder, EngineKind::kNfa, EngineKind::kOoo}) {
    EngineOptions opt;
    opt.slack = 5;
    const auto naive = testutil::run_engine(kind, q, arrivals, opt);
    EXPECT_EQ(naive.size(), 2u) << to_string(kind) << ": retry re-matched";

    opt.dedup_by_id = true;
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(kind, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->size(), 1u) << to_string(kind);
    EXPECT_EQ(engine->stats_snapshot().events_deduped, 1u) << to_string(kind);
  }
}

// --- adaptive K-slack --------------------------------------------------

// In-order (A_k, B_k) pairs 2 apart; every B is delivered right after the
// NEXT pair's A, so its lateness equals the phase's configured value.
// Lateness ramps across phases by less than the estimator's 1.5x
// headroom, which is exactly the regime adaptive K must survive.
std::vector<Event> make_ramp(const TypeRegistry& reg,
                             const std::vector<std::pair<Timestamp, int>>& phases) {
  std::vector<Event> arrivals;
  EventId id = 0;
  std::int64_t key = 0;
  Timestamp t = 100;
  std::optional<Event> pending_b;
  for (const auto& [lateness, pairs] : phases) {
    for (int i = 0; i < pairs; ++i) {
      arrivals.push_back(make_event(reg, "A", id++, t, key));
      if (pending_b) arrivals.push_back(*pending_b);
      pending_b = make_event(reg, "B", id++, t + 2, key);
      ++key;
      t += lateness + 2;
    }
  }
  if (pending_b) arrivals.push_back(*pending_b);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    arrivals[i].arrival = static_cast<ArrivalSeq>(i);
  return arrivals;
}

EngineOptions adaptive_options() {
  EngineOptions o;
  o.slack = 4;
  o.adaptive_slack = true;
  o.late_policy = LatePolicy::kDrop;  // any violation would cost a match
  o.purge_period = 1;
  o.slack_estimator.headroom = 1.5;
  o.slack_estimator.window = 64;
  o.slack_estimator.refresh_period = 2;
  o.slack_estimator.min_slack = 4;
  return o;
}

TEST_F(RobustnessTest, AdaptiveSlackTracksALatenessRampExactly) {
  const CompiledQuery q =
      compile_query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 10", reg_);
  const auto arrivals =
      make_ramp(reg_, {{3, 4}, {5, 4}, {7, 4}, {10, 4}, {14, 4}, {20, 4}, {28, 4}});

  // Fixed K = 4 under the historical admit policy: the ramp blows past
  // the configured slack, purges race ahead, and matches go missing.
  EngineOptions fixed;
  fixed.slack = 4;
  fixed.purge_period = 1;
  const auto fixed_sink = std::make_shared<CollectingSink>();
  {
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, fixed_sink, fixed);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_GT(engine->stats_snapshot().contract_violations, 0u);
  }
  const VerifyResult fixed_v =
      verify_against_oracle(q, arrivals, fixed_sink->matches());
  EXPECT_GT(fixed_v.missed, 0u);
  EXPECT_LT(fixed_v.recall(), 1.0);

  // Same stream, same initial K, adaptive: the estimator's headroom stays
  // ahead of the ramp, so no violation ever happens and (with kDrop armed
  // to punish any slip) the result set is still exact.
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, adaptive_options());
  for (const Event& e : arrivals) engine->on_event(e);
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 0u);
  EXPECT_EQ(s.events_dropped_late, 0u);
  EXPECT_GE(s.slack_grows, 2u);
  EXPECT_GT(s.effective_slack, 4);
  const VerifyResult v = verify_against_oracle(q, arrivals, sink->matches());
  EXPECT_TRUE(v.exact()) << "missed=" << v.missed
                         << " false_positives=" << v.false_positives;
}

TEST_F(RobustnessTest, AdaptiveSlackShrinksBackAfterTheSpike) {
  const CompiledQuery q =
      compile_query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 10", reg_);
  const auto arrivals = make_ramp(
      reg_, {{3, 4}, {5, 4}, {7, 4}, {10, 4}, {14, 4}, {20, 4}, {28, 4}, {3, 40}});

  EngineOptions opt = adaptive_options();
  opt.slack_estimator.window = 32;  // let the calm tail flush the spike out
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
  for (const Event& e : arrivals) engine->on_event(e);
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 0u);
  EXPECT_GE(s.slack_grows, 2u);
  EXPECT_GE(s.slack_shrinks, 1u);
  EXPECT_LT(s.effective_slack, 28);  // back near the calm-phase bound
  const VerifyResult v = verify_against_oracle(q, arrivals, sink->matches());
  EXPECT_TRUE(v.exact()) << "missed=" << v.missed
                         << " false_positives=" << v.false_positives;
}

TEST_F(RobustnessTest, KSlackBufferAdaptsItsReleaseThresholdToo) {
  const CompiledQuery q =
      compile_query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 10", reg_);
  const auto arrivals =
      make_ramp(reg_, {{3, 4}, {5, 4}, {7, 4}, {10, 4}, {14, 4}, {20, 4}, {28, 4}});
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine =
      testutil::make_test_engine(EngineKind::kKSlackInOrder, q, sink, adaptive_options());
  for (const Event& e : arrivals) engine->on_event(e);
  engine->finish();
  const EngineStats s = engine->stats_snapshot();
  EXPECT_EQ(s.contract_violations, 0u);
  EXPECT_GE(s.slack_grows, 2u);
  const VerifyResult v = verify_against_oracle(q, arrivals, sink->matches());
  EXPECT_TRUE(v.exact()) << "missed=" << v.missed
                         << " false_positives=" << v.false_positives;
}

}  // namespace
}  // namespace oosp
