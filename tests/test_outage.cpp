// Unit + integration tests: the machine-failure (outage) disorder model.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "stream/disorder.hpp"
#include "stream/outage.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::expect_exact;

std::vector<Event> ordered_events(std::size_t n, Timestamp gap = 10) {
  std::vector<Event> out;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i;
    e.ts = static_cast<Timestamp>(i + 1) * gap;
    out.push_back(std::move(e));
  }
  return out;
}

TEST(OutageInjector, ProducesBoundedBurstDisorder) {
  const auto in = ordered_events(5'000, 5);
  OutageInjector inj({.outages = 4, .min_duration = 200, .max_duration = 800,
                      .affected_fraction = 0.5, .seed = 5});
  const auto out = inj.deliver(in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(inj.windows().size(), 4u);
  const auto stats = DisorderInjector::measure(out);
  EXPECT_GT(stats.late_events, 50u);
  EXPECT_LE(stats.max_lateness, inj.slack_bound());
  EXPECT_GE(inj.slack_bound(), 200);
  EXPECT_LE(inj.slack_bound(), 800);
  // Event multiset preserved.
  std::vector<EventId> ids;
  for (const auto& e : out) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(OutageInjector, FullyAffectedSingleStreamStaysOrdered) {
  // A total outage of the only pipeline delays delivery but cannot
  // reorder it — the backlog drains in ts order.
  const auto in = ordered_events(2'000, 5);
  OutageInjector inj({.outages = 3, .min_duration = 300, .max_duration = 600,
                      .affected_fraction = 1.0, .seed = 6});
  const auto out = inj.deliver(in);
  EXPECT_EQ(DisorderInjector::measure(out).late_events, 0u);
}

TEST(OutageInjector, ZeroAffectedFractionIsIdentity) {
  const auto in = ordered_events(500);
  OutageInjector inj({.outages = 5, .min_duration = 100, .max_duration = 200,
                      .affected_fraction = 0.0, .seed = 7});
  const auto out = inj.deliver(in);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, in[i].id);
}

TEST(OutageInjector, DeterministicForSeed) {
  const auto in = ordered_events(2'000, 5);
  OutageInjector a({.seed = 9}), b({.seed = 9});
  const auto oa = a.deliver(in);
  const auto ob = b.deliver(in);
  for (std::size_t i = 0; i < oa.size(); ++i) EXPECT_EQ(oa[i].id, ob[i].id);
}

TEST(OutageInjector, EmptyAndInvalidInput) {
  OutageInjector inj({});
  EXPECT_TRUE(inj.deliver({}).empty());
  auto bad = ordered_events(5);
  std::swap(bad[1], bad[3]);
  EXPECT_THROW(inj.deliver(bad), std::invalid_argument);
  EXPECT_THROW(OutageInjector({.min_duration = 0}), std::invalid_argument);
  EXPECT_THROW(OutageInjector({.min_duration = 10, .max_duration = 5}),
               std::invalid_argument);
  EXPECT_THROW(OutageInjector({.affected_fraction = 1.5}), std::invalid_argument);
}

TEST(OutageInjector, EnginesStayExactThroughOutages) {
  SyntheticWorkload wl({.num_events = 4'000, .num_types = 3, .key_cardinality = 10,
                        .mean_gap = 4, .seed = 77});
  const auto ordered = wl.generate();
  OutageInjector inj({.outages = 5, .min_duration = 200, .max_duration = 700,
                      .affected_fraction = 0.4, .seed = 13});
  const auto arrivals = inj.deliver(ordered);
  ASSERT_GT(DisorderInjector::measure(arrivals).late_events, 100u);

  for (const std::string& query :
       {wl.seq_query(3, true, 300), wl.negation_query(300)}) {
    const CompiledQuery q = compile_query(query, wl.registry());
    EngineOptions opt;
    opt.slack = inj.slack_bound();
    expect_exact(EngineKind::kOoo, q, arrivals, opt, "outage ooo");
    expect_exact(EngineKind::kKSlackInOrder, q, arrivals, opt, "outage kslack");
  }
}

TEST(OutageInjector, BurstDisorderIsDenserThanJitter) {
  // Same late-event budget, but outage lateness concentrates near the
  // outage duration while jitter spreads uniformly — the shapes differ.
  const auto in = ordered_events(10'000, 5);
  OutageInjector outage({.outages = 2, .min_duration = 500, .max_duration = 500,
                         .affected_fraction = 0.5, .seed = 21});
  const auto burst = outage.deliver(in);
  const auto stats = DisorderInjector::measure(burst);
  // Two 500-tick windows over a gap-5 stream hold ~100 events each, half
  // of them affected → ≈100 late events concentrated in two bursts.
  EXPECT_GT(stats.late_events, 60u);
  EXPECT_LT(stats.late_events, 140u);
  EXPECT_LE(stats.max_lateness, 500);
  EXPECT_GE(stats.max_lateness, 400);  // someone waited nearly the full outage
}

}  // namespace
}  // namespace oosp
