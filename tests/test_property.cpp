// Property tests: every correctness-preserving engine configuration must
// reproduce the oracle's result set exactly, across a grid of queries ×
// disorder levels × engine options. This is the suite that pins the core
// claim of the reproduction: the native OOO engine is exact under any
// bounded disorder, with every optimization enabled or disabled.
#include <gtest/gtest.h>

#include <sstream>

#include "engine_test_util.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::expect_exact;

struct PropertyCase {
  std::string label;
  std::string query;       // built against SyntheticWorkload's registry
  double ooo_fraction;
  LatencyKind latency;
  Timestamp max_delay;
  std::size_t events;
};

std::ostream& operator<<(std::ostream& os, const PropertyCase& c) { return os << c.label; }

class EngineProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EngineProperty, CorrectEnginesAreExact) {
  const PropertyCase& pc = GetParam();
  SyntheticWorkload wl({.num_events = pc.events,
                        .num_types = 4,
                        .key_cardinality = 8,
                        .mean_gap = 4,
                        .seed = 1234});
  const auto ordered = wl.generate();
  LatencyModel model;
  switch (pc.latency) {
    case LatencyKind::kUniform: model = LatencyModel::uniform(pc.max_delay); break;
    case LatencyKind::kPareto: model = LatencyModel::pareto(2.0, 1.4, pc.max_delay); break;
    case LatencyKind::kFixed: model = LatencyModel::fixed(pc.max_delay); break;
    case LatencyKind::kNormal:
      model = LatencyModel::normal(pc.max_delay / 2.0, pc.max_delay / 4.0, pc.max_delay);
      break;
    case LatencyKind::kNone: model = LatencyModel::none(); break;
  }
  DisorderInjector inj(model, pc.ooo_fraction, 555);
  const auto arrivals = inj.deliver(ordered);
  const CompiledQuery q = compile_query(pc.query, wl.registry());

  // Native OOO engine under every option combination.
  for (const bool partition : {true, false}) {
    for (const std::size_t purge : {std::size_t{1}, std::size_t{32}, std::size_t{0}}) {
      EngineOptions opt;
      opt.slack = inj.slack_bound();
      opt.partition_by_key = partition;
      opt.purge_period = purge;
      std::ostringstream ctx;
      ctx << "ooo partition=" << partition << " purge=" << purge;
      expect_exact(EngineKind::kOoo, q, arrivals, opt, ctx.str().c_str());
    }
  }
  // Conventional buffered fix.
  EngineOptions bopt;
  bopt.slack = inj.slack_bound();
  expect_exact(EngineKind::kKSlackInOrder, q, arrivals, bopt, "kslack+inorder");

  // Aggressive policy: the NET result (emissions minus retractions) must
  // equal the oracle set.
  {
    EngineOptions aopt = bopt;
    aopt.aggressive_negation = true;
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, aopt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->net_sorted_keys(), oracle_keys(q, arrivals)) << "aggressive net";
  }

  // Plain in-order engines are exact only when the stream stayed ordered.
  if (pc.ooo_fraction == 0.0) {
    expect_exact(EngineKind::kInOrder, q, arrivals, {}, "inorder on ordered");
    expect_exact(EngineKind::kNfa, q, arrivals, {}, "nfa on ordered");
  }
}

std::vector<PropertyCase> make_cases() {
  SyntheticWorkload proto({.num_types = 4});
  const std::string q2 = proto.seq_query(2, false, 60);
  const std::string q3k = proto.seq_query(3, true, 120);
  const std::string q4k = proto.seq_query(4, true, 200);
  const std::string qneg = proto.negation_query(120);
  const std::string qval = proto.seq_query(3, true, 120, 300);
  std::vector<PropertyCase> cases;
  struct Dis {
    const char* tag;
    double frac;
    LatencyKind kind;
    Timestamp delay;
  };
  const Dis levels[] = {
      {"ordered", 0.0, LatencyKind::kNone, 0},
      {"light_uniform", 0.10, LatencyKind::kUniform, 40},
      {"heavy_uniform", 0.50, LatencyKind::kUniform, 120},
      {"pareto_tail", 0.25, LatencyKind::kPareto, 200},
      {"all_fixed", 1.0, LatencyKind::kFixed, 30},
      {"normal", 0.30, LatencyKind::kNormal, 80},
  };
  const std::pair<const char*, const std::string*> queries[] = {
      {"pair", &q2}, {"keyed3", &q3k}, {"keyed4", &q4k}, {"negation", &qneg},
      {"filtered3", &qval}};
  for (const auto& [qtag, query] : queries) {
    for (const auto& d : levels) {
      cases.push_back(PropertyCase{std::string(qtag) + "_" + d.tag, *query, d.frac,
                                   d.kind, d.delay, 900});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineProperty, ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace oosp
