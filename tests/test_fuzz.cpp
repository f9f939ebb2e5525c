// Randomized differential testing, two suites. FuzzSweep: for a sweep of
// seeds, generate a random query and a random disorder regime, then
// require the native OOO engine (with per-seed-rotated options), the
// buffered engine and — via net results — the aggressive policy to
// reproduce the oracle exactly. SessionLattice: for a sweep of seeds,
// draw a query mix and one point of the Session configuration lattice
// (shards × batching × scan sharing × late policy × negation policy ×
// recovery), and require every query's net delivery to equal its oracle,
// in canonical order, with every retraction after the match it revokes.
// Any divergence prints the full reproduction recipe (all inputs derive
// from the seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <tuple>

#include "engine_test_util.hpp"
#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "stream/faults.hpp"
#include "stream/outage.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::run_engine;

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, EnginesMatchOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  // Random workload shape.
  SyntheticConfig cfg;
  cfg.num_events = 1'200 + static_cast<std::size_t>(rng.uniform_int(0, 1'200));
  cfg.num_types = static_cast<std::size_t>(rng.uniform_int(2, 5));
  cfg.key_cardinality = rng.uniform_int(2, 40);
  cfg.key_skew = rng.bernoulli(0.5) ? rng.uniform(0.5, 1.5) : 0.0;
  cfg.mean_gap = rng.uniform_int(2, 8);
  cfg.seed = seed;
  SyntheticWorkload wl(cfg);
  const auto ordered = wl.generate();

  // Random query over that workload.
  const Timestamp window = rng.uniform_int(40, 400);
  const std::size_t max_len = std::min<std::size_t>(cfg.num_types, 4);
  std::string query_text;
  if (cfg.num_types >= 3 && rng.bernoulli(0.35)) {
    query_text = wl.negation_query(window);
  } else {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(max_len)));
    const bool keyed = rng.bernoulli(0.7);
    const std::int64_t min_val = rng.bernoulli(0.3) ? rng.uniform_int(100, 700) : -1;
    query_text = wl.seq_query(len, keyed, window, min_val);
  }

  // Random disorder: jitter or partial outage.
  std::vector<Event> arrivals;
  Timestamp slack = 0;
  if (rng.bernoulli(0.3)) {
    OutageInjector inj({.outages = static_cast<std::size_t>(rng.uniform_int(1, 4)),
                        .min_duration = rng.uniform_int(50, 150),
                        .max_duration = rng.uniform_int(150, 600),
                        .affected_fraction = rng.uniform(0.2, 0.8),
                        .seed = seed + 7});
    arrivals = inj.deliver(ordered);
    slack = inj.slack_bound();
  } else {
    const Timestamp max_delay = rng.uniform_int(20, 500);
    LatencyModel model;
    switch (rng.uniform_int(0, 2)) {
      case 0: model = LatencyModel::uniform(max_delay); break;
      case 1: model = LatencyModel::pareto(2.0, 1.3, max_delay); break;
      default:
        model = LatencyModel::normal(max_delay / 2.0, max_delay / 3.0, max_delay);
    }
    DisorderInjector inj(model, rng.uniform(0.05, 0.6), seed + 7);
    arrivals = inj.deliver(ordered);
    slack = inj.slack_bound();
  }

  const CompiledQuery q = compile_query(query_text, wl.registry());
  const auto truth = oracle_keys(q, arrivals);

  std::ostringstream recipe;
  recipe << "seed=" << seed << " query=\"" << query_text << "\" events="
         << arrivals.size() << " slack=" << slack << " expected=" << truth.size();

  // Rotate engine options by seed so the whole grid gets fuzzed over the
  // suite without running every combination on every seed.
  EngineOptions opt;
  opt.slack = slack;
  opt.partition_by_key = (seed % 2) == 0;
  opt.purge_period = (seed % 5 == 0) ? 1 : (seed % 5 == 1 ? 0 : 32);

  {
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->sorted_keys(), truth) << "ooo conservative, " << recipe.str();
    EXPECT_EQ(engine->stats_snapshot().contract_violations, 0u) << recipe.str();
  }
  {
    EngineOptions aopt = opt;
    aopt.aggressive_negation = true;
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, aopt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->net_sorted_keys(), truth) << "ooo aggressive, " << recipe.str();
  }
  {
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kKSlackInOrder, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->sorted_keys(), truth) << "kslack, " << recipe.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range<std::uint64_t>(1, 41));

// ------------------------------------------------------ Session lattice

// Net result of one query: emissions minus retractions (multisets of
// match keys), sorted.
std::vector<MatchKey> net_keys(const CollectingTaggedSink& sink, QueryId q) {
  std::vector<MatchKey> gone;
  for (const TaggedMatch& tm : sink.retracted())
    if (tm.query == q) gone.push_back(match_key(tm.match));
  std::sort(gone.begin(), gone.end());
  const std::vector<MatchKey> kept = sink.keys_for(q);
  std::vector<MatchKey> net;
  std::set_difference(kept.begin(), kept.end(), gone.begin(), gone.end(),
                      std::back_inserter(net));
  return net;
}

// The Session's delivery order: (seal_ts = last_ts, query, key).
bool canonically_ordered(const std::vector<TaggedMatch>& out) {
  return std::is_sorted(out.begin(), out.end(),
                        [](const TaggedMatch& a, const TaggedMatch& b) {
                          return std::make_tuple(a.match.last_ts(), a.query,
                                                 match_key(a.match)) <
                                 std::make_tuple(b.match.last_ts(), b.query,
                                                 match_key(b.match));
                        });
}

// Collects like CollectingTaggedSink and counts orphan retractions: those
// whose (query, key) has no delivered, unretracted match before them.
class RevocationOrderSink final : public TaggedSink {
 public:
  void on_match(QueryId query, Match&& m) override {
    ++live_[{query, match_key(m)}];
    collected.on_match(query, std::move(m));
  }
  void on_retract(QueryId query, const Match& m) override {
    std::size_t& live = live_[{query, match_key(m)}];
    if (live == 0)
      ++orphans;
    else
      --live;
    collected.on_retract(query, m);
  }

  CollectingTaggedSink collected;
  std::size_t orphans = 0;

 private:
  std::map<std::pair<QueryId, MatchKey>, std::size_t> live_;
};

class SessionLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionLattice, NetDeliveryMatchesOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0xd1b54a32d192ed03ull + 5);

  // One point of the configuration lattice.
  const std::size_t shards = rng.bernoulli(0.5) ? 4 : 1;
  const bool ragged = rng.bernoulli(0.5);
  const bool share = rng.bernoulli(0.5);
  const auto policy = static_cast<LatePolicy>(rng.uniform_int(0, 2));
  const bool aggressive = rng.bernoulli(0.5);
  // Recovery runs only in the sharded runtime.
  const bool recovery = shards > 1 && rng.bernoulli(0.5);

  SyntheticConfig cfg;
  cfg.num_events = 800 + static_cast<std::size_t>(rng.uniform_int(0, 1200));
  cfg.num_types = static_cast<std::size_t>(rng.uniform_int(3, 4));
  cfg.key_cardinality = rng.uniform_int(3, 24);
  cfg.mean_gap = rng.uniform_int(2, 8);
  cfg.seed = seed;
  SyntheticWorkload wl(cfg);
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(rng.uniform_int(20, 300)),
                       rng.uniform(0.05, 0.5), seed + 11);
  auto arrivals = inj.deliver(ordered);
  const Timestamp slack = inj.slack_bound();

  // Half the sharded points silence one key, and every key on its shard,
  // for three slacks of stream time: their events move to a key of
  // another shard, so the shard idles and only ticks seal what it holds.
  // The draws come from a stream of their own, so every draw below and
  // every batch size stays as it was.
  Rng quiet_rng(seed * 0x9e3779b97f4a7c15ull + 29);
  std::ostringstream quiet;
  if (shards > 1 && quiet_rng.bernoulli(0.5)) {
    const auto shard_of = [shards](std::int64_t k) { return ValueHasher{}(Value(k)) % shards; };
    const std::size_t idle = shard_of(quiet_rng.uniform_int(0, cfg.key_cardinality - 1));
    std::int64_t other = 0;
    while (shard_of(other) == idle) ++other;
    const Timestamp from = quiet_rng.uniform_int(ordered.front().ts, ordered.back().ts);
    const Timestamp to = from + 3 * slack + 1;
    for (Event& e : arrivals)
      if (e.ts >= from && e.ts < to && shard_of(e.attrs[0].as_int()) == idle)
        e.attrs[0] = Value(other);
    quiet << " quiet=[" << from << "," << to << ") on shard " << idle;
  }

  // 2-4 queries sharing the first type T0. A sharded point draws keyed
  // forms only: an unkeyed query would make the Session fall back to one
  // shard.
  struct SeqDraw {
    std::size_t len;
    bool keyed;
    Timestamp window;
  };
  std::vector<std::string> texts;
  std::vector<SeqDraw> seq_draws;
  const auto n_queries = static_cast<std::size_t>(rng.uniform_int(2, 4));
  for (std::size_t i = 0; i < n_queries; ++i) {
    const Timestamp window = rng.uniform_int(40, 300);
    if (rng.bernoulli(0.25)) {
      texts.push_back(wl.negation_query(window));
      continue;
    }
    const auto len = static_cast<std::size_t>(rng.uniform_int(2, 3));
    const bool keyed = shards > 1 || rng.bernoulli(0.6);
    const std::int64_t min_val = rng.bernoulli(0.4) ? rng.uniform_int(100, 800) : -1;
    texts.push_back(wl.seq_query(len, keyed, window, min_val));
    seq_draws.push_back(SeqDraw{len, keyed, window});
  }

  const std::size_t kill_at =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(arrivals.size()) - 1));
  const std::size_t checkpoint_every = static_cast<std::size_t>(rng.uniform_int(5, 60));

  // Half the points append a threshold sibling of a drawn SEQ query: same
  // length, window and key, a new a0.val bound. In a shared scan the two
  // form one construction class, which then meets kills, aggressive
  // negation and late policies. The sibling draws from a stream of its
  // own, so every draw above and every batch size below stays as it was.
  Rng sibling_rng(seed * 0x9e3779b97f4a7c15ull + 17);
  if (!seq_draws.empty() && sibling_rng.bernoulli(0.5)) {
    const SeqDraw& d = seq_draws[static_cast<std::size_t>(
        sibling_rng.uniform_int(0, static_cast<std::int64_t>(seq_draws.size()) - 1))];
    texts.push_back(wl.seq_query(d.len, d.keyed, d.window, sibling_rng.uniform_int(0, 999)));
  }

  std::ostringstream recipe;
  recipe << "seed=" << seed << " shards=" << shards << quiet.str()
         << " batch=" << (ragged ? "1-300" : "1")
         << " share_scans=" << share << " late_policy=" << to_string(policy)
         << " aggressive=" << aggressive << " recovery=" << recovery;
  if (recovery)
    recipe << " (checkpoint_every=" << checkpoint_every
           << " kill id=" << arrivals[kill_at].id << ")";
  recipe << " events=" << arrivals.size() << " slack=" << slack << " queries=[";
  for (const std::string& t : texts) recipe << "\"" << t << "\" ";
  recipe << "]";

  EngineOptions opt;
  opt.slack = slack;
  opt.late_policy = policy;
  opt.aggressive_negation = aggressive;
  SessionConfig sc;
  sc.engine(EngineKind::kOoo).options(opt).shards(shards).share_scans(share).metrics(false);
  for (const std::string& t : texts) sc.query(t);
  WorkerKillFault fault({arrivals[kill_at].id});
  if (recovery) {
    sc.checkpoint_every(checkpoint_every)
        .max_restarts(10)
        .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0))
        .kill_hook(fault.hook());
  }
  const auto order = std::make_shared<RevocationOrderSink>();
  const CollectingTaggedSink* sink = &order->collected;
  Session session(wl.registry(), sc, order);
  ASSERT_EQ(session.shard_count(), shards) << recipe.str();
  if (ragged) {
    std::size_t i = 0;
    while (i < arrivals.size()) {
      const std::size_t n = std::min(static_cast<std::size_t>(rng.uniform_int(1, 300)),
                                     arrivals.size() - i);
      session.push_batch(std::span<const Event>(arrivals.data() + i, n));
      i += n;
    }
  } else {
    for (const Event& e : arrivals) session.push(e);
  }
  session.close();

  for (QueryId q = 0; q < texts.size(); ++q) {
    const CompiledQuery cq = compile_query(texts[q], wl.registry());
    EXPECT_EQ(net_keys(*sink, q), oracle_keys(cq, arrivals))
        << "query " << q << ", " << recipe.str();
  }
  EXPECT_TRUE(canonically_ordered(sink->matches())) << recipe.str();
  EXPECT_TRUE(canonically_ordered(sink->retracted())) << recipe.str();
  EXPECT_EQ(order->orphans, 0u) << "retraction before its match, " << recipe.str();
  EXPECT_TRUE(session.quarantined().empty()) << recipe.str();
  if (recovery) {
    EXPECT_EQ(fault.victims_remaining(), 0u) << "kill never fired, " << recipe.str();
    EXPECT_GE(session.restarts(), 1u) << recipe.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionLattice, ::testing::Range<std::uint64_t>(1, 97));

}  // namespace
}  // namespace oosp
