// Streaming delivery: a Session hands each result to its sink as soon as
// the release bound passes it (runtime/merger.hpp), in canonical order,
// from push()/push_batch() — not at finish(). Pinned here: release is
// exact (everything final goes out, nothing early) at one shard, idle
// shards are ticked so release never waits for close(), not even when an
// idle shard holds an open AGG window or a negation candidate, an AGG
// query whose events pause does not hold the other queries back, a
// retraction never reaches the sink before the match it revokes, the inline shard
// hands a burst of already-final results over at the next call, the merger's
// backlog does not grow with the stream, and under LatePolicy::kAdmit a
// contract violation shows up as a counted late delivery while the net
// result stays what finish-time delivery would have produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/oracle/oracle.hpp"
#include "engine_test_util.hpp"
#include "runtime/merger.hpp"
#include "runtime/session.hpp"
#include "stream/clock.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;

using Keyed = std::pair<QueryId, MatchKey>;

bool canonical_before(const TaggedMatch& a, const TaggedMatch& b) {
  return canonical_compare(CanonicalHead::of(a.query, a.match), a.match,
                           CanonicalHead::of(b.query, b.match), b.match) < 0;
}

// Adjacent pairs that go backwards in the canonical order.
std::size_t inversions(const std::vector<TaggedMatch>& seq) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) n += canonical_before(seq[i], seq[i - 1]);
  return n;
}

// Emissions minus retractions, as a sorted multiset of (query, key).
std::vector<Keyed> net(const std::vector<TaggedMatch>& matches,
                       const std::vector<TaggedMatch>& retracted) {
  std::vector<Keyed> emitted, gone, out;
  for (const TaggedMatch& tm : matches) emitted.emplace_back(tm.query, match_key(tm.match));
  for (const TaggedMatch& tm : retracted) gone.emplace_back(tm.query, match_key(tm.match));
  std::sort(emitted.begin(), emitted.end());
  std::sort(gone.begin(), gone.end());
  std::set_difference(emitted.begin(), emitted.end(), gone.begin(), gone.end(),
                      std::back_inserter(out));
  return out;
}

// ------------------------------------------------ exact release, 1 shard

TEST(StreamingDelivery, OneShardReleasesExactlyTheSealedPrefixAfterEveryPush) {
  SyntheticWorkload wl({.num_events = 1'500, .num_types = 2, .key_cardinality = 8,
                        .mean_gap = 5, .seed = 21});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(60), 0.25, 9);
  const auto arrivals = inj.deliver(ordered);
  const Timestamp slack = inj.slack_bound();
  const std::string text = wl.seq_query(2, true, 100);

  // The whole run's results in canonical order. In contract, a result
  // with last_ts at or below a prefix's seal point is built from events
  // of that prefix only, so the sealed part of this list is exactly what
  // the prefix can have finalized.
  const CompiledQuery q = compile_query(text, wl.registry());
  std::vector<TaggedMatch> expected;
  for (Match& m : oracle_matches(q, arrivals)) expected.push_back(TaggedMatch{0, std::move(m)});
  std::sort(expected.begin(), expected.end(), canonical_before);
  ASSERT_GT(expected.size(), 50u);

  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(wl.registry(),
                  SessionConfig{}.engine(EngineKind::kOoo).slack(slack).query(text), sink);
  Timestamp clock = kMinTimestamp;
  std::size_t released = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    session.push(arrivals[i]);
    clock = std::max(clock, arrivals[i].ts);
    const Timestamp seal = StreamClock::seal_point_at(clock, slack);
    while (released < expected.size() && expected[released].match.last_ts() <= seal)
      ++released;
    const auto& got = sink->matches();
    ASSERT_EQ(got.size(), released) << "after push " << i << " (seal point " << seal << ")";
    for (std::size_t k = 0; k < released; ++k)
      ASSERT_EQ(match_key(got[k].match), match_key(expected[k].match))
          << "after push " << i << ", position " << k;
  }
  session.close();
  ASSERT_EQ(sink->matches().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(match_key(sink->matches()[k].match), match_key(expected[k].match)) << k;
}

// ------------------------------------------------------- idle shards

// A/B keys that all hash away from shard `idle` of `shards`.
std::vector<std::int64_t> keys_avoiding(std::size_t idle, std::size_t shards, std::size_t n) {
  std::vector<std::int64_t> keys;
  ValueHasher hasher;
  for (std::int64_t k = 0; keys.size() < n; ++k)
    if (hasher(Value(k)) % shards != idle) keys.push_back(k);
  return keys;
}

TEST(StreamingDelivery, IdleShardDoesNotHoldReleaseUntilClose) {
  const TypeRegistry reg = make_abcd_registry();
  const std::vector<std::int64_t> keys = keys_avoiding(3, 4, 6);
  // Matches early on; afterwards only events that complete nothing.
  std::vector<Event> head;
  EventId id = 0;
  Timestamp ts = 0;
  for (int round = 0; round < 20; ++round) {
    for (const std::int64_t k : keys) {
      head.push_back(make_event(reg, "A", id++, ts += 3, k));
      head.push_back(make_event(reg, "B", id++, ts += 3, k));
    }
  }
  const std::string text = "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";
  const std::size_t expected = oracle_keys(compile_query(text, reg), head).size();
  ASSERT_GT(expected, 0u);

  // Filler events: `D` (no query uses it: broadcast to every shard) or
  // keyed `A` with no `B` to complete it (never reaches shard 3, so only
  // the producer's ticks can move that shard's bound).
  for (const char* filler : {"D", "A"}) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(reg, SessionConfig{}.slack(10).shards(4).query(text), sink);
    ASSERT_EQ(session.shard_count(), 4u);
    for (const Event& e : head) session.push(e);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    Timestamp t = ts;
    EventId fid = id;
    std::size_t k = 0;
    while (sink->matches().empty()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "no match delivered before close() with filler " << filler;
      session.push(make_event(reg, filler, fid++, t += 3, keys[k++ % keys.size()]));
    }
    session.close();
    EXPECT_EQ(sink->matches().size(), expected) << filler;
  }
}

// ------------------------------------------ paused AGG input

TEST(StreamingDelivery, PausedAggQueryDoesNotHoldOtherQueriesBack) {
  const TypeRegistry reg = make_abcd_registry();
  const std::string agg = "AGG count(C) OVER 100 BY k";
  const std::string seq = "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";
  // C (the AGG's only type) arrives until ts 400, then pauses for good;
  // keyed A/B pairs go on to ts ~6,000 on the same keys, so every shard
  // that holds an open window keeps receiving events.
  constexpr std::int64_t kKeys = 8;
  constexpr Timestamp kPause = 400;
  std::vector<Event> stream;
  EventId id = 0;
  Timestamp ts = 0;
  while (ts < 6'000) {
    for (std::int64_t k = 0; k < kKeys; ++k) {
      if (ts < kPause) stream.push_back(make_event(reg, "C", id++, ts += 1, k));
      stream.push_back(make_event(reg, "A", id++, ts += 1, k));
      stream.push_back(make_event(reg, "B", id++, ts += 1, k));
    }
  }
  std::set<std::pair<std::int64_t, Timestamp>> open;  // (key, window) holding a C
  for (const Event& e : stream)
    if (e.type == reg.lookup("C")) open.emplace(e.attrs[0].as_int(), e.ts / 100);
  const std::size_t windows = open.size();
  const std::size_t pairs = oracle_keys(compile_query(seq, reg), stream).size();
  ASSERT_GT(pairs, 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(reg, SessionConfig{}.slack(20).shards(shards).query(agg).query(seq), sink);
    ASSERT_EQ(session.shard_count(), shards);
    for (const Event& e : stream) session.push(e);
    // Every window and every pair that ends well before the stream does
    // is final. Workers deliver asynchronously, so keep the stream moving
    // (A events complete nothing) until they arrive.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto delivered = [&](QueryId q) {
      return static_cast<std::size_t>(std::count_if(
          sink->matches().begin(), sink->matches().end(),
          [q](const TaggedMatch& tm) { return tm.query == q; }));
    };
    std::int64_t k = 0;
    while (delivered(0) < windows || delivered(1) < pairs - kKeys) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "shards=" << shards << ": " << delivered(0) << " of " << windows
          << " windows and " << delivered(1) << " of " << pairs
          << " pairs delivered before close()";
      session.push(make_event(reg, "A", id++, ts += 1, k++ % kKeys));
    }
    session.close();
    EXPECT_EQ(delivered(0), windows) << "shards=" << shards;
    EXPECT_EQ(delivered(1), pairs) << "shards=" << shards;
  }
}

// ---------------------------- idle shard holding a window or a candidate

TEST(StreamingDelivery, IdleShardSealsItsWindowOrHeldMatchBeforeClose) {
  // The idle shard's only state is an open AGG window (one C event) or a
  // held negation candidate (two C events); every later event is a keyed
  // A/B pair that never routes there, so only ticks move its clock. Until
  // the ticks reach its engines, that state caps its bound, and every
  // result of every query waits for close().
  const TypeRegistry reg = make_abcd_registry();
  const std::vector<std::int64_t> keys = keys_avoiding(3, 4, 40);
  std::int64_t idle_key = 0;
  while (ValueHasher{}(Value(idle_key)) % 4 != 3) ++idle_key;
  const std::string seq = "PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 50";
  const struct {
    std::string query;
    std::size_t c_events;
  } probes[] = {{"AGG count(C) OVER 100 BY k", 1},
                {"PATTERN SEQ(C a, !D d, C c) WHERE a.k == d.k AND a.k == c.k WITHIN 50", 2}};
  for (const auto& probe : probes) {
    std::vector<Event> head;
    EventId id = 0;
    Timestamp ts = 0;
    for (std::size_t i = 0; i < probe.c_events; ++i)
      head.push_back(make_event(reg, "C", id++, ts += 1, idle_key));
    for (std::size_t i = 0; i < 10'000; ++i) {
      const std::int64_t k = keys[i % keys.size()];
      head.push_back(make_event(reg, "A", id++, ts += 1, k));
      head.push_back(make_event(reg, "B", id++, ts += 1, k));
    }
    const std::size_t pairs = oracle_keys(compile_query(seq, reg), head).size();
    ASSERT_GT(pairs, 0u);

    const auto sink = std::make_shared<CollectingTaggedSink>();
    Session session(reg, SessionConfig{}.slack(10).shards(4).query(probe.query).query(seq), sink);
    ASSERT_EQ(session.shard_count(), 4u);
    for (const Event& e : head) session.push(e);
    const auto delivered = [&](QueryId q) {
      return static_cast<std::size_t>(std::count_if(
          sink->matches().begin(), sink->matches().end(),
          [q](const TaggedMatch& tm) { return tm.query == q; }));
    };
    // Workers deliver asynchronously: keep the stream moving with A
    // events that complete nothing and never reach the idle shard.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::size_t k = 0;
    while (delivered(0) < 1 || delivered(1) < pairs) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << probe.query << ": " << delivered(0) << " of 1 idle-shard result and "
          << delivered(1) << " of " << pairs << " pairs delivered before close()";
      session.push(make_event(reg, "A", id++, ts += 1, keys[k++ % keys.size()]));
    }
    session.close();
    EXPECT_EQ(delivered(0), 1u) << probe.query;
    EXPECT_EQ(delivered(1), pairs) << probe.query;
    EXPECT_EQ(inversions(sink->matches()), 0u) << probe.query;
  }
}

// ------------------------------------------ inline burst hold

TEST(StreamingDelivery, InlineShardHoldsABurstForTheNextCall) {
  // 64 keys, one A per key per 64-tick tumbling window: the event that
  // passes a window end by the slack seals 64 windows at once — more
  // than the inline shard delivers inside one push (16 per event).
  const TypeRegistry reg = make_abcd_registry();
  constexpr std::int64_t kKeys = 64;
  constexpr Timestamp kSlack = 5;
  std::vector<Event> stream;
  for (Timestamp ts = 0; ts < 64 * 40; ++ts)
    stream.push_back(make_event(reg, "A", static_cast<EventId>(ts + 1), ts, ts % kKeys));
  const auto sink = std::make_shared<CollectingTaggedSink>();
  Session session(reg, SessionConfig{}.slack(kSlack).query("AGG count(A) OVER 64 BY k"), sink);
  std::vector<std::size_t> after;  // results delivered after each push
  for (const Event& e : stream) {
    session.push(e);
    after.push_back(sink->matches().size());
  }
  std::size_t bursts = 0;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    // Window [64j, 64j + 64) seals when the clock reaches 64j + 64 + K.
    if (stream[i].ts < 64 + kSlack || (stream[i].ts - kSlack) % 64 != 0) continue;
    ++bursts;
    EXPECT_EQ(after[i], i == 0 ? 0 : after[i - 1]) << "burst delivered in its sealing push " << i;
    EXPECT_EQ(after[i + 1], after[i] + kKeys) << "burst not delivered by the next push " << i;
  }
  EXPECT_GT(bursts, 30u);
  session.close();
  EXPECT_EQ(sink->matches().size(), 40u * kKeys);
  EXPECT_EQ(inversions(sink->matches()), 0u);
}

// ------------------------------------- retraction after its match

// Replays the sink's sequence into a set of live results, as a sink that
// inserts on match and erases on retract would. An orphan is a
// retraction of nothing live (it came before its match); a double is a
// match whose (query, key) is already live (a revised AGG window's new
// result came before the retraction of the old one). Either leaves such a
// sink holding the wrong results.
class RevocationOrderSink final : public TaggedSink {
 public:
  void on_match(QueryId query, Match&& m) override {
    if (!live_.insert({query, match_key(m)}).second) ++doubles_;
  }
  void on_retract(QueryId query, const Match& m) override {
    ++retractions_;
    if (live_.erase({query, match_key(m)}) == 0) ++orphans_;
  }
  std::size_t retractions() const { return retractions_; }
  std::size_t orphans() const { return orphans_; }
  std::size_t doubles() const { return doubles_; }
  std::vector<Keyed> live() const { return {live_.begin(), live_.end()}; }

 private:
  std::set<Keyed> live_;
  std::size_t retractions_ = 0;
  std::size_t orphans_ = 0;
  std::size_t doubles_ = 0;
};

TEST(StreamingDelivery, RetractionAlwaysFollowsTheMatchItRevokes) {
  for (const std::uint64_t seed : {8, 9, 10}) {
    // Few keys: a 3-step SEQ finalizes many matches per event, so a call
    // often delivers a revoked match and its retraction together; enough
    // keys that one event seals a burst of AGG windows, which the inline
    // shard holds for the next call.
    SyntheticWorkload wl({.num_events = 3'000, .num_types = 3, .key_cardinality = 24,
                          .mean_gap = 5, .seed = seed});
    const auto ordered = wl.generate();
    DisorderInjector inj(LatencyModel::uniform(300), 0.3, seed);
    const auto arrivals = inj.deliver(ordered);
    // Aggressive negation retracts; the speculative AGG retracts and
    // re-emits, sealing a slide of windows at a time.
    const std::vector<std::string> texts{wl.negation_query(200),
                                         "AGG sum(T0.val) OVER 400 SLIDE 100 BY key",
                                         wl.seq_query(3, true, 250)};
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const bool ragged : {false, true}) {
        std::ostringstream where;
        where << "seed=" << seed << " shards=" << shards << " batch=" << (ragged ? "1-300" : "1");
        std::vector<Keyed> nets[2];
        for (const bool aggressive : {false, true}) {
          const auto sink = std::make_shared<RevocationOrderSink>();
          EngineOptions opt;
          opt.slack = inj.slack_bound();
          opt.aggressive_negation = aggressive;
          SessionConfig cfg;
          cfg.engine(EngineKind::kOoo).options(opt).shards(shards);
          for (const std::string& t : texts) cfg.query(t);
          Session session(wl.registry(), cfg, sink);
          ASSERT_EQ(session.shard_count(), shards);
          Rng rng(seed);
          for (std::size_t i = 0; i < arrivals.size();) {
            const std::size_t n =
                ragged ? std::min<std::size_t>(rng.uniform_int(1, 300), arrivals.size() - i) : 1;
            session.push_batch(std::span<const Event>(arrivals.data() + i, n));
            i += n;
          }
          session.close();
          EXPECT_EQ(sink->orphans(), 0u)
              << where.str() << " aggressive=" << aggressive << ": " << sink->orphans() << " of "
              << sink->retractions() << " retractions reached the sink before their match";
          EXPECT_EQ(sink->doubles(), 0u)
              << where.str() << " aggressive=" << aggressive
              << ": a result was re-emitted before its retraction";
          if (aggressive) {
            EXPECT_GT(sink->retractions(), 0u) << where.str();
          }
          nets[aggressive] = sink->live();
        }
        EXPECT_EQ(nets[1], nets[0]) << where.str();
      }
    }
  }
}

// ------------------------------------------------ bounded backlog

struct Occupancy {
  std::int64_t peak = 0;  // largest sampled oosp_shard_merge_occupancy
  std::size_t delivered = 0;
};

Occupancy merge_occupancy(std::size_t events, std::size_t shards) {
  SyntheticWorkload wl({.num_events = events, .num_types = 3, .key_cardinality = 16,
                        .mean_gap = 5, .seed = 5});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(100), 0.2, 3);
  const auto arrivals = inj.deliver(ordered);
  const auto sink = std::make_shared<CollectingTaggedSink>();
  // Results wait in the merger for the slowest shard's bound, and a
  // shard's ring lets it trail the producer by up to its capacity: the
  // backlog is bounded by the slack window plus the rings, not by the
  // stream.
  Session session(wl.registry(),
                  SessionConfig{}
                      .slack(inj.slack_bound())
                      .shards(shards)
                      .queue_capacity(64)
                      .query(wl.seq_query(3, true, 300))
                      .query(wl.negation_query(300)),
                  sink);
  Occupancy out;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    session.push(arrivals[i]);
    if (i % 32 == 0)
      out.peak =
          std::max(out.peak, session.metrics_snapshot().gauge("oosp_shard_merge_occupancy"));
  }
  session.close();
  out.delivered = sink->matches().size();
  return out;
}

TEST(StreamingDelivery, MergeOccupancyDoesNotGrowWithTheStream) {
  // One shard releases deterministically: the backlog's peak is a
  // property of the slack window, the same for 4x the stream.
  const Occupancy short_run = merge_occupancy(5'000, 1);
  const Occupancy long_run = merge_occupancy(20'000, 1);
  ASSERT_GT(short_run.peak, 0);
  EXPECT_LE(static_cast<double>(long_run.peak), 1.5 * static_cast<double>(short_run.peak))
      << short_run.peak << " -> " << long_run.peak;
  // Four shards add how far the slowest worker trails (timing-dependent,
  // but capped by the rings): far below the run's output.
  const Occupancy sharded = merge_occupancy(20'000, 4);
  EXPECT_GT(sharded.peak, 0);
  EXPECT_LT(static_cast<std::size_t>(sharded.peak), sharded.delivered / 10)
      << sharded.peak << " of " << sharded.delivered;
}

// -------------------------------------- late deliveries under kAdmit

struct Delivered {
  std::vector<TaggedMatch> matches;
  std::vector<TaggedMatch> retracted;
  std::uint64_t late = 0;
  std::uint64_t violations = 0;
};

Delivered run_admit(const SyntheticWorkload& wl, const std::vector<Event>& arrivals,
                    const std::vector<std::string>& texts, Timestamp slack,
                    std::size_t shards) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  EngineOptions opt;
  opt.slack = slack;
  opt.late_policy = LatePolicy::kAdmit;
  SessionConfig cfg;
  // Small rings keep every worker close behind the producer, so the
  // released bound trails the stream by less than the violations' lateness.
  cfg.engine(EngineKind::kOoo).options(opt).shards(shards).queue_capacity(16);
  for (const std::string& t : texts) cfg.query(t);
  Session session(wl.registry(), cfg, sink);
  EXPECT_EQ(session.shard_count(), shards);
  for (const Event& e : arrivals) session.push(e);
  session.close();
  return {sink->matches(), sink->retracted(),
          session.metrics_snapshot().counter("oosp_session_late_deliveries_total"),
          session.total_stats().contract_violations};
}

// What finish-time delivery would have produced: the same engines per
// shard, fed the events and ticks the Session routes to them, emissions
// kept as they come.
std::vector<Keyed> finish_time_net(const SyntheticWorkload& wl,
                                   const std::vector<Event>& arrivals,
                                   const std::vector<std::string>& texts, Timestamp slack,
                                   std::size_t shards) {
  EngineOptions opt;
  opt.slack = slack;
  opt.late_policy = LatePolicy::kAdmit;
  std::vector<ShardQuerySpec> specs;
  for (const std::string& t : texts)
    specs.push_back(ShardQuerySpec{compile_query_shared(t, wl.registry()), EngineKind::kOoo, opt});
  const auto partition = PartitionSpec::build(specs, wl.registry());
  EXPECT_TRUE(partition.has_value());
  const auto sink = std::make_shared<CollectingTaggedSink>();
  std::vector<std::unique_ptr<MultiQueryRunner>> runners;
  for (std::size_t s = 0; s < shards; ++s) {
    runners.push_back(std::make_unique<MultiQueryRunner>(wl.registry(), sink));
    for (const ShardQuerySpec& spec : specs)
      runners.back()->add_query(spec.query, spec.kind, spec.options);
  }
  ValueHasher hasher;
  // Worker shards get a tick right behind the event that leaves them
  // more than the slack behind the stream, once per slack of stream time.
  std::vector<Timestamp> routed(shards, kMinTimestamp);
  Timestamp clock = kMinTimestamp, next_sweep = kMinTimestamp;
  const Timestamp gap = std::max<Timestamp>(1, slack);
  for (const Event& e : arrivals) {
    clock = std::max(clock, e.ts);
    const std::size_t slot = shards > 1 ? partition->slot_for(e.type) : 0;
    if (shards > 1 && (slot == PartitionSpec::kTickOnly || slot >= e.attrs.size())) {
      for (auto& r : runners) r->on_event(e);
      for (Timestamp& t : routed) t = std::max(t, e.ts);
    } else {
      const std::size_t s = shards > 1 ? hasher(e.attrs[slot]) % shards : 0;
      runners[s]->on_event(e);
      routed[s] = std::max(routed[s], e.ts);
    }
    if (shards == 1 || clock < next_sweep) continue;
    next_sweep = clock + gap;
    for (std::size_t s = 0; s < shards; ++s) {
      if (routed[s] >= clock - gap) continue;
      runners[s]->on_tick(clock);
      routed[s] = clock;
    }
  }
  for (auto& r : runners) r->finish();
  return net(sink->matches(), sink->retracted());
}

TEST(StreamingDelivery, LateDeliveriesCountContractViolationsUnderAdmit) {
  SyntheticWorkload wl({.num_events = 3'000, .num_types = 3, .key_cardinality = 12,
                        .mean_gap = 5, .seed = 44});
  const auto ordered = wl.generate();
  DisorderInjector inj(LatencyModel::uniform(600), 0.3, 17);
  const auto arrivals = inj.deliver(ordered);
  const Timestamp true_bound = inj.slack_bound();
  const std::vector<std::string> texts{wl.seq_query(2, true, 1000), wl.negation_query(1000)};

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // In contract: nothing late, and the sequence is canonical.
    const Delivered ok = run_admit(wl, arrivals, texts, true_bound, shards);
    ASSERT_GT(ok.matches.size(), 50u);
    EXPECT_EQ(ok.violations, 0u) << "shards=" << shards;
    EXPECT_EQ(ok.late, 0u) << "shards=" << shards;
    EXPECT_EQ(inversions(ok.matches), 0u) << "shards=" << shards;
    EXPECT_EQ(net(ok.matches, ok.retracted),
              finish_time_net(wl, arrivals, texts, true_bound, shards))
        << "shards=" << shards;

    // A slack far below the true bound: violations are admitted, results
    // they complete arrive below the released bound and go out late.
    const Timestamp tight = true_bound / 20;
    const Delivered bad = run_admit(wl, arrivals, texts, tight, shards);
    EXPECT_GT(bad.violations, 0u) << "shards=" << shards;
    EXPECT_GT(bad.late, 0u) << "shards=" << shards;
    EXPECT_GE(bad.late, inversions(bad.matches)) << "shards=" << shards;
    EXPECT_EQ(net(bad.matches, bad.retracted),
              finish_time_net(wl, arrivals, texts, tight, shards))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace oosp
