// Batched ingestion (Session::push_batch → ShardedRunner::on_batch →
// SpscQueue in-place ops → engine on_batch): SPSC bulk and in-place
// transfer units, an allocation-free producer hand-off, allocation-free
// SSC keyed state on sparse keys, the event-arena recycling contract,
// batch-vs-per-event bit-identical output across
// engine kinds / keying / batch sizes, kill-at-batch-boundary recovery,
// checkpoint/restore mid-stream under batched feeding, and the
// aggressive-negation retraction-semantics pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/event_arena.hpp"
#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "engine_test_util.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "stream/faults.hpp"
#include "workload/synthetic.hpp"

// Heap allocations made by the calling thread. This executable replaces
// the global operator new to count them (the array and nothrow forms
// forward to it; over-aligned allocations are not counted), so a test can
// assert that a code path allocates nothing on the thread that runs it.
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

// Out of line, so the compiler never sees a new-expression paired with a
// bare free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::make_test_engine;

// ----------------------------------------------------------- SPSC bulk

// The ring's two transfer styles behind one push/pop interface, so one
// model check covers both: by value (try_push_n / try_pop_n) and in
// place (try_copy_in_n / peek + release).
enum class SpscOps { kMove, kInPlace };

std::size_t push_via(SpscOps ops, SpscQueue<int>& q, std::vector<int>& src) {
  if (ops == SpscOps::kMove) return q.try_push_n(std::span<int>(src));
  std::vector<const int*> ptrs;
  for (const int& v : src) ptrs.push_back(&v);
  return q.try_copy_in_n(ptrs);
}

std::size_t pop_via(SpscOps ops, SpscQueue<int>& q, int* out, std::size_t max) {
  if (ops == SpscOps::kMove) return q.try_pop_n(out, max);
  // A peeked run stops at the ring's physical end, so a wrapped backlog
  // takes two runs.
  std::size_t got = 0;
  while (got < max) {
    const std::span<int> run = q.peek(max - got);
    if (run.empty()) break;
    std::copy(run.begin(), run.end(), out + got);
    got += run.size();
    q.release(run.size());
  }
  return got;
}

TEST(SpscBulk, RoundTripWithWraparoundMatchesModel) {
  for (const SpscOps ops : {SpscOps::kMove, SpscOps::kInPlace}) {
    SCOPED_TRACE(ops == SpscOps::kMove ? "by value" : "in place");
    SpscQueue<int> q(8);  // power of two; one slot reserved -> 7 usable
    constexpr std::size_t kUsable = 7;
    std::deque<int> model;
    Rng rng(42);
    int next = 0;
    std::vector<int> out(16);
    for (int round = 0; round < 2000; ++round) {
      if (rng.bernoulli(0.55)) {
        std::vector<int> src;
        const auto want = static_cast<std::size_t>(rng.uniform_int(1, 10));
        for (std::size_t i = 0; i < want; ++i) src.push_back(next + static_cast<int>(i));
        const std::size_t pushed = push_via(ops, q, src);
        // Single-threaded: the stale head cache only ever underestimates
        // free space and is refreshed on demand, so a bulk push must
        // accept exactly min(requested, free).
        ASSERT_EQ(pushed, std::min(want, kUsable - model.size()));
        for (std::size_t i = 0; i < pushed; ++i) model.push_back(src[i]);
        next += static_cast<int>(pushed);
      } else {
        const auto max = static_cast<std::size_t>(rng.uniform_int(1, 10));
        const std::size_t popped = pop_via(ops, q, out.data(), max);
        ASSERT_EQ(popped, std::min(max, model.size()));
        for (std::size_t i = 0; i < popped; ++i) {
          ASSERT_EQ(out[i], model.front());
          model.pop_front();
        }
      }
      ASSERT_EQ(q.size_approx(), model.size());
    }
    // FIFO order held across ~2000 mixed transactions including many
    // wrap-arounds (ring is only 8 slots).
  }
}

TEST(SpscBulk, BulkAndInPlaceOpsInterleave) {
  SpscQueue<int> q(4);  // 3 usable
  std::vector<int> src{1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_n(std::span<int>(src)), 3u);  // partial fill
  EXPECT_EQ(q.try_push_n(std::span<int>(src)), 0u);  // full
  const std::span<int> run = q.peek(1);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0], 1);
  q.release(1);
  std::vector<int> out(8);
  EXPECT_EQ(q.try_pop_n(out.data(), out.size()), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(q.try_pop_n(out.data(), out.size()), 0u);  // empty
  EXPECT_TRUE(q.peek(8).empty());
  std::span<int> empty;
  EXPECT_EQ(q.try_push_n(empty), 0u);  // empty request is a no-op
  EXPECT_EQ(q.try_copy_in_n({}), 0u);
  const int seven = 7;
  const int* const one = &seven;
  EXPECT_EQ(q.try_copy_in_n({&one, 1}), 1u);
  EXPECT_EQ(q.try_pop_n(out.data(), out.size()), 1u);
  EXPECT_EQ(out[0], 7);
}

// ------------------------------------------------ SPSC in place, Events

TEST(SpscInPlace, ReusedSlotHoldsExactlyTheNewEvent) {
  // A ring of two slots: each lap rewrites both. Lap one leaves 3-attribute
  // events with a heap-allocated string behind; lap two copies 1-attribute
  // int events over them, which must not inherit any stale attribute.
  SpscQueue<Event> q(2);
  const auto wide = [](EventId id) {
    return Event{.type = 2, .id = id, .ts = 10, .arrival = id,
                 .attrs = {Value(7), Value(std::string(200, 'x')), Value(2.5)}};
  };
  const auto narrow = [](EventId id) {
    return Event{.type = 0, .id = id, .ts = 20, .arrival = id, .attrs = {Value(42)}};
  };
  for (const bool first_lap : {true, false}) {
    for (EventId id = 0; id < 2; ++id) {
      const Event e = first_lap ? wide(id) : narrow(id);
      ASSERT_TRUE(testutil::spsc_push_one(q, e));
      const std::span<Event> run = q.peek(4);
      ASSERT_EQ(run.size(), 1u);
      EXPECT_EQ(run[0], e) << "lap " << (first_lap ? 1 : 2) << " slot " << id;
      EXPECT_EQ(run[0].attrs.size(), e.attrs.size());
      q.release(1);
    }
  }
}

TEST(SpscInPlace, TwoThreadEventStressMixedArity) {
  // Random arity (1-4) and attribute kinds per event, so each ring slot
  // sees every combination across laps: more or fewer attributes than its
  // last occupant, ints over strings and back, short (inline) strings over
  // long (heap) ones and back.
  constexpr std::size_t kN = 40'000;
  std::vector<Event> src(kN);
  Rng shape(5);
  for (std::size_t i = 0; i < kN; ++i) {
    Event& e = src[i];
    e.type = static_cast<TypeId>(i % 3);
    e.id = i;
    e.ts = static_cast<Timestamp>(i);
    const auto arity = shape.uniform_int(1, 4);
    for (std::int64_t a = 0; a < arity; ++a) {
      if (shape.bernoulli(0.4))
        e.attrs.emplace_back(std::string(shape.bernoulli(0.5) ? 40 : 3, 'a'));
      else
        e.attrs.emplace_back(static_cast<std::int64_t>(i * 10) + a);
    }
  }
  SpscQueue<Event> q(64);
  std::size_t mismatches = 0;
  std::thread consumer([&] {
    std::size_t got = 0;
    while (got < kN) {
      const std::span<Event> run = q.peek(16);
      if (run.empty()) {
        std::this_thread::yield();
        continue;
      }
      for (const Event& e : run)
        if (!(e == src[got++])) ++mismatches;
      q.release(run.size());
    }
  });
  Rng rng(9);
  std::vector<const Event*> ptrs;
  std::size_t sent = 0;
  while (sent < kN) {
    const auto want = std::min<std::size_t>(rng.uniform_int(1, 48), kN - sent);
    ptrs.clear();
    for (std::size_t k = 0; k < want; ++k) ptrs.push_back(&src[sent + k]);
    std::span<const Event* const> rest(ptrs);
    while (!rest.empty()) {
      const std::size_t n = q.try_copy_in_n(rest);
      if (n == 0) std::this_thread::yield();
      rest = rest.subspan(n);
    }
    sent += want;
  }
  consumer.join();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------- producer-side allocations

// Counts results without storing them, so a sink keeps its own storage out
// of an allocation count.
struct CountingSink final : TaggedSink {
  void on_match(QueryId, Match&&) override { ++matches; }
  std::size_t matches = 0;
};

TEST(ShardedTransport, ProducerAllocatesNothingOnceRingsAreWarm) {
  const TypeRegistry reg = make_abcd_registry();
  // A/B route by key; D is relevant to no query, so it is broadcast to
  // every shard. Every event has the same two int attributes, so a slot
  // that has held one event has the capacity for any other.
  std::vector<Event> events;
  for (EventId i = 0; i < 4 * 16 * 256; ++i) {
    const char* type = i % 8 == 7 ? "D" : (i % 2 ? "B" : "A");
    events.push_back(make_event(reg, type, i, static_cast<Timestamp>(i), (i / 2) % 97, 1));
  }
  // Results stream to the sink on this thread, inside the measured
  // pushes; a counting sink keeps its own storage out of the count, which
  // then covers the runtime alone, merger included.
  const auto sink = std::make_shared<CountingSink>();
  Session session(reg,
                  SessionConfig{}
                      .slack(0)
                      .shards(3)
                      .queue_capacity(16)
                      .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 20"),
                  sink);
  ASSERT_EQ(session.shard_count(), 3u);
  // Four consecutive phases of 16 batches' worth of events each; the
  // first two (far more than 3 x 16 events) write every ring slot at least
  // once and size the staging lists for the largest batch.
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kPhase = 16 * kBatch;
  const std::span<const Event> all(events);
  const auto push_batches = [&](std::size_t from) {
    for (std::size_t off = from; off < from + kPhase; off += kBatch)
      session.push_batch(all.subspan(off, kBatch));
  };
  const auto push_each = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) session.push(events[i]);
  };
  push_batches(0);
  push_each(kPhase, 2 * kPhase);

  const std::size_t before_batches = t_allocations;
  push_batches(2 * kPhase);
  EXPECT_EQ(t_allocations - before_batches, 0u) << "push_batch allocated";

  const std::size_t before_events = t_allocations;
  push_each(3 * kPhase, events.size());
  EXPECT_EQ(t_allocations - before_events, 0u) << "per-event push allocated";

  session.close();
  EXPECT_GT(sink->matches, 0u);
}

// ----------------------------------- SSC core allocations on sparse keys

// A keyed stream whose keys recur less often than W + K, so a purge pass
// empties each key's shard between two visits of the key. One visit is
// C, B, A at consecutive timestamps, which SEQ(A, B, …) never matches.
// Arrival reverses every block of four events (lateness 3 <= K), so
// late events splice into the middle of stacks. `string_keys` replaces
// each int key with a fixed-length string longer than std::string's
// inline buffer.
constexpr Timestamp kSparseWindow = 60;
constexpr Timestamp kSparseSlack = 8;
constexpr std::int64_t kSparseKeys = 64;  // a key recurs every 192 ticks

std::vector<Event> sparse_key_stream(const TypeRegistry& reg, std::size_t n, bool string_keys) {
  static const char* const kVisit[] = {"C", "B", "A"};
  std::vector<Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::int64_t>(i / 3) % kSparseKeys;
    Event e = make_event(reg, kVisit[i % 3], i, static_cast<Timestamp>(i), key, 1);
    if (string_keys) {
      std::string s = std::to_string(key);
      e.attrs[0] = Value("sparse-key-" + std::string(10 - s.size(), '0') + s);
    }
    events.push_back(std::move(e));
  }
  for (std::size_t b = 0; b + 4 <= n; b += 4)
    std::reverse(events.begin() + static_cast<std::ptrdiff_t>(b),
                 events.begin() + static_cast<std::ptrdiff_t>(b + 4));
  return events;
}

TypeRegistry make_string_key_registry() {
  TypeRegistry reg;
  const Schema s({{"k", ValueType::kString}, {"v", ValueType::kInt}});
  for (const char* n : {"A", "B", "C", "D"}) reg.register_type(n, s);
  return reg;
}

struct CountingMatchSink final : MatchSink {
  void on_match(Match&&) override { ++matches; }
  std::size_t matches = 0;
};

// Allocations while `feed` consumes the second half of `events`; the
// first half warms every shard, spare list and scratch buffer up.
template <typename Feed>
std::size_t steady_state_allocations(std::span<const Event> events, Feed feed) {
  const std::size_t half = events.size() / 2;
  feed(events.first(half));
  const std::size_t before = t_allocations;
  feed(events.subspan(half));
  return t_allocations - before;
}

void expect_solo_sparse_keys_allocate_nothing(const TypeRegistry& reg, bool string_keys) {
  const auto events = sparse_key_stream(reg, 64 * 192, string_keys);
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, B b, C c) WHERE a.k == b.k AND b.k == c.k WITHIN " +
          std::to_string(kSparseWindow),
      reg);
  ASSERT_TRUE(q.partitionable());
  EngineOptions opt;
  opt.slack = kSparseSlack;
  std::vector<const Event*> ptrs;
  for (const Event& e : events) ptrs.push_back(&e);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "on_batch" : "on_event");
    const auto sink = std::make_shared<CountingMatchSink>();
    const auto engine = make_test_engine(EngineKind::kOoo, q, sink, opt);
    const std::size_t allocations = steady_state_allocations(
        events, [&](std::span<const Event> part) {
          if (!batched) {
            for (const Event& e : part) engine->on_event(e);
            return;
          }
          const std::size_t base = static_cast<std::size_t>(part.data() - events.data());
          for (std::size_t off = 0; off < part.size(); off += 32) {
            const std::size_t len = std::min<std::size_t>(32, part.size() - off);
            engine->on_batch(std::span<const Event* const>(ptrs.data() + base + off, len));
          }
        });
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(sink->matches, 0u);
    EXPECT_GT(engine->stats_snapshot().purge_passes, 0u);
  }
}

TEST(SscAllocations, SoloSparseKeysAllocateNothing) {
  expect_solo_sparse_keys_allocate_nothing(make_abcd_registry(), false);
}

TEST(SscAllocations, SoloSparseLongStringKeysAllocateNothing) {
  expect_solo_sparse_keys_allocate_nothing(make_string_key_registry(), true);
}

TEST(SscAllocations, SharedGroupSparseKeysAllocateNothing) {
  const TypeRegistry reg = make_abcd_registry();
  const auto events = sparse_key_stream(reg, 64 * 192, false);
  const auto sink = std::make_shared<CountingSink>();
  MultiQueryRunner runner(reg, sink);
  EngineOptions opt;
  opt.slack = kSparseSlack;
  for (int i = 0; i < 8; ++i) {
    runner.add_query(QuerySpec("PATTERN SEQ(A a, B b) WHERE a.k == b.k AND a.v >= " +
                                   std::to_string(i) + " WITHIN " +
                                   std::to_string(kSparseWindow),
                               EngineKind::kOoo, opt));
  }
  runner.prepare();
  ASSERT_EQ(runner.group_count(), 1u);
  const std::size_t allocations =
      steady_state_allocations(events, [&](std::span<const Event> part) {
        for (std::size_t off = 0; off < part.size(); off += 256)
          runner.on_batch(part.subspan(off, std::min<std::size_t>(256, part.size() - off)));
      });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sink->matches, 0u);
}

// A solo SEQ(A, !B, C) holds each candidate until its negation interval
// seals. Sealing moves the held match out of the heap and rechecks it
// over the member's scratch bindings, so neither a clock tick that seals
// held matches nor finish() allocates. The tick is of a type no step
// references, so nothing is stored and no stack grows.
TEST(SscAllocations, SealingHeldMatchesAllocatesNothing) {
  const TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q = compile_query("PATTERN SEQ(A a, !B b, C c) WITHIN 5", reg);
  EngineOptions opt;
  opt.slack = 100'000;  // nothing seals until the tick
  opt.purge_period = 0;
  constexpr std::size_t kHeld = 64;  // per sealing call
  const auto sink = std::make_shared<CountingMatchSink>();
  const auto engine = make_test_engine(EngineKind::kOoo, q, sink, opt);
  EventId id = 0;
  for (std::size_t i = 0; i < 2 * kHeld; ++i) {
    const auto ts = static_cast<Timestamp>(10 * i);
    engine->on_event(make_event(reg, "A", id++, ts));
    engine->on_event(make_event(reg, "C", id++, ts + 2));
  }
  ASSERT_EQ(sink->matches, 0u);
  ASSERT_EQ(engine->stats_snapshot().pending_matches, 2 * kHeld);

  // Seal point = clock − K − 1 = 10·kHeld − 6: the first kHeld intervals
  // (ending at most at 10·kHeld − 8) seal, the next one (10·kHeld + 2)
  // does not.
  const Event tick =
      make_event(reg, "D", id++, static_cast<Timestamp>(10 * kHeld) + opt.slack - 5);
  std::size_t before = t_allocations;
  engine->on_event(tick);
  EXPECT_EQ(t_allocations - before, 0u) << "sealing on a clock tick allocated";
  EXPECT_EQ(sink->matches, kHeld);

  before = t_allocations;
  engine->finish();
  EXPECT_EQ(t_allocations - before, 0u) << "sealing at finish() allocated";
  EXPECT_EQ(sink->matches, 2 * kHeld);
  EXPECT_EQ(engine->stats_snapshot().pending_matches, 0u);
}

// ----------------------------------------------------------- arena

TEST(EventArena, RecyclingAndAddressStability) {
  const TypeRegistry reg = make_abcd_registry();
  EventArena arena;
  std::vector<EventHandle> handles;
  std::vector<const Event*> addrs;
  // Grow across several 256-slot chunks; addresses must never move.
  for (EventId i = 0; i < 1000; ++i) {
    const EventHandle h =
        arena.alloc(make_event(reg, "A", i, static_cast<Timestamp>(i), 1, 2));
    handles.push_back(h);
    addrs.push_back(&arena.get(h));
  }
  EXPECT_EQ(arena.live(), 1000u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(&arena.get(handles[i]), addrs[i]) << "slot moved at " << i;
    EXPECT_EQ(arena.get(handles[i]).id, static_cast<EventId>(i));
  }
  // Refcounting: a retained handle survives one release.
  arena.retain(handles[0]);
  arena.release(handles[0]);
  EXPECT_EQ(arena.live(), 1000u);
  EXPECT_EQ(arena.get(handles[0]).id, 0u);
  // Releasing to zero recycles the slot: the next alloc reuses it (and
  // with it the attrs capacity) instead of growing the arena.
  arena.release(handles[0]);
  EXPECT_EQ(arena.live(), 999u);
  const std::size_t size_before = arena.size();
  const EventHandle reused = arena.alloc(make_event(reg, "B", 5000, 77, 3, 4));
  EXPECT_EQ(reused, handles[0]);
  EXPECT_EQ(arena.size(), size_before);
  EXPECT_EQ(arena.get(reused).id, 5000u);
  EXPECT_EQ(arena.get(reused).ts, 77);
}

// ------------------------------------ aggressive retraction semantics

// Pins the emit-then-retract contract of aggressive negation so the
// batched path (and the seal-indexed pending-match bookkeeping) cannot
// silently change it: a premature match is EMITTED as soon as its
// constituents exist, and RETRACTED when an in-contract late negative
// lands inside its negation interval; matches whose interval seals
// clean are never retracted.
TEST(AggressiveNegation, EmitsPrematurelyAndRetractsOnLateNegative) {
  const TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k WITHIN 100", reg);
  EngineOptions opt;
  opt.slack = 50;
  opt.aggressive_negation = true;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(EngineKind::kOoo, q, sink, opt);

  engine->on_event(make_event(reg, "A", 0, 10, 1));
  engine->on_event(make_event(reg, "C", 1, 30, 1));
  // Interval (10, 30) is unsealed (watermark = 30 - 50 < 10): the match
  // is emitted prematurely.
  ASSERT_EQ(sink->matches().size(), 1u);
  EXPECT_EQ(match_key(sink->matches()[0]), (MatchKey{0, 1}));
  EXPECT_TRUE(sink->retracted().empty());

  // Late negative inside (10, 30), same key, within slack: retract.
  engine->on_event(make_event(reg, "B", 2, 20, 1));
  ASSERT_EQ(sink->retracted().size(), 1u);
  EXPECT_EQ(match_key(sink->retracted()[0]), (MatchKey{0, 1}));

  // Second key: premature emission whose interval seals clean survives.
  engine->on_event(make_event(reg, "A", 3, 110, 2));
  engine->on_event(make_event(reg, "C", 4, 130, 2));
  engine->on_event(make_event(reg, "D", 5, 400, 0));  // clock: seals everything
  engine->finish();
  EXPECT_EQ(sink->retracted().size(), 1u);
  EXPECT_EQ(sink->net_sorted_keys(), (std::vector<MatchKey>{{3, 4}}));
}

// -------------------------------------- batch-vs-per-event determinism

// Feeds `arrivals` through a fresh engine in random-sized on_batch
// slices (pointer spans, like the runners deliver).
std::shared_ptr<CollectingSink> run_engine_batched(EngineKind kind,
                                                   const CompiledQuery& q,
                                                   const std::vector<Event>& arrivals,
                                                   const EngineOptions& options,
                                                   std::uint64_t partition_seed,
                                                   std::size_t fixed_batch = 0) {
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(kind, q, sink, options);
  Rng rng(partition_seed);
  std::vector<const Event*> ptrs;
  std::size_t i = 0;
  while (i < arrivals.size()) {
    const std::size_t want =
        fixed_batch ? fixed_batch : static_cast<std::size_t>(rng.uniform_int(1, 64));
    const std::size_t n = std::min(want, arrivals.size() - i);
    ptrs.clear();
    for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals[i + k]);
    engine->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
    i += n;
  }
  engine->finish();
  return sink;
}

struct BatchCase {
  const char* label;
  EngineKind kind;
  std::string query;
  EngineOptions options;
};

// (key, detection clock) per match, sorted: batching must change neither
// the match set nor the clock each match is reported at.
using Stamped = std::vector<std::pair<MatchKey, Timestamp>>;

Stamped stamped(const std::vector<Match>& matches) {
  Stamped out;
  out.reserve(matches.size());
  for (const Match& m : matches) out.emplace_back(match_key(m), m.detection_clock);
  std::sort(out.begin(), out.end());
  return out;
}

class BatchDeterminism : public ::testing::Test {
 protected:
  BatchDeterminism()
      : wl_({.num_events = 3'000, .num_types = 3, .key_cardinality = 24,
             .mean_gap = 5, .seed = 7}) {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(80), 0.3, 21);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
};

TEST_F(BatchDeterminism, EngineSweepMatchesPerEventOutput) {
  EngineOptions plain;
  EngineOptions unkeyed;
  unkeyed.partition_by_key = false;
  EngineOptions slacked = plain;
  slacked.slack = slack_;
  EngineOptions slacked_unkeyed = unkeyed;
  slacked_unkeyed.slack = slack_;
  EngineOptions eager = slacked;
  eager.purge_period = 1;

  const std::string keyed_q = wl_.seq_query(2, true, 200);
  const std::string unkeyed_q = wl_.seq_query(2, false, 200);
  const std::string neg_q = wl_.negation_query(200);

  const std::vector<BatchCase> cases{
      {"inorder-keyed", EngineKind::kInOrder, keyed_q, plain},
      {"inorder-unkeyed", EngineKind::kInOrder, unkeyed_q, unkeyed},
      {"nfa-keyed", EngineKind::kNfa, keyed_q, plain},
      {"ooo-keyed", EngineKind::kOoo, keyed_q, slacked},
      {"ooo-unkeyed", EngineKind::kOoo, unkeyed_q, slacked_unkeyed},
      {"ooo-keyed-eager-purge", EngineKind::kOoo, keyed_q, eager},
      {"ooo-negation", EngineKind::kOoo, neg_q, slacked},
      {"kslack-inorder", EngineKind::kKSlackInOrder, keyed_q, slacked},
      {"kslack-nfa", EngineKind::kKSlackNfa, keyed_q, slacked},
      {"kslack-negation", EngineKind::kKSlackInOrder, neg_q, slacked},
  };

  for (const BatchCase& c : cases) {
    const CompiledQuery q = compile_query(c.query, wl_.registry());
    const Stamped oracle = stamped(testutil::run_engine(c.kind, q, arrivals_, c.options));
    ASSERT_GT(oracle.size(), 0u) << c.label << ": vacuous case";
    // Random partitions plus the degenerate extremes: all singletons
    // (must be the per-event path exactly) and one whole-stream batch.
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      const auto sink = run_engine_batched(c.kind, q, arrivals_, c.options, seed);
      EXPECT_EQ(stamped(sink->matches()), oracle) << c.label << " seed=" << seed;
      EXPECT_TRUE(sink->retracted().empty()) << c.label;
    }
    const auto ones = run_engine_batched(c.kind, q, arrivals_, c.options, 0, 1);
    EXPECT_EQ(stamped(ones->matches()), oracle) << c.label << " batch=1";
    const auto whole =
        run_engine_batched(c.kind, q, arrivals_, c.options, 0, arrivals_.size());
    EXPECT_EQ(stamped(whole->matches()), oracle) << c.label << " batch=all";
  }
}

TEST_F(BatchDeterminism, AggressiveNegationNetSetMatchesPerEvent) {
  // Aggressive emission/retraction multisets may legitimately differ
  // under batching (a negative sorted ahead of its trigger within one
  // batch suppresses a premature emission instead of retracting it);
  // the NET result must not.
  EngineOptions opt;
  opt.slack = slack_;
  opt.aggressive_negation = true;
  const CompiledQuery q = compile_query(wl_.negation_query(200), wl_.registry());
  const auto sink_oracle = std::make_shared<CollectingSink>();
  const auto oracle = make_test_engine(EngineKind::kOoo, q, sink_oracle, opt);
  for (const Event& e : arrivals_) oracle->on_event(e);
  oracle->finish();
  ASSERT_GT(sink_oracle->matches().size(), 0u);
  for (const std::uint64_t seed : {21ull, 22ull}) {
    const auto sink = run_engine_batched(EngineKind::kOoo, q, arrivals_, opt, seed);
    EXPECT_EQ(sink->net_sorted_keys(), sink_oracle->net_sorted_keys())
        << "seed=" << seed;
  }
}

// The delivered sequence: (query, key, detection clock) per match.
using Delivery = std::vector<std::tuple<QueryId, MatchKey, Timestamp>>;

// Default query set: a keyed SEQ and a negation query, which never share
// a scan.
std::vector<std::string> solo_queries(const SyntheticWorkload& wl) {
  return {wl.seq_query(2, true, 200), wl.negation_query(200)};
}

Delivery run_session_stream(const SyntheticWorkload& wl, const std::vector<Event>& arrivals,
                            Timestamp slack, std::size_t shards, std::size_t batch,
                            std::uint64_t seed, std::size_t checkpoint_every = 0,
                            WorkerKillHook hook = {},
                            const std::vector<std::string>& queries = {},
                            std::size_t queue_capacity = kDefaultQueueCapacity) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  SessionConfig cfg;
  cfg.engine(EngineKind::kOoo)
      .slack(slack)
      .shards(shards)
      .queue_capacity(queue_capacity)
      .metrics(false);
  for (const std::string& q : queries.empty() ? solo_queries(wl) : queries) cfg.query(q);
  if (checkpoint_every) {
    cfg.checkpoint_every(checkpoint_every)
        .max_restarts(10)
        .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0));
  }
  if (hook) cfg.kill_hook(std::move(hook));
  Session session(wl.registry(), cfg, sink);
  if (batch == 0) {
    for (const Event& e : arrivals) session.push(e);
  } else {
    Rng rng(seed);
    std::size_t i = 0;
    while (i < arrivals.size()) {
      const std::size_t want =
          seed ? static_cast<std::size_t>(rng.uniform_int(1, 2 * batch)) : batch;
      const std::size_t n = std::min(want, arrivals.size() - i);
      session.push_batch(std::span<const Event>(arrivals.data() + i, n));
      i += n;
    }
  }
  session.close();
  Delivery out;
  for (const TaggedMatch& tm : sink->matches())
    out.emplace_back(tm.query, match_key(tm.match), tm.match.detection_clock);
  return out;
}

TEST_F(BatchDeterminism, SessionInlineAndShardedMatchPerEventExactly) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const auto oracle = run_session_stream(wl_, arrivals_, slack_, shards, 0, 0);
    ASSERT_GT(oracle.size(), 10u) << "shards=" << shards;
    for (const std::uint64_t seed : {31ull, 32ull}) {
      const auto batched =
          run_session_stream(wl_, arrivals_, slack_, shards, 64, seed);
      // finish() delivers in canonical order: the full tagged sequence —
      // not just the multiset — must be bit-identical.
      EXPECT_EQ(batched, oracle) << "shards=" << shards << " seed=" << seed;
    }
    const auto giant = run_session_stream(wl_, arrivals_, slack_, shards,
                                          arrivals_.size(), 0);
    EXPECT_EQ(giant, oracle) << "shards=" << shards << " batch=all";
  }
  // A shared-scan group at one shard: batched and per-event runs of the
  // same plan. (The group's union clock legitimately differs from a solo
  // engine's, so the reference is the group itself, fed per event.)
  const std::vector<std::string> group{wl_.seq_query(2, true, 200),
                                       wl_.seq_query(3, true, 300),
                                       wl_.seq_query(2, true, 150, /*min_val=*/300)};
  const auto per_event = run_session_stream(wl_, arrivals_, slack_, 1, 0, 0, 0, {}, group);
  ASSERT_GT(per_event.size(), 10u);
  for (const std::uint64_t seed : {33ull, 34ull})
    EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 1, 64, seed, 0, {}, group), per_event)
        << "shared group, seed=" << seed;
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 1, arrivals_.size(), 0, 0, {}, group),
            per_event)
      << "shared group, batch=all";
}

// ------------------------------------------- batched feeding + recovery

class BatchRecovery : public ::testing::Test {
 protected:
  BatchRecovery()
      : wl_({.num_events = 250, .num_types = 3, .key_cardinality = 12,
             .mean_gap = 6, .seed = 33}) {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(60), 0.25, 5);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
};

TEST_F(BatchRecovery, KillAtEveryBatchBoundaryYieldsPerEventOutput) {
  constexpr std::size_t kBatch = 32;
  const auto oracle = run_session_stream(wl_, arrivals_, slack_, 3, 0, 0,
                                         /*checkpoint_every=*/7);
  ASSERT_GT(oracle.size(), 5u);
  // Batched + recovery, fault-free, must already be bit-identical: each
  // chunk a push copies into a ring joins the upstream backup in the same
  // producer step.
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, kBatch, 0, 7), oracle);
  // Kill the worker at the first event of every batch: the crash lands
  // exactly on a producer-side batch boundary each time.
  for (std::size_t i = 0; i < arrivals_.size(); i += kBatch) {
    WorkerKillFault fault({arrivals_[i].id});
    const auto run =
        run_session_stream(wl_, arrivals_, slack_, 3, kBatch, 0, 7, fault.hook());
    EXPECT_EQ(run, oracle) << "diverged after kill at batch boundary " << i;
    EXPECT_EQ(fault.victims_remaining(), 0u) << "kill at " << i << " never fired";
  }
  // A ring smaller than a stage: each shard's share of a 64-event batch
  // spans several ring chunks, so a worker often dies while the rest of a
  // stage still waits for room, and the producer supervises it mid-stage.
  // The replay must cover exactly the chunks already copied in, and the
  // rest must reach the respawned worker once.
  constexpr std::size_t kSmallRing = 16;
  constexpr std::size_t kLongBatch = 64;
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, kLongBatch, 0, 7, {}, {}, kSmallRing),
            oracle);
  for (std::size_t i = 0; i < arrivals_.size(); i += 5) {
    WorkerKillFault fault({arrivals_[i].id});
    const auto run = run_session_stream(wl_, arrivals_, slack_, 3, kLongBatch, 0, 7,
                                        fault.hook(), {}, kSmallRing);
    EXPECT_EQ(run, oracle) << "diverged after kill at " << i << " with a 16-slot ring";
    EXPECT_EQ(fault.victims_remaining(), 0u) << "kill at " << i << " never fired";
  }
}

// Every key a heap-owned string: ring copy-in, the recovery backup,
// checkpoints, replay and match copies all copy owned strings. A 4-shard
// run with recovery on and two worker kills must deliver exactly the
// 1-shard run's sequence of matches, string keys included.
TEST(StringKeys, ShardedRecoveryDeliversTheOneShardSequence) {
  const TypeRegistry reg = make_string_key_registry();
  const auto events = sparse_key_stream(reg, 64 * 48, /*string_keys=*/true);
  const std::string query =
      "PATTERN SEQ(C c, B b, A a) WHERE c.k == b.k AND b.k == a.k WITHIN " +
      std::to_string(kSparseWindow);
  const auto run = [&](std::size_t shards, WorkerKillHook hook) {
    const auto sink = std::make_shared<CollectingTaggedSink>();
    SessionConfig cfg;
    cfg.slack(kSparseSlack).shards(shards).query(query);
    if (shards > 1) {
      cfg.checkpoint_every(16).max_restarts(10).restart_backoff(
          std::chrono::milliseconds(0), std::chrono::milliseconds(0));
    }
    if (hook) cfg.kill_hook(std::move(hook));
    Session session(reg, cfg, sink);
    EXPECT_EQ(session.shard_count(), shards);
    const std::span<const Event> all(events);
    for (std::size_t off = 0; off < all.size(); off += 64)
      session.push_batch(all.subspan(off, std::min<std::size_t>(64, all.size() - off)));
    session.close();
    EXPECT_EQ(session.total_stats().contract_violations, 0u);
    std::vector<std::pair<QueryId, std::vector<Event>>> out;
    for (const TaggedMatch& tm : sink->matches()) out.emplace_back(tm.query, tm.match.events);
    return out;
  };
  const auto oracle = run(1, {});
  ASSERT_EQ(oracle.size(), events.size() / 3);
  ASSERT_EQ(oracle.front().second.front().attr(0).type(), ValueType::kString);
  WorkerKillFault fault(
      std::vector<EventId>{events[events.size() / 3].id, events[2 * events.size() / 3].id});
  const auto sharded = run(4, fault.hook());
  EXPECT_EQ(fault.victims_remaining(), 0u);
  ASSERT_EQ(sharded.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(sharded[i].first, oracle[i].first) << "query diverges at " << i;
    ASSERT_EQ(sharded[i].second, oracle[i].second) << "match diverges at " << i;
  }
}

// -------------------------------- checkpoint/restore under batched feed

TEST_F(BatchRecovery, ArenaStateSurvivesCheckpointRestoreMidStream) {
  // Cut the batched stream at several points: snapshot, restore into a
  // fresh engine (fresh arena — handles are rebuilt, bytes must not
  // change), verify re-snapshot byte identity, finish on the suffix, and
  // compare the union against an uninterrupted per-event run.
  EngineOptions opt;
  opt.slack = slack_;
  const CompiledQuery q = compile_query(wl_.negation_query(200), wl_.registry());
  const auto full = testutil::run_engine_keys(EngineKind::kOoo, q, arrivals_, opt);
  ASSERT_GT(full.size(), 0u);
  constexpr std::size_t kBatch = 16;
  for (const std::size_t cut_batches : {1ul, 5ul, 11ul}) {
    const std::size_t cut = std::min(cut_batches * kBatch, arrivals_.size());
    const auto sink1 = std::make_shared<CollectingSink>();
    const auto engine1 = make_test_engine(EngineKind::kOoo, q, sink1, opt);
    std::vector<const Event*> ptrs;
    std::size_t i = 0;
    while (i < cut) {
      const std::size_t n = std::min(kBatch, cut - i);
      ptrs.clear();
      for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals_[i + k]);
      engine1->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
      i += n;
    }
    const auto bytes = checkpoint_engine(*engine1);

    const auto sink2 = std::make_shared<CollectingSink>();
    const auto engine2 = make_test_engine(EngineKind::kOoo, q, sink2, opt);
    restore_engine(*engine2, bytes);
    EXPECT_EQ(checkpoint_engine(*engine2), bytes)
        << "cut=" << cut << ": restored engine re-snapshots to different bytes";
    while (i < arrivals_.size()) {
      const std::size_t n = std::min(kBatch, arrivals_.size() - i);
      ptrs.clear();
      for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals_[i + k]);
      engine2->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
      i += n;
    }
    engine2->finish();

    std::vector<MatchKey> all = sink1->sorted_keys();
    const auto tail = sink2->sorted_keys();
    all.insert(all.end(), tail.begin(), tail.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, full) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace oosp
