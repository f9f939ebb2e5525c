// Multi-query execution: many pattern queries over one arrival stream.
//
// A production deployment rarely runs a single query. MultiQueryRunner
// registers queries (QuerySpec), materializes an execution plan —
// shared-scan groups for queries whose scans are physically compatible
// (runtime/planner.hpp; each group runs one engine/ooo/ssc_core.hpp
// core), per-query engines for the rest — and dispatches each arriving
// event through a single per-type DELIVERY TABLE listing every execution
// slot that must see events of that type, exactly once each:
//
//   * solo queries whose pattern references the type and shared-scan
//     groups with a member that does (shared-scan routing: irrelevant
//     queries cost nothing per event),
//   * queries with negated steps, and AGG queries, for which the type is
//     IRRELEVANT — they receive the event purely as a clock tick, because
//     negation sealing and window sealing need stream-time progress: an
//     engine that only saw its own types would sit on pending matches or
//     open windows until the next relevant arrival, and hold every other
//     query's release bound back meanwhile. (Neither form ever groups,
//     so ticks always target a solo engine.)
//
// Building the union once per type (rather than routing and then
// broadcasting to negation holders) makes the exactly-once guarantee
// structural: an event type that is BOTH a positive step of one query
// and a negated step of another appears once in each query's entry, so
// no engine can ever observe the same event twice (test_sharded pins
// this with a regression test).
//
// The plan is materialized lazily at the first event (or snapshot/stats
// call) and explicitly via prepare(). The sharded runtime and the
// Session call prepare() on the construction thread so all metric-slot
// registration happens before worker threads touch the registry (the
// guarantee metrics.hpp documents). After materialization — and, for
// safety, after the first event — add_query throws.
//
// The runner co-owns its sink and compiled queries (shared_ptr); solo
// engines are built through make_engine/EngineContext. Results are
// tagged with the originating query's id whether they come from a solo
// engine or a group member. This is also the single-shard execution
// core the sharded runtime replicates — see runtime/sharded.hpp.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/engines.hpp"
#include "engine/ooo/ssc_core.hpp"
#include "runtime/planner.hpp"

namespace oosp {

class MultiQueryRunner {
 public:
  // `registry` must outlive the runner. The sink is co-owned.
  // `share_scans` gates the shared-scan grouping pass (on by default;
  // the multi-query bench baseline turns it off to measure the win).
  MultiQueryRunner(const TypeRegistry& registry, std::shared_ptr<TaggedSink> sink,
                   bool share_scans = true);

  // Compiles and registers a query; returns its id (dense, in add
  // order). All queries must be added before the first on_event/push
  // (enforced — see prepare()).
  QueryId add_query(const QuerySpec& spec);

  // Registers an already-compiled query (shared with the caller — the
  // Session compiles once and hands the same query to every shard).
  QueryId add_query(std::shared_ptr<const CompiledQuery> query, EngineKind kind,
                    EngineOptions options = {});

  // Materializes the execution plan: runs the shared-scan grouping pass,
  // builds groups and solo engines, and registers their metric slots.
  // Implicit before the first event (and before snapshot/restore/stats),
  // but the multi-threaded runtimes call it explicitly on the
  // construction thread — metric-slot registration must finish before
  // worker threads hammer the registry (metrics.hpp). add_query after
  // prepare() throws.
  void prepare() const { ensure_built(); }

  void on_event(const Event& e);

  // Batched ingestion: routes the whole slice through the delivery table
  // once, gathering each slot's sub-batch (pointers into `batch`) and
  // handing it over in a single on_batch call. Delivery sets and the
  // per-event order each slot observes are identical to looping
  // on_event — slots are independent, so slot-major delivery order is
  // immaterial.
  void on_batch(std::span<const Event> batch);

  void finish();

  // Clock progress without an event: advances the stream time the release
  // bound is derived from and hands it to the engines that take every
  // event as a tick (AGG, negated queries; PatternEngine::on_tick). The
  // sharded runtime ticks a shard whose routed events trail the stream.
  void on_tick(Timestamp ts);

  // The largest seal_ts at or below which no engine of this runner will
  // emit another match or retraction on an in-contract stream: the
  // minimum of every engine's PatternEngine::release_bound at the
  // runner's clock (the newest timestamp of any event or tick it has
  // seen), so a query whose events stop arriving holds the others back
  // only by what it still holds. kMaxTimestamp after finish().
  Timestamp release_bound() const;

  std::size_t query_count() const noexcept { return registrations_.size(); }
  const CompiledQuery& query(QueryId id) const {
    return *registrations_.at(id).query;
  }

  // Per-query stats whether the query runs solo or grouped. For grouped
  // queries, arrival counters are replicated per member and the group's
  // physical counters are folded into its first member — summing stats()
  // over all queries remains the correct aggregate (test_mqo pins this).
  EngineStats stats(QueryId id) const;

  // Shared-scan groups in the materialized plan (0 before prepare()).
  std::size_t group_count() const noexcept { return groups_.size(); }
  // Empty when the query grouped; the planner's reason when it runs solo
  // (also empty when sharing is simply disabled or no partner matched).
  std::string share_exclusion_reason(QueryId id) const;

  // Events delivered to at least one slot as pattern input (clock-tick
  // deliveries to negation holders do not count as routing).
  std::uint64_t events_routed() const noexcept { return events_routed_; }
  std::uint64_t events_seen() const noexcept { return events_seen_; }

  // Crash-recovery serialization: each shared-scan group snapshotted
  // exactly once (shared state + per-member stats), then every solo
  // engine in query-id order, then the runner's counters. The restoring
  // runner must have the same queries registered in the same order with
  // the same kinds/options — the plan re-materializes identically, and
  // guards are validated per group/engine.
  void snapshot(CheckpointWriter& w) const;
  void restore(CheckpointReader& r);

  // Union of every engine's quarantined late events, in arrival order
  // per engine, tagged with the owning query id. A group's quarantine is
  // drained once and fanned out to every member the event is relevant to.
  std::vector<std::pair<QueryId, Event>> drain_quarantine();

 private:
  struct TagSink final : public MatchSink {
    TagSink(std::shared_ptr<TaggedSink> out, QueryId id)
        : out_(std::move(out)), id_(id) {}
    void on_match(Match&& m) override { out_->on_match(id_, std::move(m)); }
    void on_retract(const Match& m) override { out_->on_retract(id_, m); }
    std::shared_ptr<TaggedSink> out_;
    QueryId id_;
  };

  // Materialized per-query execution state. Exactly one of {engine,
  // group} applies: solo queries own an engine; grouped queries point at
  // their group and member index.
  struct Entry {
    std::unique_ptr<PatternEngine> engine;
    std::size_t group = 0;   // index into groups_ (when !engine)
    std::size_t member = 0;  // member index within the group
  };

  // One delivery of an event to one execution slot. Slots < query count
  // are solo engines (slot == QueryId); slots >= query count are groups
  // (slot − query count indexes groups_). `relevant` distinguishes
  // pattern input from a pure clock tick (for events_routed accounting);
  // group deliveries are always relevant.
  struct Delivery {
    std::size_t slot;
    bool relevant;
  };

  void ensure_built() const;
  void build() const;
  void rebuild_deliveries() const;
  std::size_t slot_count() const { return registrations_.size() + groups_.size(); }
  void dispatch_to_slot(std::size_t slot, const Event& e) const;

  const TypeRegistry& registry_;
  std::shared_ptr<TaggedSink> sink_;
  bool share_scans_ = true;
  std::vector<ShardQuerySpec> registrations_;

  // Lazily materialized execution plan (const-correct lazy init: the
  // accessors that trigger it are logically const).
  mutable bool built_ = false;
  mutable std::vector<Entry> entries_;                          // by QueryId
  mutable std::vector<std::unique_ptr<SscCore>> groups_;
  mutable std::vector<std::string> exclusion_reasons_;          // by QueryId
  // deliveries_[type]: every slot that must see events of this type,
  // each exactly once (relevant queries/groups + clock-tick negation
  // holders).
  mutable std::vector<std::vector<Delivery>> deliveries_;
  // Solo engines that take every event as a tick (AGG and negated
  // queries, which never group): on_tick's audience, and the only one for
  // type ids beyond the table (registered after prepare()).
  mutable std::vector<QueryId> clock_subscribers_;
  // on_batch scratch: per-slot gathered sub-batches (cleared after each
  // dispatch; capacity persists across batches).
  mutable std::vector<std::vector<const Event*>> batch_scratch_;
  mutable MqoObs mqo_obs_;

  bool started_ = false;
  bool finished_ = false;
  Timestamp clock_ = kMinTimestamp;  // newest event or tick timestamp
  std::uint64_t events_seen_ = 0;
  std::uint64_t events_routed_ = 0;
};

}  // namespace oosp
