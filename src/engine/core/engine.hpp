// The engine interface every matcher implements.
//
// Lifecycle: construct from an EngineContext — the engine co-owns its
// compiled query and sink through shared_ptrs, so no caller-managed
// lifetimes are involved; feed events in ARRIVAL order via on_event();
// call finish() exactly once at end of stream so engines that hold
// results for negation sealing or reorder buffering can flush.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/contracts.hpp"
#include "engine/core/sink.hpp"
#include "engine/core/stats.hpp"
#include "event/event.hpp"
#include "obs/engine_obs.hpp"
#include "obs/trace.hpp"
#include "query/compiled.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

class CheckpointWriter;
class CheckpointReader;

// What to do with an event that arrives later than the engine's safe
// horizon (lateness beyond the effective K): state it needs may already
// be purged and results it touches may already be sealed, so it cannot
// be handled exactly no matter what.
enum class LatePolicy : std::uint8_t {
  // Process it best-effort against whatever state survives (historical
  // behavior). May silently miss matches or mis-sequence results;
  // EngineStats::contract_violations is the only trace.
  kAdmit,
  // Discard it, counted in EngineStats::events_dropped_late. Results over
  // the admitted prefix stay exact.
  kDrop,
  // Divert it to a bounded per-engine buffer the caller can drain via
  // PatternEngine::drain_quarantine() for audit or replay (e.g. into a
  // re-run with a larger K). Counted in EngineStats::events_quarantined;
  // overflow beyond quarantine_capacity falls back to kDrop accounting.
  kQuarantine,
};

std::string_view to_string(LatePolicy p) noexcept;

// Tuning knobs shared by the engines; each engine reads the subset that
// applies to it (documented per field).
struct EngineOptions {
  // K-slack bound the input stream is trusted to satisfy. Used by the
  // OOO engine (purge horizon + negation sealing) and by the reorder
  // buffer (release threshold). Ignored by the plain in-order engines.
  Timestamp slack = 0;

  // Disposition of events later than the effective slack (OOO engine and
  // K-slack buffer; the plain in-order engines have no slack contract).
  LatePolicy late_policy = LatePolicy::kAdmit;

  // kQuarantine only: max events parked for drain_quarantine(); overflow
  // is dropped with accounting so a pathological stream cannot grow the
  // quarantine without bound.
  std::size_t quarantine_capacity = 4096;

  // Adapt the effective K at runtime from observed lateness instead of
  // trusting `slack` forever (OOO engine and K-slack buffer). `slack`
  // seeds the estimate; growth applies immediately (always safe), shrink
  // is deferred to purge boundaries and never rewinds decisions already
  // made (see DESIGN.md "When K is wrong").
  bool adaptive_slack = false;
  SlackEstimatorConfig slack_estimator;

  // Drop events whose EventId was already delivered (at-least-once
  // transports re-deliver). All engines. Costs one hash-set entry per
  // distinct admitted id.
  bool dedup_by_id = false;

  // When set, every arriving event is validated against this registry —
  // unknown TypeId or an attribute vector that disagrees with the
  // registered schema (arity or value types) rejects the event with
  // accounting instead of faulting mid-construction. Borrowed; must
  // outlive the engine. When null only TypeId sanity is checked.
  const TypeRegistry* registry = nullptr;

  // Events between purge passes. 1 = purge on every event (eager);
  // 0 = never purge (for the ablation that shows why purging matters).
  std::size_t purge_period = 64;

  // Use hash-partitioned stacks when the query has a full equi-join key
  // (CompiledQuery::partitionable()). OOO and in-order engines.
  bool partition_by_key = true;

  // Observability (see src/obs/): when set, the engine registers its
  // instrument slots here at construction and updates them on the hot
  // path with relaxed atomics — safe to scrape from another thread while
  // streaming. Borrowed; must outlive the engine. Null disables metrics
  // at near-zero cost (one predicted branch per update site).
  MetricsRegistry* metrics = nullptr;

  // Span-event callback for match-lifecycle tracing (obs/trace.hpp).
  // Unset (the default) costs one predicted branch per decision point.
  TraceHook trace;

  // Internal: cleared by wrapper engines (K-slack) for their inner
  // engine, which sees each event a second time — the wrapper owns
  // admission and registers the arrival-side instruments exactly once.
  bool obs_arrival_side = true;

  // OOO engine only: output policy for matches with negated steps.
  //
  // Conservative (false, default): hold a candidate until its negation
  // interval seals (clock >= interval end + K), then emit or drop — every
  // emission is final, at the cost of up to K of added delay.
  //
  // Aggressive (true): emit the candidate IMMEDIATELY if no buffered
  // negative violates it, and issue a RETRACTION (MatchSink::on_retract)
  // if a late negative lands inside the interval before it seals. Zero
  // added delay; downstream must tolerate revisions. The net result set
  // (emissions minus retractions) equals the conservative result set.
  bool aggressive_negation = false;
};

// Everything an engine needs to run: the compiled query, the sink that
// receives results, and the tuning options. Query and sink are held by
// shared_ptr — the engine co-owns them, so the old footguns (a sink
// destroyed before the engine, a query compiled on the stack and
// dangling) are gone by construction. Build one inline at the
// make_engine call site:
//
//   auto ctx = EngineContext{compile_query_shared(text, registry),
//                            std::make_shared<CollectingSink>(), options};
struct EngineContext {
  std::shared_ptr<const CompiledQuery> query;
  std::shared_ptr<MatchSink> sink;
  EngineOptions options;
};

class PatternEngine {
 public:
  explicit PatternEngine(EngineContext ctx)
      : ctx_(std::move(ctx)),
        query_(checked_query(ctx_)),
        sink_(checked_sink(ctx_)),
        options_(ctx_.options),
        obs_(EngineObs::create(options_.metrics, options_.obs_arrival_side)) {}
  virtual ~PatternEngine() = default;

  PatternEngine(const PatternEngine&) = delete;
  PatternEngine& operator=(const PatternEngine&) = delete;

  virtual void on_event(const Event& e) = 0;

  // Batched ingestion: `batch` holds pointers to events in ARRIVAL order
  // (the runner delivers each engine only the events routed to it, hence
  // pointers rather than a contiguous slice). The default is the trivial
  // per-event loop; engines override it to amortize sorting, structure
  // maintenance, sealing, and purging across the batch. Overrides must
  // produce the same emitted output as the per-event loop — batching is
  // a throughput lever, never a semantics change.
  virtual void on_batch(std::span<const Event* const> batch) {
    for (const Event* e : batch) on_event(*e);
  }

  virtual void finish() {}

  // Stream-time progress to `ts` without an event: an engine whose results
  // wait on the clock (open AGG windows, held negation candidates) seals
  // what that makes final. No counter moves. The default ignores it.
  virtual void on_tick(Timestamp ts) { (void)ts; }

  virtual std::string name() const = 0;

  // Crash-recovery serialization (runtime/checkpoint.hpp). snapshot()
  // writes every piece of dynamic state — partial-match structures,
  // reorder/negation buffers, admission state, clocks, stats — such that
  // restore() into a FRESHLY CONSTRUCTED engine with the same query and
  // options reproduces the original engine exactly: feeding both the
  // same suffix yields the same matches and the same stats. restore()
  // validates a guard header (engine name + query text) and throws
  // CheckpointError on any mismatch or corruption; on throw the target
  // engine must only be destroyed, not used. Serializers must emit
  // deterministic bytes for equal logical state (sort unordered
  // containers) so a restored engine re-snapshots byte-identically.
  virtual void snapshot(CheckpointWriter& w) const;
  virtual void restore(CheckpointReader& r);

  // Release bound: the largest seal_ts (Match::last_ts()) at or below
  // which this engine will emit no further match or retraction, provided
  // the stream keeps its slack contract. `clock` is the stream time its
  // caller has seen, at least this engine's own clock: no in-contract
  // arrival can land at or below that clock's seal point, so a query
  // whose own events stop arriving does not hold the bound back. What the
  // engine still holds (pending matches, open windows, buffered events)
  // lowers it. Engines without a slack contract return kMinTimestamp:
  // their results are final only at finish().
  virtual Timestamp release_bound(Timestamp clock) const {
    (void)clock;
    return kMinTimestamp;
  }

  // Removes and returns the events parked by LatePolicy::kQuarantine, in
  // arrival order — audit them or replay into a fresh engine with a
  // larger K. Engines without a slack contract return empty.
  virtual std::vector<Event> drain_quarantine() { return {}; }

  // Consistent point-in-time copy of the counters. Wrapper engines (e.g.
  // the K-slack reorder buffer) override this to merge their own
  // buffering counters with the wrapped engine's. Safe to call from the
  // thread driving on_event at any time; under the sharded runtime each
  // engine is owned by exactly one worker thread, which snapshots after
  // its last on_event/finish — cross-shard aggregation then merges the
  // snapshots with EngineStats::operator+= after the workers are joined.
  virtual EngineStats stats_snapshot() const { return stats_; }

  const CompiledQuery& query() const noexcept { return query_; }
  const EngineOptions& options() const noexcept { return options_; }

 protected:
  void emit(Match&& m) {
    ++stats_.matches_emitted;
    if (obs_.matches != nullptr) {
      obs_.matches->inc();
      if (m.detection_clock != kMinTimestamp)
        obs_.latency_stream->observe_signed(m.detection_delay());
    }
    if (options_.trace)
      options_.trace(
          TraceSpan{TraceKind::kEmit, m.last_ts(), m.detection_clock, &m, nullptr});
    sink_.on_match(std::move(m));
  }

  // Fires a trace span when a hook is installed; one predicted branch
  // otherwise. Pointers are borrowed for the duration of the callback.
  void trace_span(TraceKind kind, Timestamp ts, Timestamp clock,
                  const Match* m = nullptr, const Event* e = nullptr) const {
    if (options_.trace) options_.trace(TraceSpan{kind, ts, clock, m, e});
  }

 private:
  static const CompiledQuery& checked_query(const EngineContext& ctx) {
    OOSP_REQUIRE(ctx.query != nullptr, "EngineContext.query is null");
    return *ctx.query;
  }
  static MatchSink& checked_sink(const EngineContext& ctx) {
    OOSP_REQUIRE(ctx.sink != nullptr, "EngineContext.sink is null");
    return *ctx.sink;
  }

 protected:
  EngineContext ctx_;
  // Hot-path aliases into ctx_ so subclass code never chases a shared_ptr.
  const CompiledQuery& query_;
  MatchSink& sink_;
  EngineOptions options_;
  EngineObs obs_;
  EngineStats stats_;
};

}  // namespace oosp
