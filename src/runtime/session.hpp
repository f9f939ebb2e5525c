// Session: the unified public entry point to the runtime.
//
// Everything the library can execute — one query or many, one thread or
// a sharded fleet — is driven through the same three calls:
//
//   auto sink = std::make_shared<CollectingTaggedSink>();
//   Session session(registry,
//                   SessionConfig{}
//                       .engine(EngineKind::kOoo)
//                       .slack(120)
//                       .shards(4)
//                       .query("PATTERN SEQ(A a, B b) WHERE a.k == b.k WITHIN 300"),
//                   sink);
//   for (const Event& e : arrivals) session.push(e);  // results stream out
//   session.finish();   // flushes the rest; the sink saw canonical order
//
// `.query(...)` takes a QuerySpec — a plain string uses the session
// defaults, `{text, kind}` / `{text, kind, options}` override them
// per query.
//
// The Session OWNS the full execution stack: it compiles the queries
// (shared with every shard), constructs the engines through
// make_engine/EngineContext, and co-owns the sink — no borrowed raw
// pointers anywhere in the public API.
//
// ## Sharding and fallback
//
// `shards(N)` requests hash-partitioned parallel execution (see
// runtime/sharded.hpp). Sharding requires every query to declare a full
// equi-join partition key and all queries to agree on each event type's
// key attribute; when that fails, the Session transparently falls back
// to single-shard execution and reports why in shard_fallback_reason().
// One shard runs inline on the pushing thread; both go through the same
// ordered merger (runtime/merger.hpp).
//
// ## Output contract
//
// Results stream. Each push() / push_batch() hands the sink, before it
// returns, every match (and, under aggressive negation or speculative
// AGG, every retraction) that became final during the call: those whose
// seal_ts (= match.last_ts()) is at or below the release bound, the
// largest seal_ts no engine can still emit on a stream that keeps its
// slack contract. One exception, on one shard only: a burst of results
// that are final the moment they are emitted (more than 16 per ingested
// event, as when one arrival seals an AGG slide for many keys) goes out
// at the start of the next call, so no call pays for both the sealing
// and the delivery. finish() delivers the rest. The sink runs only on
// the thread calling push / push_batch / finish / close — never on a
// shard worker — so it needs no locking of its own.
//
// Delivery order is the canonical order (seal_ts, query id, match key),
// identical for EVERY shard count and batch size, whenever no result
// arrives below the bound already released. Matches and retractions
// share it: a retraction carries its match's key and follows it, and a
// revised AGG window's retraction comes before its corrected result. On
// a stream that keeps its slack contract — no event arrives after the
// stream clock passed its timestamp by more than K — nothing arrives
// late, and contract_violations stays 0. Under LatePolicy::kAdmit a
// violating arrival can complete a result below the released bound: it
// is delivered with the call's release, out of order, and counted in
// oosp_session_late_deliveries_total — so order is canonical exactly
// when that counter is 0. Engines without a slack contract (kInOrder,
// kNfa) finalize nothing before finish(), so a session running one
// delivers everything there. Open AGG windows and held negation
// candidates seal on every event or clock tick their shard receives, and
// a shard is ticked while it receives no events, so an AGG or negated
// query whose own events pause holds nothing back at any shard count;
// a K-slack query's reorder buffer still does, until its types resume.
// ## Observability
//
// Every Session owns a MetricsRegistry (disable with `.metrics(false)`)
// that is injected into each engine and the shard router before
// construction. `metrics_snapshot()` aggregates the per-engine /
// per-shard slots at any time — including mid-run, the slots are
// lock-free relaxed atomics — and `metrics_text()` renders the
// Prometheus-style text exposition. `.report_every(interval)` starts a
// background reporter thread that periodically hands the exposition to
// `.report_to(fn)` (stderr by default). `.trace(hook)` installs a
// TraceHook on every engine for span-level lifecycle events.
//
// `close()` = stop the reporter + finish(). In sharded mode a worker
// that died on an exception surfaces that exception from close() /
// finish() (and from push() when its queue backs up) instead of
// hanging the producer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/sharded.hpp"

namespace oosp {

// Builder-style declaration of a Session: defaults plus one entry per
// query. Defaults (engine kind, options) apply to queries that do not
// override them, regardless of declaration order.
class SessionConfig {
 public:
  // Default engine kind for queries without an explicit kind.
  SessionConfig& engine(EngineKind kind) {
    default_kind_ = kind;
    return *this;
  }
  // Default options for queries without explicit options.
  SessionConfig& options(EngineOptions options) {
    default_options_ = std::move(options);
    return *this;
  }
  // Convenience tweaks on the default options.
  SessionConfig& slack(Timestamp k) {
    default_options_.slack = k;
    return *this;
  }
  SessionConfig& late_policy(LatePolicy policy) {
    default_options_.late_policy = policy;
    return *this;
  }
  // Enable/disable the session-owned MetricsRegistry (default: enabled).
  // Disabled, every instrument pointer is null and the hot path pays a
  // single predictable branch per site.
  SessionConfig& metrics(bool enabled) {
    metrics_ = enabled;
    return *this;
  }
  // Trace hook installed on every engine (see obs/trace.hpp). The hook
  // runs on whichever thread owns the engine — a shard worker in sharded
  // mode — and must be thread-safe if shards > 1.
  SessionConfig& trace(TraceHook hook) {
    default_options_.trace = hook;
    return *this;
  }
  // Start a background reporter that renders the metrics exposition
  // every `interval` (0 = off, the default) and passes it to the
  // report_to() callback (stderr when unset). Implies metrics(true).
  SessionConfig& report_every(std::chrono::milliseconds interval) {
    report_every_ = interval;
    if (interval.count() > 0) metrics_ = true;
    return *this;
  }
  SessionConfig& report_to(std::function<void(const std::string&)> fn) {
    report_to_ = std::move(fn);
    return *this;
  }

  // Number of parallel shards (1 = single-threaded; default).
  SessionConfig& shards(std::size_t n) {
    shards_ = n;
    return *this;
  }
  // Shared-scan grouping across compatible queries (default: on). Off,
  // every query runs its own engine — the multi-query bench baseline.
  SessionConfig& share_scans(bool enabled) {
    share_scans_ = enabled;
    return *this;
  }
  // Per-shard ingress queue capacity in events (bounded; producer blocks
  // when full). Default kDefaultQueueCapacity (1,024). Once the workers
  // are the bottleneck the rings run full, so an event queues for about
  // capacity × a worker's time per event, and a full ring holds capacity
  // × slot footprint of memory per shard (runtime/sharded.hpp).
  SessionConfig& queue_capacity(std::size_t n) {
    queue_capacity_ = n;
    return *this;
  }

  // ---- Crash recovery (sharded mode only; see runtime/sharded.hpp
  // RecoveryConfig). checkpoint_every(0) — the default — disables
  // supervision: a dead worker fails the session fast. With a cadence
  // set, a dead worker is restored from its last checkpoint and the
  // backup replayed, so the session's output stays exactly-once and
  // bit-identical to a fault-free run. Inactive when the session falls
  // back to single-shard execution (no worker threads to supervise).
  SessionConfig& checkpoint_every(std::size_t consumed_entries) {
    recovery_.checkpoint_every = consumed_entries;
    return *this;
  }
  SessionConfig& max_restarts(std::size_t per_shard_budget) {
    recovery_.max_restarts = per_shard_budget;
    return *this;
  }
  SessionConfig& restart_backoff(std::chrono::milliseconds initial,
                                 std::chrono::milliseconds cap) {
    recovery_.backoff = initial;
    recovery_.max_backoff = cap;
    return *this;
  }
  SessionConfig& on_restart_exhausted(RestartPolicy policy) {
    recovery_.on_exhausted = policy;
    return *this;
  }
  // Fault injection: worker-kill hook (WorkerKillFault::hook()).
  SessionConfig& kill_hook(WorkerKillHook hook) {
    recovery_.kill_hook = std::move(hook);
    return *this;
  }
  // Fault injection: slow-consumer hook, run by each shard worker for
  // every event it processes. The overload test/bench harness.
  SessionConfig& delay_hook(WorkerDelayHook hook) {
    recovery_.delay_hook = std::move(hook);
    return *this;
  }

  // ---- Overload control (sharded mode only; see runtime/overload.hpp).
  // The default policy (OverloadPolicy::kBlock) is the pre-existing
  // unbounded backpressure spin. The shedding policies bound producer
  // push latency by dropping events AT ADMISSION — never inside engines,
  // so checkpoint/replay and exactly-once delivery of admitted events
  // are untouched; kFail bounds it by throwing OverloadError instead.
  // Every shed is accounted: overload_shed(), degraded_accounting(),
  // and the oosp_overload_* instruments. Inert when the session falls
  // back to single-shard execution (no ingress queue to overload).
  SessionConfig& overload(OverloadConfig cfg) {
    overload_ = std::move(cfg);
    return *this;
  }

  // Registers a query. Ids are assigned densely in declaration order.
  // A bare string converts implicitly; `{text, kind}` and
  // `{text, kind, options}` override the session defaults per query.
  SessionConfig& query(QuerySpec spec) {
    declarations_.push_back(std::move(spec));
    return *this;
  }

 private:
  friend class Session;

  EngineKind default_kind_ = EngineKind::kOoo;
  EngineOptions default_options_;
  std::size_t shards_ = 1;
  std::size_t queue_capacity_ = kDefaultQueueCapacity;
  bool share_scans_ = true;
  RecoveryConfig recovery_;
  OverloadConfig overload_;
  bool metrics_ = true;
  std::chrono::milliseconds report_every_{0};
  std::function<void(const std::string&)> report_to_;
  std::vector<QuerySpec> declarations_;
};

class Session {
 public:
  // Compiles every declared query and builds the execution stack.
  // `registry` must outlive the session; the sink is co-owned. Throws
  // QueryAnalysisError on a malformed query.
  Session(const TypeRegistry& registry, SessionConfig config,
          std::shared_ptr<TaggedSink> sink);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Feed events in arrival order; single producer thread. Delivers the
  // results the event made final (see "Output contract").
  void push(const Event& e);

  // Batched ingestion: semantically identical to calling push on
  // each element in order, but amortizes routing, queue transactions and
  // per-event engine overhead across the slice. The span is consumed
  // before return (events are copied into the runtime); the caller's
  // buffer can be reused immediately.
  void push_batch(std::span<const Event> batch);

  // End of stream: flushes the engines (joining shard workers) and
  // delivers every result not yet delivered, in canonical order.
  // Idempotent. Rethrows a dead shard worker's exception (after every
  // thread has been joined, before the final delivery); a repeat call is
  // then a no-op.
  void finish();

  // Orderly shutdown: stops the periodic reporter, then finish().
  // Idempotent AND safe to call concurrently (from a signal/shutdown
  // thread racing the owner, or twice from the same thread): exactly one
  // caller performs the shutdown, the rest wait for it to complete. The
  // place a sharded worker's failure surfaces if the producer never
  // tripped over it in push(); if the shutdown throws, a retry is an
  // orderly no-op.
  void close();

  std::size_t query_count() const noexcept;
  const CompiledQuery& query(QueryId id) const;

  // Per-query counters, aggregated across shards. Requires finish() in
  // sharded mode (the workers own the engines until then).
  EngineStats stats(QueryId id) const;
  // Sum over all queries.
  EngineStats total_stats() const;

  // Effective shard count (1 when sharding was not requested or the
  // query set was not shardable).
  std::size_t shard_count() const noexcept;
  bool sharded() const noexcept { return shard_count() > 1; }
  // Why a shards(N>1) request fell back to 1; empty when it did not.
  const std::string& shard_fallback_reason() const noexcept { return fallback_reason_; }

  // Events of every push / push_batch call the runtime accepted, also
  // counted by the oosp_session_events_total metric. A call refused whole
  // — after finish, or holding an event of the reserved type kTickType
  // (std::invalid_argument) — counts nothing. A call that throws after
  // acceptance has counted all its events, whether or not each reached an
  // engine: a dead worker's rethrown exception, an OverloadError, or a
  // sink that throws during delivery.
  std::uint64_t events_seen() const noexcept { return runner_->events_accepted(); }

  // Quarantined late events (LatePolicy::kQuarantine), drained from
  // every engine at finish()/close() and sorted canonically by
  // (query, ts, id) — identical for every shard count, and checkpoint
  // recovery preserves them exactly-once. Also counted in the
  // oosp_session_quarantine_drained_total metric.
  const std::vector<std::pair<QueryId, Event>>& quarantined() const noexcept {
    return quarantined_;
  }

  // Crash-recovery accounting (sharded mode; all zero otherwise).
  std::size_t restarts() const noexcept;
  std::uint64_t replayed_events() const noexcept;
  std::size_t dropped_shards() const noexcept;
  DegradedAccounting degraded_accounting() const noexcept;

  // Overload accounting (sharded mode; zero otherwise). The per-query
  // view attributes each shed event to every query whose pattern
  // references the event's type.
  std::uint64_t overload_shed() const noexcept;
  std::uint64_t overload_shed(QueryId id) const;

  // Observability. The registry outlives every engine (Session member
  // order); snapshot/text may be called at any time, including mid-run.
  bool metrics_enabled() const noexcept { return metrics_ != nullptr; }
  MetricsRegistry* metrics() noexcept { return metrics_.get(); }
  MetricsSnapshot metrics_snapshot() const;
  std::string metrics_text() const;

 private:
  void start_reporter(std::chrono::milliseconds interval,
                      std::function<void(const std::string&)> fn);
  void stop_reporter();
  const TypeRegistry& registry_;
  std::shared_ptr<TaggedSink> sink_;
  // Declared before the runners: engines hold raw slot pointers into the
  // registry, so it must be destroyed after them.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::vector<ShardQuerySpec> specs_;
  std::string fallback_reason_;
  bool finished_ = false;
  std::once_flag close_once_;
  Counter* quarantine_drained_ = nullptr;
  std::vector<std::pair<QueryId, Event>> quarantined_;

  // Periodic reporter (optional). cv-based stop so close() never waits a
  // full interval.
  std::thread reporter_;
  std::mutex reporter_mu_;
  std::condition_variable reporter_cv_;
  bool reporter_stop_ = false;

  // The execution stack and its ordered merger, for 1..N shards.
  std::unique_ptr<ShardedRunner> runner_;
};

}  // namespace oosp
