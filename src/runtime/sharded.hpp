// Sharded parallel execution: partition-by-key scale-out of the
// multi-query runtime across worker threads, with one ordered merger
// delivering every result to the sink while events are still arriving.
//
// The model follows the standard recipe for ordered stream workloads
// ("Scaling Ordered Stream Processing on Shared-Memory Multicores",
// Prasaad et al.): hash-partition arriving events by the queries'
// equi-join key across N shards, run a full single-threaded engine set
// per shard, and merge the emitted results into one canonical order.
//
//   producer thread                      worker threads (one per shard)
//   ───────────────                      ─────────────────────────────
//   on_batch(events), on_event = a batch of one:
//     slot  = PartitionSpec[e.type]
//     shard = hash(e.attr(slot)) % N  ─► SPSC ring ─► MultiQueryRunner
//                                         (own engines, own clocks,
//                                          own stats, no shared state)
//     merger ◄── hand-off ring ◄──────── emissions + release bound,
//       │                                 published after every run
//       └─► sink, in canonical order, up to the minimum bound
//   finish(): stop+join, per-shard runner.finish(), deliver the rest.
//
// One shard runs inline on the producer thread (no worker, no rings): a
// worker at one shard would only spin the producer. Its runner emits
// straight into the same merger, so 1 and N shards share one delivery
// path. Recovery and overload control need a worker and are inert there.
//
// Why per-shard execution is exact: a shardable query set forces every
// event type onto ONE partition attribute (see PartitionSpec), so any
// two events that could ever appear in the same match carry the same
// key and land in the same shard. Events of other keys only ever
// affected an engine through its CLOCK (purge horizons, negation
// sealing); a shard clock that lags the global clock delays purging and
// sealing — both conservative — and finish() seals everything, so the
// final match multiset is bit-identical to a single-threaded run.
//
// Output order: results are delivered in the canonical order (seal_ts,
// query, match key), where seal_ts is the match's final (largest) bound
// timestamp — an intrinsic property of the match, not of emission
// timing (runtime/merger.hpp). Each shard publishes its runner's release
// bound (MultiQueryRunner::release_bound) after every run it processes;
// the merger releases up to the minimum over live shards. On a stream
// that keeps its slack contract every shard count, including 1, yields
// the same ordered sequence; a contract violation can make a result late
// (delivered at once, out of order, and counted).
//
// Idle shards: a shard that receives no events would hold the minimum
// bound back forever, so the producer sends a clock TICK to any shard
// whose newest routed timestamp trails the global clock by more than the
// slack: a ring entry of type kTickType, right behind the event whose
// arrival made it due. The runner hands it to the engines that wait on
// the clock (MultiQueryRunner::on_tick); it is backed up and replayed
// like an event, but no hook sees it and no counter moves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "obs/metrics.hpp"
#include "runtime/degraded.hpp"
#include "runtime/merger.hpp"
#include "runtime/multi_query.hpp"
#include "runtime/overload.hpp"
#include "stream/faults.hpp"

namespace oosp {

// The type id of a clock tick in a shard's ring. Reserved: a pushed event
// carrying it is refused (ShardedRunner::on_batch).
inline constexpr TypeId kTickType = kInvalidType - 1;

// Per-event-type routing decision for a query set. Built once up front;
// construction FAILS (returns nullopt with a reason) when the query set
// cannot be sharded safely:
//   * a query without a full equi-join key (not partitionable), or with
//     a negated step outside the key's equality class — its events
//     would need to be visible to every key's candidates;
//   * two queries keying the same event type on different attributes —
//     no single hash routes the type correctly for both.
// Callers (Session) fall back to single-shard execution in that case.
class PartitionSpec {
 public:
  static constexpr std::size_t kTickOnly = static_cast<std::size_t>(-1);

  static std::optional<PartitionSpec> build(std::span<const ShardQuerySpec> specs,
                                            const TypeRegistry& registry,
                                            std::string* reject_reason = nullptr);

  // Attribute slot whose value partitions events of type `t`, or
  // kTickOnly when the type is relevant to no query (such events only
  // advance clocks and are broadcast to every shard).
  std::size_t slot_for(TypeId t) const noexcept {
    return t < slots_.size() ? slots_[t] : kTickOnly;
  }

 private:
  std::vector<std::size_t> slots_;  // by TypeId
};

// What to do with a shard whose worker keeps dying after its restart
// budget is spent.
enum class RestartPolicy : std::uint8_t {
  // Rethrow the worker's exception to the producer — the PR 3 fail-fast
  // behavior, now reached only after every restart was exhausted.
  kFail,
  // Drop the shard and complete the run without it. The results the
  // merger already received from it are kept; the events it had not
  // finished are lost with accounting (DegradedAccounting). The other
  // shards are untouched.
  kDegradeDropShard,
};

std::string_view to_string(RestartPolicy p) noexcept;

// Crash-recovery policy for the sharded runtime. checkpoint_every == 0
// disables supervision entirely: a dead worker fails the session fast,
// exactly as before this subsystem existed.
struct RecoveryConfig {
  // Per-shard checkpoint cadence in CONSUMED ring entries, ticks included
  // (the count indexes the backup). Each checkpoint serializes the shard's
  // full engine state (runtime/checkpoint.hpp) and records how many
  // results the shard had emitted by then; the upstream-backup ring is
  // trimmed to the checkpoint, so this knob bounds both replay work and
  // backup memory. Delivery never waits for a checkpoint. 0 = off.
  std::size_t checkpoint_every = 0;
  // Restart budget per shard (lifetime, not consecutive).
  std::size_t max_restarts = 3;
  // Backoff before restart attempt n (1-based): backoff << (n-1), capped
  // at max_backoff.
  std::chrono::milliseconds backoff{5};
  std::chrono::milliseconds max_backoff{1000};
  RestartPolicy on_exhausted = RestartPolicy::kFail;
  // Fault injection: consulted immediately before each event (never a
  // tick) is processed — by the live worker loop AND by recovery replay,
  // which runs the same processing path; true = throw WorkerKilled there.
  // A deterministic poison event therefore keeps killing until the restart
  // budget is spent, while transient faults (stream/faults.hpp
  // WorkerKillFault::hook() fires once per victim) kill at most one
  // attempt each and recovery converges.
  WorkerKillHook kill_hook;
  // Fault injection: slow-consumer throttle, invoked for every event a
  // worker is about to process (live loop and recovery replay alike).
  // Like kill_hook it is consulted regardless of enabled() — it injects
  // a consumer-side fault, not a recovery behavior.
  WorkerDelayHook delay_hook;

  bool enabled() const noexcept { return checkpoint_every > 0; }
};

// Default per-shard ingress ring capacity, in events. Once the workers are
// the bottleneck the rings run full, and an event then waits about
// capacity × the worker's time per event before it runs (~0.1–0.3 ms at
// 1,024 slots and 100–270 ns per event; 8,192 slots queued ~1–2 ms).
// Ring slots are reused, never freed, so a full ring stays resident:
// in-flight memory is capacity × shards × slot footprint, where a slot is
// sizeof(Event) (56 B) plus the attrs block it keeps from its last
// occupant (32 B for a 2-attribute event), ~90 KB per full ring
// (DESIGN.md §3.6).
inline constexpr std::size_t kDefaultQueueCapacity = 1024;

class ShardedRunner {
 public:
  // `registry` must outlive the runner (and `metrics`, when given).
  // Engines are constructed in the calling thread (each shard runner's
  // plan is prepared before any worker starts, so metric-slot
  // registration never races the workers); workers start immediately and
  // wait on their queues. With num_shards == 1 the shard runs inline and
  // `partition`, `queue_capacity`, `recovery` and `overload` are unused.
  // `share_scans` gates the per-shard shared-scan grouping pass (see
  // runtime/planner.hpp). Results go to `sink` in canonical order, called
  // only from on_event / on_batch / finish; a null sink discards them.
  ShardedRunner(const TypeRegistry& registry, std::vector<ShardQuerySpec> specs,
                std::size_t num_shards, PartitionSpec partition,
                std::size_t queue_capacity = kDefaultQueueCapacity,
                MetricsRegistry* metrics = nullptr, RecoveryConfig recovery = {},
                bool share_scans = true, OverloadConfig overload = {},
                std::shared_ptr<TaggedSink> sink = nullptr);
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  // Producer side; single-threaded. Refuses a slice holding an event of
  // type kTickType (std::invalid_argument) before it touches anything;
  // otherwise accepts the whole slice into events_accepted() first, so a
  // call that throws later has counted all of it. Partitions the slice into
  // per-shard stages of pointers into `batch`, each event followed by the
  // ticks it makes due, and copies each stage straight into its shard's
  // ring slots with bulk copy-in transactions (one acquire/release pair
  // per chunk). Slots keep their attrs capacity from the previous lap, so
  // the hand-off allocates nothing. For each stage, in this order:
  //   * a dropped shard's events are counted as dropped;
  //   * a dead worker (its engine threw) rethrows its exception, even
  //     with ring room to spare, or is supervised when recovery is on;
  //   * the overload policy admits, sheds, or throws OverloadError
  //     (runtime/overload.hpp); under OverloadPolicy::kBlock (the
  //     default) a full ring blocks with pause/yield backoff, so
  //     backpressure preserves arrival order;
  //   * with recovery on, each copied chunk joins the shard's upstream
  //     backup in the producer step that copied it in.
  // A tick takes this path too, but is never sampled, shed by lateness or
  // counted. Workers process per entry, so engine-visible order, kill-hook
  // points and checkpoint cadence do not depend on how the input was
  // batched. At one shard the slice goes to the inline runner's on_batch.
  // Before returning, hands the sink every result that has become final.
  void on_batch(std::span<const Event> batch);
  void on_event(const Event& e) { on_batch({&e, 1}); }

  // Drains the queues, joins the workers, runs per-shard finish() and
  // delivers every remaining result. Idempotent. After it returns, the
  // accessors below are valid. If any worker died on an exception, the
  // first shard's error (by shard index) is rethrown here, before the
  // final delivery — after every thread has been joined, so the runner
  // is still destructible and the survivors' stats remain readable.
  void finish();

  // Cross-shard aggregate (EngineStats::operator+=). Any time at one
  // shard; after finish() otherwise (the workers own the engines).
  EngineStats stats(QueryId id) const;

  // After finish(): union of every shard's quarantined late events
  // (LatePolicy::kQuarantine), tagged with the owning query id. Shard
  // concatenation order; callers wanting a canonical order sort by
  // (query, ts, id). Quarantine state rides in checkpoints, so a
  // recovered shard reports exactly the events an uninterrupted run
  // would have.
  std::vector<std::pair<QueryId, Event>> drain_quarantine();

  std::size_t shard_count() const noexcept { return shards_.size(); }

  // Events of every on_batch / on_event call that passed the refusal
  // check (producer thread). Mirrored by the oosp_session_events_total
  // counter when metrics are on.
  std::uint64_t events_accepted() const noexcept { return events_accepted_; }

  // Supervision accounting (producer thread; exact after finish()).
  std::size_t restarts_total() const noexcept;
  std::uint64_t replayed_events_total() const noexcept { return replayed_events_; }
  DegradedAccounting degraded_accounting() const noexcept;

  // Overload accounting (producer thread; exact after finish()). The
  // per-query view attributes each shed event to every query whose
  // pattern references its type — the queries whose input actually
  // thinned; broadcast (tick-only) sheds are counted in the total only.
  std::uint64_t shed_events_total() const noexcept { return degraded_.shed_events; }
  std::uint64_t shed_events(QueryId id) const { return shed_by_query_.at(id); }

 private:
  // One result parked between a worker and the merger.
  struct Emission {
    QueryId query = 0;
    Match match;
    bool retraction = false;
  };

  // Where a shard's runner emits. Emissions are numbered in emission
  // order across all of the shard's incarnations; a restored incarnation
  // restarts at the checkpoint's number, and the replay's numbers the
  // merger already received are dropped — deterministic replay makes
  // them the same results. An inline shard hands the rest straight to the
  // merger; a worker parks them in `items` until it publishes.
  class Outbox final : public TaggedSink {
   public:
    explicit Outbox(OrderedMerger* direct) : direct_(direct) {}
    void on_match(QueryId query, Match&& m) override { put(query, std::move(m), false); }
    void on_retract(QueryId query, const Match& m) override { put(query, Match(m), true); }

    std::vector<Emission> items;
    std::uint64_t emitted = 0;        // numbers handed out so far
    std::uint64_t discard_below = 0;  // numbers the merger already has

   private:
    void put(QueryId query, Match&& m, bool retraction) {
      if (emitted++ < discard_below) return;
      if (direct_ != nullptr) {
        direct_->add(query, std::move(m), retraction);
      } else {
        items.push_back(Emission{query, std::move(m), retraction});
      }
    }
    OrderedMerger* direct_;
  };

  struct Shard {
    std::size_t index = 0;  // position in shards_ (stable; set once)
    std::unique_ptr<SpscQueue<Event>> queue;  // null for an inline shard
    std::shared_ptr<Outbox> outbox;             // every incarnation's sink
    std::unique_ptr<MultiQueryRunner> runner;
    std::thread worker;
    std::atomic<bool> stop{false};
    // Liveness: set (release) by the worker when its loop dies on an
    // exception; the producer's backpressure spin and finish() check it
    // (acquire) and rethrow `error` instead of waiting forever on a
    // queue nobody will drain. `error` is written before the release
    // store and only read after an acquire load observes dead == true.
    std::atomic<bool> dead{false};
    std::exception_ptr error;
    // Written by the worker after its final finish(), read by the
    // producer after join() — the join is the synchronization point.
    std::vector<EngineStats> final_stats;
    // Per-shard observability slots (null when metrics are disabled).
    // Ingress occupancy, scrape keeps max. Counts the events the worker
    // is still running: their slots are released only afterwards.
    Gauge* queue_depth = nullptr;
    Gauge* watermark_lag = nullptr;  // global clock − event ts at dequeue
    // Overload pressure assessment (producer-owned; null at kBlock).
    std::unique_ptr<OverloadMonitor> monitor;

    // ---- Result hand-off (worker shards). The worker swaps its batch of
    // emissions into a ring slot and then stores the release bound that
    // covers them; the producer loads the bound first and drains the
    // ring after, so it never releases past a result it has not
    // received. A full ring never blocks the worker: it keeps the batch
    // and the old bound and retries after its next run.
    std::unique_ptr<SpscQueue<std::vector<Emission>>> handoff;
    // The worker writes the next three after every run, and the producer
    // writes routed_clock on every push. Each group starts a cache line of
    // its own, so neither side's writes evict the fields the other reads
    // on its hot path (the producer reads queue, dead and monitor on
    // every push).
    alignas(64) std::atomic<Timestamp> bound{kMinTimestamp};
    Timestamp published = kMinTimestamp;  // owner's copy of `bound`
    // High-water mark of consumed event timestamps, published (relaxed)
    // by the worker per pop batch; the producer's overload monitor reads
    // it to grade watermark lag. Advisory — never used for correctness.
    std::atomic<Timestamp> consumed_clock{kMinTimestamp};
    // Producer-owned.
    alignas(64) Timestamp routed_clock = kMinTimestamp;  // newest ts routed here, ticks included
    std::uint64_t received = 0;          // emissions the merger took from here
    std::uint64_t received_matches = 0;  // of which matches

    // ---- Supervision state; all of it idle when recovery is disabled.
    //
    // Producer-owned upstream backup: every ring entry (event or tick)
    // pushed to this shard whose processing is not yet covered by a
    // checkpoint. Entry i (since `trimmed` were popped) is the
    // (trimmed+i)-th entry ever pushed; trimming follows the worker's
    // published checkpoint watermark. It holds at most ring capacity +
    // checkpoint_every entries: the unreleased ring slots plus the entries
    // consumed since the last checkpoint.
    std::deque<Event> backup;
    std::uint64_t trimmed = 0;  // backup entries retired to a checkpoint
    std::size_t restarts = 0;   // lifetime restart count (producer-owned)
    bool dropped = false;       // kDegradeDropShard spent the budget

    // Checkpoint: the engine bytes and the entry and emission counts they
    // account for. Whichever thread owns the runner writes them: the live
    // worker at its cadence, or the producer after a replay. The producer
    // reads them only in supervise_dead_shard, after joining the worker
    // and before respawning it, so the join and the thread start order
    // every access. `ckpt_consumed` is the one field the producer reads
    // while the worker runs, to trim the backup; it is stored (release)
    // after the bytes, so a trim never outruns the checkpoint.
    std::vector<std::uint8_t> ckpt_bytes;   // empty = no checkpoint yet
    std::uint64_t ckpt_bytes_consumed = 0;  // consumed count the bytes describe
    std::uint64_t ckpt_bytes_emitted = 0;   // emission count the bytes describe
    std::atomic<std::uint64_t> ckpt_consumed{0};

    // Ring entries (events and ticks) processed by the current
    // incarnation's runner. Owned by the live worker; ownership passes to
    // the producer at join() and back at respawn.
    std::uint64_t consumed = 0;
  };

  // Runs each entry where it lies in the ring, then releases its slots
  // and publishes the run's results.
  void worker_loop(Shard& shard);
  // One worker step: a tick goes to the runner's on_tick, an event to the
  // kill hook, the delay hook, then on_event. The live loop and recovery
  // replay both take it, so replay runs the live path by construction.
  void process(Shard& shard, const Event& e);
  // Hands the outbox's emissions and the runner's release bound to the
  // producer (worker thread; see Shard::handoff).
  void publish(Shard& shard);
  // Producer side of the hand-off: on news from any worker (one atomic
  // load otherwise), moves published emissions into the merger and
  // updates the shards' bounds; at one shard, reads the inline bound.
  void collect();
  // Producer: moves the shard's published batches into the merger.
  void take_published(Shard& shard);
  // Producer, once the shard's worker is joined: everything its
  // incarnation emitted — published or not — goes to the merger.
  void absorb(Shard& shard);
  void take(Shard& shard, std::vector<Emission>& batch);
  // collect() + release every final result to the sink at the end of a
  // call that ingested `events` events.
  void deliver(std::size_t events);
  // on_batch's routing: stages the slice and the ticks it makes due per
  // shard (only the shards it touches), then pushes each stage.
  void route(std::span<const Event> batch);
  // The one producer path into a shard's ring, in on_batch's order:
  // dropped shard, dead worker, overload admission, bulk copy-in with
  // each chunk appended to the backup. Shed events leave `stage`.
  void push_stage(Shard& shard, std::vector<const Event*>& stage);
  [[noreturn]] void rethrow_worker_error(const Shard& shard);
  std::unique_ptr<MultiQueryRunner> make_runner(const Shard& shard) const;

  // ---- Overload control (producer thread; see runtime/overload.hpp).
  //
  // Spins (with backoff) until the ring has room or `deadline` passes;
  // returns false on deadline. A dead worker aborts the wait with true:
  // the caller's next copy-in finds the ring full and handles the death.
  bool wait_for_room(Shard& shard, std::chrono::steady_clock::duration deadline);
  // Books one shed event: DegradedAccounting, per-query attribution,
  // and the shard monitor's metric slots.
  void account_shed(Shard& shard, const Event& e, bool forced);

  // Supervision internals (recovery enabled only).
  void checkpoint_shard(Shard& shard);          // worker thread (or producer mid-recovery)
  void trim_backup(Shard& shard);               // producer thread
  // Join the dead worker, restore + replay with bounded retries, respawn.
  // Returns false when the shard was dropped (kDegradeDropShard);
  // rethrows the worker error on kFail exhaustion (or recovery disabled).
  bool supervise_dead_shard(Shard& shard);
  void drop_shard(Shard& shard);
  // Books events lost with a dropped shard (DegradedAccounting + metric).
  void count_dropped(std::uint64_t events);

  const TypeRegistry& registry_;
  std::vector<ShardQuerySpec> specs_;
  PartitionSpec partition_;
  std::size_t queue_capacity_;
  RecoveryConfig recovery_;
  bool share_scans_ = true;
  OverloadConfig overload_;
  std::shared_ptr<TaggedSink> sink_;
  // Declared before shards_: an inline shard's outbox points into it.
  OrderedMerger merger_;
  // The inline shard's burst hold (OrderedMerger::release): when one call
  // finalizes more results than this per event it ingested — one event
  // sealing an AGG slide for every key — the sink gets them at the start
  // of the next call, so no single push pays for both the sealing and the
  // delivery. Worker shards never hold: the producer does not seal
  // anything, and a call there collects whatever runs the workers
  // published.
  static constexpr std::size_t kBurstPerEvent = 16;
  // Per-TypeId list of queries whose pattern references the type, for
  // per-query shed attribution (built once in the constructor).
  std::vector<std::vector<QueryId>> queries_by_type_;
  std::vector<std::uint64_t> shed_by_query_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool inline_ = false;  // one shard, run on the producer thread
  ValueHasher hasher_;
  bool finished_ = false;
  std::uint64_t events_accepted_ = 0;
  // A dead worker's exception has already been rethrown to the caller
  // (from a push or from finish); finish() then stays quiet so teardown
  // after a caught failure is orderly. Producer-thread only.
  bool error_surfaced_ = false;
  // Producer-maintained high-water mark of routed event timestamps; the
  // workers read it (relaxed) to report how far each lags the stream.
  std::atomic<Timestamp> global_clock_{kMinTimestamp};
  // Bumped (release) by a worker after each publication; the producer
  // scans the shards only when it moved.
  std::atomic<std::uint64_t> publications_{0};
  std::uint64_t publications_seen_ = 0;
  // Tick cadence: the widest query slack (at least 1). The producer
  // sweeps the shards once per tick_gap_ of stream time.
  Timestamp tick_gap_ = 1;
  Timestamp next_tick_sweep_ = kMinTimestamp;
  // route() scratch: the ticks staged this call, reserved once; route
  // pushes its stages before a new tick would reallocate under them.
  static constexpr std::size_t kTickSlots = 64;
  std::vector<Event> ticks_;
  // Runner-level observability slots (null when metrics are disabled).
  Counter* accepted_obs_ = nullptr;     // events_accepted_, at every shard count
  Counter* push_retries_ = nullptr;     // producer spins on a full queue
  Counter* worker_failures_ = nullptr;  // workers killed by an exception
  Counter* broadcasts_ = nullptr;       // tick-only events sent to every shard
  // Recovery instruments.
  Counter* checkpoints_ = nullptr;        // checkpoints taken, all shards
  Gauge* checkpoint_bytes_ = nullptr;     // last frame size (scrape keeps max)
  Histogram* checkpoint_duration_ = nullptr;  // serialize wall time, us
  Counter* restarts_obs_ = nullptr;       // worker respawns
  Counter* replayed_obs_ = nullptr;       // events re-fed from the backup
  Histogram* recovery_duration_ = nullptr;  // restore+replay wall time, us
  Counter* dropped_shards_obs_ = nullptr;
  Counter* dropped_events_obs_ = nullptr;
  std::uint64_t replayed_events_ = 0;
  DegradedAccounting degraded_;
  // route() scratch: per-shard pointers into the caller's batch, and the
  // indices of the shards the last call staged (cleared at the start of
  // the next call; capacity persists across calls).
  std::vector<std::vector<const Event*>> stages_;
  std::vector<std::size_t> staged_;
};

}  // namespace oosp
