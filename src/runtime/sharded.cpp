#include "runtime/sharded.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/contracts.hpp"
#include "common/cpu_relax.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {
namespace {
bool is_tick(const Event& e) noexcept { return e.type == kTickType; }
// The events among ring entries; ticks are not counted.
std::uint64_t events_in(std::span<const Event* const> entries) {
  return std::count_if(entries.begin(), entries.end(), [](const Event* e) { return !is_tick(*e); });
}
}  // namespace

std::string_view to_string(RestartPolicy p) noexcept {
  switch (p) {
    case RestartPolicy::kFail: return "fail";
    case RestartPolicy::kDegradeDropShard: return "degrade-drop-shard";
  }
  return "?";
}

std::optional<PartitionSpec> PartitionSpec::build(std::span<const ShardQuerySpec> specs,
                                                  const TypeRegistry& registry,
                                                  std::string* reject_reason) {
  const auto reject = [&](std::string why) -> std::optional<PartitionSpec> {
    if (reject_reason) *reject_reason = std::move(why);
    return std::nullopt;
  };

  PartitionSpec out;
  out.slots_.assign(registry.size(), kTickOnly);
  for (const ShardQuerySpec& spec : specs) {
    OOSP_REQUIRE(spec.query != nullptr, "PartitionSpec: null query");
    const CompiledQuery& q = *spec.query;
    if (!q.partitionable())
      return reject("query lacks a full equi-join key: " + q.text());
    for (TypeId t = 0; t < registry.size(); ++t) {
      for (const std::size_t step : q.steps_for_type(t)) {
        const std::size_t slot = q.partition_slots()[step];
        if (slot == CompiledStep::npos)
          return reject("negated step outside the equi-join class in: " + q.text());
        if (out.slots_[t] == kTickOnly) {
          out.slots_[t] = slot;
        } else if (out.slots_[t] != slot) {
          return reject("conflicting partition attributes for type '" +
                        std::string(registry.name(t)) + "'");
        }
      }
    }
  }
  return out;
}

ShardedRunner::ShardedRunner(const TypeRegistry& registry,
                             std::vector<ShardQuerySpec> specs, std::size_t num_shards,
                             PartitionSpec partition, std::size_t queue_capacity,
                             MetricsRegistry* metrics, RecoveryConfig recovery,
                             bool share_scans, OverloadConfig overload,
                             std::shared_ptr<TaggedSink> sink)
    : registry_(registry),
      specs_(std::move(specs)),
      partition_(partition),
      queue_capacity_(queue_capacity),
      recovery_(std::move(recovery)),
      share_scans_(share_scans),
      overload_(overload),
      sink_(std::move(sink)),
      merger_(num_shards, metrics),
      inline_(num_shards == 1) {
  OOSP_REQUIRE(num_shards >= 1, "ShardedRunner needs at least one shard");
  if (inline_) {
    // No worker to supervise and no ring to overload.
    recovery_ = RecoveryConfig{};
    overload_ = OverloadConfig{};
  }
  for (const ShardQuerySpec& spec : specs_)
    tick_gap_ = std::max(tick_gap_, spec.options.slack);
  // Per-query shed attribution: which queries consume each event type.
  shed_by_query_.assign(specs_.size(), 0);
  queries_by_type_.assign(registry_.size(), {});
  for (QueryId q = 0; q < specs_.size(); ++q)
    for (TypeId t = 0; t < registry_.size(); ++t)
      if (specs_[q].query->relevant(t)) queries_by_type_[t].push_back(q);
  if (metrics) accepted_obs_ = metrics->counter("oosp_session_events_total");
  if (metrics && !inline_) {
    push_retries_ = metrics->counter("oosp_shard_push_retries_total");
    worker_failures_ = metrics->counter("oosp_shard_worker_failures_total");
    broadcasts_ = metrics->counter("oosp_shard_broadcasts_total");
    if (recovery_.enabled()) {
      checkpoints_ = metrics->counter("oosp_shard_checkpoints_total");
      checkpoint_bytes_ = metrics->gauge("oosp_shard_checkpoint_bytes", GaugeAgg::kMax);
      checkpoint_duration_ =
          metrics->histogram("oosp_shard_checkpoint_duration_us");
      restarts_obs_ = metrics->counter("oosp_shard_restarts_total");
      replayed_obs_ = metrics->counter("oosp_shard_replayed_events_total");
      recovery_duration_ = metrics->histogram("oosp_shard_recovery_duration_us");
      dropped_shards_obs_ = metrics->counter("oosp_shard_dropped_shards_total");
      dropped_events_obs_ = metrics->counter("oosp_shard_dropped_events_total");
    }
  }
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->outbox = std::make_shared<Outbox>(inline_ ? &merger_ : nullptr);
    // Materialize the plan (and its metric slots) here, before any worker
    // thread exists — metrics.hpp's registration guarantee.
    shard->runner = make_runner(*shard);
    if (!inline_) {
      shard->queue = std::make_unique<SpscQueue<Event>>(queue_capacity);
      shard->handoff = std::make_unique<SpscQueue<std::vector<Emission>>>(64);
      if (metrics) {
        shard->queue_depth = metrics->gauge("oosp_shard_queue_depth", GaugeAgg::kMax);
        shard->watermark_lag =
            metrics->gauge("oosp_shard_watermark_lag", GaugeAgg::kMax);
      }
      if (overload_.active())
        shard->monitor = std::make_unique<OverloadMonitor>(
            overload_, shard->queue->capacity(), metrics);
    }
    shards_.push_back(std::move(shard));
  }
  if (inline_) return;
  stages_.resize(num_shards);
  staged_.reserve(num_shards);
  ticks_.reserve(kTickSlots);
  // Start the workers only after every runner is fully built; the thread
  // start is the publication point for the engine state they consume.
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

ShardedRunner::~ShardedRunner() {
  // Stop without delivering: finish() is the orderly path; this only
  // guarantees the threads are gone.
  for (auto& shard : shards_) shard->stop.store(true, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

std::unique_ptr<MultiQueryRunner> ShardedRunner::make_runner(const Shard& shard) const {
  auto runner = std::make_unique<MultiQueryRunner>(registry_, shard.outbox, share_scans_);
  for (const ShardQuerySpec& spec : specs_)
    runner->add_query(spec.query, spec.kind, spec.options);
  runner->prepare();
  return runner;
}

void ShardedRunner::worker_loop(Shard& shard) {
  try {
    // Entries run where they lie in the ring: peek() exposes a run of
    // filled slots, the worker processes each in place, and only then
    // releases the run. The producer's next lap copy-assigns into slots
    // whose attrs kept their capacity, so no per-event heap block is
    // allocated on one thread and freed on the other. Processing stays
    // one entry at a time, so engine-visible order, kill-hook points, and
    // checkpoint cadence are identical to the per-event loop (run
    // boundaries are timing-dependent and must not be observable).
    constexpr std::size_t kWorkerBatch = 256;
    SpinBackoff backoff;
    Timestamp consumed_hwm = shard.consumed_clock.load(std::memory_order_relaxed);
    for (;;) {
      // Occupancy is sampled BEFORE the peek: a genuine size_approx()
      // reading is always within [0, capacity]; it includes the run the
      // worker is about to process, whose slots stay taken until release.
      const std::size_t depth =
          shard.queue_depth ? shard.queue->size_approx() : 0;
      const std::span<Event> run = shard.queue->peek(kWorkerBatch);
      if (!run.empty()) {
        backoff.reset();
        if (shard.watermark_lag) {
          // How far this shard trails the stream: the newest timestamp the
          // producer has routed anywhere minus the one being consumed now.
          const Timestamp newest = global_clock_.load(std::memory_order_relaxed);
          if (newest != kMinTimestamp && newest > run.front().ts)
            shard.watermark_lag->set(newest - run.front().ts);
          shard.queue_depth->set(static_cast<std::int64_t>(depth));
        }
        for (const Event& e : run) {
          // Fault injection: die BEFORE processing, so the victim event is
          // neither reflected in engine state nor covered by a checkpoint —
          // the supervisor must replay it. (Events peeked but not yet
          // processed die with this incarnation, and its ring with them;
          // their consumed count was never advanced, so replay covers
          // them too.)
          process(shard, e);
          ++shard.consumed;
          if (e.ts > consumed_hwm) consumed_hwm = e.ts;
          if (recovery_.enabled() && shard.consumed % recovery_.checkpoint_every == 0)
            checkpoint_shard(shard);
        }
        shard.queue->release(run.size());
        // Progress signal for the producer's overload monitor: the
        // newest stream time this shard has processed.
        shard.consumed_clock.store(consumed_hwm, std::memory_order_relaxed);
        publish(shard);
        continue;
      }
      if (shard.stop.load(std::memory_order_acquire) && shard.queue->empty()) break;
      backoff.pause();
    }
    shard.runner->finish();
    shard.final_stats.clear();  // a dead predecessor may have left partial rows
    shard.final_stats.reserve(shard.runner->query_count());
    for (QueryId q = 0; q < shard.runner->query_count(); ++q)
      shard.final_stats.push_back(shard.runner->stats(q));
  } catch (...) {
    // Publish the failure before the liveness flag: the producer only
    // reads `error` after an acquire load sees dead == true.
    shard.error = std::current_exception();
    if (worker_failures_) worker_failures_->inc();
    shard.dead.store(true, std::memory_order_release);
  }
}

void ShardedRunner::process(Shard& shard, const Event& e) {
  if (is_tick(e)) {
    shard.runner->on_tick(e.ts);
    return;
  }
  if (recovery_.kill_hook && recovery_.kill_hook(e)) throw WorkerKilled(e.id);
  if (recovery_.delay_hook) recovery_.delay_hook(e);
  shard.runner->on_event(e);
}

void ShardedRunner::publish(Shard& shard) {
  std::vector<Emission>& items = shard.outbox->items;
  const bool handed =
      !items.empty() &&
      shard.handoff->try_fill_n(
          1, [&items](std::vector<Emission>& slot, std::size_t) { slot.swap(items); }) == 1;
  // A batch the full ring refused stays parked, and so does the bound
  // that would cover it.
  if (!items.empty()) return;
  const Timestamp bound = shard.runner->release_bound();
  if (bound != shard.published) {
    shard.published = bound;
    shard.bound.store(bound, std::memory_order_release);
  } else if (!handed) {
    return;
  }
  publications_.fetch_add(1, std::memory_order_release);
}

void ShardedRunner::take(Shard& shard, std::vector<Emission>& batch) {
  for (Emission& em : batch) {
    if (!em.retraction) ++shard.received_matches;
    merger_.add(em.query, std::move(em.match), em.retraction);
  }
  shard.received += batch.size();
  batch.clear();
}

void ShardedRunner::take_published(Shard& shard) {
  for (;;) {
    const std::span<std::vector<Emission>> run =
        shard.handoff->peek(shard.handoff->capacity());
    if (run.empty()) return;
    for (std::vector<Emission>& batch : run) take(shard, batch);
    shard.handoff->release(run.size());
  }
}

void ShardedRunner::absorb(Shard& shard) {
  take_published(shard);
  take(shard, shard.outbox->items);
}

void ShardedRunner::collect() {
  if (inline_) {
    merger_.set_bound(0, shards_.front()->runner->release_bound());
    return;
  }
  const std::uint64_t publications = publications_.load(std::memory_order_acquire);
  if (publications == publications_seen_) return;
  publications_seen_ = publications;
  for (auto& shard : shards_) {
    if (shard->dropped) continue;
    // Bound first, then the ring: every emission the bound covers was
    // pushed before the bound was stored.
    const Timestamp bound = shard->bound.load(std::memory_order_acquire);
    take_published(*shard);
    merger_.set_bound(shard->index, bound);
  }
}

void ShardedRunner::deliver(std::size_t events) {
  collect();
  merger_.release(sink_.get(), inline_ ? kBurstPerEvent * events : OrderedMerger::kNoHold);
}

void ShardedRunner::checkpoint_shard(Shard& shard) {
  // Runs on whichever thread currently owns the shard's runner: the live
  // worker at its cadence, or the producer right after a replay.
  const auto t0 = std::chrono::steady_clock::now();
  CheckpointWriter w;
  shard.runner->snapshot(w);
  std::vector<std::uint8_t> bytes = std::move(w).finalize();
  const std::size_t frame_size = bytes.size();
  // The emission count moves with the bytes: a restore from them
  // renumbers the replay's emissions from here.
  shard.ckpt_bytes = std::move(bytes);
  shard.ckpt_bytes_consumed = shard.consumed;
  shard.ckpt_bytes_emitted = shard.outbox->emitted;
  // Trim watermark last (release): a producer that observes it is
  // guaranteed the checkpoint above already happened.
  shard.ckpt_consumed.store(shard.consumed, std::memory_order_release);
  if (checkpoints_) {
    checkpoints_->inc();
    checkpoint_bytes_->set(static_cast<std::int64_t>(frame_size));
    checkpoint_duration_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
}

void ShardedRunner::trim_backup(Shard& shard) {
  const std::uint64_t upto = shard.ckpt_consumed.load(std::memory_order_acquire);
  while (shard.trimmed < upto && !shard.backup.empty()) {
    shard.backup.pop_front();
    ++shard.trimmed;
  }
}

void ShardedRunner::count_dropped(std::uint64_t events) {
  degraded_.dropped_events += events;
  if (dropped_events_obs_) dropped_events_obs_->inc(events);
}

void ShardedRunner::drop_shard(Shard& shard) {
  shard.dropped = true;
  // Everything not yet covered by a checkpoint is lost: the un-replayed
  // backup now, plus whatever the producer routes here later (push_stage
  // counts those and never touches the ring again). What the merger
  // received stays; the shard no longer holds the bound back.
  trim_backup(shard);
  count_dropped(std::count_if(shard.backup.begin(), shard.backup.end(),
                              [](const Event& e) { return !is_tick(e); }));
  shard.backup.clear();
  shard.dead.store(false, std::memory_order_release);
  shard.error = nullptr;
  merger_.set_bound(shard.index, kMaxTimestamp);
  ++degraded_.dropped_shards;
  degraded_.matches_kept += shard.received_matches;
  if (dropped_shards_obs_) dropped_shards_obs_->inc();
}

bool ShardedRunner::supervise_dead_shard(Shard& shard) {
  if (shard.worker.joinable()) shard.worker.join();
  while (true) {
    // Every result the dead incarnation (or a failed replay) emitted is
    // genuine — engines emit only from events they processed — so the
    // merger takes it all; the next replay skips what it already has.
    absorb(shard);
    if (shard.restarts >= recovery_.max_restarts) {
      if (recovery_.on_exhausted == RestartPolicy::kDegradeDropShard) {
        drop_shard(shard);
        return false;
      }
      rethrow_worker_error(shard);
    }
    ++shard.restarts;
    if (restarts_obs_) restarts_obs_->inc();
    // Exponential backoff, capped. Shift count is bounded by the cap
    // check, not the restart count, so a large budget cannot overflow.
    std::chrono::milliseconds wait = recovery_.backoff;
    for (std::size_t i = 1; i < shard.restarts && wait < recovery_.max_backoff; ++i)
      wait *= 2;
    wait = std::min(wait, recovery_.max_backoff);
    if (wait.count() > 0) std::this_thread::sleep_for(wait);

    const auto t0 = std::chrono::steady_clock::now();
    // Rebuild the execution state from scratch; the dead incarnation's
    // queue contents are a suffix of the backup — discard them wholesale.
    shard.queue = std::make_unique<SpscQueue<Event>>(queue_capacity_);
    shard.runner = make_runner(shard);
    try {
      std::uint64_t replayed = 0;
      if (!shard.ckpt_bytes.empty()) {
        CheckpointReader r(shard.ckpt_bytes);
        shard.runner->restore(r);
        r.expect_done();
      }
      const std::uint64_t ckpt_consumed = shard.ckpt_bytes_consumed;
      shard.outbox->emitted = shard.ckpt_bytes_emitted;
      shard.outbox->discard_below = shard.received;
      // Replay the backup suffix the checkpoint does not cover. The backup
      // is trimmed lazily, so it may still hold events the checkpoint
      // already absorbed: skip them.
      OOSP_CHECK(ckpt_consumed >= shard.trimmed,
                 "checkpoint watermark behind the backup trim point");
      const std::uint64_t skip = ckpt_consumed - shard.trimmed;
      for (std::size_t i = static_cast<std::size_t>(skip); i < shard.backup.size(); ++i) {
        // Replay runs the live worker's step, so an event that
        // deterministically crashes processing crashes the replay too —
        // each attempt burns a restart until the budget is spent.
        // Transient faults (WorkerKillFault fires once per victim) kill at
        // most one attempt and then converge. Ticks replay too, uncounted.
        process(shard, shard.backup[i]);
        if (!is_tick(shard.backup[i])) ++replayed;
      }
      shard.consumed = ckpt_consumed + (shard.backup.size() - skip);
      replayed_events_ += replayed;
      if (replayed_obs_) replayed_obs_->inc(replayed);
      // Post-recovery checkpoint: retires the replayed suffix from the
      // ring, bounding a repeat crash.
      checkpoint_shard(shard);
      trim_backup(shard);
      // The producer still owns the shard: hand the replay's new results
      // over and publish the restored runner's bound itself.
      take(shard, shard.outbox->items);
      shard.published = shard.runner->release_bound();
      shard.bound.store(shard.published, std::memory_order_relaxed);
      merger_.set_bound(shard.index, shard.published);
    } catch (...) {
      // Restore/replay failed (e.g. a deterministic engine fault) —
      // charge a restart and try again until the budget runs out.
      shard.error = std::current_exception();
      if (worker_failures_) worker_failures_->inc();
      continue;
    }
    shard.dead.store(false, std::memory_order_release);
    shard.error = nullptr;
    shard.worker = std::thread([this, s = &shard] { worker_loop(*s); });
    if (recovery_duration_)
      recovery_duration_->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    return true;
  }
}

void ShardedRunner::rethrow_worker_error(const Shard& shard) {
  OOSP_CHECK(shard.error != nullptr, "dead shard without a stored exception");
  // Each failure surfaces exactly once: whichever of a push / finish
  // trips over it first throws; a later finish() is orderly teardown.
  error_surfaced_ = true;
  std::rethrow_exception(shard.error);
}

void ShardedRunner::account_shed(Shard& shard, const Event& e, bool forced) {
  if (is_tick(e)) return;  // the next sweep resends the progress
  ++degraded_.shed_events;
  if (e.type < queries_by_type_.size())
    for (const QueryId q : queries_by_type_[e.type]) ++shed_by_query_[q];
  if (Counter* c = shard.monitor->shed_counter()) c->inc();
  if (forced)
    if (Counter* c = shard.monitor->forced_shed_counter()) c->inc();
}

bool ShardedRunner::wait_for_room(Shard& shard,
                                  std::chrono::steady_clock::duration deadline) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  SpinBackoff backoff;
  while (shard.queue->size_approx() >= shard.queue->capacity()) {
    // A dead worker never drains; report "room" so the caller's next
    // copy-in finds the ring full and handles the death (rethrow /
    // supervise) where every other full ring is handled.
    if (shard.dead.load(std::memory_order_acquire)) return true;
    if (std::chrono::steady_clock::now() >= give_up) return false;
    if (push_retries_) push_retries_->inc();
    backoff.pause();
  }
  return true;
}

void ShardedRunner::on_batch(std::span<const Event> batch) {
  OOSP_REQUIRE(!finished_, "push after finish");
  OOSP_REQUIRE(std::none_of(batch.begin(), batch.end(), is_tick),
               "event type id kTickType is reserved for clock ticks");
  events_accepted_ += batch.size();
  if (accepted_obs_) accepted_obs_->inc(batch.size());
  merger_.release_held(sink_.get());
  if (inline_) {
    shards_.front()->runner->on_batch(batch);
  } else {
    route(batch);
  }
  deliver(batch.size());
}

void ShardedRunner::route(std::span<const Event> batch) {
  // Stage pointers, not copies: each event is copied once, straight into
  // its ring slot. Only the shards an event touches are staged, and their
  // stages are cleared here rather than after their push: a push that
  // threw (dead worker, OverloadError) left the rest of its stage —
  // pointers into the previous caller's batch — behind, and those must
  // never reach a ring. Stages keep their capacity, so once they have
  // grown to the largest batch, staging allocates nothing.
  const auto clear_stages = [this] {
    for (const std::size_t i : staged_) stages_[i].clear();
    staged_.clear();
    ticks_.clear();
  };
  clear_stages();
  const auto stage = [this](std::size_t i, const Event& e) {
    if (stages_[i].empty()) staged_.push_back(i);
    stages_[i].push_back(&e);
    shards_[i]->routed_clock = std::max(shards_[i]->routed_clock, e.ts);
  };
  for (const Event& e : batch) {
    Timestamp now = global_clock_.load(std::memory_order_relaxed);
    if (e.ts > now) global_clock_.store(now = e.ts, std::memory_order_relaxed);
    const std::size_t slot = partition_.slot_for(e.type);
    if (slot == PartitionSpec::kTickOnly || slot >= e.attrs.size()) {
      // Relevant to no query (pure clock progress) — every shard needs it.
      // A keyed type whose event is missing the key attribute (malformed
      // input) also lands here: broadcast is harmless because schema
      // validation rejects it inside each engine before it touches state.
      if (broadcasts_) broadcasts_->inc();
      for (std::size_t i = 0; i < shards_.size(); ++i) stage(i, e);
    } else {
      stage(hasher_(e.attrs[slot]) % shards_.size(), e);
    }
    // Once per tick_gap_ of stream time, a tick for each shard that trails
    // the clock by more: per event, so the arrivals alone place it.
    if (now < next_tick_sweep_) continue;
    next_tick_sweep_ = now > kMaxTimestamp - tick_gap_ ? kMaxTimestamp : now + tick_gap_;
    const Timestamp stale = now < kMinTimestamp + tick_gap_ ? kMinTimestamp : now - tick_gap_;
    const Event* tick = nullptr;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->dropped || shards_[i]->routed_clock >= stale) continue;
      if (tick == nullptr) {
        if (ticks_.size() == kTickSlots) {
          for (const std::size_t j : staged_) push_stage(*shards_[j], stages_[j]);
          clear_stages();
        }
        tick = &ticks_.emplace_back(Event{.type = kTickType, .ts = now});
      }
      stage(i, *tick);
    }
  }
  for (const std::size_t i : staged_) push_stage(*shards_[i], stages_[i]);
}

void ShardedRunner::push_stage(Shard& shard, std::vector<const Event*>& stage) {
  if (shard.dropped) {
    count_dropped(events_in(stage));
    return;
  }
  if (shard.dead.load(std::memory_order_acquire)) {
    // Without supervision, fail fast even when the ring still has room:
    // its events would never be consumed anyway.
    if (!recovery_.enabled()) rethrow_worker_error(shard);
    if (!supervise_dead_shard(shard)) {
      count_dropped(events_in(stage));
      return;
    }
  }
  if (shard.monitor) {
    // Overload admission comes before the backup: a shed event never
    // enters the execution stack (no backup entry, no replay, no
    // checkpoint), so exactly-once delivery of admitted events is
    // untouched by shedding. Each event's lateness is measured against
    // the clock high-water mark routing already advanced; pressure is
    // graded once per stage. Ticks are neither sampled nor shed.
    OverloadMonitor& mon = *shard.monitor;
    const Timestamp clock = global_clock_.load(std::memory_order_relaxed);
    const auto lateness = [clock](const Event* e) { return clock > e->ts ? clock - e->ts : 0; };
    for (const Event* e : stage)
      if (!is_tick(*e)) mon.observe(lateness(e));
    const Timestamp consumed = shard.consumed_clock.load(std::memory_order_relaxed);
    const Pressure p =
        mon.assess(shard.queue->size_approx(),
                   consumed != kMinTimestamp && clock > consumed ? clock - consumed : 0);
    // Price each event first: under pressure, arrivals past the adaptive
    // cut are shed before the ring is even full, leaving its room to the
    // fresh events that still have sealed results ahead of them.
    if (overload_.policy == OverloadPolicy::kShedByLateness)
      std::erase_if(stage, [&](const Event* e) {
        if (is_tick(*e) || !mon.shed_late(lateness(e), p)) return false;
        account_shed(shard, *e, false);
        return true;
      });
  }
  std::span<const Event* const> rest(stage);
  SpinBackoff backoff;
  while (!rest.empty()) {
    const std::size_t n = shard.queue->try_copy_in_n(rest);
    if (n > 0) {
      if (recovery_.enabled()) {
        // The chunk joins the backup in the step that copied it in, and
        // supervision runs only on this thread: a replay then covers every
        // event a dead incarnation may have lost, and none still in `rest`.
        for (const Event* e : rest.first(n)) shard.backup.push_back(*e);
        trim_backup(shard);
        OOSP_ASSERT(shard.backup.size() <=
                    shard.queue->capacity() + recovery_.checkpoint_every);
      }
      rest = rest.subspan(n);
      backoff.reset();
      continue;
    }
    if (shard.dead.load(std::memory_order_acquire)) {
      // Full, and nobody will ever drain it.
      if (!recovery_.enabled()) rethrow_worker_error(shard);
      if (!supervise_dead_shard(shard)) {
        count_dropped(events_in(rest));
        return;
      }
      continue;  // into the respawned worker's empty ring
    }
    // Full with a live worker: the policy decides for the rest of the
    // stage, its newest events.
    switch (overload_.policy) {
      case OverloadPolicy::kBlock:
        break;
      case OverloadPolicy::kShedNewest:
        // Quality-blind: the newest arrivals go the moment the ring is
        // full. Tightest producer-latency bound.
        for (const Event* e : rest) account_shed(shard, *e, false);
        return;
      case OverloadPolicy::kShedByLateness:
        if (wait_for_room(shard, overload_.fresh_wait)) continue;
        // Fresh events hit the deadline: the cut is too permissive for the
        // offered load. Shed them (bounded latency wins) and tighten.
        shard.monitor->note_forced_shed();
        for (const Event* e : rest) account_shed(shard, *e, true);
        return;
      case OverloadPolicy::kFail:
        if (wait_for_room(shard, overload_.fail_deadline)) continue;
        throw OverloadError(shard.index, std::chrono::duration_cast<std::chrono::milliseconds>(
                                             overload_.fail_deadline));
    }
    if (push_retries_) push_retries_->inc();
    backoff.pause();
  }
}

void ShardedRunner::finish() {
  if (finished_) return;
  finished_ = true;
  if (inline_) {
    shards_.front()->runner->finish();
    merger_.release_all(sink_.get());
    return;
  }
  for (auto& shard : shards_) shard->stop.store(true, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  if (recovery_.enabled()) {
    // A worker that died during the drain (or earlier, with nothing routed
    // to it since) is recovered even now: supervision restores + replays,
    // and because stop is already set the respawned incarnation drains its
    // (empty) queue, finishes, and exits — loop until the shard ends the
    // run alive with final stats recorded, or is dropped.
    for (auto& shard : shards_) {
      while (shard->dead.load(std::memory_order_acquire)) {
        if (!supervise_dead_shard(*shard)) break;  // dropped
        if (shard->worker.joinable()) shard->worker.join();
      }
    }
  }
  // All threads are gone; surface the first failure (deterministically by
  // shard index) now that the runner is safe to destroy — unless the
  // producer already took it from a push. finished_ was set first, so a
  // retry does not re-join or re-throw — accessors below still work for
  // the surviving shards.
  if (!error_surfaced_)
    for (auto& shard : shards_)
      if (shard->dead.load(std::memory_order_acquire)) rethrow_worker_error(*shard);
  // Every stream is final: the rest goes out in canonical order.
  for (auto& shard : shards_) absorb(*shard);
  merger_.release_all(sink_.get());
}

EngineStats ShardedRunner::stats(QueryId id) const {
  if (inline_) return shards_.front()->runner->stats(id);
  OOSP_CHECK(finished_, "stats before finish (workers still own the engines)");
  EngineStats merged;
  for (const auto& shard : shards_) {
    // A shard whose worker died never recorded final stats; its partial
    // counters are unreadable (the engines may be mid-mutation), so the
    // merge covers the surviving shards only.
    if (shard->final_stats.empty()) continue;
    merged += shard->final_stats.at(id);
  }
  return merged;
}

std::vector<std::pair<QueryId, Event>> ShardedRunner::drain_quarantine() {
  OOSP_CHECK(finished_, "drain_quarantine before finish");
  std::vector<std::pair<QueryId, Event>> out;
  for (auto& shard : shards_) {
    auto drained = shard->runner->drain_quarantine();
    std::move(drained.begin(), drained.end(), std::back_inserter(out));
  }
  return out;
}

std::size_t ShardedRunner::restarts_total() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->restarts;
  return total;
}

DegradedAccounting ShardedRunner::degraded_accounting() const noexcept {
  return degraded_;
}

}  // namespace oosp
