#include "engine/buffer/kslack_engine.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {

KSlackEngine::KSlackEngine(EngineContext ctx, const EngineFactory& factory)
    : PatternEngine(std::move(ctx)),
      clock_(options_.slack),
      estimator_(options_.slack_estimator, options_.slack),
      stamp_(std::make_shared<StampSink>(sink_, clock_)) {
  OOSP_REQUIRE(options_.slack >= 0, "slack must be non-negative");
  // The wrapper owns admission: the inner engine sees an already
  // validated, deduplicated, in-order stream, so running its own gates
  // would only double-count (and its late policy could never fire).
  EngineOptions inner_options = options_;
  inner_options.registry = nullptr;
  inner_options.dedup_by_id = false;
  inner_options.late_policy = LatePolicy::kAdmit;
  inner_options.adaptive_slack = false;
  // The inner engine re-sees every released event; arrival-side
  // instruments stay with this wrapper so the registry counts each event
  // once (mirrors the stats_snapshot() merge below).
  inner_options.obs_arrival_side = false;
  inner_ = factory(EngineContext{ctx_.query, stamp_, inner_options});
  OOSP_REQUIRE(inner_ != nullptr, "engine factory returned null");
  obs_.add_reorder_buffer(options_.metrics);
}

void KSlackEngine::on_event(const Event& e) {
  const Event* one = &e;
  on_batch(std::span<const Event* const>(&one, 1));
}

void KSlackEngine::on_batch(std::span<const Event* const> batch) {
  if (batch.empty()) return;
  stats_.events_seen += batch.size();
  EngineObs::inc(obs_.events, batch.size());
  for (const Event* e : batch) ingest(*e);
  // One footprint sample per batch: inner_->stats_snapshot() copies the
  // whole stats block, which dominated the per-event hot path. A batch of
  // one samples at exactly the seed's point, so footprint_peak is
  // unchanged for per-event feeding.
  stats_.note_footprint(live() + admission_.quarantine_size() +
                        inner_->stats_snapshot().footprint());
  EngineObs::set(obs_.reorder_depth, static_cast<std::int64_t>(live()));
  EngineObs::set(obs_.effective_slack, clock_.slack());
}

void KSlackEngine::ingest(const Event& e) {
  if (!admission_.admit(e)) return;
  const Timestamp lateness = clock_.observe(e);
  if (lateness > 0) {
    ++stats_.late_events;
    EngineObs::inc(obs_.late);
  }
  if (options_.adaptive_slack) {
    estimator_.observe(lateness);
    const Timestamp est = estimator_.estimate();
    if (est > clock_.slack()) {
      clock_.set_slack(est);
      ++stats_.slack_grows;
    } else if (est < clock_.slack()) {
      // Shrinking only raises the release threshold: more of the buffer
      // drains now, still in global ts order, and the watermark stays
      // monotone — safe at any instant (unlike the OOO engine's purge
      // horizon, nothing here is destroyed early).
      clock_.set_slack(est);
      ++stats_.slack_shrinks;
    }
  }
  if (e.ts < release_watermark_) {
    // Everything at the watermark and below was already released: this
    // event would reach the inner engine out of order no matter what.
    ++stats_.contract_violations;
    EngineObs::inc(obs_.violations);
    if (!admission_.admit_violation(e)) return;
  }
  insert_sorted(e);
  stats_.note_buffered(1);
  release_up_to(clock_.now() - clock_.slack());
}

void KSlackEngine::insert_sorted(const Event& e) {
  if (head_ == buffer_.size() || TsIdLess{}(buffer_.back(), e)) {
    buffer_.push_back(e);  // in-order-dominant fast path
    return;
  }
  const auto it =
      std::lower_bound(buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                       buffer_.end(), e, TsIdLess{});
  buffer_.insert(it, e);
}

void KSlackEngine::release_up_to(Timestamp threshold) {
  release_watermark_ = std::max(release_watermark_, threshold);
  std::size_t released = 0;
  while (head_ < buffer_.size() && buffer_[head_].ts <= threshold) {
    inner_->on_event(buffer_[head_]);
    ++head_;
    ++released;
  }
  if (released) {
    stats_.note_unbuffered(released);
    EngineObs::inc(obs_.releases, released);
  }
  // Lazy compaction: reclaim the released prefix only once it dominates
  // the vector, so release stays amortized O(1) per event.
  if (head_ >= 64 && head_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

Timestamp KSlackEngine::release_bound(Timestamp clock) const {
  // An arrival at the release watermark is still in contract (only ts
  // strictly below it is late), and so is one at clock − K.
  const Timestamp released = release_watermark_ == kMinTimestamp
                                 ? kMinTimestamp
                                 : release_watermark_ - 1;
  const Timestamp seal =
      std::max(released, StreamClock::seal_point_at(clock, clock_.slack()));
  return live() == 0 ? seal : std::min(seal, buffer_[head_].ts - 1);
}

void KSlackEngine::finish() {
  // Drain WITHOUT raising the watermark: end-of-stream is not a release
  // decision future arrivals could violate.
  std::size_t released = 0;
  while (head_ < buffer_.size()) {
    inner_->on_event(buffer_[head_]);
    ++head_;
    ++released;
  }
  buffer_.clear();
  head_ = 0;
  if (released) {
    stats_.note_unbuffered(released);
    EngineObs::inc(obs_.releases, released);
  }
  inner_->finish();
  EngineObs::set(obs_.reorder_depth, 0);
}

void KSlackEngine::snapshot(CheckpointWriter& w) const {
  write_engine_guard(w, name(), query_.text());
  w.stats(stats_);
  write_clock(w, clock_);
  write_estimator(w, estimator_);
  write_admission(w, admission_);
  w.i64(release_watermark_);
  // The live range is already in canonical (ts, id) ascending order —
  // written in place, no copy. Byte format is unchanged from the heap
  // era: count, then events ascending.
  w.u64(live());
  for (std::size_t i = head_; i < buffer_.size(); ++i) w.event(buffer_[i]);
  inner_->snapshot(w);
}

void KSlackEngine::restore(CheckpointReader& r) {
  read_engine_guard(r, name(), query_.text());
  stats_ = r.stats();
  read_clock(r, clock_);
  read_estimator(r, estimator_);
  read_admission(r, admission_);
  release_watermark_ = r.i64();
  buffer_.clear();
  head_ = 0;
  const std::size_t n = r.count(8);
  buffer_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) buffer_.push_back(r.event());
  inner_->restore(r);
}

EngineStats KSlackEngine::stats_snapshot() const {
  EngineStats s = inner_->stats_snapshot();
  // Arrival-side counters come from the wrapper; the inner engine only
  // ever sees an in-order stream.
  s.events_seen = stats_.events_seen;
  s.late_events = stats_.late_events;
  s.contract_violations = stats_.contract_violations;
  s.events_dropped_late = stats_.events_dropped_late;
  s.events_quarantined = stats_.events_quarantined;
  s.events_rejected = stats_.events_rejected;
  s.events_deduped = stats_.events_deduped;
  s.effective_slack = clock_.slack();
  s.slack_grows = stats_.slack_grows;
  s.slack_shrinks = stats_.slack_shrinks;
  s.buffered += stats_.buffered;
  s.buffered_peak += stats_.buffered_peak;
  s.footprint_peak = stats_.footprint_peak;
  return s;
}

}  // namespace oosp
