// K-slack reorder buffer: the conventional fix for out-of-order arrival.
//
// Holds every arriving event in a sorted reorder buffer and releases it — in
// timestamp order — only once the stream clock has advanced K past its
// timestamp, then feeds an ordinary in-order engine. Under the K-slack
// contract the released stream is ts-ordered, so the inner engine's
// results are exactly correct; the price is (a) a buffer holding up to
// K time-units worth of events on top of the engine state and (b) every
// result — in-order or not — waiting out the full slack before it can be
// detected. The native OOO engine (engine/ooo) removes both costs; the
// benchmark suite quantifies the gap (R-F1..R-F4).
//
// Slack-violation safety net: an event whose timestamp is below the
// release watermark (the highest release threshold already applied)
// would reach the inner engine out of order no matter what — the
// configured LatePolicy decides whether it is forwarded anyway
// (historical behavior), dropped, or quarantined for
// drain_quarantine(). With adaptive_slack the effective K follows a
// windowed lateness quantile: growth holds events back longer
// (immediately safe); shrink releases earlier and is also always safe
// here because releases stay globally ts-ordered and the watermark is
// monotone — a smaller K only narrows what future lateness is tolerated.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "engine/core/admission.hpp"
#include "engine/core/engine.hpp"
#include "stream/clock.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

using EngineFactory = std::function<std::unique_ptr<PatternEngine>(EngineContext)>;

class KSlackEngine final : public PatternEngine {
 public:
  // `ctx.options.slack` is K. The inner engine is built by `factory` with
  // the same query/options and this wrapper's clock-stamping sink.
  // Admission gates (validation, dedup, late policy) run in the wrapper,
  // so the inner engine's own gates are disabled to avoid double
  // accounting.
  KSlackEngine(EngineContext ctx, const EngineFactory& factory);

  void on_event(const Event& e) override;
  // Batched arrival: per-event admission/clock/release semantics are
  // unchanged (arrival order matters for the watermark), but the
  // footprint sample — which walks the inner engine's stats — and the
  // depth/slack gauges are hoisted to once per batch.
  void on_batch(std::span<const Event* const> batch) override;
  void finish() override;
  std::string name() const override { return "kslack+" + inner_->name(); }
  EngineStats stats_snapshot() const override;
  // The inner engine completes a match at the release of its last event,
  // so the bound trails the release watermark and the oldest buffered
  // event.
  Timestamp release_bound(Timestamp clock) const override;
  std::vector<Event> drain_quarantine() override {
    return admission_.drain_quarantine();
  }
  // Recursive: serializes the wrapper's buffer/clock state plus the inner
  // engine's own snapshot in the same frame.
  void snapshot(CheckpointWriter& w) const override;
  void restore(CheckpointReader& r) override;

 private:
  // Re-stamps detection_clock with the OUTER clock: the inner engine's
  // clock lags by K, but detection delay must be charged against real
  // stream progress.
  class StampSink final : public MatchSink {
   public:
    StampSink(MatchSink& downstream, const StreamClock& clock)
        : downstream_(downstream), clock_(clock) {}
    void on_match(Match&& m) override {
      m.detection_clock = clock_.now();
      downstream_.on_match(std::move(m));
    }

   private:
    MatchSink& downstream_;
    const StreamClock& clock_;
  };

  void ingest(const Event& e);
  void insert_sorted(const Event& e);
  void release_up_to(Timestamp threshold);
  std::size_t live() const noexcept { return buffer_.size() - head_; }

  StreamClock clock_;
  SlackEstimator estimator_;
  AdmissionControl admission_{options_, stats_};
  // Shared so it can be handed to the inner engine's EngineContext; it
  // forwards into this wrapper's own (co-owned) downstream sink.
  std::shared_ptr<StampSink> stamp_;
  std::unique_ptr<PatternEngine> inner_;

  // Highest release threshold ever applied: everything at or below it
  // has already been fed to the inner engine, so an arriving event with
  // ts strictly below it can no longer be re-ordered into place.
  Timestamp release_watermark_ = kMinTimestamp;

  // Reorder buffer: (ts, id)-ascending from head_ onward. Mostly-ordered
  // input appends at the back in O(1); a late event shifts its suffix
  // into place (cheap — the buffer only spans ~K time units). Releases
  // advance head_ and the dead prefix is compacted lazily, so the steady
  // state is allocation-free. Replaces a binary heap whose snapshot had
  // to COPY AND DRAIN the whole queue to recover sorted order — here the
  // live range is already canonical and is written in place.
  std::vector<Event> buffer_;
  std::size_t head_ = 0;
};

}  // namespace oosp
