// Overload control: quality-driven load shedding and bounded
// backpressure for the sharded producer path.
//
// The K-slack and native OOO operators assume the system can always
// buffer until the slack horizon; under sustained overload the only
// pre-existing mechanism was an unbounded producer spin on a full shard
// queue — latency and buffer footprint grow without bound and the
// Session blocks forever. This subsystem makes the degradation a
// POLICY instead of an accident:
//
//   kBlock          today's behavior: spin until the worker drains.
//                   Exact, unbounded producer latency.
//   kShedNewest     drop the arriving event when the shard's queue is
//                   full. Tight latency bound, quality-blind: fresh and
//                   late events are shed alike.
//   kShedByLateness drop the events the lateness distribution says are
//                   least likely to affect sealed results FIRST: under
//                   pressure, arrivals later than an adaptive cut
//                   (seeded from the SlackEstimator's lateness quantile)
//                   are shed pre-emptively, and a fresh event on a full
//                   queue gets a bounded wait before it is force-shed
//                   (which tightens the cut — AIMD toward the shed rate
//                   the overload actually requires). The quality-driven
//                   disorder-handling result (Ji et al., PAPERS.md):
//                   lateness-informed shedding preserves far more recall
//                   than blind drops, because the latest events are the
//                   ones the engines would late-drop or purge anyway.
//   kFail           bounded wait, then throw OverloadError to the
//                   producer. For callers that prefer failing loudly
//                   over degrading silently.
//
// Shedding happens at ADMISSION, in the Session/ShardedRunner producer
// path, never inside engines: an event is either admitted (and then
// backed up, replayed, checkpointed and delivered exactly-once like any
// other) or it never existed as far as the execution stack is
// concerned. Checkpoint byte formats, recovery replay and the delivery
// contract are untouched; what changes is only WHICH prefix of the
// offered stream the engines see, and that difference is fully
// accounted (DegradedAccounting::shed_events, per-query shed counts,
// oosp_overload_shed_total).
//
// The per-shard OverloadMonitor fuses three signals into a graded
// pressure level (kOk/kWarn/kShed), exported as oosp_overload_pressure.
// The grade thresholds are fixed (overload.cpp), not configured:
//   * queue depth as a fraction of capacity (the direct signal): kWarn
//     from half the ring, kShed from seven eighths of it;
//   * watermark lag — how far the shard's consumed stream time trails
//     the producer's high-water mark, in multiples of the estimated
//     lateness scale: kWarn from 4x, kShed from 16x (a slow consumer
//     shows here before its queue fills, because the producer outruns
//     it in stream time);
//   * the SlackEstimator lateness distribution of this shard's
//     arrivals, which prices each event's shedding cost.
//
// Single-shard sessions have no ingress queue (the producer IS the
// consumer), so overload control is inert there by construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "event/event.hpp"
#include "obs/metrics.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

enum class OverloadPolicy : std::uint8_t {
  kBlock,           // unbounded backpressure spin (exact; the default)
  kShedNewest,      // drop arrivals on a full queue
  kShedByLateness,  // drop quality-priced late arrivals first
  kFail,            // bounded wait, then throw OverloadError
};

std::string_view to_string(OverloadPolicy p) noexcept;

// Graded pressure signal, worst shard exported via oosp_overload_pressure.
enum class Pressure : std::uint8_t { kOk = 0, kWarn = 1, kShed = 2 };

std::string_view to_string(Pressure p) noexcept;

// Thrown to the producer by OverloadPolicy::kFail when a shard's queue
// stayed full past the bounded-wait deadline.
class OverloadError : public std::runtime_error {
 public:
  OverloadError(std::size_t shard, std::chrono::milliseconds waited)
      : std::runtime_error("overload: shard " + std::to_string(shard) +
                           " queue full past the " + std::to_string(waited.count()) +
                           "ms deadline"),
        shard_(shard) {}
  std::size_t shard() const noexcept { return shard_; }

 private:
  std::size_t shard_;
};

struct OverloadConfig {
  OverloadPolicy policy = OverloadPolicy::kBlock;

  // kShedByLateness: the shed cut starts at this quantile of observed
  // lateness; forced sheds (fresh event, full queue, deadline expired)
  // halve it, sustained kOk pressure doubles it back toward the
  // quantile. Events with lateness >= cut are shed while pressure is
  // kWarn or worse.
  double shed_quantile = 0.90;

  // kShedByLateness: how long a FRESH (below-cut) event may wait for
  // queue room before it is force-shed. The producer's per-push latency
  // bound under this policy.
  std::chrono::microseconds fresh_wait{2000};

  // kFail: how long any event may wait for queue room before the push
  // throws OverloadError.
  std::chrono::milliseconds fail_deadline{100};

  // Lateness sampling (ring size, refresh cadence). The estimator's
  // quantile/headroom fields are not used here — shed_quantile above
  // prices sheds, and headroom is a slack-sizing concept.
  SlackEstimatorConfig estimator;

  bool active() const noexcept { return policy != OverloadPolicy::kBlock; }
};

// Per-shard pressure assessment and shed pricing. Producer-thread owned:
// every member is updated and read from the single routing thread, so
// there is no synchronization here — the cross-thread inputs (queue
// depth, consumed clock) are sampled by the caller from the shard's
// atomics and passed in.
class OverloadMonitor {
 public:
  // `queue_capacity` is the ring's USABLE slot count. When `metrics` is
  // set, registers one slot each of oosp_overload_pressure (kMax),
  // oosp_overload_lateness_cut (kMax), oosp_overload_shed_total and
  // oosp_overload_shed_forced_total for this shard.
  OverloadMonitor(const OverloadConfig& config, std::size_t queue_capacity,
                  MetricsRegistry* metrics);

  // Records one arrival's lateness (producer clock high-water minus the
  // event's ts; 0 for in-order arrivals) and periodically refreshes the
  // lateness scale and the shed cut from the sample ring.
  void observe(Timestamp lateness);

  // Fuses queue depth and watermark lag into the graded signal and
  // publishes it. `lag` is in stream-time units (>= 0).
  Pressure assess(std::size_t depth, Timestamp lag);

  // kShedByLateness pricing: should an arrival this late be shed at
  // this pressure grade?
  bool shed_late(Timestamp lateness, Pressure p) const noexcept {
    return p >= Pressure::kWarn && lateness >= cut_;
  }

  // A fresh event had to be force-shed (full queue past the bounded
  // wait): the cut is too permissive for the offered load — halve it so
  // the policy sheds earlier, at the late end, instead of losing fresh
  // events to the deadline.
  void note_forced_shed();

  // Accounting taps (also mirrored to the metric slots by the caller's
  // use of shed()/shed_forced()).
  Counter* shed_counter() const noexcept { return shed_; }
  Counter* forced_shed_counter() const noexcept { return shed_forced_; }

  Timestamp lateness_cut() const noexcept { return cut_; }
  Timestamp lateness_scale() const noexcept { return scale_; }

 private:
  void refresh_cut();

  const OverloadConfig& config_;  // owned by the ShardedRunner; outlives us
  std::size_t warn_depth_;
  std::size_t shed_depth_;
  SlackEstimator lateness_;   // sample ring only; its estimate() is unused
  std::size_t since_refresh_ = 0;
  // Current shed cut (kShedByLateness) and the scale the lag factors
  // multiply. Both refreshed from the ring every estimator refresh
  // period; the cut additionally moves under AIMD (see note_forced_shed).
  Timestamp cut_ = kMaxTimestamp;
  Timestamp scale_ = 1;
  Pressure last_ = Pressure::kOk;
  // Metric slots (null when metrics are disabled).
  Gauge* pressure_ = nullptr;
  Gauge* cut_obs_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* shed_forced_ = nullptr;
};

}  // namespace oosp
