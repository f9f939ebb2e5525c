// Stream clock: the engine-side notion of time progress.
//
// The clock is the maximum application timestamp delivered so far. Under
// the K-slack contract every event arrives before the clock exceeds its
// timestamp by more than K, which makes two derived quantities safe:
//
//   * seal point  = clock − K : no future event can carry ts <= seal
//     point, so intervals ending at or before it are final ("sealed").
//   * purge point = clock − W − K : state older than this can never join
//     a new match of a window-W query (DESIGN.md §3.3).
//
// The clock also measures the observed lateness of each event, which
// tests use to validate that injected streams respect their stated bound.
#pragma once

#include <algorithm>

#include "event/event.hpp"

namespace oosp {

class StreamClock {
 public:
  explicit StreamClock(Timestamp slack = 0) : slack_(slack) {}

  // Observes an arrival; returns the event's lateness (0 when in order).
  Timestamp observe(const Event& e) noexcept {
    const Timestamp lateness = started_ ? std::max<Timestamp>(0, clock_ - e.ts) : 0;
    max_lateness_ = std::max(max_lateness_, lateness);
    clock_ = started_ ? std::max(clock_, e.ts) : e.ts;
    started_ = true;
    return lateness;
  }

  // Clock progress without an arrival to measure (a tick).
  void advance_to(Timestamp ts) noexcept {
    clock_ = started_ ? std::max(clock_, ts) : ts;
    started_ = true;
  }

  bool started() const noexcept { return started_; }
  Timestamp now() const noexcept { return started_ ? clock_ : kMinTimestamp; }
  Timestamp slack() const noexcept { return slack_; }

  // Adaptive K-slack support: retunes the slack the seal point is derived
  // from. Callers that cache seal/purge decisions must keep their own
  // monotone watermark — raising the slack moves seal_point() backwards,
  // which never un-seals anything already acted upon.
  void set_slack(Timestamp slack) noexcept { slack_ = slack; }
  Timestamp max_lateness() const noexcept { return max_lateness_; }

  // Largest timestamp t such that no future event can have ts <= t.
  // kMinTimestamp before any event is seen.
  Timestamp seal_point() const noexcept {
    return started_ ? seal_point_at(clock_, slack_) : kMinTimestamp;
  }

  // The seal point of a clock at `clock` with slack `slack`; kMinTimestamp
  // for a clock that has not started (clock == kMinTimestamp).
  static Timestamp seal_point_at(Timestamp clock, Timestamp slack) noexcept {
    // Guard against underflow near the numeric extremes.
    return clock < kMinTimestamp + slack + 1 ? kMinTimestamp : clock - slack - 1;
  }

  // K-slack contract violated iff some event was later than `slack`.
  bool contract_violated() const noexcept { return max_lateness_ > slack_; }

  // Checkpoint support: raw state out / in (runtime/checkpoint.hpp).
  Timestamp raw_clock() const noexcept { return clock_; }
  void restore_state(Timestamp slack, Timestamp clock, Timestamp max_lateness,
                     bool started) noexcept {
    slack_ = slack;
    clock_ = clock;
    max_lateness_ = max_lateness;
    started_ = started;
  }

 private:
  Timestamp slack_;
  Timestamp clock_ = kMinTimestamp;
  Timestamp max_lateness_ = 0;
  bool started_ = false;
};

}  // namespace oosp
