#include "runtime/overload.hpp"

#include <algorithm>
#include <limits>

namespace oosp {

std::string_view to_string(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kShedNewest: return "shed-newest";
    case OverloadPolicy::kShedByLateness: return "shed-by-lateness";
    case OverloadPolicy::kFail: return "fail";
  }
  return "?";
}

std::string_view to_string(Pressure p) noexcept {
  switch (p) {
    case Pressure::kOk: return "ok";
    case Pressure::kWarn: return "warn";
    case Pressure::kShed: return "shed";
  }
  return "?";
}

namespace {

// Watermark-lag escalation: the shard's consumed stream time trailing
// the producer's routed high-water mark by this many lateness scales
// raises the grade, independent of depth.
constexpr double kLagWarnFactor = 4.0;
constexpr double kLagShedFactor = 16.0;

}  // namespace

// Queue depth grades: kWarn from half the ring's usable capacity, kShed
// from seven eighths of it (so a full ring is always kShed).
OverloadMonitor::OverloadMonitor(const OverloadConfig& config,
                                 std::size_t queue_capacity, MetricsRegistry* metrics)
    : config_(config),
      warn_depth_(queue_capacity / 2),
      shed_depth_(queue_capacity * 7 / 8),
      lateness_(config.estimator) {
  if (metrics) {
    pressure_ = metrics->gauge("oosp_overload_pressure", GaugeAgg::kMax,
                               "graded overload pressure (0=ok 1=warn 2=shed)");
    cut_obs_ = metrics->gauge("oosp_overload_lateness_cut", GaugeAgg::kMax,
                              "current shed-by-lateness cut in stream time");
    shed_ = metrics->counter("oosp_overload_shed_total",
                             "events shed at admission by overload control");
    shed_forced_ = metrics->counter(
        "oosp_overload_shed_forced_total",
        "below-cut events shed after the bounded wait expired");
  }
}

void OverloadMonitor::observe(Timestamp lateness) {
  lateness_.observe(lateness);
  const std::size_t period = std::max<std::size_t>(1, config_.estimator.refresh_period);
  if (++since_refresh_ >= period) {
    since_refresh_ = 0;
    refresh_cut();
  }
}

void OverloadMonitor::refresh_cut() {
  // The scale the lag factors multiply: the median lateness of recent
  // arrivals, floored at 1 so in-order streams still get a meaningful
  // lag threshold.
  scale_ = std::max<Timestamp>(1, lateness_.quantile(0.5));
  const Timestamp target = std::max<Timestamp>(1, lateness_.quantile(config_.shed_quantile));
  // AIMD recovery: while pressure stays benign, relax the cut toward the
  // quantile target (halved cuts from forced sheds decay back). Under
  // pressure the cut only tightens — forced sheds drive it down.
  if (last_ == Pressure::kOk) {
    // Doubling guard: past target/2 the next double would overshoot (or,
    // from the kMaxTimestamp start, overflow) — snap to the target.
    cut_ = cut_ >= target / 2 ? target : cut_ * 2 + 1;
  } else {
    cut_ = std::min(cut_, target);
  }
  if (cut_obs_) cut_obs_->set(static_cast<std::int64_t>(std::min<Timestamp>(
      cut_, std::numeric_limits<std::int64_t>::max())));
}

Pressure OverloadMonitor::assess(std::size_t depth, Timestamp lag) {
  Pressure p = Pressure::kOk;
  if (depth >= shed_depth_) {
    p = Pressure::kShed;
  } else if (depth >= warn_depth_) {
    p = Pressure::kWarn;
  }
  // Watermark lag escalates independently: a slow consumer shows here
  // before its queue fills (the producer outruns it in stream time).
  if (lag > 0 && p != Pressure::kShed) {
    const double scaled = static_cast<double>(lag) / static_cast<double>(scale_);
    if (scaled >= kLagShedFactor) {
      p = Pressure::kShed;
    } else if (scaled >= kLagWarnFactor && p == Pressure::kOk) {
      p = Pressure::kWarn;
    }
  }
  last_ = p;
  if (pressure_) pressure_->set(static_cast<std::int64_t>(p));
  return p;
}

void OverloadMonitor::note_forced_shed() {
  cut_ = std::max<Timestamp>(1, cut_ / 2);
  if (cut_obs_) cut_obs_->set(static_cast<std::int64_t>(cut_));
}

}  // namespace oosp
