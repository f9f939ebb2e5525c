// Streaming statistics: a single-pass scalar accumulator (Welford), used
// by the driver for detection-delay summaries. (Latency distributions
// live in the metrics registry's histograms, obs/metrics.hpp.)
#pragma once

#include <cstdint>
#include <limits>

namespace oosp {

// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StatAccumulator {
 public:
  void add(double x) noexcept;
  void merge(const StatAccumulator& other) noexcept;
  void reset() noexcept { *this = StatAccumulator{}; }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace oosp
