// Metrics registry: the library's quantitative observability layer.
//
// The paper's claims are about CPU and memory cost; this registry is how
// the runtime continuously exposes what it is spending. Three instrument
// kinds, all lock-free on the hot path:
//
//   Counter    — monotone u64 (events, matches, purge passes, retry spins).
//   Gauge      — signed level (queue depth, effective K, footprint).
//   Histogram  — log2-bucketed value distribution (detection latency in
//                stream time and wall time). Bucket i>0 holds values in
//                [2^(i-1), 2^i - 1]; bucket 0 holds exactly 0. 65 buckets
//                cover the full u64 range, so observe() never clips.
//
// ## Sharded slots
//
// Every call to counter()/gauge()/histogram() registers a NEW slot under
// the given family name and returns a stable pointer to it. Each shard's
// engine therefore gets its own cache-line-padded slot and updates it
// with a single relaxed atomic op — no cross-thread contention, no locks,
// no CAS on the hot path. Aggregation across slots happens only on
// scrape: counters and histogram buckets sum; gauges sum or max per the
// family's declared GaugeAgg (sum for depths/footprints, max for tuning
// levels like the effective K, where "the most conservative shard" is
// the honest aggregate — mirroring EngineStats::operator+=).
//
// Registration is cold-path (mutex) and must finish before the slots are
// hammered from other threads — which the runtime guarantees by building
// every engine before starting shard workers. snapshot()/scrape_text()
// may run concurrently with hot-path updates from any thread: slots are
// atomics, so a scrape sees a slightly stale but tear-free view.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace oosp {

namespace obsdetail {
inline constexpr std::size_t kCacheLine = 64;
}

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  alignas(obsdetail::kCacheLine) std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  alignas(obsdetail::kCacheLine) std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  // Bucket 0: value == 0. Bucket i in [1, 64]: 2^(i-1) <= value < 2^i.
  static constexpr std::size_t kBuckets = 65;

  static std::size_t bucket_index(std::uint64_t v) noexcept {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(v));
  }
  // Inclusive upper bound of bucket i (2^i − 1), saturating at u64 max.
  static std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  // Convenience for signed measurements (negative clamps to 0).
  void observe_signed(std::int64_t v) noexcept {
    observe(v < 0 ? 0 : static_cast<std::uint64_t>(v));
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  alignas(obsdetail::kCacheLine) std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// How a gauge family combines its per-shard slots on scrape.
enum class GaugeAgg : std::uint8_t {
  kSum,  // additive levels: queue depth, buffered events, footprint
  kMax,  // tuning levels: effective K, watermark lag — worst shard wins
};

// Aggregated view of one histogram family at scrape time.
struct HistogramData {
  std::vector<std::uint64_t> buckets;  // kBuckets entries, non-cumulative
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  // Upper bound of the bucket containing the q-quantile (q in [0,1]);
  // 0 when empty. Log2 buckets make this exact to within a factor of 2.
  std::uint64_t quantile(double q) const noexcept;
};

// Point-in-time aggregate of every family. Scraping does NOT reset the
// underlying slots (Prometheus-style cumulative semantics); call
// MetricsRegistry::reset() explicitly for delta-oriented harnesses.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::int64_t gauge(const std::string& name) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
  const HistogramData* histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }
};

// Prometheus text exposition (one # HELP/# TYPE header per family;
// histogram rendered as cumulative _bucket{le=...}/_sum/_count).
std::string to_prometheus_text(const MetricsSnapshot& snap,
                               const std::map<std::string, std::string>& help = {});

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers a new slot under `name` and returns it (stable pointer,
  // owned by the registry). Re-registering a name with a different
  // instrument type (or gauge aggregation) throws std::invalid_argument.
  Counter* counter(std::string_view name, std::string_view help = {});
  Gauge* gauge(std::string_view name, GaugeAgg agg = GaugeAgg::kSum,
               std::string_view help = {});
  Histogram* histogram(std::string_view name, std::string_view help = {});

  // Aggregates every family across its slots. Safe concurrently with
  // hot-path updates; does not reset anything.
  MetricsSnapshot snapshot() const;
  // snapshot() rendered as Prometheus text, with HELP strings.
  std::string scrape_text() const;

  // Zeroes every slot (benchmark harness support). Not atomic across
  // slots; do not race with a scrape you intend to trust.
  void reset();

  // Number of registered slots under `name` (0 when absent).
  std::size_t slot_count(std::string_view name) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Family {
    Kind kind = Kind::kCounter;
    GaugeAgg agg = GaugeAgg::kSum;
    std::string help;
    std::vector<std::unique_ptr<Counter>> counters;
    std::vector<std::unique_ptr<Gauge>> gauges;
    std::vector<std::unique_ptr<Histogram>> histograms;
  };

  Family& family_for(std::string_view name, Kind kind, GaugeAgg agg,
                     std::string_view help);

  mutable std::mutex mu_;  // guards families_ layout; never held on hot path
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace oosp
