#include "obs/metrics.hpp"

#include <sstream>

#include "common/contracts.hpp"

namespace oosp {

std::uint64_t HistogramData::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (static_cast<double>(cum) >= target && cum > 0)
      return Histogram::bucket_upper_bound(i);
  }
  return Histogram::bucket_upper_bound(buckets.empty() ? 0 : buckets.size() - 1);
}

MetricsRegistry::Family& MetricsRegistry::family_for(std::string_view name, Kind kind,
                                                     GaugeAgg agg,
                                                     std::string_view help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family fam;
    fam.kind = kind;
    fam.agg = agg;
    fam.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(fam)).first;
  } else {
    OOSP_REQUIRE(it->second.kind == kind,
                 "metric family re-registered with a different type: " +
                     std::string(name));
    OOSP_REQUIRE(kind != Kind::kGauge || it->second.agg == agg,
                 "gauge family re-registered with a different aggregation: " +
                     std::string(name));
    if (it->second.help.empty()) it->second.help = std::string(help);
  }
  return it->second;
}

Counter* MetricsRegistry::counter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family_for(name, Kind::kCounter, GaugeAgg::kSum, help);
  fam.counters.push_back(std::make_unique<Counter>());
  return fam.counters.back().get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, GaugeAgg agg,
                              std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family_for(name, Kind::kGauge, agg, help);
  fam.gauges.push_back(std::make_unique<Gauge>());
  return fam.gauges.back().get();
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& fam = family_for(name, Kind::kHistogram, GaugeAgg::kSum, help);
  fam.histograms.push_back(std::make_unique<Histogram>());
  return fam.histograms.back().get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, fam] : families_) {
    switch (fam.kind) {
      case Kind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& c : fam.counters) total += c->value();
        snap.counters.emplace(name, total);
        break;
      }
      case Kind::kGauge: {
        std::int64_t agg = 0;
        bool first = true;
        for (const auto& g : fam.gauges) {
          const std::int64_t v = g->value();
          if (fam.agg == GaugeAgg::kSum) {
            agg += v;
          } else {
            agg = first ? v : (v > agg ? v : agg);
          }
          first = false;
        }
        snap.gauges.emplace(name, agg);
        break;
      }
      case Kind::kHistogram: {
        HistogramData data;
        data.buckets.assign(Histogram::kBuckets, 0);
        for (const auto& h : fam.histograms) {
          for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
            data.buckets[i] += h->bucket(i);
          data.count += h->count();
          data.sum += h->sum();
        }
        snap.histograms.emplace(name, std::move(data));
        break;
      }
    }
  }
  return snap;
}

std::string MetricsRegistry::scrape_text() const {
  std::map<std::string, std::string> help;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, fam] : families_)
      if (!fam.help.empty()) help.emplace(name, fam.help);
  }
  return to_prometheus_text(snapshot(), help);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fam] : families_) {
    (void)name;
    for (auto& c : fam.counters) c->reset();
    for (auto& g : fam.gauges) g->reset();
    for (auto& h : fam.histograms) h->reset();
  }
}

std::size_t MetricsRegistry::slot_count(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = families_.find(name);
  if (it == families_.end()) return 0;
  return it->second.counters.size() + it->second.gauges.size() +
         it->second.histograms.size();
}

std::string to_prometheus_text(const MetricsSnapshot& snap,
                               const std::map<std::string, std::string>& help) {
  std::ostringstream os;
  const auto header = [&](const std::string& name, const char* type) {
    const auto it = help.find(name);
    if (it != help.end()) os << "# HELP " << name << ' ' << it->second << '\n';
    os << "# TYPE " << name << ' ' << type << '\n';
  };
  for (const auto& [name, v] : snap.counters) {
    header(name, "counter");
    os << name << ' ' << v << '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    header(name, "gauge");
    os << name << ' ' << v << '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    header(name, "histogram");
    std::uint64_t cum = 0;
    std::size_t top = 0;  // highest non-empty bucket, to keep the dump short
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      if (h.buckets[i] > 0) top = i;
    for (std::size_t i = 0; i <= top; ++i) {
      cum += h.buckets[i];
      os << name << "_bucket{le=\"" << Histogram::bucket_upper_bound(i) << "\"} "
         << cum << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
    os << name << "_sum " << h.sum << '\n';
    os << name << "_count " << h.count << '\n';
  }
  return os.str();
}

}  // namespace oosp
