#include "runtime/merger.hpp"

#include <algorithm>
#include <utility>

namespace oosp {

std::vector<TaggedMatch> merge_match_streams(
    std::vector<std::vector<TaggedMatch>> streams) {
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();

  struct Decorated {
    CanonicalHead head;
    TaggedMatch* source;
  };
  std::vector<Decorated> order;
  order.reserve(total);
  for (auto& stream : streams)
    for (TaggedMatch& tm : stream)
      order.push_back(Decorated{CanonicalHead::of(tm.query, tm.match), &tm});
  std::sort(order.begin(), order.end(), [](const Decorated& a, const Decorated& b) {
    return canonical_compare(a.head, a.source->match, b.head, b.source->match) < 0;
  });

  std::vector<TaggedMatch> merged;
  merged.reserve(total);
  for (const Decorated& d : order) merged.push_back(std::move(*d.source));
  return merged;
}

OrderedMerger::OrderedMerger(std::size_t streams, MetricsRegistry* metrics)
    : bounds_(streams, kMinTimestamp) {
  if (metrics) {
    late_obs_ = metrics->counter("oosp_session_late_deliveries_total");
    occupancy_ = metrics->gauge("oosp_shard_merge_occupancy", GaugeAgg::kSum);
  }
}

void OrderedMerger::add(QueryId query, Match&& match, bool retraction) {
  if (arrivals_.capacity() == 0) {
    // Room for a typical backlog, taken at the first result rather than
    // at construction: how many results wait for the slowest shard is
    // timing-dependent, and this keeps the buffers from growing after
    // warm-up.
    constexpr std::size_t kRoom = 1024;
    arrivals_.reserve(kRoom);
    order_.reserve(kRoom);
    heap_.reserve(kRoom);
  }
  const CanonicalHead head = CanonicalHead::of(query, match);
  if (head.seal_ts <= released_ && late_obs_) late_obs_->inc();
  arrivals_.push_back(Entry{head, next_seq_++, retraction, std::move(match)});
}

void OrderedMerger::park(Entry&& e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), after);
}

void OrderedMerger::split(Timestamp upto) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    if (arrivals_[i].head.seal_ts > upto)
      park(std::move(arrivals_[i]));
    else if (kept++ != i)
      arrivals_[kept - 1] = std::move(arrivals_[i]);
  }
  arrivals_.erase(arrivals_.begin() + static_cast<std::ptrdiff_t>(kept), arrivals_.end());
}

void OrderedMerger::deliver(Timestamp upto, bool with_arrivals, TaggedSink* sink) {
  order_.clear();
  if (with_arrivals) {
    // Sort positions, not 64-byte entries.
    for (std::uint32_t i = 0; i < arrivals_.size(); ++i) order_.push_back(i);
    std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
      return before(arrivals_[a], arrivals_[b]);
    });
  }
  const auto to_sink = [sink](Entry& e) {
    if (sink == nullptr) return;
    if (e.retraction)
      sink->on_retract(e.head.query, e.match);
    else
      sink->on_match(e.head.query, std::move(e.match));
  };
  std::size_t next = 0;
  try {
    for (;;) {
      const bool parked = !heap_.empty() && heap_.front().head.seal_ts <= upto;
      if (next < order_.size() && (!parked || before(arrivals_[order_[next]], heap_.front()))) {
        to_sink(arrivals_[order_[next++]]);
      } else if (parked) {
        std::pop_heap(heap_.begin(), heap_.end(), after);
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        to_sink(e);
      } else {
        break;
      }
    }
  } catch (...) {
    // A sink that throws loses only the result it threw on.
    while (next < order_.size()) park(std::move(arrivals_[order_[next++]]));
    if (with_arrivals) arrivals_.clear();
    throw;
  }
  if (with_arrivals) arrivals_.clear();
  if (occupancy_) occupancy_->set(static_cast<std::int64_t>(held()));
}

void OrderedMerger::release(TaggedSink* sink, std::size_t hold_over) {
  if (bounds_dirty_) {
    bounds_dirty_ = false;
    released_ = std::max(released_, *std::min_element(bounds_.begin(), bounds_.end()));
  }
  if (arrivals_.empty() && (heap_.empty() || heap_.front().head.seal_ts > released_)) return;
  split(released_);
  if (arrivals_.size() > hold_over) {
    // Parked results may go only while they precede every held one.
    Timestamp first = kMaxTimestamp;
    for (const Entry& e : arrivals_) first = std::min(first, e.head.seal_ts);
    held_ = true;
    if (first > kMinTimestamp) deliver(first - 1, false, sink);
    return;
  }
  deliver(released_, true, sink);
}

void OrderedMerger::release_held(TaggedSink* sink) {
  if (!held_) return;
  held_ = false;
  split(released_);
  deliver(released_, true, sink);
}

void OrderedMerger::release_all(TaggedSink* sink) {
  released_ = kMaxTimestamp;
  held_ = false;
  deliver(released_, true, sink);
}

}  // namespace oosp
