#include "engine/ooo/sorted_stack.hpp"

#include <algorithm>

namespace oosp {

namespace {

inline bool key_less(Timestamp ats, EventId aid, Timestamp bts, EventId bid) noexcept {
  return ats < bts || (ats == bts && aid < bid);
}

}  // namespace

std::size_t SortedStack::insert(Timestamp ts, EventId id, EventHandle handle) {
  if (items_.empty() || key_less(items_.back().ts, items_.back().id, ts, id)) {
    items_.push_back(OooInstance{ts, id, handle});
    return items_.size() - 1;
  }
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), OooInstance{ts, id, handle},
      [](const OooInstance& a, const OooInstance& b) {
        return key_less(a.ts, a.id, b.ts, b.id);
      });
  const auto idx = static_cast<std::size_t>(it - items_.begin());
  items_.insert(it, OooInstance{ts, id, handle});
  return idx;
}

std::size_t SortedStack::count_ts_below(Timestamp t) const noexcept {
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), t,
      [](const OooInstance& a, Timestamp ts) { return a.ts < ts; });
  return static_cast<std::size_t>(it - items_.begin());
}

std::size_t SortedStack::first_ts_above(Timestamp t) const noexcept {
  const auto it = std::upper_bound(
      items_.begin(), items_.end(), t,
      [](Timestamp ts, const OooInstance& a) { return ts < a.ts; });
  return static_cast<std::size_t>(it - items_.begin());
}

std::size_t SortedStack::purge_before(Timestamp threshold, EventArena& arena) {
  // Most stacks of a purge pass have nothing old enough; skip the search.
  if (items_.empty() || items_.front().ts >= threshold) return 0;
  const std::size_t n = count_ts_below(threshold);
  for (std::size_t i = 0; i < n; ++i) arena.release(items_[i].handle);
  items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(n));
  return n;
}

}  // namespace oosp
