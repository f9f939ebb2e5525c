// Timestamp-ordered Active Instance Stack.
//
// The paper's key data-structure change: instead of stacking instances in
// arrival order (which equals timestamp order only for in-order streams),
// the stack keeps instances sorted by (ts, id) and supports insertion at
// any position, so a late event splices in exactly where its timestamp
// puts it. The predecessor set of an instance with timestamp t in the
// previous step's stack is then the prefix with ts < t, recovered by
// binary search (cached per-instance pointers measured no faster, R-A3).
//
// Instances hold a 24-byte (ts, id, handle) key into the engine's
// EventArena rather than an owning Event copy: binary searches touch only
// this POD node, the arena pays one attrs allocation per arrival instead
// of one per referencing stack, and purging releases a refcount instead
// of freeing a vector.
#pragma once

#include <cstdint>
#include <vector>

#include "common/event_arena.hpp"
#include "event/event.hpp"

namespace oosp {

struct OooInstance {
  Timestamp ts = 0;
  EventId id = 0;
  EventHandle handle = kNullEventHandle;
};

class SortedStack {
 public:
  // Inserts keeping (ts, id) order; returns the insertion index. The
  // stack takes over one arena reference for the handle. Appending (the
  // in-order fast path) is O(1) amortized.
  std::size_t insert(Timestamp ts, EventId id, EventHandle handle);

  // Number of instances with ts strictly below t == index of the first
  // instance with ts >= t.
  std::size_t count_ts_below(Timestamp t) const noexcept;

  // Index of the first instance with ts strictly above t.
  std::size_t first_ts_above(Timestamp t) const noexcept;

  // Removes the prefix with ts < threshold, releasing each instance's
  // arena reference; returns how many.
  std::size_t purge_before(Timestamp threshold, EventArena& arena);

  // Checkpoint support (runtime/checkpoint.hpp). items() is already in
  // the canonical (ts, id) order; set_items() trusts its input to be and
  // to carry one arena reference per instance.
  const std::vector<OooInstance>& items() const noexcept { return items_; }
  void set_items(std::vector<OooInstance> items) { items_ = std::move(items); }

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  const OooInstance& operator[](std::size_t i) const noexcept { return items_[i]; }

 private:
  std::vector<OooInstance> items_;
};

}  // namespace oosp
