// Pooled per-engine event storage behind 32-bit handles.
//
// Sequence Scan & Construction stores every relevant event in each
// structure it participates in: a positive event lands in one SortedStack
// per matching step, a negative in one NegativeBuffer per negated step.
// Holding Event by value means each of those inserts copies the attrs
// vector — a heap allocation per copy — and purge frees them again, so the
// steady-state hot loop mallocs even though total live state is bounded by
// the window. The arena fixes both costs:
//
//   * Structures hold EventHandle (4 bytes) instead of Event (~56 bytes +
//     attrs heap block). One Event copy exists per arrival regardless of
//     how many steps reference it; refcounts track the references.
//   * Freed slots go on a free list and are reassigned by copy-assigning
//     the new Event into the old slot, which reuses the previous attrs
//     vector's capacity. After warm-up the purge/insert cycle allocates
//     nothing.
//
// Slots live in fixed-size chunks so handles are stable across growth
// (no vector reallocation moves a live Event; `const Event&` returned by
// get() stays valid until the last release()). Not thread-safe — each
// engine owns one arena and engines are single-threaded per shard.
//
// Ownership protocol used by the engines:
//   * first structure to keep an event calls alloc(e)      → ref = 1
//   * each additional structure keeping it calls retain(h) → ref + 1
//   * purging a structure entry calls release(h); the slot recycles when
//     the last reference drops.
//   * restore() rebuilds structures from a checkpoint, so engines call
//     clear() first; serialized bytes hold the events themselves (the
//     arena is an in-memory representation detail, invisible on the wire).
//
// Each live slot also keeps a caller-defined 64-bit stamp next to its
// event (the SSC core records the stream clock at the event's arrival),
// so reading it costs no extra cache miss when the event is read too.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "event/event.hpp"

namespace oosp {

using EventHandle = std::uint32_t;
inline constexpr EventHandle kNullEventHandle = 0xFFFFFFFFu;

class EventArena {
 public:
  EventHandle alloc(const Event& e, std::int64_t stamp = kMinTimestamp) {
    EventHandle h;
    if (free_head_ != kNullEventHandle) {
      h = free_head_;
      Slot& s = slot(h);
      free_head_ = s.next_free;
      s.event = e;  // copy-assign: reuses the recycled slot's attrs capacity
      s.stamp = stamp;
      s.refs = 1;
    } else {
      OOSP_CHECK(size_ < kNullEventHandle, "EventArena handle space exhausted");
      h = static_cast<EventHandle>(size_);
      if ((size_ >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      ++size_;
      Slot& s = slot(h);
      s.event = e;
      s.stamp = stamp;
      s.refs = 1;
    }
    ++live_;
    return h;
  }

  void retain(EventHandle h) {
    Slot& s = slot(h);
    OOSP_ASSERT(s.refs > 0);
    ++s.refs;
  }

  void release(EventHandle h) {
    Slot& s = slot(h);
    OOSP_ASSERT(s.refs > 0);
    if (--s.refs == 0) {
      s.next_free = free_head_;
      free_head_ = h;
      --live_;
    }
  }

  const Event& get(EventHandle h) const {
    OOSP_ASSERT(h < size_ && slot(h).refs > 0);
    return slot(h).event;
  }

  // The stamp of a live event, given the reference get() returned.
  static std::int64_t stamp_of(const Event& e) noexcept {
    return reinterpret_cast<const Slot*>(&e)->stamp;
  }

  // Live (referenced) events. Capacity high-water is size().
  std::size_t live() const noexcept { return live_; }
  std::size_t size() const noexcept { return size_; }

  // Drop everything, including recycled capacity. Used before restoring
  // from a checkpoint, where structures are rebuilt wholesale.
  void clear() {
    chunks_.clear();
    size_ = 0;
    live_ = 0;
    free_head_ = kNullEventHandle;
  }

 private:
  // The event comes first, so a reference to it is a reference to its
  // slot (pointer-interconvertible in a standard-layout struct).
  struct Slot {
    Event event;
    std::int64_t stamp = kMinTimestamp;
    std::uint32_t refs = 0;
    EventHandle next_free = kNullEventHandle;
  };
  static_assert(std::is_standard_layout_v<Slot>);

  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Slot& slot(EventHandle h) { return chunks_[h >> kChunkShift][h & (kChunkSize - 1)]; }
  const Slot& slot(EventHandle h) const {
    return chunks_[h >> kChunkShift][h & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;   // slots ever created
  std::size_t live_ = 0;   // slots currently referenced
  EventHandle free_head_ = kNullEventHandle;
};

}  // namespace oosp
