// Bounded single-producer / single-consumer queue (Lamport ring buffer
// with cached indices), the ingress channel between the Session's
// routing thread and each shard worker.
//
// Design notes:
//   * Exactly one producer thread may call the push side and exactly one
//     consumer thread the pop side; the two indices are only ever written
//     by their owning side, so a store-release / load-acquire pair per
//     transaction is sufficient — no CAS, no locks.
//   * Each side keeps a CACHED copy of the other side's index and only
//     re-reads the shared atomic when the cached value says the queue
//     looks full (producer) or empty (consumer). On the fast path an
//     operation touches one shared cache line instead of two.
//   * Capacity is rounded up to a power of two so wrap-around is a mask,
//     and one slot is intentionally never used (full at capacity-1) to
//     distinguish full from empty without a separate counter.
//   * Two transfer styles share the indices. By value: try_push_n moves
//     elements in and try_pop_n moves them out. In place: try_copy_in_n
//     copy-assigns into the free slots (try_fill_n takes any assignment,
//     e.g. a swap), so each slot's element reuses the storage its previous
//     occupant left (a std::vector keeps its capacity from lap to lap),
//     and the consumer works on the slots where they lie (peek) before
//     handing them back (release). After the first lap the in-place style
//     allocates nothing, which is how the sharded runtime moves events to
//     its workers and their results back.
//   * No operation blocks: the sharded runner decides the backpressure
//     policy (it yields and retries, keeping arrival order intact rather
//     than dropping).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace oosp {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t min_capacity) {
    OOSP_REQUIRE(min_capacity >= 2, "SpscQueue capacity must be >= 2");
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side, bulk: moves as many leading elements of src into the
  // ring as fit right now and returns that count (0 when full). One
  // acquire (at most) and one release for the whole transaction, so a
  // batch of n amortizes the shared-cache-line traffic n ways.
  std::size_t try_push_n(std::span<T> src) {
    return push_with(src.size(), [&](T& slot, std::size_t i) { slot = std::move(src[i]); });
  }

  // Producer side, in place: copy-assigns *src[i] into the free slots for
  // as many leading pointers as fit and returns that count (0 when full).
  // The assignment reuses the slot's existing storage, so once every slot
  // has held an element at least as large, a push allocates nothing.
  std::size_t try_copy_in_n(std::span<const T* const> src) {
    return push_with(src.size(), [&](T& slot, std::size_t i) { slot = *src[i]; });
  }

  // Producer side, general form of the two above: fills up to `want` free
  // slots through fill(slot, i) and returns that count (0 when full).
  template <typename Fill>
  std::size_t try_fill_n(std::size_t want, Fill&& fill) {
    return push_with(want, std::forward<Fill>(fill));
  }

  // Consumer side, bulk: moves up to max elements into out and returns
  // the count (0 when empty). Symmetric with try_push_n.
  std::size_t try_pop_n(T* out, std::size_t max) {
    if (max == 0) return 0;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t n = std::min(max, readable(head, max));
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) out[i] = std::move(slots_[(head + i) & mask_]);
    head_.store((head + n) & mask_, std::memory_order_release);
    return n;
  }

  // Consumer side, in place: the filled slots at the head, at most `max`
  // of them and contiguous in memory — the run stops at the ring's
  // physical end, so a backlog that wraps comes back over two calls.
  // Empty when the ring is empty. The producer cannot touch the slots
  // until release() hands them back, so the consumer may read and mutate
  // them in the meantime.
  std::span<T> peek(std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t n = std::min({max, readable(head, max), slots_.size() - head});
    return {slots_.data() + head, n};
  }

  // Consumer side: returns the first n slots of the last peek() to the
  // producer.
  void release(std::size_t n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    OOSP_ASSERT(n <= ((tail_cache_ - head) & mask_));
    head_.store((head + n) & mask_, std::memory_order_release);
  }

  // Usable from either side (approximate under concurrency; exact once
  // the other side has quiesced).
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_; }  // usable slots

  // Occupancy snapshot for observability gauges. Approximate under
  // concurrency (the two indices are read at different instants) but
  // always within [0, capacity()]; exact once the other side quiesces.
  // Peeked slots count until they are released.
  std::size_t size_approx() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

 private:
  // Producer side: fills up to `want` free slots through fill(slot, i)
  // and publishes them with one release store.
  template <typename Fill>
  std::size_t push_with(std::size_t want, Fill&& fill) {
    if (want == 0) return 0;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free_slots = mask_ - ((tail - head_cache_) & mask_);
    if (free_slots < want) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free_slots = mask_ - ((tail - head_cache_) & mask_);
    }
    const std::size_t n = std::min(want, free_slots);
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) fill(slots_[(tail + i) & mask_], i);
    tail_.store((tail + n) & mask_, std::memory_order_release);
    return n;
  }

  // Consumer side: filled slots from `head`, re-reading the producer's
  // index only when the cached one shows fewer than `want`.
  std::size_t readable(std::size_t head, std::size_t want) {
    std::size_t avail = (tail_cache_ - head) & mask_;
    if (avail < want) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = (tail_cache_ - head) & mask_;
    }
    return avail;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;

  static constexpr std::size_t kCacheLine = 64;
  // Owned by the consumer; read-acquired by the producer on apparent full.
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  // Owned by the producer; read-acquired by the consumer on apparent empty.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  // Producer-local mirror of head_ / consumer-local mirror of tail_.
  alignas(kCacheLine) std::size_t head_cache_ = 0;
  alignas(kCacheLine) std::size_t tail_cache_ = 0;
};

}  // namespace oosp
