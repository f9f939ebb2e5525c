// Ordered merge: the one path by which results reach a Session's sink.
//
// Each input stream — one shard's runner — emits matches (and, under an
// aggressive policy, retractions) in emission order, which depends on
// arrival interleaving and on how events were split across shards. The
// merger parks them and delivers them in the CANONICAL order
//
//   (seal_ts = Match::last_ts(), query id, positive event ids),
//
// an intrinsic property of each result, so the delivered sequence is the
// same for every shard count, batch size and kill/recovery history.
// Matches and retractions share the order: a retraction carries the
// events of the match it revokes, so both have the same key, and results
// with equal keys keep the order their shard emitted them in — a
// retraction therefore always follows the match it revokes, and a
// revised AGG window's retraction precedes its corrected emission.
//
// Release is driven by bounds. Each stream reports the largest seal_ts at
// or below which it will emit nothing more while the input keeps its
// slack contract (MultiQueryRunner::release_bound). At the end of every
// call into the runtime, release() delivers every parked result at or
// below the minimum over the streams, so on an in-contract stream the
// concatenated deliveries are exactly the canonical order of the whole
// run.
//
// A result that arrives at or below the bound already released can only
// come from a contract violation: it goes out with the call's release,
// out of order, and is counted in oosp_session_late_deliveries_total.
//
// A caller may ask a release to hold a burst: when more results than
// `hold_over` arrived during the call already final, they wait for
// release_held() at the start of the next call, and this release stops
// below all of them, so the order stays canonical. The sharded runtime
// asks for it only on its inline shard (runtime/sharded.hpp).
//
// Storage: a call's arrivals collect unsorted. At release, those still
// above the bound are parked in one binary min-heap; the final ones are
// sorted once and merged with the heap's final prefix, so a burst of
// results that are final on arrival — one event sealing an AGG slide for
// every key — costs a sort rather than a heap round trip each. Once the
// buffers have grown to the largest backlog, adding and releasing
// allocate nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/core/sink.hpp"
#include "obs/metrics.hpp"

namespace oosp {

// The leading part of a result's canonical key, cached beside the result
// so that most comparisons never touch its events.
struct CanonicalHead {
  Timestamp seal_ts = kMinTimestamp;  // Match::last_ts()
  EventId first_id = 0;               // id of the first positive event
  QueryId query = 0;

  static CanonicalHead of(QueryId query, const Match& m) noexcept {
    return {m.last_ts(), m.events.front().id, query};
  }
};

// Three-way comparison in the canonical output order (seal_ts, query,
// positive event ids). Heads decide unless tied; then the ids after the
// first are compared in place. Returns <0, 0 or >0.
inline int canonical_compare(const CanonicalHead& ha, const Match& a, const CanonicalHead& hb,
                             const Match& b) noexcept {
  if (ha.seal_ts != hb.seal_ts) return ha.seal_ts < hb.seal_ts ? -1 : 1;
  if (ha.query != hb.query) return ha.query < hb.query ? -1 : 1;
  if (ha.first_id != hb.first_id) return ha.first_id < hb.first_id ? -1 : 1;
  const std::size_t n = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 1; i < n; ++i)
    if (a.events[i].id != b.events[i].id) return a.events[i].id < b.events[i].id ? -1 : 1;
  if (a.events.size() == b.events.size()) return 0;
  return a.events.size() < b.events.size() ? -1 : 1;
}

// The concatenation of `streams`, sorted into the canonical order; used
// for matches and retractions alike.
std::vector<TaggedMatch> merge_match_streams(std::vector<std::vector<TaggedMatch>> streams);

class OrderedMerger {
 public:
  // `streams` inputs, each starting at bound kMinTimestamp. With
  // `metrics`, registers oosp_session_late_deliveries_total and the
  // oosp_shard_merge_occupancy gauge (results parked right now).
  OrderedMerger(std::size_t streams, MetricsRegistry* metrics);

  OrderedMerger(const OrderedMerger&) = delete;
  OrderedMerger& operator=(const OrderedMerger&) = delete;

  // Parks one emission, moved in. Streams need not be named: a result's
  // position depends only on its canonical key and, among equal keys, on
  // the order of add() calls.
  void add(QueryId query, Match&& match, bool retraction);

  // Stream `stream` will emit nothing more at or below `bound`. Bounds
  // may move backwards (a restarted shard re-derives its own); what was
  // released stays released.
  void set_bound(std::size_t stream, Timestamp bound) noexcept {
    bounds_[stream] = bound;
    bounds_dirty_ = true;
  }

  static constexpr std::size_t kNoHold = static_cast<std::size_t>(-1);

  // End of a call: raises the released bound to the minimum over the
  // streams and delivers, in canonical order, every result at or below
  // it — matches to on_match, retractions to on_retract; a null sink
  // discards them. O(1) when nothing is due. If more than `hold_over`
  // of the call's arrivals are already final, they are held for
  // release_held() and delivery stops below them.
  void release(TaggedSink* sink, std::size_t hold_over);

  // Start of a call: delivers a burst the last release held, merged with
  // every parked result at or below the released bound. O(1) when
  // nothing was held.
  void release_held(TaggedSink* sink);

  // End of stream: every result is final; delivers all of them.
  void release_all(TaggedSink* sink);

  std::size_t held() const noexcept { return arrivals_.size() + heap_.size(); }

 private:
  struct Entry {
    CanonicalHead head;
    std::uint64_t seq : 63;         // arrival number: equal keys keep emission order
    std::uint64_t retraction : 1;
    Match match;
  };
  static bool before(const Entry& a, const Entry& b) noexcept {
    const int c = canonical_compare(a.head, a.match, b.head, b.match);
    return c != 0 ? c < 0 : a.seq < b.seq;
  }
  // Heap order: `a` goes out after `b`.
  static bool after(const Entry& a, const Entry& b) noexcept { return before(b, a); }

  void park(Entry&& e);
  // Parks the arrivals above `upto`; the final ones stay in arrivals_.
  void split(Timestamp upto);
  // Delivers, in canonical order, every parked result at or below `upto`
  // — merged with all of arrivals_ (which must be final) and clearing
  // it, if `with_arrivals`.
  void deliver(Timestamp upto, bool with_arrivals, TaggedSink* sink);

  std::vector<Entry> arrivals_;       // results not yet sorted in, unsorted
  std::vector<std::uint32_t> order_;  // positions in arrivals_, canonical order
  std::vector<Entry> heap_;           // parked results, earliest at the front
  std::uint64_t next_seq_ = 0;
  std::vector<Timestamp> bounds_;
  bool bounds_dirty_ = false;
  bool held_ = false;  // arrivals_ is a burst waiting for release_held()
  Timestamp released_ = kMinTimestamp;
  Counter* late_obs_ = nullptr;
  Gauge* occupancy_ = nullptr;
};

}  // namespace oosp
