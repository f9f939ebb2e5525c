// Out-of-order sliding-window aggregation store: a two-level B-tree
// specialization in the spirit of the finger B-tree aggregator (FiBA,
// Tangwongsan et al.) tuned for the shapes this engine meets:
//
//  * entries are keyed by (ts, id) and arrive MOSTLY near the right end
//    (the stream is K-slack bounded), so the structure keeps a rightmost
//    finger: an in-order append is O(1) amortized;
//  * an out-of-order insert binary-searches the leaf directory and the
//    leaf, O(log n + chunk) — cheap for inserts near the tail because the
//    directory search is over leaf maxima and late events land in the
//    last few leaves;
//  * evictions happen only at the left edge (watermark purges), dropping
//    whole leaves without touching their entries;
//  * window queries combine per-leaf summaries for interior leaves and
//    scan only the two boundary leaves.
//
// Summaries hold count / int-sum / int-min/max / double-min/max — the
// associative, order-insensitive combinators. Double SUMS are excluded
// on purpose: float addition is not associative, and the repository-wide
// determinism contract (bit-identical results across arrival orders,
// shard counts, and batch sizes) requires folding doubles in canonical
// (ts, id) order — use fold() for those.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "event/event.hpp"

namespace oosp {

struct AggEntry {
  Timestamp ts = 0;
  EventId id = 0;
  std::int64_t ival = 0;
  double dval = 0.0;
};

inline bool agg_entry_less(const AggEntry& a, const AggEntry& b) noexcept {
  return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
}

struct AggSummary {
  std::uint64_t count = 0;
  // Int sums accumulate in unsigned space so overflow wraps (defined)
  // instead of tripping UBSan; the engine reports the wrapped value.
  std::uint64_t isum = 0;
  std::int64_t imin = std::numeric_limits<std::int64_t>::max();
  std::int64_t imax = std::numeric_limits<std::int64_t>::min();
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();

  void add(const AggEntry& e) noexcept {
    ++count;
    isum += static_cast<std::uint64_t>(e.ival);
    imin = e.ival < imin ? e.ival : imin;
    imax = e.ival > imax ? e.ival : imax;
    dmin = e.dval < dmin ? e.dval : dmin;
    dmax = e.dval > dmax ? e.dval : dmax;
  }

  void merge(const AggSummary& o) noexcept {
    count += o.count;
    isum += o.isum;
    imin = o.imin < imin ? o.imin : imin;
    imax = o.imax > imax ? o.imax : imax;
    dmin = o.dmin < dmin ? o.dmin : dmin;
    dmax = o.dmax > dmax ? o.dmax : dmax;
  }
};

class AggTree {
 public:
  explicit AggTree(std::size_t leaf_capacity = 128) : cap_(leaf_capacity) {
    OOSP_REQUIRE(leaf_capacity >= 2, "AggTree leaf capacity too small");
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  // Effective search depth: binary-search steps over the leaf directory
  // plus the leaf level itself (0 when empty) — the obs tree-depth gauge.
  std::size_t depth() const noexcept {
    return leaves_.empty() ? 0 : 1 + std::bit_width(leaves_.size());
  }

  void insert(const AggEntry& e) {
    ++size_;
    if (leaves_.empty()) {
      leaves_.emplace_back();
      leaves_.back().entries.push_back(e);
      leaves_.back().sum.add(e);
      return;
    }
    // Rightmost finger: the common case appends to the last leaf.
    std::size_t li = leaves_.size() - 1;
    if (!agg_entry_less(e, leaves_[li].entries.back())) {
      leaves_[li].entries.push_back(e);
      leaves_[li].sum.add(e);
      maybe_split(li);
      return;
    }
    // Out of order: first leaf whose max is >= e holds the slot.
    li = leaf_for(e);
    Leaf& leaf = leaves_[li];
    const auto at = std::lower_bound(leaf.entries.begin(), leaf.entries.end(), e,
                                     agg_entry_less);
    leaf.entries.insert(at, e);
    leaf.sum.add(e);
    maybe_split(li);
  }

  // Drops every entry with ts < bound (left-edge eviction only: the
  // engine guarantees no future query will reach below the bound).
  // Returns the number of entries removed.
  std::size_t evict_below(Timestamp bound) {
    std::size_t removed = 0;
    std::size_t whole = 0;
    while (whole < leaves_.size() && leaves_[whole].entries.back().ts < bound) {
      removed += leaves_[whole].entries.size();
      ++whole;
    }
    if (whole > 0)
      leaves_.erase(leaves_.begin(),
                    leaves_.begin() + static_cast<std::ptrdiff_t>(whole));
    if (!leaves_.empty() && leaves_.front().entries.front().ts < bound) {
      Leaf& leaf = leaves_.front();
      const auto keep = std::partition_point(
          leaf.entries.begin(), leaf.entries.end(),
          [bound](const AggEntry& e) { return e.ts < bound; });
      removed += static_cast<std::size_t>(keep - leaf.entries.begin());
      leaf.entries.erase(leaf.entries.begin(), keep);
      leaf.sum = AggSummary{};
      for (const AggEntry& e : leaf.entries) leaf.sum.add(e);
    }
    size_ -= removed;
    return removed;
  }

  // Combined summary of entries with lo <= ts < hi: interior leaves by
  // summary, boundary leaves by scan.
  AggSummary summarize(Timestamp lo, Timestamp hi) const {
    AggSummary out;
    walk(lo, hi, [&](const Leaf& leaf, bool whole) {
      if (whole) {
        out.merge(leaf.sum);
      } else {
        for (const AggEntry& e : leaf.entries)
          if (e.ts >= lo && e.ts < hi) out.add(e);
      }
    });
    return out;
  }

  // Visits entries with lo <= ts < hi in (ts, id) order — the canonical
  // fold order for non-associative combinators (double sums).
  template <class F>
  void fold(Timestamp lo, Timestamp hi, F&& f) const {
    walk(lo, hi, [&](const Leaf& leaf, bool whole) {
      if (whole) {
        for (const AggEntry& e : leaf.entries) f(e);
      } else {
        for (const AggEntry& e : leaf.entries)
          if (e.ts >= lo && e.ts < hi) f(e);
      }
    });
  }

  // Visits every entry in (ts, id) order (checkpoint serialization).
  template <class F>
  void for_each(F&& f) const {
    for (const Leaf& leaf : leaves_)
      for (const AggEntry& e : leaf.entries) f(e);
  }

 private:
  struct Leaf {
    std::vector<AggEntry> entries;  // sorted by (ts, id), never empty
    AggSummary sum;
  };

  std::size_t leaf_for(const AggEntry& e) const {
    // First leaf whose max entry is >= e; insert() only calls this when
    // such a leaf exists (e is not past the global max).
    std::size_t lo = 0, hi = leaves_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (agg_entry_less(leaves_[mid].entries.back(), e))
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  void maybe_split(std::size_t li) {
    if (leaves_[li].entries.size() < cap_) return;
    Leaf right;
    const std::size_t half = leaves_[li].entries.size() / 2;
    right.entries.assign(leaves_[li].entries.begin() + static_cast<std::ptrdiff_t>(half),
                         leaves_[li].entries.end());
    leaves_[li].entries.resize(half);
    leaves_[li].sum = AggSummary{};
    for (const AggEntry& e : leaves_[li].entries) leaves_[li].sum.add(e);
    for (const AggEntry& e : right.entries) right.sum.add(e);
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                   std::move(right));
  }

  template <class Visit>
  void walk(Timestamp lo, Timestamp hi, Visit&& visit) const {
    if (lo >= hi) return;
    // First leaf that could hold ts >= lo (max ts >= lo).
    std::size_t li = 0, right = leaves_.size();
    {
      std::size_t a = 0, b = leaves_.size();
      while (a < b) {
        const std::size_t mid = a + (b - a) / 2;
        if (leaves_[mid].entries.back().ts < lo)
          a = mid + 1;
        else
          b = mid;
      }
      li = a;
    }
    for (; li < right; ++li) {
      const Leaf& leaf = leaves_[li];
      if (leaf.entries.front().ts >= hi) break;
      const bool whole = leaf.entries.front().ts >= lo && leaf.entries.back().ts < hi;
      visit(leaf, whole);
    }
  }

  std::size_t cap_;
  std::vector<Leaf> leaves_;
  std::size_t size_ = 0;
};

}  // namespace oosp
