// Match sinks: where engines deliver results.
//
// Two sink interfaces exist, one per routing granularity, with the SAME
// delivery conventions:
//
//   MatchSink   — single-engine delivery (one query, no tagging).
//   TaggedSink  — multi-query delivery (Session / MultiQueryRunner /
//                 ShardedRunner); identical signatures plus a leading
//                 QueryId identifying the originating query.
//
// ## The retraction contract (normative for both interfaces)
//
// `on_match(Match&&)` transfers ownership: the match is MOVED into the
// sink, which may store or destroy it freely. Every emission is final
// unless the producing engine runs the aggressive negation policy
// (EngineOptions::aggressive_negation), in which case a later
// `on_retract(const Match&)` may revise it:
//
//   * on_retract passes the match by const reference — it is a
//     NOTIFICATION carrying the identity of a previously delivered
//     match, not a transfer of a new result. Identify the victim by
//     match_key(m) (the event ids bound to positive steps); the sink
//     must not assume the reference stays valid after the call returns.
//   * A retraction always refers to a match already delivered via
//     on_match with the same key, arrives before the engine's finish()
//     returns, and is issued at most once per emission.
//   * The net result set (emissions minus retractions, as multisets of
//     match keys) equals what the conservative policy would have
//     emitted. Sinks that cannot tolerate revisions (e.g. feeding
//     matches into a downstream engine as events) should refuse
//     retractions loudly, by throwing, rather than ignore them.
//   * The default implementations ignore retractions, so purely
//     conservative pipelines need not care.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "engine/core/match.hpp"

namespace oosp {

class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void on_match(Match&& m) = 0;

  // See "The retraction contract" above. Only engines running the
  // aggressive output policy ever call this.
  virtual void on_retract(const Match& m) { (void)m; }
};

// Identifies a registered query inside a Session / multi-query runner;
// assigned densely in registration order starting at 0.
using QueryId = std::size_t;

struct TaggedMatch {
  QueryId query = 0;
  Match match;
};

// Multi-query delivery interface; same conventions as MatchSink (see the
// retraction contract above), tagged with the originating query.
class TaggedSink {
 public:
  virtual ~TaggedSink() = default;
  virtual void on_match(QueryId query, Match&& m) = 0;
  virtual void on_retract(QueryId query, const Match& m) {
    (void)query;
    (void)m;
  }
};

// Stores every tagged match (and retraction) — tests and examples.
class CollectingTaggedSink final : public TaggedSink {
 public:
  void on_match(QueryId query, Match&& m) override {
    matches_.push_back(TaggedMatch{query, std::move(m)});
  }
  void on_retract(QueryId query, const Match& m) override {
    retracted_.push_back(TaggedMatch{query, m});
  }

  const std::vector<TaggedMatch>& matches() const noexcept { return matches_; }
  const std::vector<TaggedMatch>& retracted() const noexcept { return retracted_; }

  std::vector<MatchKey> keys_for(QueryId query) const {
    std::vector<MatchKey> keys;
    for (const TaggedMatch& tm : matches_)
      if (tm.query == query) keys.push_back(match_key(tm.match));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::vector<TaggedMatch> matches_;
  std::vector<TaggedMatch> retracted_;
};

// Discards matches (pure-throughput benchmarking).
class NullSink final : public MatchSink {
 public:
  void on_match(Match&&) override { ++count_; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

// Stores every match; used by tests and the verification harness.
class CollectingSink final : public MatchSink {
 public:
  void on_match(Match&& m) override { matches_.push_back(std::move(m)); }
  void on_retract(const Match& m) override { retracted_.push_back(m); }

  const std::vector<Match>& matches() const noexcept { return matches_; }
  const std::vector<Match>& retracted() const noexcept { return retracted_; }
  std::size_t size() const noexcept { return matches_.size(); }
  void clear() noexcept {
    matches_.clear();
    retracted_.clear();
  }

  // Sorted identity keys; duplicates preserved (an engine emitting the
  // same logical match twice is a bug that tests must be able to see).
  std::vector<MatchKey> sorted_keys() const {
    std::vector<MatchKey> keys;
    keys.reserve(matches_.size());
    for (const Match& m : matches_) keys.push_back(match_key(m));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  // Net result under the aggressive policy: emissions minus retractions
  // (multiset difference), sorted.
  std::vector<MatchKey> net_sorted_keys() const {
    std::vector<MatchKey> keys = sorted_keys();
    std::vector<MatchKey> gone;
    gone.reserve(retracted_.size());
    for (const Match& m : retracted_) gone.push_back(match_key(m));
    std::sort(gone.begin(), gone.end());
    std::vector<MatchKey> net;
    std::set_difference(keys.begin(), keys.end(), gone.begin(), gone.end(),
                        std::back_inserter(net));
    return net;
  }

 private:
  std::vector<Match> matches_;
  std::vector<Match> retracted_;
};

// Adapts a lambda.
class FunctionSink final : public MatchSink {
 public:
  explicit FunctionSink(std::function<void(Match&&)> fn) : fn_(std::move(fn)) {}
  void on_match(Match&& m) override { fn_(std::move(m)); }

 private:
  std::function<void(Match&&)> fn_;
};

}  // namespace oosp
