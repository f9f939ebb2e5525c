// Out-of-order sliding-window aggregation engine for AGG queries.
//
// Events land in a per-key AggTree ordered by (ts, id); window emission
// is driven by the same lowest-watermark sealing the pattern engine
// uses: window [start, end) is final once seal_watermark >= end - 1, at
// which point no admissible event can still fall inside it. Each open
// (non-empty, unsealed) window is tracked in an agenda min-heap by end
// timestamp, so an event advancing the watermark seals exactly the due
// windows, each emitted exactly once as a Match carrying one synthetic
// event with attrs [start, end, key, value, count].
//
// Aggressive mode (EngineOptions::aggressive_negation, reused as the
// speculative-emission flag) emits a window the moment the clock passes
// its end — before it seals — and issues MatchSink::on_retract plus a
// corrected emission when late data revises it. The net result multiset
// (emissions minus retractions) equals the conservative output, exactly
// the contract the pattern engine's aggressive negation established.
//
// Determinism: for int inputs every function folds through associative
// exact summaries; double sum/avg fold in canonical (ts, id) order so
// the result is bit-identical across arrival orders, shard counts and
// batch sizes; -0.0 is canonicalized to +0.0 at ingest.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/agg/agg_tree.hpp"
#include "engine/core/admission.hpp"
#include "engine/core/engine.hpp"
#include "stream/clock.hpp"

namespace oosp {

class AggEngine final : public PatternEngine {
 public:
  explicit AggEngine(EngineContext ctx);

  // An event of another type is a clock tick (on_tick): the clock moves to
  // its timestamp and due windows seal, but no counter moves and no
  // admission gate applies. MultiQueryRunner delivers every event to an
  // AGG engine this way, so its windows seal while its own type pauses
  // instead of holding the release bound of every other query back.
  void on_event(const Event& e) override;
  void on_tick(Timestamp ts) override;
  void finish() override;

  std::string name() const override {
    return options_.aggressive_negation ? "agg-speculative" : "agg-ooo";
  }

  std::vector<Event> drain_quarantine() override {
    return admission_.drain_quarantine();
  }

  void snapshot(CheckpointWriter& w) const override;
  void restore(CheckpointReader& r) override;

  // An open window [start, end) still emits (or revises) a result with
  // seal_ts end − 1; a window not open yet needs an arrival above the
  // seal point.
  Timestamp release_bound(Timestamp clock) const override;

 private:
  struct WindowState {
    bool emitted = false;       // speculative emission outstanding
    Value emitted_value;        // payload of that emission (for retraction)
    std::int64_t emitted_count = 0;
  };

  struct KeyState {
    AggTree tree;
    std::map<std::int64_t, WindowState> windows;  // open windows by index
  };

  // Agenda entry: one per open window, ordered by (end, index, key).
  struct Due {
    Timestamp end = 0;
    std::int64_t index = 0;
    Value key;
  };

  static std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
    const std::int64_t q = a / b, r = a % b;
    return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
  }

  Timestamp window_start(std::int64_t i) const noexcept { return i * slide_; }
  Timestamp window_end(std::int64_t i) const noexcept { return i * slide_ + window_; }
  bool sealed(Timestamp end) const noexcept { return seal_watermark_ >= end - 1; }

  KeyState& state_for(const Value& key);

  void ingest(const Event& e);
  Value aggregate(const KeyState& ks, std::int64_t index,
                  std::int64_t* out_count) const;
  Match make_match(const Value& key, std::int64_t index, const Value& value,
                   std::int64_t count) const;
  EventId synthetic_id(const Value& key, std::int64_t index) const;

  void emit_window(const KeyState& ks, const Value& key, std::int64_t index, WindowState& w);
  // Emits and closes, in agenda order (end, index, key), every open
  // window that is final once the seal watermark reaches `horizon`.
  void run_seal_pass(Timestamp horizon);
  void run_speculative_pass();
  void maybe_purge();
  void purge();
  void refresh_gauges();

  // Agenda heaps, popped in (end, index, key) order. Entries whose
  // window is already gone (sealed before a speculative pop reached it)
  // are skipped on pop.
  struct DueLater {
    bool operator()(const Due& a, const Due& b) const noexcept {
      if (a.end != b.end) return a.end > b.end;
      if (a.index != b.index) return a.index > b.index;
      return a.key.compare(b.key) > 0;
    }
  };
  using Agenda = std::priority_queue<Due, std::vector<Due>, DueLater>;

  StreamClock clock_;
  AdmissionControl admission_{options_, stats_};
  Timestamp seal_watermark_ = kMinTimestamp;

  AggFn fn_ = AggFn::kCount;
  TypeId type_ = kInvalidType;
  Timestamp window_ = 0;
  Timestamp slide_ = 0;
  bool keyed_ = false;
  std::size_t key_slot_ = 0;
  std::size_t value_slot_ = 0;
  bool value_is_double_ = false;

  KeyState root_;  // unkeyed state
  std::unordered_map<Value, KeyState, ValueHasher> keys_;

  Agenda seal_agenda_;
  Agenda spec_agenda_;  // aggressive mode only

  std::size_t events_since_purge_ = 0;
};

}  // namespace oosp
