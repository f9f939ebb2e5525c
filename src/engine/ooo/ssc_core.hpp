// Sequence scan and construction (SSC) over timestamp-ordered stacks —
// the paper's operator, implemented once for one or many member queries.
//
// A core runs 1..N member queries behind ONE arrival-side pipeline:
//
//  * Scan: each relevant arrival splices into the timestamp-ordered
//    stacks (sorted_stack.hpp) its type feeds. Late events land in the
//    middle; in-order events append in O(1).
//
//  * The stack table. Every stack is one ROW of (event type, partition
//    key slot, optional insert-time filter), and each member maps its
//    positive ordinals onto rows. Two layouts exist, chosen by member
//    count:
//      - one member (a solo query, built by make_engine): one FILTERED
//        row per pattern step. The step's local predicates run once at
//        insert time, so a selective step keeps its stack small.
//      - several members (a shared-scan group, built by the
//        MultiQueryRunner): one UNFILTERED row per event type, shared by
//        every member whose pattern uses the type. One insertion replaces
//        N; each member's step-local predicates run when a construction
//        visits an entry (its visit filter).
//    Negated steps get their own per-member filtered rows, which hold a
//    NegativeBuffer instead of a stack.
//
//  * Construction classes. Members with the same positive skeleton —
//    the same steps and types, window, partition slots and structurally
//    equal multi-step predicates — differ only in their step-local
//    predicates, and form one class (at most 64 members; a larger family
//    splits). One anchored construction per (class, ordinal) serves the
//    whole class: it carries a bitmask of the members still alive, which
//    each member's visit filter narrows as entries are bound, and a
//    completed candidate is emitted once per member left in the mask. A
//    class of one (every solo query, every member with negated steps)
//    runs the same walk compiled without the mask.
//
//  * Retroactive construction: a newly inserted event e can only create
//    matches that CONTAIN e, so construction is anchored at e — once per
//    (class, ordinal) anchor of e's row — enumerating leftward (ordinals
//    below the anchor, timestamps descending below e.ts) then rightward
//    (ascending, bounded by the window anchored at the first binding).
//    Every new match is emitted exactly once: at the insertion of its
//    last-inserted constituent. On an in-order stream this degenerates to
//    classic trigger-driven leftward construction.
//
//  * Negation sealing (per member): a candidate whose negation intervals
//    could still admit a late negative (interval end not yet K-sealed)
//    waits in the member's pending heap and is resolved at the first
//    clock advance that seals it. Under aggressive_negation it is emitted
//    at once and kept revocable until it seals. Pure-positive members
//    never touch any of this state.
//
//  * K-slack purge: state below watermark − W_max + 1 can never join a
//    new match of any member (W_max = widest member window; a narrower
//    member's left phase floors at its own window anyway). Each key shard
//    caches its purge point (the highest threshold that would drop none
//    of its state), so a pass purges only the shards whose point is
//    below the threshold.
//    A shard the pass empties goes to a spare list with its stacks'
//    capacity, and the next new key takes it over instead of building
//    one: on sparse keys the steady state allocates nothing.
//
//  * Exactly once per core: admission (schema validation, dedup,
//    LatePolicy), the stream clock, the MONOTONE seal watermark that all
//    seal/purge decisions use, adaptive slack, the event arena, the purge
//    cadence, the batch phases and the purge pass.
//
//  * Batched ingestion (on_batch): admission, clock observation and the
//    contract decisions run per event in ARRIVAL order (Phase A); the
//    admitted slice is then sorted by (ts, id) (Phase B) and spliced and
//    constructed (Phase C). Sealing and purging run once per batch, with
//    the purge cadence replayed exactly. Each match is stamped with the
//    clock at which the per-event path would have detected it: the
//    arrival of its last-arriving constituent, or, for a match held for
//    sealing, the arrival whose watermark sealed it. on_event() is a
//    batch of one.
//
// Stats: arrival counters (events_seen / late / violations / relevant)
// are counted once per event type and folded into every member the type
// is relevant to when stats are read or snapshotted — an event no member
// references is a clock tick for every member. A class's walk charges
// its visits and multi-step predicate evaluations to the class leader,
// and each step-local evaluation and emission to the member it ran for.
// Physical counters (admission outcomes, instances, buffers, pending,
// purges, footprint) exist once and are folded into member 0's snapshot,
// so summing members equals the core's physical reality.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/event_arena.hpp"
#include "engine/core/admission.hpp"
#include "engine/core/engine.hpp"
#include "engine/core/negative_buffer.hpp"
#include "engine/ooo/sorted_stack.hpp"
#include "stream/clock.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

struct SscMember {
  std::shared_ptr<const CompiledQuery> query;
  std::shared_ptr<MatchSink> sink;
};

class SscCore {
 public:
  // `options` are shared by every member (the planner groups only
  // queries whose state-shaping options agree). `obs` is the instrument
  // bundle the core reports into.
  SscCore(std::vector<SscMember> members, EngineOptions options, EngineObs obs);

  SscCore(const SscCore&) = delete;
  SscCore& operator=(const SscCore&) = delete;

  void on_event(const Event& e);
  void on_batch(std::span<const Event* const> batch);
  // PatternEngine::on_tick: held matches the new clock seals resolve now.
  void on_tick(Timestamp ts);
  void finish();

  // Events parked by LatePolicy::kQuarantine, drained once for the core.
  std::vector<Event> drain_quarantine() { return admission_.drain_quarantine(); }

  // True when events of type `t` are pattern input for some member.
  bool relevant(TypeId t) const noexcept {
    return t < relevant_.size() && !relevant_[t].empty();
  }

  // PatternEngine::release_bound for every member at once: the seal
  // point, lowered below the earliest held or still-revocable match.
  Timestamp release_bound(Timestamp clock) const;

  // Member i's counters; member 0's include the physical ones.
  EngineStats member_stats(std::size_t i) const;

  // Crash recovery: the shared state once, the per-member state in
  // member order. restore() must run on a freshly built core (same
  // members and options) before any event; it validates the member
  // query texts and throws CheckpointError on drift.
  void snapshot(CheckpointWriter& w) const;
  void restore(CheckpointReader& r);

 private:
  struct Shard {
    std::vector<SortedStack> stacks;        // per positive row
    std::vector<NegativeBuffer> negatives;  // per negative row
    // The highest purge threshold that drops nothing here: the oldest
    // positive ts or the oldest negative ts + 1, whichever is smaller.
    // kMaxTimestamp exactly when the shard holds nothing.
    Timestamp purge_point = kMaxTimestamp;
  };
  using ShardMap = std::unordered_map<Value, Shard, ValueHasher>;

  // One construction an insertion triggers: a class and one of its
  // positive ordinals.
  struct Anchor {
    std::uint32_t klass;
    std::uint32_t ordinal;
  };
  // The member and negated ordinal a negative row buffers for.
  struct BufferOwner {
    std::uint32_t member;
    std::uint32_t ordinal;
  };

  // One stack (or negation buffer) per key shard. A filtered row admits
  // only events passing the local predicates of `member`'s `step`.
  struct Row {
    std::uint32_t member = 0;
    std::size_t step = 0;
    const std::vector<std::size_t>* filter = nullptr;  // null = unfiltered
    std::size_t key_slot = CompiledStep::npos;
    bool negative = false;
    std::size_t index = 0;        // into Shard::stacks or Shard::negatives
    std::vector<Anchor> anchors;  // constructions an insertion triggers
  };

  struct NegCheck {
    std::size_t ordinal;  // negated ordinal
    Timestamp lo, hi;     // open interval (lo, hi)
  };

  struct PendingMatch {
    // Held matches carry the clock of their last-arriving constituent as
    // detection_clock — the earliest point the match could be reported.
    Match match;
    std::vector<NegCheck> checks;
    Timestamp seal_ts;  // max interval end; final once sealed(seal_ts)
    Value shard_key;    // meaningful only when partitioned
    // Wall clock at candidate completion; the wall-time detection-latency
    // histogram charges the sealing wait against it. Only captured when
    // metrics are enabled.
    std::chrono::steady_clock::time_point held_since{};
  };
  // Orders Member::pending as a min-heap on seal_ts (std::push_heap /
  // std::pop_heap, so a sealed entry moves out of the heap, not copies).
  struct PendingLater {
    bool operator()(const PendingMatch& a, const PendingMatch& b) const noexcept {
      return a.seal_ts > b.seal_ts;
    }
  };

  // One positive ordinal of a member.
  struct Position {
    std::size_t step = 0;   // pattern step index
    std::size_t stack = 0;  // index into Shard::stacks
    // The step's local predicates when its row is unfiltered — checked
    // when construction visits an entry — else null.
    const std::vector<std::size_t>* visit_filter = nullptr;
  };

  struct Member {
    std::shared_ptr<const CompiledQuery> query;
    std::shared_ptr<MatchSink> sink;
    EngineStats stats;
    std::vector<Position> positive;             // by positive ordinal
    std::vector<std::size_t> step_of_negated;   // negated ordinal -> step
    std::vector<std::size_t> buffer_of;         // negated ordinal -> buffer row index
    // Non-local predicates referencing each negated ordinal — evaluated
    // directly when the aggressive policy probes a late negative.
    std::vector<std::vector<std::size_t>> neg_check_predicates;
    // By pattern step, into the arena. A class leader's construction
    // binds here; outside construction it is every member's scratch for
    // rechecking a held match.
    std::vector<const Event*> bindings;
    std::uint32_t klass = 0;  // index into classes_
    std::vector<PendingMatch> pending;  // heap under PendingLater
    // Aggressive policy: emitted matches whose negation intervals have
    // not sealed yet — still revocable. Ordered by seal_ts, so sealing
    // pops a prefix and a late negative at ts t inspects only the suffix
    // with seal_ts > t.
    std::deque<PendingMatch> unsealed;
  };

  // Bit j stands for Class::members[j].
  using MemberMask = std::uint64_t;
  static constexpr std::size_t kClassWidth = 64;

  // Members sharing one positive skeleton (see same_skeleton). The walk
  // uses the leader's (members.front()) positions, window and bindings.
  struct Class {
    std::vector<std::uint32_t> members;  // ascending, at most kClassWidth
    MemberMask everyone = 0;
    // anchored_schedule[a][pos]: the leader's multi-step predicate ids
    // ready at position pos of the binding order (a, a−1, …, 0, a+1, …,
    // n−1) — ordinals.
    std::vector<std::vector<std::vector<std::size_t>>> anchored_schedule;
    // filtered[k]: the members with a visit filter at positive ordinal k.
    std::vector<MemberMask> filtered;
  };

  // Arrivals counted once per event type; member_stats and snapshot fold
  // them into each member the type is relevant to.
  struct ArrivalCounts {
    std::uint64_t seen = 0;
    std::uint64_t relevant = 0;
    std::uint64_t late = 0;
    std::uint64_t violations = 0;
  };

  // Phase A's record of one admitted arrival: the seal watermark in
  // effect at it (Phase C completes candidates against it, so a batch
  // that advances the clock past a candidate's seal point before its
  // trigger is spliced still holds the candidate for the recheck a
  // same-batch negative must be able to fail) and the clock after it.
  struct AdmittedEvent {
    const Event* e;
    Timestamp wm;
    Timestamp clock;
  };
  // Watermark and clock at the end of each admitted arrival, in arrival
  // order (only when some member seals negation intervals).
  struct ArrivalMark {
    Timestamp wm;
    Timestamp clock;
  };

  void add_member(std::uint32_t mi, SscMember sm);
  // Greedy in member order: each member joins the first class whose
  // leader has its skeleton and that has room, else leads a new one.
  void build_classes();
  bool same_skeleton(const CompiledQuery& a, const CompiledQuery& b) const;
  void build_rows();
  Shard make_shard() const;
  // The key's shard; a new key takes a spare node before a new shard is
  // built.
  Shard& shard_for(const Value& key);
  Shard* find_shard(const Value& key);
  const std::vector<std::uint32_t>& arrival_audience(TypeId t) const noexcept {
    return relevant(t) ? relevant_[t] : all_members_;
  }
  // Where an arrival of type `t` is counted: its own entry of arrivals_
  // when some member references it, else the last one, which every
  // member counts.
  std::size_t arrival_bucket(TypeId t) const noexcept {
    return relevant(t) ? t : relevant_.size();
  }
  // members_[i].stats with member i's share of arrivals_ added.
  EngineStats folded_stats(std::size_t i) const;

  // Evaluates `predicates` of m's query over `bindings`, counting each
  // evaluation against m.
  static bool eval(Member& m, std::span<const Event* const> bindings,
                   const std::vector<std::size_t>& predicates) {
    for (const std::size_t pi : predicates) {
      ++m.stats.predicate_evals;
      if (!m.query->predicates()[pi].eval(bindings)) return false;
    }
    return true;
  }
  // The anchored walk, compiled twice: kShared carries the mask of live
  // class members (a class of more than one); without it the class's one
  // member runs its visit filters directly and `live` is unused.
  //
  // bind: binds the visited entry at `ordinal` into the class leader
  // `lead` and drops from `live` the members whose visit filter rejects
  // it; false when none is left.
  template <bool kShared>
  bool bind(const Class& c, Member& lead, std::size_t ordinal, const OooInstance& inst,
            MemberMask& live);
  template <bool kShared>
  void construct_anchored(const Class& c, Shard& shard, const Value& key,
                          std::size_t anchor_ordinal, const OooInstance& anchor);
  template <bool kShared>
  void left_phase(const Class& c, Shard& shard, const Value& key, std::size_t ordinal,
                  std::size_t anchor_ordinal, const OooInstance& successor, MemberMask live);
  template <bool kShared>
  void right_phase(const Class& c, Shard& shard, const Value& key, std::size_t ordinal,
                   std::size_t anchor_ordinal, MemberMask live);
  // Completes the bound candidate for every member left in `live`.
  template <bool kShared>
  void complete(const Class& c, Shard& shard, const Value& key, MemberMask live);
  // False when the ordinal next to the anchor has no entry its range
  // admits, so no member can complete a candidate around it.
  bool has_partners(const Member& lead, const Shard& shard, std::size_t anchor_ordinal,
                    Timestamp ts) const;
  // Completes the bound candidate for member m; `bindings` are its class
  // leader's.
  void complete_candidate(Member& m, Shard& shard, const Value& key,
                          std::span<const Event*> bindings);
  void emit(Member& m, Match&& match);
  // The clock at the arrival of the bound candidate's last-arriving
  // constituent: where the per-event path would have completed it.
  Timestamp completion_clock(const Member& m, std::span<const Event* const> bindings) const;
  bool violated_now(Member& m, Shard& shard, const std::vector<NegCheck>& checks,
                    std::span<const Event*> bindings);
  // Resolve held matches sealed by `watermark` (not necessarily the
  // current one — replaying a mid-batch cadence point must not resolve
  // matches the per-event path would still have held at that moment).
  void process_pending_up_to(Timestamp watermark);
  void resolve_pending(Member& m, PendingMatch&& pm, Timestamp resolved_at);
  // Moves the earliest-sealing held match out of m's heap.
  static PendingMatch pop_pending(Member& m);
  // Points m.bindings at a held match's events; the caller clears them.
  static void bind_held(Member& m, const Match& match);
  // Clock at the first arrival of this batch whose watermark seals an
  // interval ending at `seal_ts`.
  Timestamp sealing_clock(Timestamp seal_ts) const;
  // Earliest seal point among held and revocable matches.
  Timestamp next_due() const;
  // Aggressive policy: a late negative may invalidate an already-emitted,
  // not-yet-sealed match of `m` — find the victims and retract them.
  void handle_late_negative(Member& m, const Value& key, const Event& e,
                            std::size_t ordinal);
  void maybe_grow_slack();
  // Adaptive K shrink — legal only at purge cadence points.
  void apply_adaptive_shrink();
  void purge_pass(Timestamp horizon);
  // Drops the shard's state below `pos_threshold` (negatives below one
  // less) unless its purge point says there is none, then recomputes the
  // point.
  void purge_shard(Shard& shard, Timestamp pos_threshold);
  static void reset_purge_point(Shard& shard);
  void write_shard(CheckpointWriter& w, const Shard& sh) const;
  Shard read_shard(CheckpointReader& r);
  static void write_pending(CheckpointWriter& w, const PendingMatch& pm);
  static PendingMatch read_pending(CheckpointReader& r);

  // Fires a trace span when a hook is installed; one predicted branch
  // otherwise. Pointers are borrowed for the duration of the callback.
  void trace_span(TraceKind kind, Timestamp ts, Timestamp clock, const Match* m = nullptr,
                  const Event* e = nullptr) const {
    if (options_.trace) options_.trace(TraceSpan{kind, ts, clock, m, e});
  }

  bool sealed_at_arrival(Timestamp interval_end) const noexcept {
    // No future event can fall strictly inside an interval ending at
    // `interval_end` once every timestamp <= interval_end − 1 is sealed.
    return arrival_watermark_ >= interval_end - 1;
  }

  EngineOptions options_;
  EngineObs obs_;
  MqoObs mqo_obs_;  // groups of >= 2 members only
  std::vector<Member> members_;
  std::vector<Class> classes_;
  std::vector<std::uint32_t> all_members_;
  std::vector<std::uint32_t> sealing_;  // members with negated steps

  // Physical counters; admission writes its outcomes here.
  EngineStats shared_stats_;
  StreamClock clock_;
  std::optional<SlackEstimator> estimator_;  // adaptive_slack only
  AdmissionControl admission_{options_, shared_stats_};
  // One Event copy per admitted relevant arrival, stamped with the clock
  // after its arrival; stacks and negation buffers reference it by
  // handle. Cleared and rebuilt on restore.
  EventArena arena_;
  // High-water mark of clock_.seal_point(): every sealing and purge
  // decision used a horizon <= this, so an arrival at or below it
  // violates the effective contract.
  Timestamp seal_watermark_ = kMinTimestamp;
  bool partitioned_ = false;
  bool started_ = false;
  std::size_t events_since_purge_ = 0;
  Timestamp window_ = 0;  // widest member window: the purge horizon

  // By TypeId: the rows an arrival of the type feeds (in the order a
  // solo query lists its steps) and the members it is relevant to.
  std::vector<std::vector<Row>> rows_of_type_;
  std::vector<std::vector<std::uint32_t>> relevant_;
  std::vector<ArrivalCounts> arrivals_;  // by arrival_bucket
  std::size_t stack_rows_ = 0;
  std::vector<BufferOwner> buffer_rows_;  // per negative row

  Shard root_;
  ShardMap shards_;
  // Nodes of shards a purge pass emptied, with their stacks' and buffers'
  // capacity: live plus spare shards never exceed the peak live count.
  std::vector<ShardMap::node_type> spare_;

  std::vector<AdmittedEvent> batch_admitted_;
  Timestamp arrival_watermark_ = kMinTimestamp;  // of the event Phase C splices
  std::vector<ArrivalMark> arrival_marks_;
  // Watermarks recorded at purge-period crossings inside the current
  // batch (Phase A), replayed by the batch tail.
  std::vector<Timestamp> batch_purge_marks_;
};

}  // namespace oosp
