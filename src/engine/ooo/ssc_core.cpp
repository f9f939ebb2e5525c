#include "engine/ooo/ssc_core.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "engine/core/schedule.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {

namespace {

// The key an unpartitioned core files every arrival under.
const Value kUnkeyed{};

// Purge point contributed by an entry at `ts`: a pass at threshold t drops
// a positive entry when ts < t and a negative one when ts < t − 1. Kept
// below kMaxTimestamp, which marks an empty shard.
Timestamp point_of(Timestamp ts, bool negative) noexcept {
  return std::min(ts, kMaxTimestamp - 2) + (negative ? 1 : 0);
}

}  // namespace

SscCore::SscCore(std::vector<SscMember> members, EngineOptions options, EngineObs obs)
    : options_(std::move(options)), obs_(obs), clock_(options_.slack) {
  OOSP_REQUIRE(options_.slack >= 0, "slack must be non-negative");
  OOSP_REQUIRE(!members.empty(), "SscCore: no member queries");
  if (options_.adaptive_slack) estimator_.emplace(options_.slack_estimator, options_.slack);
  if (members.size() > 1) mqo_obs_ = MqoObs::create(options_.metrics);
  members_.reserve(members.size());
  for (std::uint32_t mi = 0; mi < members.size(); ++mi) add_member(mi, std::move(members[mi]));
  partitioned_ = options_.partition_by_key &&
                 std::all_of(members_.begin(), members_.end(),
                             [](const Member& m) { return m.query->keys_every_step(); });
  build_classes();
  build_rows();
  if (!partitioned_) root_ = make_shard();
}

void SscCore::add_member(std::uint32_t mi, SscMember sm) {
  OOSP_REQUIRE(sm.query != nullptr && sm.sink != nullptr, "SscCore: null query or sink");
  const CompiledQuery& q = *sm.query;
  Member m;
  m.query = std::move(sm.query);
  m.sink = std::move(sm.sink);
  for (std::size_t s = 0; s < q.num_steps(); ++s)
    if (q.step(s).negated) m.step_of_negated.push_back(s);
  m.neg_check_predicates.resize(m.step_of_negated.size());
  for (std::size_t i = 0; i < m.step_of_negated.size(); ++i) {
    for (std::size_t pi = 0; pi < q.predicates().size(); ++pi) {
      const CompiledPredicate& p = q.predicates()[pi];
      if (p.references(m.step_of_negated[i]) && p.steps().size() > 1)
        m.neg_check_predicates[i].push_back(pi);
    }
  }
  m.bindings.assign(q.num_steps(), nullptr);
  window_ = std::max(window_, q.window());
  if (!m.step_of_negated.empty()) sealing_.push_back(mi);
  all_members_.push_back(mi);
  members_.push_back(std::move(m));
}

bool SscCore::same_skeleton(const CompiledQuery& a, const CompiledQuery& b) const {
  // A member with negated steps seals its own candidates: it constructs
  // alone.
  if (a.has_negation() || b.has_negation()) return false;
  if (a.num_steps() != b.num_steps() || a.window() != b.window()) return false;
  for (std::size_t s = 0; s < a.num_steps(); ++s)
    if (a.step(s).type != b.step(s).type) return false;
  if (partitioned_ && a.partition_slots() != b.partition_slots()) return false;
  // The multi-step predicates, in order: the leader's schedule runs them
  // for the whole class.
  const auto& pa = a.predicates();
  const auto& pb = b.predicates();
  const auto multi = [](const CompiledPredicate& p) { return p.steps().size() > 1; };
  for (std::size_t i = 0, j = 0;; ++i, ++j) {
    while (i < pa.size() && !multi(pa[i])) ++i;
    while (j < pb.size() && !multi(pb[j])) ++j;
    if (i == pa.size() || j == pb.size()) return i == pa.size() && j == pb.size();
    if (!(pa[i] == pb[j])) return false;
  }
}

void SscCore::build_classes() {
  for (std::uint32_t mi = 0; mi < members_.size(); ++mi) {
    Member& m = members_[mi];
    auto it = std::find_if(classes_.begin(), classes_.end(), [&](const Class& c) {
      return c.members.size() < kClassWidth &&
             same_skeleton(*members_[c.members.front()].query, *m.query);
    });
    if (it == classes_.end()) it = classes_.emplace(classes_.end());
    m.klass = static_cast<std::uint32_t>(it - classes_.begin());
    it->everyone |= MemberMask{1} << it->members.size();
    it->members.push_back(mi);
  }
  // One predicate schedule per anchor ordinal: binding order
  // a, a−1, …, 0, a+1, …, n−1 (as pattern step indices).
  for (Class& c : classes_) {
    const CompiledQuery& q = *members_[c.members.front()].query;
    const std::vector<std::size_t>& positive = q.positive_steps();
    const std::size_t n = positive.size();
    c.anchored_schedule.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
      std::vector<std::size_t> order;
      order.reserve(n);
      for (std::size_t k = a + 1; k-- > 0;) order.push_back(positive[k]);
      for (std::size_t k = a + 1; k < n; ++k) order.push_back(positive[k]);
      c.anchored_schedule[a] = build_predicate_schedule(q, order);
    }
  }
}

void SscCore::build_rows() {
  // One member: a filtered row per step. Several: one unfiltered row per
  // type for positive steps. Negated steps always get a row of their own.
  const bool row_per_step = members_.size() == 1;
  for (std::uint32_t mi = 0; mi < members_.size(); ++mi) {
    Member& m = members_[mi];
    const CompiledQuery& q = *m.query;
    m.buffer_of.resize(m.step_of_negated.size());
    std::size_t negated = 0;
    for (std::size_t s = 0; s < q.num_steps(); ++s) {
      const CompiledStep& st = q.step(s);
      if (st.type >= rows_of_type_.size()) {
        rows_of_type_.resize(st.type + 1);
        relevant_.resize(st.type + 1);
      }
      auto& audience = relevant_[st.type];
      if (audience.empty() || audience.back() != mi) audience.push_back(mi);
      std::vector<Row>& rows = rows_of_type_[st.type];
      const std::size_t key_slot = partitioned_ ? q.partition_slots()[s] : CompiledStep::npos;
      const std::vector<std::size_t>* local =
          st.local_predicates.empty() ? nullptr : &st.local_predicates;
      if (st.negated) {
        m.buffer_of[negated] = buffer_rows_.size();
        rows.push_back(Row{mi, s, local, key_slot, true, buffer_rows_.size(), {}});
        buffer_rows_.push_back(BufferOwner{mi, static_cast<std::uint32_t>(negated++)});
        continue;
      }
      Row* row = nullptr;
      if (!row_per_step) {
        for (Row& r : rows)
          if (!r.negative && r.filter == nullptr) row = &r;
      }
      if (row == nullptr) {
        const std::vector<std::size_t>* filter = row_per_step ? local : nullptr;
        rows.push_back(Row{mi, s, filter, key_slot, false, stack_rows_++, {}});
        row = &rows.back();
      }
      // The class leader's anchors construct for the whole class.
      if (classes_[m.klass].members.front() == mi)
        row->anchors.push_back(Anchor{m.klass, static_cast<std::uint32_t>(m.positive.size())});
      m.positive.push_back(Position{s, row->index, row->filter == nullptr ? local : nullptr});
    }
  }
  arrivals_.assign(relevant_.size() + 1, ArrivalCounts{});
  for (Class& c : classes_) {
    c.filtered.assign(members_[c.members.front()].positive.size(), 0);
    for (std::size_t j = 0; j < c.members.size(); ++j) {
      const Member& m = members_[c.members[j]];
      for (std::size_t k = 0; k < m.positive.size(); ++k)
        if (m.positive[k].visit_filter != nullptr) c.filtered[k] |= MemberMask{1} << j;
    }
  }
}

SscCore::Shard SscCore::make_shard() const {
  Shard sh;
  sh.stacks.resize(stack_rows_);
  sh.negatives.reserve(buffer_rows_.size());
  for (const BufferOwner& b : buffer_rows_) {
    const Member& m = members_[b.member];
    sh.negatives.emplace_back(*m.query, m.step_of_negated[b.ordinal]);
  }
  return sh;
}

SscCore::Shard& SscCore::shard_for(const Value& key) {
  if (!partitioned_) return root_;
  const auto it = shards_.find(key);
  if (it != shards_.end()) return it->second;
  if (spare_.empty()) return shards_.emplace(key, make_shard()).first->second;
  ShardMap::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = key;
  return shards_.insert(std::move(node)).position->second;
}

SscCore::Shard* SscCore::find_shard(const Value& key) {
  if (!partitioned_) return &root_;
  auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : &it->second;
}

void SscCore::maybe_grow_slack() {
  const Timestamp est = estimator_->estimate();
  if (est > clock_.slack()) {
    clock_.set_slack(est);
    ++shared_stats_.slack_grows;
  }
}

void SscCore::on_event(const Event& e) {
  const Event* one = &e;
  on_batch(std::span<const Event* const>(&one, 1));
}

void SscCore::on_batch(std::span<const Event* const> batch) {
  if (batch.empty()) return;
  started_ = true;

  // Phase A — arrival order: admission, clock observation, adaptive
  // growth, and the contract-violation policy are taken per event exactly
  // as the per-event path would, so the admitted multiset is identical
  // for any batching of the same arrival sequence.
  batch_admitted_.clear();
  arrival_marks_.clear();
  std::uint64_t seen = 0, late = 0, violations = 0;
  for (const Event* pe : batch) {
    const Event& e = *pe;
    ArrivalCounts& counts = arrivals_[arrival_bucket(e.type)];
    const std::size_t audience = arrival_audience(e.type).size();
    ++counts.seen;
    seen += audience;
    if (!admission_.admit(e)) continue;
    const Timestamp lateness = clock_.observe(e);
    if (lateness > 0) {
      ++counts.late;
      late += audience;
    }
    if (options_.adaptive_slack) {
      estimator_->observe(lateness);
      maybe_grow_slack();
    }
    seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
    if (e.ts <= seal_watermark_) {
      // The effective contract is broken: seal/purge decisions at or
      // above this timestamp are already final. LatePolicy decides.
      ++counts.violations;
      violations += audience;
      if (!admission_.admit_violation(e)) continue;
    }
    batch_admitted_.push_back(AdmittedEvent{pe, seal_watermark_, clock_.now()});
    // Purge cadence is observable state: resolution consults the
    // negation buffers, so WHICH watermark a purge ran at changes what a
    // later seal sees. Count exactly the events the per-event path
    // counted and record the watermark in effect at the crossing; the
    // batch tail replays the passes in order. Slack shrinks belong to
    // the cadence point too.
    if (options_.purge_period != 0 && ++events_since_purge_ >= options_.purge_period) {
      events_since_purge_ = 0;
      apply_adaptive_shrink();
      batch_purge_marks_.push_back(seal_watermark_);
    }
    if (!sealing_.empty()) arrival_marks_.push_back(ArrivalMark{seal_watermark_, clock_.now()});
  }
  EngineObs::inc(obs_.events, seen);
  if (late != 0) EngineObs::inc(obs_.late, late);
  if (violations != 0) EngineObs::inc(obs_.violations, violations);

  // Phase B — canonical intra-batch order. The match set is invariant
  // under the insertion order of a fixed event multiset, so sorting
  // changes nothing semantically while making splices append-heavy.
  std::sort(batch_admitted_.begin(), batch_admitted_.end(),
            [](const AdmittedEvent& a, const AdmittedEvent& b) {
              return TsIdLess{}(*a.e, *b.e);
            });

  // Phase C — splice into every row the event feeds, constructing from
  // each positive insertion once per anchor.
  for (const AdmittedEvent& ae : batch_admitted_) {
    const Event& e = *ae.e;
    arrival_watermark_ = ae.wm;
    if (!relevant(e.type)) continue;
    ++arrivals_[e.type].relevant;
    EventHandle h = kNullEventHandle;  // allocated on first accepting row
    for (const Row& row : rows_of_type_[e.type]) {
      if (row.filter != nullptr) {
        Member& m = members_[row.member];
        m.bindings[row.step] = &e;
        const bool pass = eval(m, m.bindings, *row.filter);
        m.bindings[row.step] = nullptr;
        if (!pass) continue;
      }
      const Value& key = partitioned_ ? e.attr(row.key_slot) : kUnkeyed;
      Shard& shard = shard_for(key);
      if (h == kNullEventHandle) {
        h = arena_.alloc(e, ae.clock);
      } else {
        arena_.retain(h);
      }
      shard.purge_point = std::min(shard.purge_point, point_of(e.ts, row.negative));
      if (row.negative) {
        shard.negatives[row.index].insert(e.ts, e.id, h);
        shared_stats_.note_buffered(1);
        if (options_.aggressive_negation)
          handle_late_negative(members_[row.member], key, e, buffer_rows_[row.index].ordinal);
        continue;
      }
      SortedStack& stack = shard.stacks[row.index];
      const std::size_t idx = stack.insert(e.ts, e.id, h);
      shared_stats_.note_instance_added();
      EngineObs::inc(mqo_obs_.shared_insertions);
      const bool starts = row.anchors.front().ordinal == 0;
      trace_span(starts ? TraceKind::kStart : TraceKind::kStep, e.ts, clock_.now(), nullptr, &e);
      // Nothing inserts during construction, so the reference is stable
      // across the whole anchor sweep.
      const OooInstance& anchor = stack[idx];
      for (const Anchor& a : row.anchors) {
        const Class& c = classes_[a.klass];
        if (c.members.size() > 1) {
          construct_anchored<true>(c, shard, key, a.ordinal, anchor);
        } else {
          construct_anchored<false>(c, shard, key, a.ordinal, anchor);
        }
      }
    }
  }

  // Seal/purge replay. Deferring sealing itself is sound: an interval an
  // earlier event's watermark sealed cannot gain an in-contract negative
  // from a later event. But a match that sealed BETWEEN two purge passes
  // must be resolved against the buffer state between them, so each
  // cadence crossing Phase A recorded replays as "resolve up to the
  // mark, then purge at the mark". A pass at mark m is observable only
  // through resolutions due before the next pass; with nothing due in
  // that gap the deeper next pass subsumes it. The final mark always
  // runs: it is the purge state the next batch starts from.
  for (std::size_t i = 0; i < batch_purge_marks_.size(); ++i) {
    const bool last = i + 1 == batch_purge_marks_.size();
    if (!last && next_due() - 1 > batch_purge_marks_[i + 1]) continue;
    process_pending_up_to(batch_purge_marks_[i]);
    purge_pass(batch_purge_marks_[i]);
  }
  batch_purge_marks_.clear();
  process_pending_up_to(seal_watermark_);
  shared_stats_.note_footprint(shared_stats_.footprint() + admission_.quarantine_size());
  EngineObs::set(obs_.footprint, static_cast<std::int64_t>(shared_stats_.footprint()));
  EngineObs::set(obs_.effective_slack, clock_.slack());
}

void SscCore::on_tick(Timestamp ts) {
  clock_.advance_to(ts);
  seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
  process_pending_up_to(seal_watermark_);
}

template <bool kShared>
bool SscCore::bind(const Class& c, Member& lead, std::size_t ordinal, const OooInstance& inst,
                   [[maybe_unused]] MemberMask& live) {
  const Position& pos = lead.positive[ordinal];
  lead.bindings[pos.step] = &arena_.get(inst.handle);
  if constexpr (kShared) {
    // Only members still alive pay for their filter.
    for (MemberMask test = live & c.filtered[ordinal]; test != 0; test &= test - 1) {
      const int j = std::countr_zero(test);
      Member& m = members_[c.members[j]];
      if (!eval(m, lead.bindings, *m.positive[ordinal].visit_filter))
        live &= ~(MemberMask{1} << j);
    }
    if (live != 0) return true;
  } else {
    if (pos.visit_filter == nullptr || eval(lead, lead.bindings, *pos.visit_filter)) return true;
  }
  lead.bindings[pos.step] = nullptr;
  return false;
}

bool SscCore::has_partners(const Member& lead, const Shard& shard, std::size_t anchor_ordinal,
                           Timestamp ts) const {
  // The same ranges the first level of left_phase / right_phase walks.
  if (lead.positive.size() == 1) return true;
  const Timestamp window = lead.query->window();
  if (anchor_ordinal > 0) {
    const SortedStack& left = shard.stacks[lead.positive[anchor_ordinal - 1].stack];
    return left.count_ts_below(ts) != left.count_ts_below(ts - window);
  }
  const SortedStack& right = shard.stacks[lead.positive[1].stack];
  const std::size_t v = right.first_ts_above(ts);
  return v < right.size() && right[v].ts <= ts + window;
}

template <bool kShared>
void SscCore::construct_anchored(const Class& c, Shard& shard, const Value& key,
                                 std::size_t anchor_ordinal, const OooInstance& anchor) {
  Member& lead = members_[c.members.front()];
  // Most anchors of a selective family have nothing to join; skip the
  // class's filters for them.
  if constexpr (kShared) {
    if (!has_partners(lead, shard, anchor_ordinal, anchor.ts)) return;
  }
  // An unfiltered row's anchor must pass a member's step-local
  // predicates before the member constructs around it.
  MemberMask live = c.everyone;
  if (!bind<kShared>(c, lead, anchor_ordinal, anchor, live)) return;
  ++lead.stats.construction_visits;
  // Multi-step predicates are never ready at position 0, so descend
  // straight away.
  if (anchor_ordinal > 0) {
    left_phase<kShared>(c, shard, key, anchor_ordinal - 1, anchor_ordinal, anchor, live);
  } else if (lead.positive.size() > 1) {
    right_phase<kShared>(c, shard, key, 1, anchor_ordinal, live);
  } else {
    complete<kShared>(c, shard, key, live);
  }
  lead.bindings[lead.positive[anchor_ordinal].step] = nullptr;
}

template <bool kShared>
void SscCore::left_phase(const Class& c, Shard& shard, const Value& key, std::size_t ordinal,
                         std::size_t anchor_ordinal, const OooInstance& successor,
                         MemberMask live) {
  Member& lead = members_[c.members.front()];
  const SortedStack& stack = shard.stacks[lead.positive[ordinal].stack];
  const Timestamp anchor_ts = lead.bindings[lead.positive[anchor_ordinal].step]->ts;
  // Predecessor range: everything with ts strictly below the successor's,
  // loosely floored by the window anchored at the anchor (the eventual
  // last binding is >= anchor_ts, so nothing below anchor_ts − W can be
  // the first element of a valid match; the exact window check happens in
  // the right phase against the actual first binding).
  const std::size_t ub = stack.count_ts_below(successor.ts);
  const std::size_t floor = stack.count_ts_below(anchor_ts - lead.query->window());
  const auto& ready = c.anchored_schedule[anchor_ordinal][anchor_ordinal - ordinal];
  for (std::size_t v = ub; v-- > floor;) {
    const OooInstance& inst = stack[v];
    ++lead.stats.construction_visits;
    MemberMask alive = live;
    if (!bind<kShared>(c, lead, ordinal, inst, alive) || !eval(lead, lead.bindings, ready))
      continue;
    if (ordinal > 0) {
      left_phase<kShared>(c, shard, key, ordinal - 1, anchor_ordinal, inst, alive);
    } else if (anchor_ordinal + 1 < lead.positive.size()) {
      right_phase<kShared>(c, shard, key, anchor_ordinal + 1, anchor_ordinal, alive);
    } else {
      complete<kShared>(c, shard, key, alive);
    }
  }
  lead.bindings[lead.positive[ordinal].step] = nullptr;
}

template <bool kShared>
void SscCore::right_phase(const Class& c, Shard& shard, const Value& key, std::size_t ordinal,
                          std::size_t anchor_ordinal, MemberMask live) {
  Member& lead = members_[c.members.front()];
  const SortedStack& stack = shard.stacks[lead.positive[ordinal].stack];
  const Timestamp prev_ts = lead.bindings[lead.positive[ordinal - 1].step]->ts;
  const Timestamp ceiling = lead.bindings[lead.positive[0].step]->ts + lead.query->window();
  const auto& ready = c.anchored_schedule[anchor_ordinal][ordinal];
  for (std::size_t v = stack.first_ts_above(prev_ts); v < stack.size(); ++v) {
    const OooInstance& inst = stack[v];
    if (inst.ts > ceiling) break;  // sorted: all further fail the window
    ++lead.stats.construction_visits;
    MemberMask alive = live;
    if (!bind<kShared>(c, lead, ordinal, inst, alive) || !eval(lead, lead.bindings, ready))
      continue;
    if (ordinal + 1 < lead.positive.size()) {
      right_phase<kShared>(c, shard, key, ordinal + 1, anchor_ordinal, alive);
    } else {
      complete<kShared>(c, shard, key, alive);
    }
  }
  lead.bindings[lead.positive[ordinal].step] = nullptr;
}

template <bool kShared>
void SscCore::complete(const Class& c, Shard& shard, const Value& key,
                       [[maybe_unused]] MemberMask live) {
  Member& lead = members_[c.members.front()];
  if constexpr (kShared) {
    for (; live != 0; live &= live - 1)
      complete_candidate(members_[c.members[std::countr_zero(live)]], shard, key, lead.bindings);
  } else {
    complete_candidate(lead, shard, key, lead.bindings);
  }
}

Timestamp SscCore::completion_clock(const Member& m,
                                    std::span<const Event* const> bindings) const {
  // The per-event path completed the candidate when its last constituent
  // arrived, and the clock only grows with arrivals. (Events restored
  // from a checkpoint carry no stamp; they arrived before any live one.)
  Timestamp t = kMinTimestamp;
  for (const Position& p : m.positive)
    t = std::max(t, EventArena::stamp_of(*bindings[p.step]));
  return t;
}

void SscCore::complete_candidate(Member& m, Shard& shard, const Value& key,
                                 std::span<const Event*> bindings) {
  const CompiledQuery& q = *m.query;
  std::vector<NegCheck> checks;
  checks.reserve(m.step_of_negated.size());
  Timestamp seal_ts = kMinTimestamp;
  for (std::size_t i = 0; i < m.step_of_negated.size(); ++i) {
    const CompiledStep& s = q.step(m.step_of_negated[i]);
    const Timestamp lo = bindings[s.prev_positive]->ts;
    const Timestamp hi = bindings[s.next_positive]->ts;
    checks.push_back(NegCheck{i, lo, hi});
    seal_ts = std::max(seal_ts, hi);
  }
  if (!checks.empty() && violated_now(m, shard, checks, bindings)) return;

  Match match;
  match.events.reserve(m.positive.size());
  for (const Position& p : m.positive) match.events.push_back(*bindings[p.step]);
  match.detection_clock = completion_clock(m, bindings);

  if (checks.empty() || sealed_at_arrival(seal_ts)) {
    EngineObs::observe(obs_.latency_wall_us, 0);  // emitted within the arrival call
    emit(m, std::move(match));
    return;
  }
  if (options_.aggressive_negation) {
    // Optimistic emission: report now, remember the match while it is
    // still revocable so a late negative can retract it. Keep the list
    // ordered by seal_ts (insert after equal keys — stable).
    const auto it = std::upper_bound(
        m.unsealed.begin(), m.unsealed.end(), seal_ts,
        [](Timestamp t, const PendingMatch& pm) { return t < pm.seal_ts; });
    m.unsealed.insert(it, PendingMatch{match, std::move(checks), seal_ts, key});
    shared_stats_.note_pending_added();
    EngineObs::observe(obs_.latency_wall_us, 0);
    emit(m, std::move(match));
    return;
  }
  PendingMatch pm{std::move(match), std::move(checks), seal_ts, key};
  if (obs_.enabled()) pm.held_since = std::chrono::steady_clock::now();
  m.pending.push_back(std::move(pm));
  std::push_heap(m.pending.begin(), m.pending.end(), PendingLater{});
  shared_stats_.note_pending_added();
}

void SscCore::emit(Member& m, Match&& match) {
  ++m.stats.matches_emitted;
  if (obs_.matches != nullptr) {
    obs_.matches->inc();
    if (match.detection_clock != kMinTimestamp)
      obs_.latency_stream->observe_signed(match.detection_delay());
  }
  trace_span(TraceKind::kEmit, match.last_ts(), match.detection_clock, &match);
  m.sink->on_match(std::move(match));
}

void SscCore::handle_late_negative(Member& m, const Value& key, const Event& e,
                                   std::size_t ordinal) {
  const std::size_t step = m.step_of_negated[ordinal];
  // A victim needs e.ts strictly inside some interval (lo, hi), and
  // hi <= seal_ts, so only entries with seal_ts > e.ts qualify — the
  // ordered list makes that a suffix.
  auto it = std::upper_bound(
      m.unsealed.begin(), m.unsealed.end(), e.ts,
      [](Timestamp t, const PendingMatch& pm) { return t < pm.seal_ts; });
  while (it != m.unsealed.end()) {
    PendingMatch& pm = *it;
    bool retract = false;
    if (!partitioned_ || pm.shard_key == key) {
      for (const NegCheck& c : pm.checks) {
        if (c.ordinal != ordinal || e.ts <= c.lo || e.ts >= c.hi) continue;
        bind_held(m, pm.match);
        m.bindings[step] = &e;
        retract = eval(m, m.bindings, m.neg_check_predicates[ordinal]);
        std::fill(m.bindings.begin(), m.bindings.end(), nullptr);
        if (retract) break;
      }
    }
    if (retract) {
      trace_span(TraceKind::kRetract, pm.match.last_ts(), clock_.now(), &pm.match, &e);
      m.sink->on_retract(pm.match);
      ++m.stats.matches_retracted;
      EngineObs::inc(obs_.retractions);
      --shared_stats_.pending_matches;
      it = m.unsealed.erase(it);
    } else {
      ++it;
    }
  }
}

bool SscCore::violated_now(Member& m, Shard& shard, const std::vector<NegCheck>& checks,
                           std::span<const Event*> bindings) {
  for (const NegCheck& c : checks) {
    const NegativeBuffer& nb = shard.negatives[m.buffer_of[c.ordinal]];
    if (nb.violates(arena_, c.lo, c.hi, bindings, m.stats.predicate_evals)) return true;
  }
  return false;
}

Timestamp SscCore::sealing_clock(Timestamp seal_ts) const {
  const auto it = std::partition_point(
      arrival_marks_.begin(), arrival_marks_.end(),
      [seal_ts](const ArrivalMark& a) { return a.wm < seal_ts - 1; });
  return it == arrival_marks_.end() ? clock_.now() : it->clock;
}

Timestamp SscCore::next_due() const {
  Timestamp t = kMaxTimestamp;
  for (const std::uint32_t mi : sealing_) {
    const Member& m = members_[mi];
    if (!m.pending.empty()) t = std::min(t, m.pending.front().seal_ts);
    if (!m.unsealed.empty()) t = std::min(t, m.unsealed.front().seal_ts);
  }
  return t;
}

Timestamp SscCore::release_bound(Timestamp clock) const {
  // A new match contains an arrival above the seal point; a held or
  // revocable one has last_ts >= its seal_ts.
  const Timestamp seal = std::max(
      seal_watermark_, StreamClock::seal_point_at(clock, clock_.slack()));
  const Timestamp due = next_due();
  return due == kMaxTimestamp ? seal : std::min(seal, due - 1);
}

void SscCore::process_pending_up_to(Timestamp watermark) {
  if (!clock_.started()) return;
  // Same sealing rule as sealed_at_arrival(), against `watermark`.
  const auto sealed_at = [watermark](Timestamp interval_end) {
    return watermark >= interval_end - 1;
  };
  for (const std::uint32_t mi : sealing_) {
    Member& m = members_[mi];
    while (!m.pending.empty() && sealed_at(m.pending.front().seal_ts)) {
      PendingMatch pm = pop_pending(m);
      --shared_stats_.pending_matches;
      const Timestamp at = sealing_clock(pm.seal_ts);
      resolve_pending(m, std::move(pm), at);
    }
    // Sealed revocable entries are final: pop the sealed prefix.
    std::size_t removed = 0;
    while (!m.unsealed.empty() && sealed_at(m.unsealed.front().seal_ts)) {
      const PendingMatch& pm = m.unsealed.front();
      trace_span(TraceKind::kSeal, pm.match.last_ts(), clock_.now(), &pm.match);
      m.unsealed.pop_front();
      ++removed;
    }
    if (removed == 0) continue;
    shared_stats_.pending_matches -= removed;
    EngineObs::inc(obs_.seals, removed);
  }
}

SscCore::PendingMatch SscCore::pop_pending(Member& m) {
  std::pop_heap(m.pending.begin(), m.pending.end(), PendingLater{});
  PendingMatch pm = std::move(m.pending.back());
  m.pending.pop_back();
  return pm;
}

void SscCore::bind_held(Member& m, const Match& match) {
  for (std::size_t k = 0; k < m.positive.size(); ++k)
    m.bindings[m.positive[k].step] = &match.events[k];
}

void SscCore::resolve_pending(Member& m, PendingMatch&& pm, Timestamp resolved_at) {
  trace_span(TraceKind::kSeal, pm.match.last_ts(), clock_.now(), &pm.match);
  EngineObs::inc(obs_.seals);
  Shard* shard = find_shard(pm.shard_key);
  if (shard != nullptr) {
    // Recheck over the member's scratch bindings: no construction runs
    // while held matches seal.
    bind_held(m, pm.match);
    const bool violated = violated_now(m, *shard, pm.checks, m.bindings);
    std::fill(m.bindings.begin(), m.bindings.end(), nullptr);
    if (violated) {
      ++m.stats.matches_cancelled;
      EngineObs::inc(obs_.cancels);
      trace_span(TraceKind::kCancel, pm.match.last_ts(), clock_.now(), &pm.match);
      return;
    }
  }
  if (obs_.latency_wall_us != nullptr) {
    const auto waited = std::chrono::steady_clock::now() - pm.held_since;
    obs_.latency_wall_us->observe_signed(
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count());
  }
  pm.match.detection_clock = std::max(pm.match.detection_clock, resolved_at);
  emit(m, std::move(pm.match));
}

void SscCore::finish() {
  // End of stream: every interval is final.
  for (const std::uint32_t mi : sealing_) {
    Member& m = members_[mi];
    while (!m.pending.empty()) {
      --shared_stats_.pending_matches;
      resolve_pending(m, pop_pending(m), clock_.now());
    }
    // Aggressive policy: unsealed emissions become final — already
    // delivered, nothing left to do beyond dropping the revocation state.
    shared_stats_.pending_matches -= m.unsealed.size();
    m.unsealed.clear();
  }
  apply_adaptive_shrink();
  purge_pass(seal_watermark_);
}

void SscCore::apply_adaptive_shrink() {
  if (!options_.adaptive_slack || !clock_.started()) return;
  // A purge pass is the only point where the effective slack may SHRINK:
  // growing mid-stream is always safe (it merely defers future purges),
  // but shrinking advances the horizon, and doing that between purges
  // would let sealing race ahead of the state the estimator said was
  // still needed. The watermark keeps the resize monotone either way.
  const Timestamp est = estimator_->estimate();
  if (est < clock_.slack()) {
    clock_.set_slack(est);
    ++shared_stats_.slack_shrinks;
  }
  seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
}

void SscCore::purge_pass(Timestamp horizon) {
  if (!clock_.started()) return;
  // See DESIGN.md §3.3: any future admitted event has ts > seal
  // watermark, and all match elements fit in a window of width W, so
  // positive state below watermark − W + 1 is dead. Negatives are
  // consulted until the intervals that could contain them seal, which
  // happens by clock ≈ ts + W + K; the extra −1 absorbs the strictness
  // of interval bounds. (With a fixed K this is exactly the paper's
  // clock − K − W horizon; deriving it from the monotone watermark keeps
  // adaptive resizes safe.) `horizon` is the watermark at the cadence
  // crossing being replayed — the current one at finish().
  const Timestamp pos_threshold = horizon < kMinTimestamp + window_
                                      ? kMinTimestamp + 1
                                      : horizon - window_ + 1;
  ++shared_stats_.purge_passes;
  EngineObs::inc(obs_.purge_passes);
  trace_span(TraceKind::kPurge, pos_threshold, clock_.now());
  if (!partitioned_) {
    purge_shard(root_, pos_threshold);
    return;
  }
  // A shard the pass empties parks on the spare list, capacity and all.
  for (auto it = shards_.begin(); it != shards_.end();) {
    purge_shard(it->second, pos_threshold);
    if (it->second.purge_point != kMaxTimestamp) {
      ++it;
    } else {
      spare_.push_back(shards_.extract(it++));
    }
  }
}

void SscCore::purge_shard(Shard& shard, Timestamp pos_threshold) {
  if (shard.purge_point >= pos_threshold) return;
  const Timestamp neg_threshold = pos_threshold - 1;
  for (SortedStack& st : shard.stacks) {
    const std::size_t removed = st.purge_before(pos_threshold, arena_);
    if (removed) {
      shared_stats_.note_instances_removed(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
  for (NegativeBuffer& nb : shard.negatives) {
    const std::size_t removed = nb.purge_before(neg_threshold, arena_);
    if (removed) {
      shared_stats_.note_unbuffered(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
  reset_purge_point(shard);
}

void SscCore::reset_purge_point(Shard& shard) {
  Timestamp p = kMaxTimestamp;
  for (const SortedStack& st : shard.stacks)
    if (!st.empty()) p = std::min(p, point_of(st[0].ts, false));
  for (const NegativeBuffer& nb : shard.negatives)
    if (nb.size() != 0) p = std::min(p, point_of(nb.entries().front().ts, true));
  shard.purge_point = p;
}

EngineStats SscCore::folded_stats(std::size_t i) const {
  EngineStats s = members_.at(i).stats;
  for (std::size_t b = 0; b < arrivals_.size(); ++b) {
    // The last bucket holds the types no member references: every
    // member counts them.
    if (b < relevant_.size() && !std::binary_search(relevant_[b].begin(), relevant_[b].end(), i))
      continue;
    const ArrivalCounts& a = arrivals_[b];
    s.events_seen += a.seen;
    s.events_relevant += a.relevant;
    s.late_events += a.late;
    s.contract_violations += a.violations;
  }
  return s;
}

EngineStats SscCore::member_stats(std::size_t i) const {
  EngineStats s = folded_stats(i);
  if (i == 0) s += shared_stats_;
  s.effective_slack = clock_.slack();
  return s;
}

void SscCore::write_shard(CheckpointWriter& w, const Shard& sh) const {
  w.tag("shd");
  w.u64(sh.stacks.size());
  for (const SortedStack& st : sh.stacks) {
    w.u64(st.size());
    for (std::size_t i = 0; i < st.size(); ++i) w.event(arena_.get(st[i].handle));
  }
  w.u64(sh.negatives.size());
  for (const NegativeBuffer& nb : sh.negatives) write_negative_buffer(w, nb, arena_);
}

SscCore::Shard SscCore::read_shard(CheckpointReader& r) {
  r.expect_tag("shd");
  Shard sh = make_shard();
  if (r.count() != sh.stacks.size())
    throw CheckpointError("ssc checkpoint stack count disagrees with the stack table");
  for (SortedStack& st : sh.stacks) {
    const std::size_t n = r.count(8);
    std::vector<OooInstance> items;
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Event e = r.event();
      items.push_back(OooInstance{e.ts, e.id, arena_.alloc(e)});
    }
    st.set_items(std::move(items));
  }
  if (r.count() != sh.negatives.size())
    throw CheckpointError("ssc checkpoint negation count disagrees with the stack table");
  for (NegativeBuffer& nb : sh.negatives) read_negative_buffer(r, nb, arena_);
  reset_purge_point(sh);
  return sh;
}

void SscCore::write_pending(CheckpointWriter& w, const PendingMatch& pm) {
  w.tag("pnd");
  w.match(pm.match);
  w.u64(pm.checks.size());
  for (const NegCheck& c : pm.checks) {
    w.u64(c.ordinal);
    w.i64(c.lo);
    w.i64(c.hi);
  }
  w.i64(pm.seal_ts);
  w.value(pm.shard_key);
  // held_since is a wall-clock point; restore re-stamps it with now(), so
  // the sealing-wait histogram charges recovery wait to the new run.
}

SscCore::PendingMatch SscCore::read_pending(CheckpointReader& r) {
  r.expect_tag("pnd");
  PendingMatch pm;
  pm.match = r.match();
  const std::size_t n = r.count(8);
  pm.checks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NegCheck c;
    c.ordinal = static_cast<std::size_t>(r.u64());
    c.lo = r.i64();
    c.hi = r.i64();
    pm.checks.push_back(c);
  }
  pm.seal_ts = r.i64();
  pm.shard_key = r.value();
  pm.held_since = std::chrono::steady_clock::now();
  return pm;
}

void SscCore::snapshot(CheckpointWriter& w) const {
  w.tag("ssc");
  w.u64(members_.size());
  for (const Member& m : members_) w.str(m.query->text());
  w.stats(shared_stats_);
  for (std::size_t i = 0; i < members_.size(); ++i) w.stats(folded_stats(i));
  write_clock(w, clock_);
  if (estimator_) write_estimator(w, *estimator_);
  write_admission(w, admission_);
  w.i64(seal_watermark_);
  w.u64(events_since_purge_);
  w.boolean(partitioned_);
  if (partitioned_) {
    std::vector<const std::pair<const Value, Shard>*> entries;
    entries.reserve(shards_.size());
    for (const auto& kv : shards_) entries.push_back(&kv);
    std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
      return a->first.compare(b->first) < 0;
    });
    w.u64(entries.size());
    for (const auto* kv : entries) {
      w.value(kv->first);
      write_shard(w, kv->second);
    }
  } else {
    write_shard(w, root_);
  }
  for (const Member& m : members_) {
    // The pending heap's internal layout depends on insertion history;
    // serialize its contents canonically sorted so equal logical state
    // snapshots to equal bytes. Restore re-heapifies by pushing.
    std::vector<const PendingMatch*> pend;
    pend.reserve(m.pending.size());
    for (const PendingMatch& pm : m.pending) pend.push_back(&pm);
    std::sort(pend.begin(), pend.end(), [](const PendingMatch* a, const PendingMatch* b) {
      if (a->seal_ts != b->seal_ts) return a->seal_ts < b->seal_ts;
      return match_key(a->match) < match_key(b->match);
    });
    w.u64(pend.size());
    for (const PendingMatch* pm : pend) write_pending(w, *pm);
    // The revocable list is kept in deterministic (seal_ts, insertion)
    // order; preserve it verbatim.
    w.u64(m.unsealed.size());
    for (const PendingMatch& pm : m.unsealed) write_pending(w, pm);
  }
}

void SscCore::restore(CheckpointReader& r) {
  OOSP_REQUIRE(!started_, "SscCore::restore after events were processed");
  r.expect_tag("ssc");
  if (r.count() != members_.size())
    throw CheckpointError("ssc checkpoint member count disagrees with the core");
  for (const Member& m : members_) {
    if (r.str() != m.query->text()) throw CheckpointError("ssc checkpoint query drift");
  }
  shared_stats_ = r.stats();
  // The frame holds each member's folded arrival counters.
  for (Member& m : members_) m.stats = r.stats();
  std::fill(arrivals_.begin(), arrivals_.end(), ArrivalCounts{});
  read_clock(r, clock_);
  if (estimator_) read_estimator(r, *estimator_);
  read_admission(r, admission_);
  seal_watermark_ = r.i64();
  events_since_purge_ = static_cast<std::size_t>(r.u64());
  if (r.boolean() != partitioned_)
    throw CheckpointError("ssc checkpoint partitioning disagrees with options");
  // Structures are rebuilt wholesale; every live handle dies with them.
  arena_.clear();
  shards_.clear();
  spare_.clear();
  if (partitioned_) {
    const std::size_t n = r.count();
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Value key = r.value();
      Shard sh = read_shard(r);
      shards_.emplace(std::move(key), std::move(sh));
    }
  } else {
    root_ = read_shard(r);
  }
  for (Member& m : members_) {
    m.pending.clear();
    const std::size_t n_pending = r.count();
    for (std::size_t i = 0; i < n_pending; ++i) {
      m.pending.push_back(read_pending(r));
      std::push_heap(m.pending.begin(), m.pending.end(), PendingLater{});
    }
    m.unsealed.clear();
    const std::size_t n_unsealed = r.count();
    for (std::size_t i = 0; i < n_unsealed; ++i) m.unsealed.push_back(read_pending(r));
  }
  started_ = clock_.started();
}

}  // namespace oosp
