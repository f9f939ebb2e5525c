#include "engine/inorder/inorder_engine.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "engine/core/schedule.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {

InOrderEngine::InOrderEngine(EngineContext ctx) : PatternEngine(std::move(ctx)) {
  const CompiledQuery& query = query_;
  ordinal_of_step_.assign(query.num_steps(), CompiledStep::npos);
  for (std::size_t s = 0; s < query.num_steps(); ++s) {
    if (query.step(s).negated) {
      ordinal_of_step_[s] = step_of_negated_.size();
      step_of_negated_.push_back(s);
    } else {
      ordinal_of_step_[s] = step_of_positive_.size();
      step_of_positive_.push_back(s);
    }
  }
  // Descending construction order: trigger first, then leftward.
  std::vector<std::size_t> desc(step_of_positive_.rbegin(), step_of_positive_.rend());
  schedule_ = build_predicate_schedule(query, desc);
  bindings_.assign(query.num_steps(), nullptr);
  single_.assign(query.num_steps(), nullptr);

  partitioned_ = options_.partition_by_key && query.keys_every_step();
  if (!partitioned_) root_ = make_shard();
}

InOrderEngine::Shard InOrderEngine::make_shard() const {
  Shard sh;
  sh.stacks.resize(step_of_positive_.size());
  sh.negatives.reserve(step_of_negated_.size());
  for (const std::size_t step : step_of_negated_) sh.negatives.emplace_back(query_, step);
  return sh;
}

InOrderEngine::Shard& InOrderEngine::shard_for(const Value& key) {
  auto it = shards_.find(key);
  if (it == shards_.end()) it = shards_.emplace(key, make_shard()).first;
  return it->second;
}

void InOrderEngine::on_event(const Event& e) {
  ++stats_.events_seen;
  EngineObs::inc(obs_.events);
  if (!admission_.admit(e)) return;
  if (clock_.observe(e) > 0) {
    ++stats_.late_events;
    EngineObs::inc(obs_.late);
  }
  const auto steps = query_.steps_for_type(e.type);
  if (steps.empty()) {
    maybe_purge();
    return;
  }
  ++stats_.events_relevant;
  for (const std::size_t step : steps) {
    // Local predicate gate.
    single_[step] = &e;
    bool ok = true;
    for (const std::size_t pi : query_.step(step).local_predicates) {
      ++stats_.predicate_evals;
      if (!query_.predicates()[pi].eval(single_)) {
        ok = false;
        break;
      }
    }
    single_[step] = nullptr;
    if (!ok) continue;
    Shard& shard =
        partitioned_ ? shard_for(e.attr(query_.partition_slots()[step])) : root_;
    process_in_shard(shard, e, step);
  }
  maybe_purge();
  stats_.note_footprint(stats_.footprint());
  EngineObs::set(obs_.footprint, static_cast<std::int64_t>(stats_.footprint()));
}

void InOrderEngine::process_in_shard(Shard& shard, const Event& e, std::size_t step) {
  const std::size_t ord = ordinal_of_step_[step];
  if (query_.step(step).negated) {
    shard.negatives[ord].insert(e.ts, e.id, arena_.alloc(e));
    stats_.note_buffered(1);
    return;
  }
  Stack& stack = shard.stacks[ord];
  const std::size_t rip = ord == 0 ? 0 : shard.stacks[ord - 1].virtual_end();
  stack.items.push_back(Instance{e, rip});
  stats_.note_instance_added();
  trace_span(ord == 0 ? TraceKind::kStart : TraceKind::kStep, e.ts, clock_.now(),
             nullptr, &e);
  if (step == query_.trigger_step()) construct(shard, stack.items.back());
}

void InOrderEngine::construct(Shard& shard, const Instance& trigger) {
  const std::size_t trigger_step = query_.trigger_step();
  bindings_[trigger_step] = &trigger.event;
  ++stats_.construction_visits;
  bool ok = true;
  for (const std::size_t pi : schedule_[0]) {
    ++stats_.predicate_evals;
    if (!query_.predicates()[pi].eval(bindings_)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    const Timestamp window_floor = trigger.event.ts - query_.window();
    if (step_of_positive_.size() == 1) {
      emit_candidate(shard);
    } else {
      descend(shard, step_of_positive_.size() - 2, trigger.rip, trigger.event.ts,
              window_floor);
    }
  }
  bindings_[trigger_step] = nullptr;
}

void InOrderEngine::descend(Shard& shard, std::size_t ordinal, std::size_t rip_limit,
                            Timestamp succ_ts, Timestamp window_floor) {
  const Stack& stack = shard.stacks[ordinal];
  const std::size_t step = step_of_positive_[ordinal];
  const std::size_t sched_pos = step_of_positive_.size() - 1 - ordinal;
  const std::size_t hi = std::min(rip_limit, stack.virtual_end());
  for (std::size_t v = hi; v-- > stack.base;) {
    const Instance& inst = stack.at_virtual(v);
    ++stats_.construction_visits;
    if (inst.event.ts >= succ_ts) continue;   // strict sequencing
    if (inst.event.ts < window_floor) break;  // sorted by arrival==ts: all below fail
    bindings_[step] = &inst.event;
    bool ok = true;
    for (const std::size_t pi : schedule_[sched_pos]) {
      ++stats_.predicate_evals;
      if (!query_.predicates()[pi].eval(bindings_)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      if (ordinal == 0) {
        emit_candidate(shard);
      } else {
        descend(shard, ordinal - 1, inst.rip, inst.event.ts, window_floor);
      }
    }
  }
  bindings_[step] = nullptr;
}

void InOrderEngine::emit_candidate(Shard& shard) {
  for (std::size_t i = 0; i < step_of_negated_.size(); ++i) {
    const CompiledStep& s = query_.step(step_of_negated_[i]);
    const Timestamp lo = bindings_[s.prev_positive]->ts;
    const Timestamp hi = bindings_[s.next_positive]->ts;
    if (shard.negatives[i].violates(arena_, lo, hi, bindings_, stats_.predicate_evals))
      return;
  }
  Match m;
  m.events.reserve(step_of_positive_.size());
  for (const std::size_t p : step_of_positive_) m.events.push_back(*bindings_[p]);
  m.detection_clock = clock_.now();
  emit(std::move(m));
}

void InOrderEngine::write_shard(CheckpointWriter& w, const Shard& sh) const {
  w.tag("shd");
  w.u64(sh.stacks.size());
  for (const Stack& st : sh.stacks) {
    w.u64(st.base);
    w.u64(st.items.size());
    for (const Instance& inst : st.items) {
      w.event(inst.event);
      w.u64(inst.rip);
    }
  }
  w.u64(sh.negatives.size());
  for (const NegativeBuffer& nb : sh.negatives) write_negative_buffer(w, nb, arena_);
}

InOrderEngine::Shard InOrderEngine::read_shard(CheckpointReader& r) {
  r.expect_tag("shd");
  Shard sh = make_shard();
  if (r.count() != sh.stacks.size())
    throw CheckpointError("inorder checkpoint stack count disagrees with query");
  for (Stack& st : sh.stacks) {
    st.base = static_cast<std::size_t>(r.u64());
    const std::size_t n = r.count(8);
    for (std::size_t i = 0; i < n; ++i) {
      Event e = r.event();
      const std::size_t rip = static_cast<std::size_t>(r.u64());
      st.items.push_back(Instance{std::move(e), rip});
    }
  }
  if (r.count() != sh.negatives.size())
    throw CheckpointError("inorder checkpoint negation count disagrees with query");
  for (NegativeBuffer& nb : sh.negatives) read_negative_buffer(r, nb, arena_);
  return sh;
}

void InOrderEngine::snapshot(CheckpointWriter& w) const {
  write_engine_guard(w, name(), query_.text());
  w.stats(stats_);
  write_clock(w, clock_);
  write_admission(w, admission_);
  w.u64(events_since_purge_);
  w.boolean(partitioned_);
  if (!partitioned_) {
    write_shard(w, root_);
    return;
  }
  // Hash-map iteration order is nondeterministic; sort keys so equal
  // state always snapshots to equal bytes.
  std::vector<const std::pair<const Value, Shard>*> entries;
  entries.reserve(shards_.size());
  for (const auto& kv : shards_) entries.push_back(&kv);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first.compare(b->first) < 0; });
  w.u64(entries.size());
  for (const auto* kv : entries) {
    w.value(kv->first);
    write_shard(w, kv->second);
  }
}

void InOrderEngine::restore(CheckpointReader& r) {
  read_engine_guard(r, name(), query_.text());
  stats_ = r.stats();
  read_clock(r, clock_);
  read_admission(r, admission_);
  events_since_purge_ = static_cast<std::size_t>(r.u64());
  if (r.boolean() != partitioned_)
    throw CheckpointError("inorder checkpoint partitioning disagrees with options");
  arena_.clear();
  shards_.clear();
  root_ = Shard{};
  if (!partitioned_) {
    root_ = read_shard(r);
    return;
  }
  const std::size_t n = r.count();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Value key = r.value();
    Shard sh = read_shard(r);
    shards_.emplace(std::move(key), std::move(sh));
  }
}

void InOrderEngine::maybe_purge() {
  if (options_.purge_period == 0) return;
  if (++events_since_purge_ < options_.purge_period) return;
  events_since_purge_ = 0;
  if (!clock_.started()) return;
  // In-order semantics: no event older than the clock will ever arrive,
  // so anything below clock − W can never join a future trigger.
  const Timestamp threshold = clock_.now() - query_.window();
  ++stats_.purge_passes;
  EngineObs::inc(obs_.purge_passes);
  trace_span(TraceKind::kPurge, threshold, clock_.now());
  if (partitioned_) {
    for (auto it = shards_.begin(); it != shards_.end();) {
      purge(it->second, threshold);
      bool empty = std::all_of(it->second.stacks.begin(), it->second.stacks.end(),
                               [](const Stack& s) { return s.items.empty(); }) &&
                   std::all_of(it->second.negatives.begin(), it->second.negatives.end(),
                               [](const NegativeBuffer& b) { return b.size() == 0; });
      it = empty ? shards_.erase(it) : std::next(it);
    }
  } else {
    purge(root_, threshold);
  }
}

void InOrderEngine::purge(Shard& shard, Timestamp threshold) {
  for (Stack& stack : shard.stacks) {
    std::size_t removed = 0;
    while (!stack.items.empty() && stack.items.front().event.ts < threshold) {
      stack.items.pop_front();
      ++stack.base;
      ++removed;
    }
    if (removed) {
      stats_.note_instances_removed(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
  for (NegativeBuffer& nb : shard.negatives) {
    const std::size_t removed = nb.purge_before(threshold, arena_);
    if (removed) {
      stats_.note_unbuffered(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
}

}  // namespace oosp
