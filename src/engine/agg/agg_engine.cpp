#include "engine/agg/agg_engine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "runtime/checkpoint.hpp"

namespace oosp {

namespace {

// FNV-1a over the window index and key payload: a stable synthetic
// EventId for the window result, identical on every shard that could
// own the key, so retraction keys and canonical merge order agree
// across shard counts.
class Fnv1a64 {
 public:
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof(v)); }
  std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

double canonical_double(double v) noexcept { return v == 0.0 ? 0.0 : v; }

}  // namespace

AggEngine::AggEngine(EngineContext ctx)
    : PatternEngine(std::move(ctx)), clock_(options_.slack) {
  OOSP_REQUIRE(query_.is_agg(), "AggEngine needs an AGG query");
  const AggSpec& spec = query_.agg();
  fn_ = spec.fn;
  type_ = spec.type;
  window_ = query_.window();
  slide_ = spec.slide;
  OOSP_REQUIRE(window_ > 0 && slide_ > 0, "AggEngine needs positive window and slide");
  keyed_ = spec.has_key;
  key_slot_ = spec.key_slot;
  value_slot_ = spec.value_slot;
  value_is_double_ = spec.value_type == ValueType::kDouble;
  stats_.effective_slack = options_.slack;
  obs_.add_agg(options_.metrics);
  EngineObs::set(obs_.effective_slack, options_.slack);
}

AggEngine::KeyState& AggEngine::state_for(const Value& key) {
  if (!keyed_) return root_;
  return keys_[key];
}

void AggEngine::on_event(const Event& e) {
  if (e.type != type_) {
    on_tick(e.ts);
    return;
  }
  ++stats_.events_seen;
  EngineObs::inc(obs_.events);
  if (!admission_.admit(e)) return;
  const Timestamp lateness = clock_.observe(e);
  if (lateness > 0) {
    ++stats_.late_events;
    EngineObs::inc(obs_.late);
  }
  seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
  if (e.ts <= seal_watermark_) {
    // A window this event belongs to may already be sealed; ingest()
    // skips those, so the damage is bounded to sealed windows missing
    // the event — counted here, disposed of by the late policy.
    ++stats_.contract_violations;
    EngineObs::inc(obs_.violations);
    if (!admission_.admit_violation(e)) {
      run_seal_pass(seal_watermark_);
      if (options_.aggressive_negation) run_speculative_pass();
      return;
    }
  }
  ++stats_.events_relevant;
  ingest(e);
  run_seal_pass(seal_watermark_);
  if (options_.aggressive_negation) run_speculative_pass();
  maybe_purge();
  stats_.note_footprint(stats_.footprint());
  EngineObs::set(obs_.footprint, static_cast<std::int64_t>(stats_.footprint()));
  EngineObs::set(obs_.agg_footprint, static_cast<std::int64_t>(stats_.footprint()));
}

void AggEngine::on_tick(Timestamp ts) {
  // Only progress counts: an event at or below the clock changes nothing,
  // so it can neither be late nor violate the contract.
  if (clock_.started() && ts <= clock_.now()) return;
  clock_.advance_to(ts);
  seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
  run_seal_pass(seal_watermark_);
  if (options_.aggressive_negation) run_speculative_pass();
}

void AggEngine::ingest(const Event& e) {
  AggEntry entry;
  entry.ts = e.ts;
  entry.id = e.id;
  if (fn_ != AggFn::kCount) {
    const Value& v = e.attr(value_slot_);
    if (value_is_double_)
      entry.dval = canonical_double(v.as_double());
    else
      entry.ival = v.as_int();
  }
  const Value key = keyed_ ? e.attr(key_slot_) : Value();

  // Window indices containing ts: i*slide <= ts < i*slide + window.
  const std::int64_t hi = floor_div(e.ts, slide_);
  const std::int64_t lo = floor_div(e.ts - window_, slide_) + 1;
  bool any_open = false;
  KeyState& ks = state_for(key);
  for (std::int64_t i = lo; i <= hi; ++i) {
    if (sealed(window_end(i))) continue;  // emitted (or empty) and final
    any_open = true;
    auto [it, inserted] = ks.windows.try_emplace(i);
    if (inserted) {
      stats_.note_pending_added();
      seal_agenda_.push(Due{window_end(i), i, key});
      if (options_.aggressive_negation)
        spec_agenda_.push(Due{window_end(i), i, key});
    }
  }
  if (!any_open) {
    // Every containing window is sealed: the entry could never be read
    // again, so keep it out of the tree (and erase the key if this was
    // a stillborn lookup).
    if (keyed_ && ks.tree.empty() && ks.windows.empty()) keys_.erase(key);
    return;
  }
  ks.tree.insert(entry);
  stats_.note_instance_added();

  if (options_.aggressive_negation) {
    // Revise any window that already announced a speculative result.
    for (std::int64_t i = lo; i <= hi; ++i) {
      const auto it = ks.windows.find(i);
      if (it == ks.windows.end() || !it->second.emitted) continue;
      Match old = make_match(key, i, it->second.emitted_value,
                             it->second.emitted_count);
      old.detection_clock = clock_.now();
      ++stats_.matches_retracted;
      EngineObs::inc(obs_.retractions);
      EngineObs::inc(obs_.agg_retracts);
      trace_span(TraceKind::kRetract, old.last_ts(), clock_.now(), &old);
      sink_.on_retract(old);
      emit_window(ks, key, i, it->second);
    }
  }
}

Value AggEngine::aggregate(const KeyState& ks, std::int64_t index,
                           std::int64_t* out_count) const {
  const Timestamp lo = window_start(index), hi = window_end(index);
  // Double sums are folded in canonical (ts, id) order — float addition
  // is not associative, so summary-combining would make the result
  // depend on tree shape and with it on arrival order.
  if (value_is_double_ && (fn_ == AggFn::kSum || fn_ == AggFn::kAvg)) {
    double sum = 0.0;
    std::int64_t n = 0;
    ks.tree.fold(lo, hi, [&](const AggEntry& e) {
      sum += e.dval;
      ++n;
    });
    *out_count = n;
    if (fn_ == AggFn::kSum) return Value(canonical_double(sum));
    return Value(canonical_double(n == 0 ? 0.0 : sum / static_cast<double>(n)));
  }
  const AggSummary s = ks.tree.summarize(lo, hi);
  *out_count = static_cast<std::int64_t>(s.count);
  switch (fn_) {
    case AggFn::kCount: return Value(static_cast<std::int64_t>(s.count));
    case AggFn::kSum:
      return Value(static_cast<std::int64_t>(s.isum));
    case AggFn::kMin:
      return value_is_double_ ? Value(canonical_double(s.dmin)) : Value(s.imin);
    case AggFn::kMax:
      return value_is_double_ ? Value(canonical_double(s.dmax)) : Value(s.imax);
    case AggFn::kAvg:
      return Value(s.count == 0 ? 0.0
                                : static_cast<double>(static_cast<std::int64_t>(s.isum)) /
                                      static_cast<double>(s.count));
  }
  return Value(std::int64_t{0});
}

EventId AggEngine::synthetic_id(const Value& key, std::int64_t index) const {
  Fnv1a64 h;
  h.u64(static_cast<std::uint64_t>(index));
  h.u64(static_cast<std::uint64_t>(key.type()));
  switch (key.type()) {
    case ValueType::kInt: h.u64(static_cast<std::uint64_t>(key.as_int())); break;
    case ValueType::kDouble: {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double));
      const double d = key.as_double();
      std::memcpy(&bits, &d, sizeof(bits));
      h.u64(bits);
      break;
    }
    case ValueType::kBool: h.u64(key.as_bool() ? 1 : 0); break;
    case ValueType::kString:
      h.bytes(key.as_string().data(), key.as_string().size());
      break;
  }
  return h.digest();
}

Match AggEngine::make_match(const Value& key, std::int64_t index, const Value& value,
                            std::int64_t count) const {
  Event ev;
  ev.type = type_;
  ev.id = synthetic_id(key, index);
  ev.ts = window_end(index) - 1;  // seal timestamp: canonical merge order
  ev.arrival = 0;
  ev.attrs.reserve(5);
  ev.attrs.push_back(Value(window_start(index)));
  ev.attrs.push_back(Value(window_end(index)));
  ev.attrs.push_back(keyed_ ? key : Value(std::int64_t{0}));
  ev.attrs.push_back(value);
  ev.attrs.push_back(Value(count));
  Match m;
  m.events.push_back(std::move(ev));
  return m;
}

void AggEngine::emit_window(const KeyState& ks, const Value& key, std::int64_t index,
                            WindowState& w) {
  std::int64_t count = 0;
  const Value value = aggregate(ks, index, &count);
  Match m = make_match(key, index, value, count);
  m.detection_clock = clock_.now();
  w.emitted = true;
  w.emitted_value = value;
  w.emitted_count = count;
  EngineObs::inc(obs_.agg_emits);
  EngineObs::observe(obs_.agg_emit_latency, m.detection_delay());
  emit(std::move(m));
}

Timestamp AggEngine::release_bound(Timestamp clock) const {
  const Timestamp seal =
      std::max(seal_watermark_, StreamClock::seal_point_at(clock, clock_.slack()));
  return seal_agenda_.empty() ? seal : std::min(seal, seal_agenda_.top().end - 2);
}

void AggEngine::run_seal_pass(Timestamp horizon) {
  while (!seal_agenda_.empty() && horizon >= seal_agenda_.top().end - 1) {
    const Due due = seal_agenda_.top();
    seal_agenda_.pop();
    KeyState& ks = keyed_ ? keys_.at(due.key) : root_;
    const auto it = ks.windows.find(due.index);
    OOSP_ASSERT(it != ks.windows.end());
    EngineObs::inc(obs_.seals);
    if (!it->second.emitted) emit_window(ks, due.key, due.index, it->second);
    ks.windows.erase(it);
    OOSP_ASSERT(stats_.pending_matches > 0);
    --stats_.pending_matches;
  }
}

void AggEngine::run_speculative_pass() {
  const Timestamp now = clock_.now();
  while (!spec_agenda_.empty() && spec_agenda_.top().end <= now) {
    const Due due = spec_agenda_.top();
    spec_agenda_.pop();
    KeyState* ks = keyed_ ? (keys_.count(due.key) ? &keys_.at(due.key) : nullptr)
                          : &root_;
    if (ks == nullptr) continue;  // sealed and fully purged already
    const auto it = ks->windows.find(due.index);
    if (it == ks->windows.end() || it->second.emitted) continue;
    emit_window(*ks, due.key, due.index, it->second);
  }
}

void AggEngine::maybe_purge() {
  if (options_.purge_period == 0) return;
  if (++events_since_purge_ < options_.purge_period) return;
  events_since_purge_ = 0;
  purge();
}

void AggEngine::purge() {
  // An entry is dead once every window containing it is sealed:
  // ts + window <= watermark + 1, i.e. ts < watermark - window + 2.
  if (seal_watermark_ <= kMinTimestamp + window_) return;
  const Timestamp bound = seal_watermark_ - window_ + 2;
  ++stats_.purge_passes;
  EngineObs::inc(obs_.purge_passes);
  std::uint64_t removed = 0;
  if (keyed_) {
    for (auto it = keys_.begin(); it != keys_.end();) {
      removed += it->second.tree.evict_below(bound);
      if (it->second.tree.empty() && it->second.windows.empty())
        it = keys_.erase(it);
      else
        ++it;
    }
  } else {
    removed += root_.tree.evict_below(bound);
  }
  stats_.note_instances_removed(removed);
  EngineObs::inc(obs_.purged, removed);
  refresh_gauges();
}

void AggEngine::refresh_gauges() {
  std::size_t depth = root_.tree.depth();
  for (const auto& [key, ks] : keys_) depth = std::max(depth, ks.tree.depth());
  EngineObs::set(obs_.agg_tree_depth, static_cast<std::int64_t>(depth));
  EngineObs::set(obs_.agg_footprint, static_cast<std::int64_t>(stats_.footprint()));
}

void AggEngine::finish() {
  // End of stream seals everything still open.
  run_seal_pass(kMaxTimestamp);
  spec_agenda_ = Agenda{};
  refresh_gauges();
  EngineObs::set(obs_.footprint, static_cast<std::int64_t>(stats_.footprint()));
}

void AggEngine::snapshot(CheckpointWriter& w) const {
  write_engine_guard(w, name(), query_.text());
  write_clock(w, clock_);
  w.i64(seal_watermark_);
  write_admission(w, admission_);
  w.u64(events_since_purge_);
  w.tag("agk");
  w.boolean(keyed_);
  const auto write_key_state = [&w](const KeyState& ks) {
    w.u64(ks.tree.size());
    ks.tree.for_each([&w](const AggEntry& e) {
      w.i64(e.ts);
      w.u64(e.id);
      w.i64(e.ival);
      w.f64(e.dval);
    });
    w.u64(ks.windows.size());
    for (const auto& [index, ws] : ks.windows) {
      w.i64(index);
      w.boolean(ws.emitted);
      w.value(ws.emitted_value);
      w.i64(ws.emitted_count);
    }
  };
  if (keyed_) {
    // Canonical key order for byte determinism.
    std::vector<const Value*> order;
    order.reserve(keys_.size());
    for (const auto& [key, ks] : keys_) order.push_back(&key);
    std::sort(order.begin(), order.end(),
              [](const Value* a, const Value* b) { return a->compare(*b) < 0; });
    w.u64(order.size());
    for (const Value* key : order) {
      w.value(*key);
      write_key_state(keys_.at(*key));
    }
  } else {
    write_key_state(root_);
  }
  w.stats(stats_);
}

void AggEngine::restore(CheckpointReader& r) {
  read_engine_guard(r, name(), query_.text());
  StreamClock clock(options_.slack);
  read_clock(r, clock);
  const Timestamp watermark = r.i64();
  AdmissionControl admission(options_, stats_);
  read_admission(r, admission);
  const std::uint64_t since_purge = r.u64();
  r.expect_tag("agk");
  const bool keyed = r.boolean();
  if (keyed != keyed_)
    throw CheckpointError("agg checkpoint keying mismatch");
  const auto read_key_state = [&r](KeyState& ks) {
    const std::size_t n = r.count(8);
    for (std::size_t i = 0; i < n; ++i) {
      AggEntry e;
      e.ts = r.i64();
      e.id = r.u64();
      e.ival = r.i64();
      e.dval = r.f64();
      // Entries were written in (ts, id) order, so insertion replays the
      // in-order fast path and the rebuilt tree re-snapshots identically.
      ks.tree.insert(e);
    }
    const std::size_t nw = r.count(8);
    for (std::size_t i = 0; i < nw; ++i) {
      const std::int64_t index = r.i64();
      WindowState ws;
      ws.emitted = r.boolean();
      ws.emitted_value = r.value();
      ws.emitted_count = r.i64();
      ks.windows.emplace(index, ws);
    }
  };
  KeyState root;
  std::unordered_map<Value, KeyState, ValueHasher> keys;
  if (keyed_) {
    const std::size_t n = r.count(2);
    for (std::size_t i = 0; i < n; ++i) {
      Value key = r.value();
      read_key_state(keys[std::move(key)]);
    }
  } else {
    read_key_state(root);
  }
  const EngineStats stats = r.stats();

  // Commit.
  clock_ = clock;
  seal_watermark_ = watermark;
  admission_.restore_state(
      std::unordered_set<EventId>(admission.seen_ids().begin(),
                                  admission.seen_ids().end()),
      std::deque<Event>(admission.quarantined_events().begin(),
                        admission.quarantined_events().end()));
  events_since_purge_ = static_cast<std::size_t>(since_purge);
  root_ = std::move(root);
  keys_ = std::move(keys);
  stats_ = stats;
  seal_agenda_ = Agenda{};
  spec_agenda_ = Agenda{};
  const auto enqueue = [this](const Value& key, const KeyState& ks) {
    for (const auto& [index, ws] : ks.windows) {
      seal_agenda_.push(Due{window_end(index), index, key});
      if (options_.aggressive_negation && !ws.emitted)
        spec_agenda_.push(Due{window_end(index), index, key});
    }
  };
  if (keyed_) {
    for (const auto& [key, ks] : keys_) enqueue(key, ks);
  } else {
    enqueue(Value(), root_);
  }
  EngineObs::set(obs_.effective_slack, clock_.slack());
  refresh_gauges();
}

}  // namespace oosp
