#include "runtime/multi_query.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {
namespace {
// Negation sealing and AGG window sealing both need stream-time progress
// from every event, not just the query's own types.
bool takes_ticks(const CompiledQuery& q) { return q.is_agg() || q.has_negation(); }
}  // namespace

MultiQueryRunner::MultiQueryRunner(const TypeRegistry& registry,
                                   std::shared_ptr<TaggedSink> sink,
                                   bool share_scans)
    : registry_(registry), sink_(std::move(sink)), share_scans_(share_scans) {
  OOSP_REQUIRE(sink_ != nullptr, "MultiQueryRunner sink is null");
}

QueryId MultiQueryRunner::add_query(const QuerySpec& spec) {
  return add_query(compile_query_shared(spec.text, registry_),
                   spec.kind.value_or(EngineKind::kOoo),
                   spec.options.value_or(EngineOptions{}));
}

QueryId MultiQueryRunner::add_query(std::shared_ptr<const CompiledQuery> query,
                                    EngineKind kind, EngineOptions options) {
  OOSP_REQUIRE(!started_, "add_query after the first event");
  OOSP_CHECK(!built_, "add_query after the execution plan was materialized");
  OOSP_REQUIRE(query != nullptr, "add_query: query is null");
  // AGG queries run only on the aggregation engine; a caller-supplied
  // default kind (kOoo etc.) is a fallback, not a contradiction.
  if (query->is_agg()) kind = EngineKind::kAgg;
  // Engines validate this at construction; with lazy materialization the
  // caller should still hear about it at registration time.
  OOSP_REQUIRE(options.slack >= 0, "slack must be non-negative");
  registrations_.push_back(ShardQuerySpec{std::move(query), kind, std::move(options)});
  return registrations_.size() - 1;
}

void MultiQueryRunner::ensure_built() const {
  if (!built_) build();
}

void MultiQueryRunner::build() const {
  built_ = true;
  const ScanPlan plan = plan_shared_scan(registrations_, share_scans_);

  exclusion_reasons_.assign(registrations_.size(), std::string{});
  entries_.clear();
  entries_.resize(registrations_.size());
  groups_.clear();
  groups_.reserve(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const ScanGroupPlan& gp = plan.groups[g];
    std::vector<SscMember> members;
    members.reserve(gp.members.size());
    for (const QueryId id : gp.members)
      members.push_back(SscMember{registrations_[id].query, std::make_shared<TagSink>(sink_, id)});
    // Group members were bucketed on options equality, so the first
    // member's options are the group's options.
    const EngineOptions& options = registrations_[gp.members.front()].options;
    const EngineObs obs = EngineObs::create(options.metrics, /*arrival_side=*/true);
    groups_.push_back(std::make_unique<SscCore>(std::move(members), options, obs));
    for (std::size_t mi = 0; mi < gp.members.size(); ++mi) {
      entries_[gp.members[mi]].group = g;
      entries_[gp.members[mi]].member = mi;
    }
  }
  clock_subscribers_.clear();
  for (const QueryId id : plan.solo) {
    const ShardQuerySpec& reg = registrations_[id];
    entries_[id].engine = make_engine(
        reg.kind, EngineContext{reg.query, std::make_shared<TagSink>(sink_, id),
                                reg.options});
    exclusion_reasons_[id] = shared_scan_exclusion(reg);
    if (takes_ticks(*reg.query)) clock_subscribers_.push_back(id);
  }
  rebuild_deliveries();
  if (!registrations_.empty()) {
    mqo_obs_ = MqoObs::create(registrations_.front().options.metrics);
    if (mqo_obs_.groups != nullptr)
      mqo_obs_.groups->set(static_cast<std::int64_t>(groups_.size()));
  }
}

void MultiQueryRunner::rebuild_deliveries() const {
  // Built once at plan materialization. Each (type, query) pair
  // contributes AT MOST ONE delivery — relevant pattern input (solo or
  // via its group) or clock tick, never both — which is the exactly-once
  // guarantee the sharded runtime relies on.
  deliveries_.assign(registry_.size(), {});
  for (TypeId t = 0; t < registry_.size(); ++t) {
    for (QueryId id = 0; id < registrations_.size(); ++id) {
      if (entries_[id].engine == nullptr) continue;  // delivered via its group
      const bool relevant = registrations_[id].query->relevant(t);
      if (relevant || takes_ticks(*registrations_[id].query))
        deliveries_[t].push_back(Delivery{id, relevant});
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g]->relevant(t))
        deliveries_[t].push_back(Delivery{registrations_.size() + g, true});
    }
  }
}

void MultiQueryRunner::dispatch_to_slot(std::size_t slot, const Event& e) const {
  if (slot < entries_.size()) {
    entries_[slot].engine->on_event(e);
  } else {
    groups_[slot - entries_.size()]->on_event(e);
  }
}

void MultiQueryRunner::on_event(const Event& e) {
  ensure_built();
  started_ = true;
  ++events_seen_;
  clock_ = std::max(clock_, e.ts);
  bool routed = false;
  if (e.type < deliveries_.size()) {
    for (const Delivery& d : deliveries_[e.type]) {
      dispatch_to_slot(d.slot, e);
      routed |= d.relevant;
    }
  } else {
    // Type registered after the plan materialized: relevant to nobody,
    // but negation holders still need the clock progress.
    for (const QueryId id : clock_subscribers_) entries_[id].engine->on_event(e);
  }
  if (routed) ++events_routed_;
}

void MultiQueryRunner::on_batch(std::span<const Event> batch) {
  if (batch.empty()) return;
  ensure_built();
  started_ = true;
  events_seen_ += batch.size();
  if (batch_scratch_.size() != slot_count()) batch_scratch_.resize(slot_count());
  std::uint64_t routed = 0;
  for (const Event& e : batch) {
    clock_ = std::max(clock_, e.ts);
    bool rel = false;
    if (e.type < deliveries_.size()) {
      for (const Delivery& d : deliveries_[e.type]) {
        batch_scratch_[d.slot].push_back(&e);
        rel |= d.relevant;
      }
    } else {
      for (const QueryId id : clock_subscribers_) batch_scratch_[id].push_back(&e);
    }
    if (rel) ++routed;
  }
  events_routed_ += routed;
  for (std::size_t slot = 0; slot < batch_scratch_.size(); ++slot) {
    if (batch_scratch_[slot].empty()) continue;
    if (slot < entries_.size()) {
      entries_[slot].engine->on_batch(batch_scratch_[slot]);
    } else {
      groups_[slot - entries_.size()]->on_batch(batch_scratch_[slot]);
    }
    batch_scratch_[slot].clear();
  }
}

void MultiQueryRunner::on_tick(Timestamp ts) {
  ensure_built();
  clock_ = std::max(clock_, ts);
  for (const QueryId id : clock_subscribers_) entries_[id].engine->on_tick(ts);
}

void MultiQueryRunner::finish() {
  ensure_built();
  for (Entry& en : entries_)
    if (en.engine != nullptr) en.engine->finish();
  for (auto& g : groups_) g->finish();
  finished_ = true;
}

Timestamp MultiQueryRunner::release_bound() const {
  ensure_built();
  if (finished_) return kMaxTimestamp;
  Timestamp bound = kMaxTimestamp;
  for (const Entry& en : entries_)
    if (en.engine != nullptr) bound = std::min(bound, en.engine->release_bound(clock_));
  for (const auto& g : groups_) bound = std::min(bound, g->release_bound(clock_));
  return bound;
}

EngineStats MultiQueryRunner::stats(QueryId id) const {
  ensure_built();
  const Entry& en = entries_.at(id);
  if (en.engine != nullptr) return en.engine->stats_snapshot();
  return groups_[en.group]->member_stats(en.member);
}

std::string MultiQueryRunner::share_exclusion_reason(QueryId id) const {
  ensure_built();
  return exclusion_reasons_.at(id);
}

void MultiQueryRunner::snapshot(CheckpointWriter& w) const {
  ensure_built();
  w.tag("mqr");
  w.u64(registrations_.size());
  w.u64(groups_.size());
  for (const auto& g : groups_) g->snapshot(w);
  for (const Entry& en : entries_)
    if (en.engine != nullptr) en.engine->snapshot(w);
  w.u64(events_seen_);
  w.u64(events_routed_);
}

void MultiQueryRunner::restore(CheckpointReader& r) {
  ensure_built();
  r.expect_tag("mqr");
  if (r.count() != registrations_.size())
    throw CheckpointError("checkpoint query count disagrees with runner");
  if (r.count() != groups_.size())
    throw CheckpointError("checkpoint group count disagrees with the plan");
  for (auto& g : groups_) g->restore(r);
  for (Entry& en : entries_)
    if (en.engine != nullptr) en.engine->restore(r);
  events_seen_ = r.u64();
  events_routed_ = r.u64();
  started_ = events_seen_ > 0;
}

std::vector<std::pair<QueryId, Event>> MultiQueryRunner::drain_quarantine() {
  ensure_built();
  std::vector<std::vector<Event>> group_drained(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g)
    group_drained[g] = groups_[g]->drain_quarantine();
  std::vector<std::pair<QueryId, Event>> out;
  for (QueryId id = 0; id < registrations_.size(); ++id) {
    Entry& en = entries_[id];
    if (en.engine != nullptr) {
      for (Event& e : en.engine->drain_quarantine())
        out.emplace_back(id, std::move(e));
    } else {
      // One member engine each would have quarantined its own copy of
      // the event; replicate it to every member it is relevant to.
      for (const Event& e : group_drained[en.group])
        if (registrations_[id].query->relevant(e.type)) out.emplace_back(id, e);
    }
  }
  return out;
}

}  // namespace oosp
