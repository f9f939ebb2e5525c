#include "runtime/planner.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace oosp {
namespace {

// Options whose divergence would make a shared admission / clock / purge
// pipeline behave differently from each member's own engine. Members of
// one group must agree on all of them; the remaining options either
// cannot appear in a group (adaptive_slack, trace — excluded below) or
// have no effect on pure-positive queries (aggressive_negation,
// obs_arrival_side is a wrapper-only concern).
bool options_group_equal(const EngineOptions& a, const EngineOptions& b) {
  return a.slack == b.slack && a.late_policy == b.late_policy &&
         a.quarantine_capacity == b.quarantine_capacity &&
         a.dedup_by_id == b.dedup_by_id && a.registry == b.registry &&
         a.purge_period == b.purge_period &&
         a.partition_by_key == b.partition_by_key && a.metrics == b.metrics;
}

// The SSC core's partitioning decision for a solo query, so a group
// shards by key exactly when each member's own engine would have.
bool effectively_partitioned(const ShardQuerySpec& e) {
  return e.options.partition_by_key && e.query->keys_every_step();
}

}  // namespace

std::string shared_scan_exclusion(const ShardQuerySpec& e) {
  OOSP_REQUIRE(e.query != nullptr, "planner: null query");
  const CompiledQuery& q = *e.query;
  if (q.is_agg())
    return "aggregation queries keep dedicated window state";
  if (e.kind != EngineKind::kOoo)
    return "engine kind is not the native OOO engine";
  // A group sees only its members' types; sealing a negated query needs
  // every event of the stream as a clock tick.
  if (q.has_negation())
    return "a negated query needs every event as a clock tick";
  // The group clock observes the UNION of member types, so it can run
  // ahead of what a member's own engine would have seen — harmless under
  // kAdmit (lateness only moves counters), but kDrop/kQuarantine turn
  // the lateness verdict into a semantic decision that must match the
  // per-query engine's bit for bit.
  if (e.options.late_policy != LatePolicy::kAdmit)
    return "dropping or quarantining late events depends on the per-query clock";
  if (e.options.adaptive_slack)
    return "adaptive slack would learn K from the union of the members' streams";
  if (e.options.trace)
    return "a trace follows one query's matches, but a shared insertion serves several";
  if (effectively_partitioned(e)) {
    for (const TypeId t : q.positive_type_chain())
      if (q.uniform_partition_slot(t) == CompiledStep::npos)
        return "one event type keys on two different attributes";
  }
  return {};
}

ScanPlan plan_shared_scan(std::span<const ShardQuerySpec> entries, bool enabled) {
  struct Building {
    ScanGroupPlan plan;
    const ShardQuerySpec* leader = nullptr;
    TypeId first_type = kInvalidType;  // every member's first positive type
    bool partitioned = false;          // every member keys uniformly per type
    // Indexed by TypeId; the equi-join slot for that type when
    // `partitioned` (npos for types no member uses).
    std::vector<std::size_t> type_slot;
  };

  ScanPlan out;
  std::vector<Building> open;

  const auto slot_of = [](const Building& b, TypeId t) -> std::size_t {
    return t < b.type_slot.size() ? b.type_slot[t] : CompiledStep::npos;
  };
  const auto absorb = [](Building& b, const CompiledQuery& q,
                         const std::vector<TypeId>& chain) {
    if (!b.partitioned) return;
    for (const TypeId t : chain) {
      if (t >= b.type_slot.size()) b.type_slot.resize(t + 1, CompiledStep::npos);
      b.type_slot[t] = q.uniform_partition_slot(t);
    }
  };

  for (QueryId id = 0; id < entries.size(); ++id) {
    const ShardQuerySpec& e = entries[id];
    if (!enabled || !shared_scan_exclusion(e).empty()) {
      out.solo.push_back(id);
      continue;
    }
    const CompiledQuery& q = *e.query;
    const std::vector<TypeId> chain = q.positive_type_chain();
    const bool partitioned = effectively_partitioned(e);

    bool placed = false;
    for (Building& b : open) {
      if (!options_group_equal(e.options, b.leader->options)) continue;
      if (b.partitioned != partitioned) continue;
      // Sharing pays off only when the scans actually overlap: require a
      // common SEQ prefix of at least the first step.
      if (b.first_type != chain.front()) continue;
      if (partitioned) {
        // Overlapping types must agree on the key attribute — the group
        // keeps ONE stack per (type, key shard).
        bool agree = true;
        for (const TypeId t : chain) {
          const std::size_t theirs = slot_of(b, t);
          if (theirs != CompiledStep::npos &&
              theirs != q.uniform_partition_slot(t)) {
            agree = false;
            break;
          }
        }
        if (!agree) continue;
      }
      b.plan.members.push_back(id);
      absorb(b, q, chain);
      placed = true;
      break;
    }
    if (!placed) {
      Building b;
      b.leader = &e;
      b.first_type = chain.front();
      b.partitioned = partitioned;
      b.plan.members.push_back(id);
      absorb(b, q, chain);
      open.push_back(std::move(b));
    }
  }

  for (Building& b : open) {
    if (b.plan.members.size() < 2) {
      // A group of one would just be a worse per-query engine.
      out.solo.push_back(b.plan.members.front());
      continue;
    }
    out.groups.push_back(std::move(b.plan));
  }
  std::sort(out.solo.begin(), out.solo.end());
  return out;
}

}  // namespace oosp
