// Plan-time grouping for the shared multi-query sequence scan (MQO).
//
// N queries over the same event types pay the SSC arrival-side cost
// (admission, dedup, stack insertion, watermark/purge bookkeeping) N
// times when each runs on its own engine. The planner buckets compiled
// queries whose scans are physically compatible — same engine kind and
// state-shaping options, a shared SEQ-prefix, and (when partitioned)
// agreeing per-type key attributes — into ScanGroupPlans; at execution
// time one SSC core (engine/ooo/ssc_core.hpp) per group maintains ONE set
// of timestamp-ordered Active Instance Stacks for all members. Inside the
// core, members with the same positive skeleton (differing only in
// step-local predicates) also share construction: one walk per
// insertion, narrowed per member by a bitmask; other members construct
// on their own.
//
// Grouping is deterministic: entries are visited in registration order
// and greedily join the first compatible open bucket, so the same query
// set always produces the same plan (checkpoints rely on this — a group
// is snapshotted once, and restore re-plans to the identical layout).
// Queries that cannot share (negation, non-OOO kind, late policies other
// than kAdmit, adaptive slack, trace hooks, key-attribute conflicts) and
// buckets that end up with a single member fall back to per-query
// engines, so the optimization is invisible except in throughput.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/core/sink.hpp"
#include "engine/engines.hpp"
#include "query/compiled.hpp"

namespace oosp {

// One registered query, compiled once and shared read-only by every engine
// that runs it (one per shard). QueryId is its index in a query set.
struct ShardQuerySpec {
  std::shared_ptr<const CompiledQuery> query;
  EngineKind kind = EngineKind::kOoo;
  EngineOptions options;
};

// One shared-scan group: >= 2 queries that will maintain a single set of
// per-type stacks. The SSC core works out the group's partitioning from
// the members' queries and options, so the plan carries only who shares.
struct ScanGroupPlan {
  std::vector<QueryId> members;  // ascending registration order
};

struct ScanPlan {
  std::vector<ScanGroupPlan> groups;
  std::vector<QueryId> solo;  // ascending; run on per-query engines
};

// Why `e` can never join a shared-scan group; empty when it is eligible.
// Surfaced through docs/diagnostics so "my query didn't group" is
// answerable.
std::string shared_scan_exclusion(const ShardQuerySpec& e);

// Buckets `entries` into shared-scan groups. With `enabled` false (or
// for ineligible/singleton entries) everything lands in `solo`.
ScanPlan plan_shared_scan(std::span<const ShardQuerySpec> entries, bool enabled);

}  // namespace oosp
