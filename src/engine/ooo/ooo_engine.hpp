// Native out-of-order engine — the paper's contribution, for one query.
//
// A PatternEngine face over an SscCore with a single member
// (ssc_core.hpp): every call forwards to the core, which runs the scan,
// retroactive construction, negation sealing, K-slack purging, the
// slack-violation safety net and batched ingestion. The face adds only
// the engine guard header in front of the core's checkpoint frame.
//
// Options honoured: slack (K), purge_period, partition_by_key (hash
// partition all state by the query's equi-join key), late_policy +
// quarantine_capacity, adaptive_slack + slack_estimator, dedup_by_id,
// registry (schema validation), aggressive_negation, metrics, trace.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "engine/core/engine.hpp"
#include "engine/ooo/ssc_core.hpp"

namespace oosp {

class OooEngine final : public PatternEngine {
 public:
  explicit OooEngine(EngineContext ctx)
      : PatternEngine(std::move(ctx)),
        core_({SscMember{ctx_.query, ctx_.sink}}, options_, obs_) {}

  void on_event(const Event& e) override { core_.on_event(e); }
  void on_batch(std::span<const Event* const> batch) override { core_.on_batch(batch); }
  void on_tick(Timestamp ts) override { core_.on_tick(ts); }
  void finish() override { core_.finish(); }
  std::string name() const override {
    return options_.aggressive_negation ? "ooo-aggressive" : "ooo-native";
  }
  EngineStats stats_snapshot() const override { return core_.member_stats(0); }
  Timestamp release_bound(Timestamp clock) const override {
    return core_.release_bound(clock);
  }
  std::vector<Event> drain_quarantine() override { return core_.drain_quarantine(); }
  void snapshot(CheckpointWriter& w) const override;
  void restore(CheckpointReader& r) override;

 private:
  SscCore core_;
};

}  // namespace oosp
