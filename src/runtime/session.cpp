#include "runtime/session.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "common/contracts.hpp"

namespace oosp {

Session::Session(const TypeRegistry& registry, SessionConfig config,
                 std::shared_ptr<TaggedSink> sink)
    : registry_(registry), sink_(std::move(sink)) {
  OOSP_REQUIRE(sink_ != nullptr, "Session sink is null");
  OOSP_REQUIRE(!config.declarations_.empty(), "Session has no queries");

  if (config.metrics_) {
    metrics_ = std::make_unique<MetricsRegistry>();
    quarantine_drained_ = metrics_->counter("oosp_session_quarantine_drained_total");
  }

  specs_.reserve(config.declarations_.size());
  for (QuerySpec& decl : config.declarations_) {
    ShardQuerySpec spec;
    spec.query = compile_query_shared(decl.text, registry_);
    spec.kind = decl.kind.value_or(config.default_kind_);
    // AGG queries run only on the aggregation engine; the session-wide
    // default kind is a fallback, not a contradiction.
    if (spec.query->is_agg()) spec.kind = EngineKind::kAgg;
    spec.options = decl.options.value_or(config.default_options_);
    // Every engine (one per query per shard) registers its own slots;
    // the snapshot aggregates them back into one view.
    spec.options.metrics = metrics_.get();
    specs_.push_back(std::move(spec));
  }

  // One execution stack for every shard count: a single shard runs
  // inline on the pushing thread, and the same ordered merger delivers.
  std::size_t shards = std::max<std::size_t>(1, config.shards_);
  std::optional<PartitionSpec> partition;
  if (shards > 1) {
    partition = PartitionSpec::build(specs_, registry_, &fallback_reason_);
    if (!partition) shards = 1;
  }
  runner_ = std::make_unique<ShardedRunner>(
      registry_, specs_, shards, partition.value_or(PartitionSpec{}),
      config.queue_capacity_, metrics_.get(), std::move(config.recovery_),
      config.share_scans_, std::move(config.overload_), sink_);

  if (config.report_every_.count() > 0)
    start_reporter(config.report_every_, std::move(config.report_to_));
}

Session::~Session() { stop_reporter(); }

void Session::push(const Event& e) {
  OOSP_REQUIRE(!finished_, "push after finish");
  runner_->on_event(e);
}

void Session::push_batch(std::span<const Event> batch) {
  if (batch.empty()) return;
  OOSP_REQUIRE(!finished_, "push_batch after finish");
  runner_->on_batch(batch);
}

void Session::finish() {
  if (finished_) return;
  finished_ = true;

  // Join the reporter before touching end-of-stream state: the drain
  // below mutates quarantined_ and then bumps the drained counter, and a
  // reporter scrape landing between the two would publish a snapshot
  // where the quarantine totals disagree with each other.
  stop_reporter();

  runner_->finish();

  // Drain quarantined late events (LatePolicy::kQuarantine) from every
  // engine now that the workers are joined; canonical (query, ts, id)
  // order makes the report identical across shard counts.
  quarantined_ = runner_->drain_quarantine();
  std::sort(quarantined_.begin(), quarantined_.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.first, a.second.ts, a.second.id) <
                     std::tie(b.first, b.second.ts, b.second.id);
            });
  if (quarantine_drained_) quarantine_drained_->inc(quarantined_.size());
}

std::size_t Session::query_count() const noexcept { return specs_.size(); }

const CompiledQuery& Session::query(QueryId id) const { return *specs_.at(id).query; }

EngineStats Session::stats(QueryId id) const { return runner_->stats(id); }

EngineStats Session::total_stats() const {
  EngineStats merged;
  for (QueryId id = 0; id < query_count(); ++id) merged += stats(id);
  return merged;
}

std::size_t Session::shard_count() const noexcept { return runner_->shard_count(); }

void Session::close() {
  // call_once makes concurrent closes safe: one caller shuts down, the
  // rest block until it is done. If the shutdown throws (a dead worker's
  // exception surfacing from finish), the flag stays unset — but finish()
  // marked itself done before rethrowing, so a retrying close() runs an
  // orderly no-op pass instead of rethrowing forever.
  std::call_once(close_once_, [this] {
    stop_reporter();
    finish();
  });
}

std::size_t Session::restarts() const noexcept { return runner_->restarts_total(); }

std::uint64_t Session::replayed_events() const noexcept {
  return runner_->replayed_events_total();
}

std::size_t Session::dropped_shards() const noexcept {
  return runner_->degraded_accounting().dropped_shards;
}

DegradedAccounting Session::degraded_accounting() const noexcept {
  return runner_->degraded_accounting();
}

std::uint64_t Session::overload_shed() const noexcept { return runner_->shed_events_total(); }

std::uint64_t Session::overload_shed(QueryId id) const {
  OOSP_REQUIRE(id < specs_.size(), "query id out of range");
  return runner_->shed_events(id);
}

MetricsSnapshot Session::metrics_snapshot() const {
  OOSP_CHECK(metrics_ != nullptr, "metrics disabled for this session");
  return metrics_->snapshot();
}

std::string Session::metrics_text() const {
  OOSP_CHECK(metrics_ != nullptr, "metrics disabled for this session");
  return metrics_->scrape_text();
}

void Session::start_reporter(std::chrono::milliseconds interval,
                             std::function<void(const std::string&)> fn) {
  OOSP_CHECK(metrics_ != nullptr, "reporter requires metrics");
  if (!fn) {
    fn = [](const std::string& text) {
      std::fputs(text.c_str(), stderr);
      std::fflush(stderr);
    };
  }
  reporter_ = std::thread([this, interval, fn = std::move(fn)] {
    std::unique_lock<std::mutex> lock(reporter_mu_);
    for (;;) {
      if (reporter_cv_.wait_for(lock, interval, [this] { return reporter_stop_; }))
        return;
      // Scrape without the lock: a close() racing the scrape should not
      // wait behind registry aggregation.
      lock.unlock();
      fn(metrics_->scrape_text());
      lock.lock();
    }
  });
}

void Session::stop_reporter() {
  if (!reporter_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(reporter_mu_);
    reporter_stop_ = true;
  }
  reporter_cv_.notify_all();
  reporter_.join();
}

}  // namespace oosp
