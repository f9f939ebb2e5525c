// Shared helpers for the engine test suites.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/spsc_queue.hpp"
#include "engine/engines.hpp"
#include "engine/oracle/oracle.hpp"
#include "event/event.hpp"
#include "query/compiled.hpp"
#include "runtime/verify.hpp"

namespace oosp::testutil {

// Registry with A/B/C/D{k:int, v:int}.
inline TypeRegistry make_abcd_registry() {
  TypeRegistry reg;
  const Schema s({{"k", ValueType::kInt}, {"v", ValueType::kInt}});
  for (const char* n : {"A", "B", "C", "D"}) reg.register_type(n, s);
  return reg;
}

inline Event make_event(const TypeRegistry& reg, const char* type, EventId id,
                        Timestamp ts, std::int64_t k = 0, std::int64_t v = 0) {
  Event e;
  e.type = reg.lookup(type);
  e.id = id;
  e.ts = ts;
  e.attrs = {Value(k), Value(v)};
  return e;
}

// Engines co-own their query and sink (EngineContext). Tests keep
// value-typed CompiledQuery locals, so share a copy per engine here.
inline std::unique_ptr<PatternEngine> make_test_engine(EngineKind kind,
                                                       const CompiledQuery& q,
                                                       std::shared_ptr<MatchSink> sink,
                                                       EngineOptions options = {}) {
  return make_engine(kind, std::make_shared<const CompiledQuery>(q), std::move(sink),
                     std::move(options));
}

// Feeds `arrivals` (arrival order) through a fresh engine; returns
// collected matches.
inline std::vector<Match> run_engine(EngineKind kind, const CompiledQuery& q,
                                     const std::vector<Event>& arrivals,
                                     EngineOptions options = {}) {
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(kind, q, sink, options);
  for (const Event& e : arrivals) engine->on_event(e);
  engine->finish();
  return sink->matches();
}

inline std::vector<MatchKey> run_engine_keys(EngineKind kind, const CompiledQuery& q,
                                             const std::vector<Event>& arrivals,
                                             EngineOptions options = {}) {
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(kind, q, sink, options);
  for (const Event& e : arrivals) engine->on_event(e);
  engine->finish();
  return sink->sorted_keys();
}

// Asserts an engine run over `arrivals` reproduces the oracle exactly.
inline void expect_exact(EngineKind kind, const CompiledQuery& q,
                         const std::vector<Event>& arrivals, EngineOptions options = {},
                         const char* context = "") {
  const auto produced = run_engine(kind, q, arrivals, options);
  const VerifyResult v = verify_against_oracle(q, arrivals, produced);
  EXPECT_TRUE(v.exact()) << to_string(kind) << " " << context
                         << ": expected=" << v.expected << " produced=" << v.produced
                         << " missed=" << v.missed
                         << " false_positives=" << v.false_positives;
}

// One-element ring transactions through the in-place ops the sharded
// runtime uses (try_copy_in_n, peek/release).
template <typename T>
bool spsc_push_one(SpscQueue<T>& q, const T& v) {
  const T* const src = &v;
  return q.try_copy_in_n({&src, 1}) == 1;
}

template <typename T>
bool spsc_pop_one(SpscQueue<T>& q, T& out) {
  const std::span<T> run = q.peek(1);
  if (run.empty()) return false;
  out = run.front();
  q.release(1);
  return true;
}

}  // namespace oosp::testutil
