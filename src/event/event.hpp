// The event: the unit of data flowing through every stream and engine.
//
// Two orderings matter throughout this library and must never be
// conflated:
//   * `ts`      — the application (occurrence) timestamp assigned at the
//                 source; pattern semantics (SEQ order, windows) are
//                 defined purely over `ts`.
//   * `arrival` — the position in the arrival sequence at the engine.
//                 Network latency makes `arrival` order disagree with
//                 `ts` order; that disagreement is exactly the
//                 out-of-order problem this library addresses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "event/schema.hpp"
#include "event/value.hpp"

namespace oosp {

// Application timestamps are integral ticks (think microseconds). Signed
// so that window arithmetic (ts - W) cannot underflow.
using Timestamp = std::int64_t;
constexpr Timestamp kMinTimestamp = INT64_MIN;
constexpr Timestamp kMaxTimestamp = INT64_MAX;

using EventId = std::uint64_t;
using ArrivalSeq = std::uint64_t;

struct Event {
  TypeId type = kInvalidType;
  EventId id = 0;          // unique per stream, assigned at generation
  Timestamp ts = 0;        // occurrence time
  ArrivalSeq arrival = 0;  // assigned by the channel on delivery
  std::vector<Value> attrs;

  // Requires slot < attrs.size() (std::invalid_argument otherwise).
  const Value& attr(std::size_t slot) const {
    if (slot >= attrs.size()) [[unlikely]] slot_out_of_range();
    return attrs[slot];
  }

  // An event is "late" in a delivered stream when some event with a larger
  // timestamp arrived before it.
  bool operator==(const Event& other) const = default;

 private:
  [[noreturn]] static void slot_out_of_range();
};

// Total order used whenever ties must break deterministically:
// by (ts, id).
struct TsIdLess {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
  }
};

std::ostream& operator<<(std::ostream& os, const Event& e);

// Convenience builder for tests/examples: resolves attribute names through
// the registry's schema and fills slots positionally.
class EventBuilder {
 public:
  EventBuilder(const TypeRegistry& registry, std::string_view type_name);

  EventBuilder& ts(Timestamp t) {
    event_.ts = t;
    return *this;
  }
  EventBuilder& id(EventId i) {
    event_.id = i;
    return *this;
  }
  EventBuilder& set(std::string_view field, Value v);
  Event build() const;

 private:
  const TypeRegistry& registry_;
  Event event_;
  std::vector<bool> filled_;
};

}  // namespace oosp
