// Checkpoint codec: versioned, checksummed byte serialization of engine
// and runner state for crash recovery.
//
// ## Frame format (little-endian throughout)
//
//   offset  size  field
//   0       4     magic "OSPC"
//   4       4     format version (u32; currently 4)
//   8       8     payload length in bytes (u64)
//   16      n     payload
//   16+n    4     CRC-32 (IEEE, reflected) over the payload
//
// The payload is a flat sequence of primitively-encoded fields written
// by CheckpointWriter and read back, in the same order, by
// CheckpointReader. There is no self-describing schema: the engine that
// wrote a section is the only code that can read it, which is enforced
// by section tags (4-byte markers) plus each engine's own guard header
// (engine name + query text). Any structural disagreement — bad magic,
// unknown version, truncated frame, checksum mismatch, tag mismatch,
// guard mismatch, or trailing bytes — throws CheckpointError; a restore
// either succeeds completely or leaves the target engine untouched
// enough to be destroyed (engines restore into scratch structures and
// commit only after every read succeeded).
//
// ## Determinism
//
// Serializers are required to emit deterministic bytes for equal logical
// state: containers without intrinsic order (hash maps, id sets) are
// written in a canonical sort order. This is what lets the recovery
// tests assert that a restored engine re-snapshots to the identical
// byte string — and it makes checkpoint bytes comparable across runs.
//
// Everything here is header-inline so the engine library can serialize
// itself without a link-time dependency on the runtime library (which
// links against the engines, not vice versa).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/event_arena.hpp"
#include "engine/core/admission.hpp"
#include "engine/core/match.hpp"
#include "engine/core/negative_buffer.hpp"
#include "engine/core/stats.hpp"
#include "event/event.hpp"
#include "event/value.hpp"
#include "stream/clock.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

namespace ckptdetail {

inline constexpr std::uint32_t kMagic = 0x4350534Fu;  // "OSPC" little-endian
// v2: MultiQueryRunner frames carry shared-scan groups ("mqg" blocks)
// ahead of the per-query solo engines.
// v3: AggEngine frames ("agk" blocks) — per-key aggregation trees and
// open-window state for AGG queries.
// v4: solo OOO engines and shared-scan groups write one SSC core block
// ("ssc"); stack entries lose the cached-RIP field.
inline constexpr std::uint32_t kVersion = 4;
inline constexpr std::size_t kHeaderSize = 16;  // magic + version + payload length
inline constexpr std::size_t kTrailerSize = 4;  // crc32

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
inline const std::uint32_t* crc32_table() {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const std::uint32_t* table = crc32_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ckptdetail

class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // 4-byte section marker; cheap structure check during reads.
  void tag(std::string_view four) {
    for (std::size_t i = 0; i < 4; ++i) buf_.push_back(i < four.size() ? four[i] : ' ');
  }

  void value(const Value& v) {
    u8(static_cast<std::uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt: i64(v.as_int()); break;
      case ValueType::kDouble: f64(v.as_double()); break;
      case ValueType::kBool: boolean(v.as_bool()); break;
      case ValueType::kString: str(v.as_string()); break;
    }
  }

  void event(const Event& e) {
    u32(e.type);
    u64(e.id);
    i64(e.ts);
    u64(e.arrival);
    u64(e.attrs.size());
    for (const Value& v : e.attrs) value(v);
  }

  void match(const Match& m) {
    u64(m.events.size());
    for (const Event& e : m.events) event(e);
    i64(m.detection_clock);
  }

  void stats(const EngineStats& s) {
    tag("stat");
    u64(s.events_seen);
    u64(s.events_relevant);
    u64(s.late_events);
    u64(s.contract_violations);
    u64(s.events_dropped_late);
    u64(s.events_quarantined);
    u64(s.events_rejected);
    u64(s.events_deduped);
    i64(s.effective_slack);
    u64(s.slack_grows);
    u64(s.slack_shrinks);
    u64(s.instances_inserted);
    u64(s.instances_purged);
    u64(s.current_instances);
    u64(s.peak_instances);
    u64(s.buffered);
    u64(s.buffered_peak);
    u64(s.pending_matches);
    u64(s.pending_peak);
    u64(s.matches_emitted);
    u64(s.matches_cancelled);
    u64(s.matches_retracted);
    u64(s.construction_visits);
    u64(s.predicate_evals);
    u64(s.purge_passes);
    u64(s.footprint_peak);
  }

  std::size_t size() const noexcept { return buf_.size(); }

  // Wraps the payload in the versioned, checksummed frame.
  std::vector<std::uint8_t> finalize() && {
    std::vector<std::uint8_t> out;
    out.reserve(ckptdetail::kHeaderSize + buf_.size() + ckptdetail::kTrailerSize);
    const auto put32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    const auto put64 = [&out](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put32(ckptdetail::kMagic);
    put32(ckptdetail::kVersion);
    put64(buf_.size());
    out.insert(out.end(), buf_.begin(), buf_.end());
    put32(ckptdetail::crc32(buf_));
    return out;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class CheckpointReader {
 public:
  // Validates the frame (magic, version, length, checksum) up front.
  explicit CheckpointReader(std::span<const std::uint8_t> frame) {
    using namespace ckptdetail;
    if (frame.size() < kHeaderSize + kTrailerSize)
      throw CheckpointError("checkpoint frame truncated (shorter than header)");
    const std::uint32_t magic = peek32(frame, 0);
    if (magic != kMagic) throw CheckpointError("checkpoint frame has bad magic");
    const std::uint32_t version = peek32(frame, 4);
    if (version != kVersion)
      throw CheckpointError("unsupported checkpoint version " + std::to_string(version));
    const std::uint64_t len = peek64(frame, 8);
    if (frame.size() != kHeaderSize + len + kTrailerSize)
      throw CheckpointError("checkpoint frame length mismatch");
    payload_ = frame.subspan(kHeaderSize, static_cast<std::size_t>(len));
    const std::uint32_t want = peek32(frame, kHeaderSize + static_cast<std::size_t>(len));
    const std::uint32_t got = crc32(payload_);
    if (want != got) throw CheckpointError("checkpoint checksum mismatch (corrupt frame)");
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    const auto b = take(checked_size(n, "string"));
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  void expect_tag(std::string_view four) {
    const auto b = take(4);
    char got[5] = {static_cast<char>(b[0]), static_cast<char>(b[1]),
                   static_cast<char>(b[2]), static_cast<char>(b[3]), '\0'};
    for (std::size_t i = 0; i < 4; ++i) {
      const char want = i < four.size() ? four[i] : ' ';
      if (got[i] != want)
        throw CheckpointError("checkpoint section mismatch: expected '" +
                              std::string(four) + "', found '" + got + "'");
    }
  }

  // Validated element count for a container about to be read: each
  // element consumes at least `min_bytes_each`, so a count implying more
  // bytes than remain is corruption, not a 2^60-element allocation.
  std::size_t count(std::size_t min_bytes_each = 1) {
    const std::uint64_t n = u64();
    if (min_bytes_each != 0 && n > remaining() / min_bytes_each)
      throw CheckpointError("checkpoint element count exceeds frame size");
    return static_cast<std::size_t>(n);
  }

  Value value() {
    switch (static_cast<ValueType>(u8())) {
      case ValueType::kInt: return Value(i64());
      case ValueType::kDouble: return Value(f64());
      case ValueType::kBool: return Value(boolean());
      case ValueType::kString: return Value(str());
    }
    throw CheckpointError("checkpoint holds an unknown Value type");
  }

  Event event() {
    Event e;
    e.type = u32();
    e.id = u64();
    e.ts = i64();
    e.arrival = u64();
    const std::size_t n = count();
    e.attrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) e.attrs.push_back(value());
    return e;
  }

  Match match() {
    Match m;
    const std::size_t n = count();
    m.events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) m.events.push_back(event());
    m.detection_clock = i64();
    return m;
  }

  EngineStats stats() {
    expect_tag("stat");
    EngineStats s;
    s.events_seen = u64();
    s.events_relevant = u64();
    s.late_events = u64();
    s.contract_violations = u64();
    s.events_dropped_late = u64();
    s.events_quarantined = u64();
    s.events_rejected = u64();
    s.events_deduped = u64();
    s.effective_slack = i64();
    s.slack_grows = u64();
    s.slack_shrinks = u64();
    s.instances_inserted = u64();
    s.instances_purged = u64();
    s.current_instances = u64();
    s.peak_instances = u64();
    s.buffered = u64();
    s.buffered_peak = u64();
    s.pending_matches = u64();
    s.pending_peak = u64();
    s.matches_emitted = u64();
    s.matches_cancelled = u64();
    s.matches_retracted = u64();
    s.construction_visits = u64();
    s.predicate_evals = u64();
    s.purge_passes = u64();
    s.footprint_peak = u64();
    return s;
  }

  std::size_t remaining() const noexcept { return payload_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

  // Every reader must end exactly at the frame boundary; leftover bytes
  // mean the writer and reader disagree about the schema.
  void expect_done() const {
    if (!done())
      throw CheckpointError("checkpoint has " + std::to_string(remaining()) +
                            " unread trailing bytes");
  }

 private:
  static std::uint32_t peek32(std::span<const std::uint8_t> s, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(s[at + i]) << (8 * i);
    return v;
  }
  static std::uint64_t peek64(std::span<const std::uint8_t> s, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(s[at + i]) << (8 * i);
    return v;
  }
  std::size_t checked_size(std::uint64_t n, const char* what) {
    if (n > remaining())
      throw CheckpointError(std::string("checkpoint ") + what + " overruns the frame");
    return static_cast<std::size_t>(n);
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw CheckpointError("checkpoint read past end of frame");
    const auto s = payload_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

// ---- Shared sub-codecs for engine-internal components. Each pair must
// ---- mirror the other field for field; tags catch drift early.

inline void write_clock(CheckpointWriter& w, const StreamClock& c) {
  w.tag("clk");
  w.i64(c.slack());
  w.i64(c.raw_clock());
  w.i64(c.max_lateness());
  w.boolean(c.started());
}

inline void read_clock(CheckpointReader& r, StreamClock& c) {
  r.expect_tag("clk");
  const Timestamp slack = r.i64();
  const Timestamp clock = r.i64();
  const Timestamp max_lateness = r.i64();
  const bool started = r.boolean();
  c.restore_state(slack, clock, max_lateness, started);
}

inline void write_estimator(CheckpointWriter& w, const SlackEstimator& e) {
  w.tag("est");
  const auto& ring = e.sample_ring();
  w.u64(ring.size());
  for (const Timestamp t : ring) w.i64(t);
  w.u64(e.ring_next());
  w.u64(e.since_refresh());
  w.i64(e.estimate());
}

inline void read_estimator(CheckpointReader& r, SlackEstimator& e) {
  r.expect_tag("est");
  const std::size_t n = r.count(8);
  std::vector<Timestamp> ring;
  ring.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ring.push_back(r.i64());
  const std::size_t next = static_cast<std::size_t>(r.u64());
  const std::size_t since_refresh = static_cast<std::size_t>(r.u64());
  const Timestamp estimate = r.i64();
  e.restore_state(std::move(ring), next, since_refresh, estimate);
}

// Dedup ids are written sorted (the set iterates in hash order) so equal
// logical state always produces equal bytes.
inline void write_admission(CheckpointWriter& w, const AdmissionControl& a) {
  w.tag("adm");
  std::vector<EventId> ids(a.seen_ids().begin(), a.seen_ids().end());
  std::sort(ids.begin(), ids.end());
  w.u64(ids.size());
  for (const EventId id : ids) w.u64(id);
  w.u64(a.quarantined_events().size());
  for (const Event& e : a.quarantined_events()) w.event(e);
}

inline void read_admission(CheckpointReader& r, AdmissionControl& a) {
  r.expect_tag("adm");
  const std::size_t n_ids = r.count(8);
  std::unordered_set<EventId> ids;
  ids.reserve(n_ids);
  for (std::size_t i = 0; i < n_ids; ++i) ids.insert(r.u64());
  const std::size_t n_q = r.count(8);
  std::deque<Event> quarantine;
  for (std::size_t i = 0; i < n_q; ++i) quarantine.push_back(r.event());
  a.restore_state(std::move(ids), std::move(quarantine));
}

// The wire format stores the events themselves (count + events in
// (ts, id) order); the arena handles are an in-memory detail, so the
// bytes are identical to the pre-arena layout and restore re-allocates
// one arena slot per entry.
inline void write_negative_buffer(CheckpointWriter& w, const NegativeBuffer& nb,
                                  const EventArena& arena) {
  w.tag("neg");
  w.u64(nb.entries().size());
  for (const NegativeBuffer::Entry& e : nb.entries()) w.event(arena.get(e.handle));
}

inline void read_negative_buffer(CheckpointReader& r, NegativeBuffer& nb,
                                 EventArena& arena) {
  r.expect_tag("neg");
  const std::size_t n = r.count(8);
  std::vector<NegativeBuffer::Entry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Event e = r.event();
    entries.push_back(NegativeBuffer::Entry{e.ts, e.id, arena.alloc(e)});
  }
  nb.set_entries(std::move(entries));
}

// Guard header every engine serializer writes first: restoring into an
// engine of a different kind, policy variant, or query is a structural
// error caught here rather than as garbage reads later.
inline void write_engine_guard(CheckpointWriter& w, std::string_view name,
                               std::string_view query_text) {
  w.tag("eng");
  w.str(name);
  w.str(query_text);
}

inline void read_engine_guard(CheckpointReader& r, std::string_view name,
                              std::string_view query_text) {
  r.expect_tag("eng");
  const std::string got_name = r.str();
  if (got_name != name)
    throw CheckpointError("checkpoint was written by engine '" + got_name +
                          "' but is being restored into '" + std::string(name) + "'");
  const std::string got_query = r.str();
  if (got_query != query_text)
    throw CheckpointError("checkpoint query mismatch: written for \"" + got_query +
                          "\", restoring into \"" + std::string(query_text) + "\"");
}

class PatternEngine;

// Convenience wrappers: one engine per frame. checkpoint_engine() calls
// engine.snapshot() and finalizes the frame; restore_engine() validates
// the frame, calls engine.restore(), and requires the reader to consume
// the payload exactly.
std::vector<std::uint8_t> checkpoint_engine(const PatternEngine& engine);
void restore_engine(PatternEngine& engine, std::span<const std::uint8_t> frame);

}  // namespace oosp
