// Degraded-mode verification: run an engine under injected faults and
// measure exactly how far its results drift from the clean ground truth.
//
// The fault harness (stream/faults.hpp) mangles a clean ts-ordered
// stream; the oracle computes the result set the clean stream SHOULD
// have produced; the engine consumes the mangled arrival sequence with
// whatever robustness options the caller configured (late policy,
// adaptive slack, dedup, schema validation). The returned VerifyResult
// then quantifies the degradation: lost and late-dropped events show up
// as missed matches (recall), duplicates and corruption admitted without
// guards show up as phantoms (precision). This is the measurement behind
// experiment R-R1 and the safety-net acceptance tests: robustness is a
// claim about HOW FAR recall/precision fall under a given fault cocktail,
// and this is the single code path that computes it.
#pragma once

#include <span>

#include "runtime/driver.hpp"
#include "runtime/verify.hpp"
#include "stream/faults.hpp"

namespace oosp {

struct DegradedResult {
  RunResult run;        // engine-side outcome over the faulted stream
  VerifyResult verify;  // engine output vs oracle over the CLEAN stream
  FaultStats faults;    // what the injector actually did
};

// Degraded-mode accounting for the sharded runtime's restart-exhaustion
// policy (RestartPolicy::kDegradeDropShard): when a shard burns through
// its restart budget the session completes WITHOUT it, and this records
// exactly what that cost. The output contract degrades from exactly-once
// to "exactly-once over the surviving shards plus what the merger had
// received from the dropped shards": those results are kept and
// delivered, everything the dropped shard would still have emitted is
// lost with the events counted here.
struct DegradedAccounting {
  std::size_t dropped_shards = 0;
  // Events discarded on dropped shards: replayable backup thrown away at
  // drop time plus everything routed there afterwards.
  std::uint64_t dropped_events = 0;
  // Matches the merger had received from dropped shards when they were
  // dropped (they are still delivered).
  std::uint64_t matches_kept = 0;
  // Events shed at admission by overload control (runtime/overload.hpp):
  // never admitted, never backed up, never replayed — the quantified gap
  // between the offered stream and the one the engines actually saw.
  std::uint64_t shed_events = 0;

  bool degraded() const noexcept { return dropped_shards > 0 || shed_events > 0; }
};

// Applies `faults` to `clean_ordered` (a ts-ordered stream), feeds the
// result through the engine described by `config`, and scores the output
// against the oracle over the clean stream. Match collection is forced
// on (verification needs the bodies); quarantine collection is honored
// as configured.
DegradedResult run_degraded(const CompiledQuery& query,
                            std::span<const Event> clean_ordered,
                            FaultInjector& faults, const DriverConfig& config);

}  // namespace oosp
