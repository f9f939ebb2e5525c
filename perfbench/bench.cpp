// oosp_perfbench — the repository benchmark program.
//
//   oosp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
//
// One process generates the workload's arrival stream from the seed and
// computes the reference output once, by a path other than the code under
// test (a K-slack reorder buffer feeding the in-order engine for pattern
// queries, a direct window-sum recompute for the AGG query). Every
// measured run is then a forked child, so each starts from the same
// fresh heap and none inherits the frees of the run before it.
//
// --trace 0 (end to end): the child drives the public Session API from
// one producer thread in a closed loop and measures throughput, CPU per
// event, push stall, push-to-sink latency, detection delay, peak RSS and
// Session set-up. Runs repeat until --seconds have passed (at least
// kMinRuns); each metric is the median over runs.
//
// --trace 1 (per layer): the children drive each layer's public
// functions (query compiler, Session, ShardedRunner, SpscQueue, Event,
// MultiQueryRunner + planner, engines, merge, metrics registry) with the
// same inputs, recording spans (name, start, end, parent) around every
// call into a layer. Self time is a span's duration minus its children's.
//
// Output: one "metric value unit" line per metric, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} as JSON. The exit code is
// non-zero when any delivered output differs from the reference.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/spsc_queue.hpp"
#include "engine/engines.hpp"
#include "runtime/multi_query.hpp"
#include "runtime/session.hpp"
#include "runtime/sharded.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace oosp;

constexpr int kMinRuns = 5;
constexpr int kMaxRuns = 60;
constexpr std::size_t kValSlot = 1;  // synthetic schema: {key, val}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "oosp_perfbench: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- workloads

enum class QueryForm : std::uint8_t { kSeq, kNeg, kAgg };

struct QueryDef {
  QueryForm form = QueryForm::kSeq;
  std::size_t len = 0;        // kSeq: positive steps
  Timestamp window = 0;       // kSeq/kNeg: WITHIN; kAgg: OVER
  std::int64_t min_val = -1;  // kSeq: a0.val >= min_val (-1 = none)
  Timestamp slide = 0;        // kAgg
};

struct WorkloadDef {
  std::string name;
  std::size_t events = 0;
  std::size_t types = 0;
  std::int64_t keys = 0;
  Timestamp mean_gap = 10;
  double ooo_fraction = 0.0;
  Timestamp max_delay = 0;
  std::size_t shards = 1;
  std::size_t batch = 0;  // 0 = per-event push
  std::vector<QueryDef> queries;
};

std::vector<WorkloadDef> workload_defs() {
  std::vector<WorkloadDef> defs;
  defs.push_back({"sharded-batch", 2'000'000, 3, 1024, 5, 0.10, 300, 3, 1024,
                  {{QueryForm::kSeq, 3, 1000}}});
  defs.push_back({"inline-mixed", 200'000, 3, 64, 5, 0.20, 800, 1, 0,
                  {{QueryForm::kSeq, 3, 2000},
                   {QueryForm::kNeg, 0, 2000},
                   {QueryForm::kAgg, 0, 2000, -1, 500}}});
  WorkloadDef mq{"multiquery-shared", 400'000, 2, 8192, 1, 0.10, 300, 1, 256, {}};
  constexpr std::int64_t kQueries = 16;
  for (std::int64_t i = 0; i < kQueries; ++i)
    mq.queries.push_back({QueryForm::kSeq, 2, 1000, i == 0 ? -1 : (i * 960) / kQueries});
  defs.push_back(std::move(mq));
  return defs;
}

std::string query_text(const SyntheticWorkload& wl, const QueryDef& q) {
  switch (q.form) {
    case QueryForm::kSeq:
      return wl.seq_query(q.len, true, q.window, q.min_val);
    case QueryForm::kNeg:
      if (wl.config().num_types >= 3) return wl.negation_query(q.window);
      return "PATTERN SEQ(T0 a, !T1 b, T0 c) WHERE a.key == c.key AND a.key == b.key "
             "WITHIN " +
             std::to_string(q.window);
    case QueryForm::kAgg:
      return "AGG sum(T0.val) OVER " + std::to_string(q.window) + " SLIDE " +
             std::to_string(q.slide) + " BY key";
  }
  return {};
}

struct Inputs {
  WorkloadDef def;
  std::unique_ptr<SyntheticWorkload> workload;
  std::vector<Event> arrivals;
  std::vector<std::uint32_t> pos_of_id;  // EventId -> arrival position
  Timestamp slack = 0;
  std::vector<std::string> texts;
  std::vector<bool> is_agg;
};

Inputs make_inputs(const WorkloadDef& def, std::uint64_t seed) {
  Inputs in;
  in.def = def;
  SyntheticConfig cfg;
  cfg.num_events = def.events;
  cfg.num_types = def.types;
  cfg.key_cardinality = def.keys;
  cfg.mean_gap = def.mean_gap;
  cfg.seed = seed * 2 + 1;
  in.workload = std::make_unique<SyntheticWorkload>(cfg);
  const std::vector<Event> ordered = in.workload->generate();
  DisorderInjector inj(LatencyModel::uniform(def.max_delay), def.ooo_fraction,
                       seed * 7919 + 97);
  in.arrivals = inj.deliver(ordered);
  in.slack = inj.slack_bound();
  in.pos_of_id.assign(in.arrivals.size(), 0);
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    const EventId id = in.arrivals[i].id;
    if (id >= in.pos_of_id.size()) fail("event ids are not dense");
    in.pos_of_id[id] = static_cast<std::uint32_t>(i);
  }
  for (const QueryDef& q : def.queries) {
    in.texts.push_back(query_text(*in.workload, q));
    in.is_agg.push_back(q.form == QueryForm::kAgg);
  }
  return in;
}

// ----------------------------------------------------- output fingerprints

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t double_bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::uint64_t agg_fingerprint(QueryId q, std::int64_t start, std::int64_t end,
                              std::int64_t key, double value, std::int64_t count) {
  std::uint64_t h = mix(0xA66, q);
  h = mix(h, static_cast<std::uint64_t>(start));
  h = mix(h, static_cast<std::uint64_t>(end));
  h = mix(h, static_cast<std::uint64_t>(key));
  h = mix(h, double_bits(value));
  return mix(h, static_cast<std::uint64_t>(count));
}

// Identity of a delivered result: (query, bound event ids) for patterns,
// (query, window, key, value, count) for AGG windows.
std::uint64_t fingerprint(QueryId q, const Match& m, bool agg) {
  if (agg) {
    const std::vector<Value>& a = m.events.front().attrs;
    return agg_fingerprint(q, a.at(0).as_int(), a.at(1).as_int(), a.at(2).as_int(),
                           a.at(3).numeric(), a.at(4).as_int());
  }
  std::uint64_t h = mix(0x5E0, q);
  for (const Event& e : m.events) h = mix(h, e.id);
  return h;
}

// One expected result, in canonical delivery order (seal_ts, query), ties
// by fingerprint.
struct RefRecord {
  Timestamp seal_ts = 0;
  std::uint64_t fp = 0;
  std::uint32_t query = 0;
  std::uint32_t last_pos = 0;  // arrival position of the last-arriving bound event
};

bool ref_less(const RefRecord& a, const RefRecord& b) {
  if (a.seal_ts != b.seal_ts) return a.seal_ts < b.seal_ts;
  if (a.query != b.query) return a.query < b.query;
  return a.fp < b.fp;
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b, r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

void reference_agg(const Inputs& in, QueryId qid, const QueryDef& q,
                   std::vector<RefRecord>& out) {
  struct Acc {
    std::int64_t sum = 0, count = 0;
    std::uint32_t last_pos = 0;
  };
  const TypeId t0 = in.workload->registry().lookup("T0");
  std::map<std::pair<std::int64_t, std::int64_t>, Acc> windows;  // (key, index)
  for (std::size_t pos = 0; pos < in.arrivals.size(); ++pos) {
    const Event& e = in.arrivals[pos];
    if (e.type != t0) continue;
    const std::int64_t key = e.attrs[0].as_int();
    const std::int64_t val = e.attrs[kValSlot].as_int();
    for (std::int64_t i = floor_div(e.ts - q.window, q.slide) + 1;
         i <= floor_div(e.ts, q.slide); ++i) {
      Acc& acc = windows[{key, i}];
      acc.sum += val;
      ++acc.count;
      acc.last_pos = std::max(acc.last_pos, static_cast<std::uint32_t>(pos));
    }
  }
  for (const auto& [ki, acc] : windows) {
    const std::int64_t start = ki.second * q.slide, end = start + q.window;
    out.push_back({end - 1,
                   agg_fingerprint(qid, start, end, ki.first,
                                   static_cast<double>(acc.sum), acc.count),
                   static_cast<std::uint32_t>(qid), acc.last_pos});
  }
}

// Pattern queries: a K-slack buffer + in-order engine over the arrivals.
// Queries that differ only in the a0.val threshold share one unfiltered
// run, filtered per query afterwards.
void reference_patterns(const Inputs& in, std::vector<RefRecord>& out) {
  std::map<std::tuple<QueryForm, std::size_t, Timestamp>, std::vector<QueryId>> bases;
  for (QueryId id = 0; id < in.def.queries.size(); ++id) {
    const QueryDef& q = in.def.queries[id];
    if (q.form == QueryForm::kAgg) continue;
    bases[{q.form, q.len, q.window}].push_back(id);
  }
  for (const auto& [base, members] : bases) {
    QueryDef unfiltered = in.def.queries[members.front()];
    unfiltered.min_val = -1;
    EngineOptions opts;
    opts.slack = in.slack;
    auto sink = std::make_shared<FunctionSink>([&](Match&& m) {
      std::uint32_t last = 0;
      for (const Event& e : m.events) last = std::max(last, in.pos_of_id.at(e.id));
      const std::int64_t v0 = m.events.front().attrs[kValSlot].as_int();
      for (QueryId id : members) {
        if (v0 < in.def.queries[id].min_val) continue;
        out.push_back({m.last_ts(), fingerprint(id, m, false),
                       static_cast<std::uint32_t>(id), last});
      }
    });
    auto engine = make_engine(
        EngineKind::kKSlackInOrder,
        compile_query_shared(query_text(*in.workload, unfiltered), in.workload->registry()),
        sink, opts);
    for (const Event& e : in.arrivals) engine->on_event(e);
    engine->finish();
  }
}

std::vector<RefRecord> reference(const Inputs& in) {
  std::vector<RefRecord> ref;
  reference_patterns(in, ref);
  for (QueryId id = 0; id < in.def.queries.size(); ++id)
    if (in.def.queries[id].form == QueryForm::kAgg)
      reference_agg(in, id, in.def.queries[id], ref);
  std::sort(ref.begin(), ref.end(), ref_less);
  return ref;
}

// ------------------------------------------------------------------ tracing

// In-memory span recorder for the producer thread: (name, start, end,
// parent) per call into a layer; written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start = 0, end = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0, self_ns = 0;
  };

  explicit Tracer(std::size_t expected) { spans_.reserve(expected); }

  std::uint32_t name_id(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return i;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  std::int32_t open(std::uint32_t name) {
    spans_.push_back({name, current_, now_ns(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t span) {
    spans_[span].end = now_ns();
    current_ = spans_[span].parent;
  }

  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[names_[spans_[i].name]];
      ++t.count;
      t.total_ns += spans_[i].end - spans_[i].start;
      t.self_ns += spans_[i].end - spans_[i].start - child_ns[i];
    }
    return out;
  }

  // Appends "name start_ns end_ns parent_index" rows (tab-separated).
  void write(const std::string& path, const std::string& probe) const {
    if (path.empty()) return;
    std::ofstream f(path, std::ios::app);
    if (!f) fail("cannot write spans to " + path);
    f << "# probe " << probe << "\n";
    for (const Span& s : spans_)
      f << names_[s.name] << '\t' << s.start << '\t' << s.end << '\t' << s.parent << '\n';
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class SpanGuard {
 public:
  SpanGuard(Tracer* t, std::uint32_t name) : t_(t), span_(t ? t->open(name) : -1) {}
  ~SpanGuard() {
    if (t_) t_->close(span_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* t_;
  std::int32_t span_;
};

// ---------------------------------------------------------- session runs

struct Delivered {
  Timestamp seal_ts = 0;
  std::uint64_t fp = 0;
  std::int64_t at_ns = 0;
  std::int64_t delay = 0;  // Match::detection_delay(), stream ticks
  std::uint32_t query = 0;
};

class RecordingSink final : public TaggedSink {
 public:
  RecordingSink(const std::vector<bool>& is_agg, std::size_t expected, Tracer* tracer)
      : is_agg_(is_agg), tracer_(tracer), span_name_(tracer ? tracer->name_id("session.sink") : 0) {
    out_.reserve(expected + 16);
  }
  void on_match(QueryId q, Match&& m) override {
    SpanGuard span(tracer_, span_name_);
    out_.push_back({m.last_ts(), fingerprint(q, m, is_agg_[q]), now_ns(),
                    m.detection_delay(), static_cast<std::uint32_t>(q)});
  }
  void on_retract(QueryId, const Match&) override { ++retractions_; }

  std::vector<Delivered>& delivered() { return out_; }
  std::uint64_t retractions() const { return retractions_; }

 private:
  const std::vector<bool>& is_agg_;
  Tracer* tracer_;
  std::uint32_t span_name_;
  std::vector<Delivered> out_;
  std::uint64_t retractions_ = 0;
};

// Comparison of the delivered sequence against the reference.
struct Check {
  std::uint64_t order_violations = 0;  // (seal_ts, query) went backwards
  std::uint64_t missing = 0, extra = 0;
  std::vector<std::int64_t> emit_latency_ns;  // per matched result
};

Check check_output(std::vector<Delivered>& got, const std::vector<RefRecord>& ref,
                   const std::vector<std::int64_t>& call_start, std::size_t batch) {
  Check c;
  for (std::size_t i = 1; i < got.size(); ++i) {
    const Delivered& a = got[i - 1];
    const Delivered& b = got[i];
    if (a.seal_ts > b.seal_ts || (a.seal_ts == b.seal_ts && a.query > b.query))
      ++c.order_violations;
  }
  std::sort(got.begin(), got.end(), [](const Delivered& a, const Delivered& b) {
    if (a.seal_ts != b.seal_ts) return a.seal_ts < b.seal_ts;
    if (a.query != b.query) return a.query < b.query;
    return a.fp < b.fp;
  });
  c.emit_latency_ns.reserve(ref.size());
  std::size_t i = 0, j = 0;
  while (i < got.size() || j < ref.size()) {
    if (j == ref.size()) {
      ++c.extra, ++i;
      continue;
    }
    if (i == got.size()) {
      ++c.missing, ++j;
      continue;
    }
    const RefRecord probe{got[i].seal_ts, got[i].fp, got[i].query, 0};
    if (ref_less(probe, ref[j])) {
      ++c.extra, ++i;
    } else if (ref_less(ref[j], probe)) {
      ++c.missing, ++j;
    } else {
      const std::size_t call = batch ? ref[j].last_pos / batch : ref[j].last_pos;
      c.emit_latency_ns.push_back(got[i].at_ns - call_start[call]);
      ++i, ++j;
    }
  }
  return c;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::vector<double> scaled(const std::vector<std::int64_t>& v, double scale) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const std::int64_t x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

long proc_status_kb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(f, line))
    if (line.compare(0, n, field) == 0) return std::strtol(line.c_str() + n + 1, nullptr, 10);
  return 0;
}

using Metrics = std::vector<std::pair<std::string, double>>;

struct SessionOptions {
  bool metrics = true;
  Tracer* tracer = nullptr;
};

SessionConfig session_config(const Inputs& in, bool metrics) {
  SessionConfig cfg;
  cfg.engine(EngineKind::kOoo).slack(in.slack).shards(in.def.shards).metrics(metrics);
  for (const std::string& text : in.texts) cfg.query(text);
  return cfg;
}

// One closed-loop run of the workload through Session. Returns the
// end-to-end metrics plus the correctness counts.
Metrics run_session(const Inputs& in, const std::vector<RefRecord>& ref,
                    SessionOptions so) {
  const std::size_t n = in.arrivals.size();
  const std::size_t batch = in.def.batch;
  const std::size_t calls = batch ? (n + batch - 1) / batch : n;
  std::vector<std::int64_t> call_start(calls + 1, 0);
  Tracer* tr = so.tracer;
  const std::uint32_t push_name = tr ? tr->name_id("session.push") : 0;
  const std::uint32_t finish_name = tr ? tr->name_id("session.finish") : 0;
  const std::uint32_t ctor_name = tr ? tr->name_id("session.ctor") : 0;
  auto sink = std::make_shared<RecordingSink>(in.is_agg, ref.size(), tr);

  SessionConfig cfg = session_config(in, so.metrics);

  // Each run is a fresh child, whose peak-RSS mark starts at its RSS at
  // fork; VmHWM - VmRSS here is what the run itself added.
  const long rss_base_kb = proc_status_kb("VmRSS:");
  const std::int64_t s0 = now_ns();
  std::unique_ptr<Session> session;
  {
    SpanGuard span(tr, ctor_name);
    session = std::make_unique<Session>(in.workload->registry(), std::move(cfg), sink);
  }
  const std::int64_t s1 = now_ns();
  if (session->shard_count() != in.def.shards)
    fail("session fell back to " + std::to_string(session->shard_count()) +
         " shard(s): " + session->shard_fallback_reason());

  const double cpu0 = cpu_seconds();
  if (batch) {
    const std::span<const Event> all(in.arrivals);
    for (std::size_t c = 0; c < calls; ++c) {
      call_start[c] = now_ns();
      SpanGuard span(tr, push_name);
      session->push_batch(all.subspan(c * batch, std::min(batch, n - c * batch)));
    }
  } else {
    for (std::size_t c = 0; c < calls; ++c) {
      call_start[c] = now_ns();
      SpanGuard span(tr, push_name);
      session->push(in.arrivals[c]);
    }
  }
  call_start[calls] = now_ns();
  {
    SpanGuard span(tr, finish_name);
    session->finish();
  }
  const std::int64_t t_end = now_ns();
  const double cpu1 = cpu_seconds();
  const long rss_peak_kb = proc_status_kb("VmHWM:");

  const EngineStats st = session->total_stats();
  const std::uint64_t not_admitted = session->overload_shed() + st.contract_violations +
                                     st.events_dropped_late + st.events_quarantined +
                                     st.events_rejected +
                                     (n - std::min<std::uint64_t>(n, session->events_seen()));
  session.reset();

  std::vector<Delivered>& got = sink->delivered();
  std::vector<double> delays;
  delays.reserve(got.size());
  for (const Delivered& d : got) delays.push_back(static_cast<double>(d.delay));
  const Check chk = check_output(got, ref, call_start, batch);
  std::vector<double> push_us;
  push_us.reserve(calls);
  for (std::size_t c = 0; c < calls; ++c)
    push_us.push_back(static_cast<double>(call_start[c + 1] - call_start[c]) * 1e-3);
  const std::vector<double> emit_ms = scaled(chk.emit_latency_ns, 1e-6);
  const double wall = static_cast<double>(t_end - call_start[0]) * 1e-9;

  Metrics m;
  m.emplace_back("throughput_evps", static_cast<double>(n) / wall);
  m.emplace_back("cpu_ns_per_event", (cpu1 - cpu0) * 1e9 / static_cast<double>(n));
  m.emplace_back("push_p50_us", quantile(push_us, 0.50));
  m.emplace_back("push_p99_us", quantile(push_us, 0.99));
  m.emplace_back("emit_latency_p50_ms", quantile(emit_ms, 0.50));
  m.emplace_back("emit_latency_p99_ms", quantile(emit_ms, 0.99));
  m.emplace_back("detect_delay_p50", quantile(delays, 0.50));
  m.emplace_back("detect_delay_p99", quantile(delays, 0.99));
  m.emplace_back("peak_rss_mb", static_cast<double>(rss_peak_kb - rss_base_kb) / 1024.0);
  m.emplace_back("setup_s", static_cast<double>(s1 - s0) * 1e-9);
  m.emplace_back("matches", static_cast<double>(got.size()));
  m.emplace_back("attempted", static_cast<double>(n + ref.size()));
  m.emplace_back("failed", static_cast<double>(not_admitted + chk.missing + chk.extra +
                                               chk.order_violations + sink->retractions()));
  if (tr) {
    const auto totals = tr->totals();
    auto self_ns = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    };
    m.emplace_back("session.ctor_ms", self_ns("session.ctor") * 1e-6);
    m.emplace_back("session.push_self_ns_per_event",
                   self_ns("session.push") / static_cast<double>(n));
    m.emplace_back("session.finish_self_ms", self_ns("session.finish") * 1e-6);
    m.emplace_back("session.sink_ms", self_ns("session.sink") * 1e-6);
  }
  return m;
}

// Session construction alone, in its own fresh child: a second set-up
// sample per measured run.
Metrics run_setup_only(const Inputs& in) {
  SessionConfig cfg = session_config(in, true);
  const std::int64_t s0 = now_ns();
  Session session(in.workload->registry(), std::move(cfg),
                  std::make_shared<RecordingSink>(in.is_agg, 0, nullptr));
  return {{"setup_s", static_cast<double>(now_ns() - s0) * 1e-9}};
}

// ------------------------------------------------------------ layer probes

struct DiscardSink final : public TaggedSink {
  void on_match(QueryId, Match&&) override {}
};

std::vector<ShardQuerySpec> shard_specs(const Inputs& in, MetricsRegistry* metrics) {
  std::vector<ShardQuerySpec> specs;
  for (std::size_t i = 0; i < in.texts.size(); ++i) {
    ShardQuerySpec s;
    s.query = compile_query_shared(in.texts[i], in.workload->registry());
    s.kind = in.is_agg[i] ? EngineKind::kAgg : EngineKind::kOoo;
    s.options.slack = in.slack;
    s.options.metrics = metrics;
    specs.push_back(std::move(s));
  }
  return specs;
}

Metrics probe_compile(const Inputs& in, Tracer& tr) {
  const std::uint32_t name = tr.name_id("query.compile");
  std::int64_t total = 0;
  for (const std::string& text : in.texts) {
    const std::int64_t t0 = now_ns();
    SpanGuard span(&tr, name);
    const auto q = compile_query_shared(text, in.workload->registry());
    total += now_ns() - t0;
  }
  return {{"query.compile_ms", static_cast<double>(total) * 1e-6}};
}

// ShardedRunner::on_batch/finish driven directly at 3 shards, batch 1024.
constexpr std::size_t kShardProbeShards = 3;
constexpr std::size_t kShardProbeBatch = 1024;

Metrics probe_sharded(const Inputs& in, Tracer& tr) {
  MetricsRegistry metrics;
  std::vector<ShardQuerySpec> specs = shard_specs(in, &metrics);
  std::string reason;
  auto partition = PartitionSpec::build(specs, in.workload->registry(), &reason);
  if (!partition) fail("query set is not shardable: " + reason);
  ShardedRunner runner(in.workload->registry(), std::move(specs), kShardProbeShards,
                       *partition, 64 * 1024, &metrics);
  const std::uint32_t batch_name = tr.name_id("sharded.on_batch");
  const std::uint32_t finish_name = tr.name_id("sharded.finish");
  const std::span<const Event> all(in.arrivals);
  std::int64_t depth_max = 0, lag_max = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::int64_t sampling_ns = 0;
  for (std::size_t off = 0, c = 0; off < all.size(); off += kShardProbeBatch, ++c) {
    {
      SpanGuard span(&tr, batch_name);
      runner.on_batch(all.subspan(off, std::min(kShardProbeBatch, all.size() - off)));
    }
    if (c % 16 == 0) {
      const std::int64_t s0 = now_ns();
      const MetricsSnapshot snap = metrics.snapshot();
      depth_max = std::max(depth_max, snap.gauge("oosp_shard_queue_depth"));
      lag_max = std::max(lag_max, snap.gauge("oosp_shard_watermark_lag"));
      sampling_ns += now_ns() - s0;
    }
  }
  {
    SpanGuard span(&tr, finish_name);
    runner.finish();
  }
  const std::int64_t t1 = now_ns();
  const double cpu1 = cpu_seconds();
  const auto totals = tr.totals();
  const double n = static_cast<double>(in.arrivals.size());
  return {{"sharded.route_ns_per_event", static_cast<double>(totals.at("sharded.on_batch").self_ns) / n},
          {"sharded.finish_ms", static_cast<double>(totals.at("sharded.finish").self_ns) * 1e-6},
          {"sharded.push_retries_per_event",
           static_cast<double>(metrics.snapshot().counter("oosp_shard_push_retries_total")) / n},
          {"sharded.queue_depth_max", static_cast<double>(depth_max)},
          {"sharded.watermark_lag_max", static_cast<double>(lag_max)},
          {"sharded.wall_s", static_cast<double>(t1 - t0 - sampling_ns) * 1e-9},
          {"sharded.cpu_s", cpu1 - cpu0}};
}

// The same query set on one MultiQueryRunner with the same batches: the
// 1-shard baseline for the sharded probe.
Metrics probe_one_shard(const Inputs& in) {
  MultiQueryRunner runner(in.workload->registry(), std::make_shared<DiscardSink>());
  for (ShardQuerySpec& s : shard_specs(in, nullptr)) runner.add_query(s.query, s.kind, s.options);
  runner.prepare();
  const std::span<const Event> all(in.arrivals);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (std::size_t off = 0; off < all.size(); off += kShardProbeBatch)
    runner.on_batch(all.subspan(off, std::min(kShardProbeBatch, all.size() - off)));
  runner.finish();
  const std::int64_t t1 = now_ns();
  return {{"one_shard.wall_s", static_cast<double>(t1 - t0) * 1e-9},
          {"one_shard.cpu_s", cpu_seconds() - cpu0}};
}

Metrics probe_transport(const Inputs& in) {
  const std::size_t n = in.arrivals.size();
  std::vector<Event> copies;
  copies.reserve(n);
  const std::int64_t t0 = now_ns();
  for (const Event& e : in.arrivals) copies.push_back(e);
  const std::int64_t t1 = now_ns();

  // Producer moves the copies through one ring in chunks; the consumer
  // pops chunks on its own thread.
  SpscQueue<Event> ring(64 * 1024);
  std::atomic<std::uint64_t> checksum{0};
  const std::int64_t t2 = now_ns();
  std::thread consumer([&] {
    std::vector<Event> buf(kShardProbeBatch);
    std::size_t got = 0;
    std::uint64_t sum = 0;
    while (got < n) {
      const std::size_t k = ring.try_pop_n(buf.data(), buf.size());
      for (std::size_t i = 0; i < k; ++i) sum += buf[i].id;
      got += k;
    }
    checksum.store(sum, std::memory_order_relaxed);
  });
  std::span<Event> src(copies);
  while (!src.empty()) {
    const std::size_t k = ring.try_push_n(src.first(std::min(kShardProbeBatch, src.size())));
    src = src.subspan(k);
  }
  consumer.join();
  const std::int64_t t3 = now_ns();
  const std::uint64_t expect = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (checksum.load() != expect) fail("spsc probe lost events");
  return {{"event.copy_ns_per_event", static_cast<double>(t1 - t0) / static_cast<double>(n)},
          {"spsc.ns_per_event", static_cast<double>(t3 - t2) / static_cast<double>(n)}};
}

// The workload's query set on one MultiQueryRunner, fed as the workload
// feeds its Session (per event or per batch).
Metrics probe_multi_query(const Inputs& in, bool share) {
  MultiQueryRunner runner(in.workload->registry(), std::make_shared<DiscardSink>(), share);
  for (ShardQuerySpec& s : shard_specs(in, nullptr)) runner.add_query(s.query, s.kind, s.options);
  runner.prepare();
  const std::span<const Event> all(in.arrivals);
  const std::int64_t t0 = now_ns();
  if (in.def.batch) {
    for (std::size_t off = 0; off < all.size(); off += in.def.batch)
      runner.on_batch(all.subspan(off, std::min(in.def.batch, all.size() - off)));
  } else {
    for (const Event& e : all) runner.on_event(e);
  }
  runner.finish();
  const double wall = static_cast<double>(now_ns() - t0);
  const std::string tag = share ? "shared" : "solo";
  Metrics m{{"multi_query." + tag + "_ns", wall}};
  if (share) {
    m.emplace_back("multi_query.events_routed", static_cast<double>(runner.events_routed()));
    m.emplace_back("planner.groups", static_cast<double>(runner.group_count()));
  }
  return m;
}

// make_engine + on_event/on_batch once per query, plus the merge of the
// collected matches. Per-kind timings come from the workload's first query
// of that kind, or from a probe query over the same events when the
// workload has none.
Metrics probe_engines(const Inputs& in) {
  const std::span<const Event> all(in.arrivals);
  std::vector<const Event*> ptrs;
  ptrs.reserve(all.size());
  for (const Event& e : all) ptrs.push_back(&e);

  auto run_one = [&](const std::string& text, bool agg, std::vector<TaggedMatch>* keep,
                     QueryId id, EngineStats* stats) {
    auto sink = std::make_shared<FunctionSink>([&](Match&& m) {
      if (keep) keep->push_back(TaggedMatch{id, std::move(m)});
    });
    EngineOptions opts;
    opts.slack = in.slack;
    auto engine = make_engine(agg ? EngineKind::kAgg : EngineKind::kOoo,
                              compile_query_shared(text, in.workload->registry()), sink, opts);
    const std::int64_t t0 = now_ns();
    if (in.def.batch) {
      for (std::size_t off = 0; off < ptrs.size(); off += in.def.batch)
        engine->on_batch(std::span<const Event* const>(ptrs).subspan(
            off, std::min(in.def.batch, ptrs.size() - off)));
    } else {
      for (const Event& e : all) engine->on_event(e);
    }
    engine->finish();
    const std::int64_t t1 = now_ns();
    if (stats) *stats += engine->stats_snapshot();
    return static_cast<double>(t1 - t0) / static_cast<double>(all.size());
  };

  EngineStats total;
  std::vector<std::vector<TaggedMatch>> streams(in.texts.size());
  std::map<QueryForm, double> per_kind;
  for (QueryId id = 0; id < in.texts.size(); ++id) {
    const QueryForm form = in.def.queries[id].form;
    const double ns = run_one(in.texts[id], in.is_agg[id], &streams[id], id, &total);
    per_kind.emplace(form, ns);
  }
  const QueryDef probes[] = {{QueryForm::kNeg, 0, 1000},
                             {QueryForm::kAgg, 0, 2000, -1, 500}};
  for (const QueryDef& p : probes)
    if (!per_kind.count(p.form))
      per_kind[p.form] = run_one(query_text(*in.workload, p), p.form == QueryForm::kAgg,
                                 nullptr, 0, nullptr);

  std::size_t matches = 0;
  for (const auto& s : streams) matches += s.size();
  const std::int64_t m0 = now_ns();
  const std::vector<TaggedMatch> merged = merge_match_streams(std::move(streams));
  const std::int64_t m1 = now_ns();
  if (merged.size() != matches) fail("merge lost matches");

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {{"engine.ooo.ns_per_event", per_kind[QueryForm::kSeq]},
          {"engine.ooo_neg.ns_per_event", per_kind[QueryForm::kNeg]},
          {"engine.agg.ns_per_event", per_kind[QueryForm::kAgg]},
          {"engine.construction_visits", static_cast<double>(total.construction_visits)},
          {"engine.predicate_evals", static_cast<double>(total.predicate_evals)},
          {"engine.purge_passes", static_cast<double>(total.purge_passes)},
          {"engine.matches_per_visit", ratio(static_cast<double>(total.matches_emitted),
                                             static_cast<double>(total.construction_visits))},
          {"engine.footprint_peak", static_cast<double>(total.footprint_peak)},
          {"engine.pending_peak", static_cast<double>(total.pending_peak)},
          {"engine.cancel_ratio",
           ratio(static_cast<double>(total.matches_cancelled),
                 static_cast<double>(total.matches_cancelled + total.matches_emitted))},
          {"engine.contract_violations", static_cast<double>(total.contract_violations)},
          {"merge.ns_per_match",
           ratio(static_cast<double>(m1 - m0), static_cast<double>(matches))}};
}

// ------------------------------------------------------- process plumbing

// Runs `fn` in a forked child (fresh copy of this process's heap) and
// returns the metrics it reports through a pipe.
Metrics in_child(const std::function<Metrics()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) fail("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) fail("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      std::ostringstream os;
      os.precision(17);
      for (const auto& [name, value] : fn()) os << name << ' ' << value << '\n';
      text = os.str();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oosp_perfbench: run failed: %s\n", e.what());
      code = 3;
    }
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t k = write(fds[1], text.data() + off, text.size() - off);
      if (k <= 0) _exit(4);
      off += static_cast<std::size_t>(k);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t k = read(fds[0], buf, sizeof(buf));
    if (k <= 0) break;
    text.append(buf, static_cast<std::size_t>(k));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    fail("measured run exited abnormally");
  Metrics m;
  std::istringstream is(text);
  std::string name;
  double value = 0;
  while (is >> name >> value) m.emplace_back(name, value);
  return m;
}

// How a metric's per-run samples become the reported value. Wall-clock
// samples on a shared host fall into fast and slow phases that last
// seconds; the quartile on the fast side moves with the program but much
// less with how long the host stayed slow during the run.
enum class Agg : std::uint8_t { kMedian, kFastLow, kFastHigh };

struct MetricSpec {
  std::string name, unit;
  Agg agg = Agg::kMedian;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_evps", "ev/s", Agg::kFastHigh},
    {"cpu_ns_per_event", "ns", Agg::kFastLow},
    {"push_p50_us", "us", Agg::kFastLow},
    {"push_p99_us", "us", Agg::kFastLow},
    {"emit_latency_p50_ms", "ms", Agg::kFastLow},
    {"emit_latency_p99_ms", "ms", Agg::kFastLow},
    {"detect_delay_p99", "ticks"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s", Agg::kFastLow}};

const std::vector<MetricSpec> kPerLayer = {
    {"session.ctor_ms", "ms"},
    {"session.push_self_ns_per_event", "ns"},
    {"session.finish_self_ms", "ms"},
    {"session.sink_ms", "ms"},
    {"query.compile_ms", "ms"},
    {"sharded.route_ns_per_event", "ns"},
    {"sharded.finish_ms", "ms"},
    {"sharded.push_retries_per_event", "count"},
    {"sharded.queue_depth_max", "count"},
    {"sharded.watermark_lag_max", "ticks"},
    {"sharded.speedup_vs_1shard", "x"},
    {"sharded.cpu_ratio_vs_1shard", "x"},
    {"spsc.ns_per_event", "ns"},
    {"event.copy_ns_per_event", "ns"},
    {"multi_query.ns_per_event", "ns"},
    {"multi_query.events_routed", "count"},
    {"planner.groups", "count"},
    {"shared_scan.speedup_vs_solo", "x"},
    {"engine.ooo.ns_per_event", "ns"},
    {"engine.ooo_neg.ns_per_event", "ns"},
    {"engine.agg.ns_per_event", "ns"},
    {"engine.construction_visits", "count"},
    {"engine.predicate_evals", "count"},
    {"engine.purge_passes", "count"},
    {"engine.matches_per_visit", "ratio"},
    {"engine.footprint_peak", "count"},
    {"engine.pending_peak", "count"},
    {"engine.cancel_ratio", "ratio"},
    {"engine.contract_violations", "count"},
    {"merge.ns_per_match", "ns"},
    {"obs.overhead_pct", "%"},
    {"obs.overhead_iqr_pct", "%"},
    {"trace.overhead_pct", "%"}};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

double lookup(const Metrics& m, const std::string& name) {
  for (const auto& [k, v] : m)
    if (k == name) return v;
  fail("run did not report " + name);
}

using Samples = std::map<std::string, std::vector<double>>;

void add_samples(Samples& samples, const Metrics& m) {
  for (const auto& [k, v] : m) samples[k].push_back(v);
}

// One traced round: every layer probe once, each in its own child.
// `count_run` books the Session runs' attempted/failed counts.
void trace_round(const Inputs& in, const std::vector<RefRecord>& ref,
                 const std::string& spans, Samples& samples,
                 const std::function<void(const Metrics&)>& count_run) {
  const Metrics traced = in_child([&] {
    Tracer tr(in.arrivals.size() + 2 * ref.size() + 64);
    Metrics m = probe_compile(in, tr);
    SessionOptions so;
    so.tracer = &tr;
    for (auto& kv : run_session(in, ref, so)) m.push_back(std::move(kv));
    tr.write(spans, "session");
    return m;
  });
  count_run(traced);
  add_samples(samples, traced);
  const double traced_evps = lookup(traced, "throughput_evps");
  // Untraced metrics on/off pairs, alternating which side runs first.
  for (int pair = 0; pair < 2; ++pair) {
    double on = 0, off = 0;
    for (int side = 0; side < 2; ++side) {
      const bool metrics_on = (side == 0) == (pair == 0);
      const Metrics m = in_child([&] {
        SessionOptions so;
        so.metrics = metrics_on;
        return run_session(in, ref, so);
      });
      count_run(m);
      (metrics_on ? on : off) = lookup(m, "throughput_evps");
    }
    samples["obs.overhead_pct"].push_back((off / on - 1.0) * 100.0);
    samples["trace.overhead_pct"].push_back((on / traced_evps - 1.0) * 100.0);
  }

  const Metrics sh = in_child([&] {
    Tracer tr(in.arrivals.size() / kShardProbeBatch + 64);
    Metrics m = probe_sharded(in, tr);
    tr.write(spans, "sharded");
    return m;
  });
  const Metrics one = in_child([&] { return probe_one_shard(in); });
  add_samples(samples, sh);
  samples["sharded.speedup_vs_1shard"].push_back(lookup(one, "one_shard.wall_s") /
                                                 lookup(sh, "sharded.wall_s"));
  samples["sharded.cpu_ratio_vs_1shard"].push_back(lookup(sh, "sharded.cpu_s") /
                                                   lookup(one, "one_shard.cpu_s"));

  add_samples(samples, in_child([&] { return probe_transport(in); }));

  const Metrics mq = in_child([&] { return probe_multi_query(in, true); });
  const double solo_ns = lookup(in_child([&] { return probe_multi_query(in, false); }),
                                "multi_query.solo_ns");
  const double shared_ns = lookup(mq, "multi_query.shared_ns");
  samples["multi_query.ns_per_event"].push_back(shared_ns /
                                                static_cast<double>(in.arrivals.size()));
  samples["multi_query.events_routed"].push_back(lookup(mq, "multi_query.events_routed"));
  samples["planner.groups"].push_back(lookup(mq, "planner.groups"));
  samples["shared_scan.speedup_vs_solo"].push_back(solo_ns / shared_ns);

  add_samples(samples, in_child([&] { return probe_engines(in); }));
}

struct Args {
  std::string workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--spans") a.spans = v;
      else fail("unknown flag " + flag);
    } catch (const std::logic_error&) {
      fail("bad value for " + flag + ": " + v);
    }
  }
  if (a.trace != 0 && a.trace != 1) fail("--trace takes 0 or 1");
  if (!(a.seconds > 0)) fail("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<WorkloadDef> defs = workload_defs();
  const auto def = std::find_if(defs.begin(), defs.end(),
                                [&](const WorkloadDef& d) { return d.name == args.workload; });
  if (def == defs.end()) fail("unknown workload '" + args.workload + "'");

  const std::int64_t g0 = now_ns();
  const Inputs in = make_inputs(*def, args.seed);
  const std::vector<RefRecord> ref = reference(in);
  std::fprintf(stderr, "%s seed %llu: %zu events, %zu reference results (%.1f s to prepare)\n",
               def->name.c_str(), static_cast<unsigned long long>(args.seed),
               in.arrivals.size(), ref.size(), static_cast<double>(now_ns() - g0) * 1e-9);
  if (!args.spans.empty()) std::ofstream(args.spans, std::ios::trunc);
  // Hand the generator's freed memory back to the kernel, so each run's
  // allocations show in its peak RSS instead of reusing resident pages.
  malloc_trim(0);

  Samples samples;
  std::uint64_t attempted = 0, failed = 0;
  const auto count_run = [&](const Metrics& m) {
    attempted += static_cast<std::uint64_t>(lookup(m, "attempted"));
    failed += static_cast<std::uint64_t>(lookup(m, "failed"));
  };

  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  int runs = 0;
  if (args.trace == 0) {
    while (runs < kMinRuns || (runs < kMaxRuns && elapsed_s() < args.seconds)) {
      const Metrics m = in_child([&] { return run_session(in, ref, {}); });
      count_run(m);
      add_samples(samples, m);
      samples["setup_s"].push_back(lookup(in_child([&] { return run_setup_only(in); }), "setup_s"));
      ++runs;
    }
  } else {
    // One round drives every layer once; rounds repeat while time is left.
    while (runs < 1 || (runs < kMaxRuns && elapsed_s() < args.seconds)) {
      trace_round(in, ref, args.spans, samples, count_run);
      ++runs;
    }
    const std::vector<double>& ov = samples["obs.overhead_pct"];
    samples["obs.overhead_iqr_pct"].push_back(ov.size() < 2 ? 0.0
                                                            : quantile(ov, 0.75) - quantile(ov, 0.25));
  }

  const bool correct = failed == 0;
  const std::vector<MetricSpec>& specs = args.trace ? kPerLayer : kEndToEnd;
  std::printf("workload %s seed %llu: %d run(s), %llu attempted, %llu failed\n",
              def->name.c_str(), static_cast<unsigned long long>(args.seed), runs,
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  std::printf("%-32s %16.6g %s\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  if (!args.trace) {
    std::printf("%-32s %16.6g %s\n", "matches", median(samples["matches"]), "count");
    std::printf("%-32s %16.6g %s\n", "detect_delay_p50", median(samples["detect_delay_p50"]),
                "ticks");
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = samples.find(specs[i].name);
    if (it == samples.end()) fail("no samples for " + specs[i].name);
    const double v = specs[i].agg == Agg::kMedian  ? median(it->second)
                     : specs[i].agg == Agg::kFastLow ? quantile(it->second, 0.25)
                                                     : quantile(it->second, 0.75);
    std::printf("%-32s %16.6g %s\n", specs[i].name.c_str(), v, specs[i].unit.c_str());
    json << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return correct ? 0 : 1;
}
