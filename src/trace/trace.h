// Unified tracing & metrics registry.
//
// One Registry hangs off each Simulator, so every measurement is stamped
// with the simulated clock and runs stay deterministic and single-threaded
// (no atomics anywhere). Two kinds of data flow through it:
//
//   * Metrics — named counters, gauges, and fixed-bucket latency histograms,
//     keyed by (name, host). Always on: they are plain integer/double work,
//     and the registry is the only store of subsystem statistics — code
//     reads them back with counter_value() / counter_total(). Counters are
//     never reset: the series sampler and SLO watchdog take deltas.
//     Naming convention: `subsystem.noun.verb` ("fs.server.open",
//     "mig.page.flushed").
//
//   * Events — begin/end spans and instant events with host/pid attribution.
//     Gated: a disabled registry costs exactly one branch per site and
//     records nothing. Enabled, events accumulate in memory and export as
//     Chrome `trace_event` JSON (open in chrome://tracing or Perfetto):
//     hosts render as "processes", subsystems (event categories) as
//     "threads".
//
// Because kernel mechanisms are continuation-passing, spans are token-based
// rather than RAII: begin_span() returns a SpanId the caller threads through
// its callback chain to end_span(). Code that already has both endpoints on
// hand (e.g. a MigrationRecord) emits the span retroactively via span_at().
//
// Causality: a Context{trace_id, parent_span} travels with the work — set
// ambiently via ScopedContext, captured by the simulator at event-scheduling
// time, and carried on every RPC wire message — so a span begun on the
// server side records the client-side span as its parent even though the two
// hosts share no call stack. chrome_json() exports each cross-host
// parent/child edge as a Chrome `flow` event pair, which Perfetto renders as
// an arrow between the host tracks.
//
// Forensics: independent of event tracing, the registry keeps an always-on
// FlightRecorder — a bounded ring of the last few thousand protocol events
// (RPC traffic, migration stages, crash/reboot, monitor verdicts). It costs
// a few stores per note and is dumped automatically, together with
// metrics_report(), when a SPRITE_CHECK fails or run_until_done() starves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/ids.h"
#include "sim/time.h"
#include "util/status.h"

namespace sprite::trace {

using SpanId = std::uint64_t;
// Small key/value annotations attached to an event ("pages" -> "256").
using Args = std::vector<std::pair<std::string, std::string>>;

// Default millisecond bucket boundaries for latency histograms: roughly
// logarithmic from sub-millisecond RPCs to multi-second bulk transfers.
inline std::vector<double> default_latency_bounds_ms() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

// A monotonically increasing integer metric. Addresses are stable for the
// registry's lifetime, so instrumented subsystems cache the pointer once.
class Counter {
 public:
  void inc(std::int64_t n = 1) { v_ += n; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

// A point-in-time measurement (load average, queue depth).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

// Fixed-boundary latency histogram: buckets [0,b0), [b0,b1), ...,
// [b_last, inf). Bounds are fixed at creation so accumulation is O(buckets)
// and export is deterministic.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> bounds);

  void record(double v);
  void record(sim::Time t) { record(t.ms()); }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  const std::vector<double>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last bucket is the overflow bucket.
  std::int64_t bucket(std::size_t i) const { return counts_[i]; }

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

// Causal context: which logical operation (trace) this work belongs to and
// which span caused it. Propagated ambiently within a host (ScopedContext +
// the simulator's scheduling capture) and explicitly on RPC wire messages.
// trace_id 0 means "no context".
struct Context {
  std::uint64_t trace_id = 0;
  SpanId parent_span = 0;

  bool valid() const { return trace_id != 0 || parent_span != 0; }
};

// One recorded trace event. phase: 'b' span begin, 'e' span end,
// 'i' instant.
struct Event {
  char phase = 'i';
  std::int64_t ts_us = 0;
  sim::HostId host = sim::kInvalidHost;
  std::int64_t pid = -1;  // sprite process id; -1 when not attributable
  SpanId id = 0;          // links 'b'/'e' pairs
  std::uint64_t trace_id = 0;  // logical operation ('b' events only)
  SpanId parent = 0;           // causal parent span ('b' events only)
  int lane = 0;           // per-category display lane ("thread")
  std::string cat;        // subsystem: "rpc", "mig", "vm", "fs", "proc", "ls"
  std::string name;
  Args args;
};

// Always-on ring of the last `capacity` protocol events, for post-mortem
// forensics when tracing was off (the fault matrices run untraced). Entries
// are POD — `cat`/`name` must be string literals (static storage) — so a
// note is a handful of stores regardless of tracing state.
class FlightRecorder {
 public:
  struct Entry {
    std::int64_t ts_us = 0;
    sim::HostId host = sim::kInvalidHost;
    std::int64_t pid = -1;
    const char* cat = "";
    const char* name = "";
    std::int64_t a0 = 0;  // site-specific (peer host, op, page count, ...)
    std::int64_t a1 = 0;
  };

  explicit FlightRecorder(std::size_t capacity = 4096);

  void note(std::int64_t ts_us, sim::HostId host, std::int64_t pid,
            const char* cat, const char* name, std::int64_t a0,
            std::int64_t a1);

  std::size_t capacity() const { return ring_.size(); }
  std::int64_t recorded() const { return recorded_; }
  // Oldest-to-newest view of the last min(n, size) entries.
  std::vector<Entry> tail(std::size_t n) const;
  // Human-readable tail, one line per entry, for crash dumps.
  std::string report(std::size_t n) const;
  void clear();

 private:
  std::vector<Entry> ring_;
  std::size_t next_ = 0;        // ring write cursor
  std::int64_t recorded_ = 0;   // total notes ever
};

class Registry {
 public:
  explicit Registry(std::function<std::int64_t()> now_us);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- Event gating ----
  // Enabling also routes kTrace-level SPRITE_LOG lines into the stream as
  // instant events, so log and trace timelines line up.
  bool tracing() const { return tracing_; }
  void set_tracing(bool on);

  // The registry clock (the owning simulator's now, in microseconds).
  std::int64_t now_us() const { return now_us_(); }

  // ---- Display names (Chrome "process_name" metadata) ----
  void set_host_name(sim::HostId h, std::string name);

  // ---- Metrics (always on) ----
  // host = kInvalidHost scopes a metric to the whole cluster.
  Counter& counter(const std::string& name,
                   sim::HostId host = sim::kInvalidHost);
  Gauge& gauge(const std::string& name, sim::HostId host = sim::kInvalidHost);
  // Bounds are fixed by the first call for a given (name, host).
  LatencyHistogram& histogram(const std::string& name,
                              std::vector<double> bounds,
                              sim::HostId host = sim::kInvalidHost);
  // 0 when the counter was never touched (tests, reporting).
  std::int64_t counter_value(const std::string& name,
                             sim::HostId host = sim::kInvalidHost) const;

  // ---- Cluster totals (continuous telemetry reads these) ----
  // Sum across every host slot plus the unscoped slot. The keyed maps order
  // by (name, host), so all slots of one name are one contiguous range:
  // O(log n + slots). 0 when the metric was never registered.
  std::int64_t counter_total(const std::string& name) const;
  double gauge_total(const std::string& name) const;
  // Merged view of every histogram slot sharing `name`. Empty (count == 0,
  // no bounds) when the metric was never registered.
  struct HistSnapshot {
    std::vector<double> bounds;
    std::vector<std::int64_t> counts;  // bounds.size() + 1, overflow last
    std::int64_t count = 0;
    double sum = 0.0;
  };
  HistSnapshot histogram_total(const std::string& name) const;

  // ---- Causal context (ambient) ----
  // The context new spans inherit: begin_span() records current() as the
  // span's trace/parent. Set via ScopedContext; the simulator captures it at
  // event-scheduling time so it follows continuation chains automatically.
  Context current() const { return current_; }
  // Allocates a fresh trace id for a new logical operation (a migration, a
  // benchmark iteration). Invalid when tracing is off.
  Context new_trace();
  // Reserves a span id without recording anything, so a root span can be
  // parented on before its retroactive span_at() is emitted. 0 when off.
  SpanId reserve_span();
  // Context that makes new work a child of open span `id` (its trace id is
  // looked up from the open-span table). Invalid for unknown ids.
  Context span_context(SpanId id) const;

  // ---- Events (recorded only while tracing) ----
  // Returns 0 when tracing is disabled; end_span(0) is a no-op.
  SpanId begin_span(std::string cat, std::string name, sim::HostId host,
                    std::int64_t pid = -1, Args args = {});
  void end_span(SpanId id, Args args = {});
  void instant(std::string cat, std::string name, sim::HostId host,
               std::int64_t pid = -1, Args args = {});
  // Retroactive span with explicit endpoints (e.g. from a MigrationRecord).
  // `parent` links it into a trace; `reuse_id` emits it under a previously
  // reserve_span()ed id (0 allocates). Returns the span id used (0 when
  // tracing is off), so siblings can be parented on a retroactive root.
  SpanId span_at(std::string cat, std::string name, sim::HostId host,
                 std::int64_t pid, sim::Time begin, sim::Time end,
                 Args args = {}, Context parent = {}, SpanId reuse_id = 0);

  const std::vector<Event>& events() const { return events_; }
  std::int64_t dropped_events() const { return dropped_; }
  void clear_events();
  // Safety valve for very long traced runs (default 4M events).
  void set_max_events(std::size_t n) { max_events_ = n; }

  // ---- Flight recorder (always on) ----
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  // One-call note stamped with the registry clock. cat/name must be string
  // literals. Cheap enough for per-message call sites.
  void flight_note(const char* cat, const char* name,
                   sim::HostId host = sim::kInvalidHost, std::int64_t pid = -1,
                   std::int64_t a0 = 0, std::int64_t a1 = 0) {
    flight_.note(now_us_(), host, pid, cat, name, a0, a1);
  }
  // Writes the flight tail + metrics_report() to stderr; called from the
  // CHECK-failure hook and the starvation dump. `why` labels the dump.
  void dump_flight(const char* why, std::size_t n = 4096) const;
  // Extra forensics appended to every dump_flight: the Simulator installs
  // the engine self-profiler's top-N hottest-event-type table here, so a
  // stalled run is diagnosable from the dump alone. Empty return = omitted.
  void set_dump_hook(std::function<std::string()> fn) {
    dump_hook_ = std::move(fn);
  }
  // Down-verdict dumps flood the partition matrices, so they are gated:
  // default off, overridable here or via SPRITE_FLIGHT_DUMP_ON_VERDICT=1.
  void set_dump_on_down_verdict(bool on) { dump_on_down_verdict_ = on; }
  bool dump_on_down_verdict() const { return dump_on_down_verdict_; }

  // ---- Export ----
  // Chrome trace_event JSON: hosts as processes, categories as threads,
  // cross-host parent/child edges as flow-event ('s'/'f') arrows.
  // Byte-identical across runs with the same seed.
  std::string chrome_json() const;
  util::Status write_chrome_json(const std::string& path) const;
  // Human-readable snapshot of every metric, via util/table.
  std::string metrics_report() const;
  // Machine-readable metrics snapshot: counters, gauges, and histogram
  // buckets with deterministic key order (the maps iterate sorted).
  std::string metrics_json() const;
  util::Status write_metrics_json(const std::string& path) const;

 private:
  friend class ScopedContext;

  struct OpenSpan {
    std::string cat;
    std::string name;
    sim::HostId host = sim::kInvalidHost;
    std::int64_t pid = -1;
    int lane = 0;
    std::uint64_t trace_id = 0;
  };

  int lane_for(const std::string& cat);
  bool record(Event e);

  std::function<std::int64_t()> now_us_;
  bool tracing_ = false;

  std::map<std::pair<std::string, sim::HostId>, Counter> counters_;
  std::map<std::pair<std::string, sim::HostId>, Gauge> gauges_;
  std::map<std::pair<std::string, sim::HostId>, LatencyHistogram> histograms_;

  std::vector<Event> events_;
  std::map<SpanId, OpenSpan> open_spans_;
  std::map<std::string, int> lanes_;  // category -> display lane
  std::map<sim::HostId, std::string> host_names_;
  SpanId next_span_ = 1;
  std::uint64_t next_trace_ = 1;
  Context current_;
  std::size_t max_events_ = 4u << 20;
  std::int64_t dropped_ = 0;

  FlightRecorder flight_;
  bool dump_on_down_verdict_ = false;
  std::function<std::string()> dump_hook_;
};

// RAII ambient-context scope. Applying an invalid context is a no-op (the
// surrounding ambient context, if any, stays in effect), so call sites can
// apply whatever they captured unconditionally.
class ScopedContext {
 public:
  ScopedContext(Registry& r, Context ctx) : r_(r), saved_(r.current_) {
    if (ctx.valid()) r_.current_ = ctx;
  }
  ~ScopedContext() { r_.current_ = saved_; }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Registry& r_;
  Context saved_;
};

}  // namespace sprite::trace
