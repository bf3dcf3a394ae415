// Engine self-profiler: where does the simulator itself burn wall-clock?
//
// Every event carries a static label naming its type ("net_deliver",
// "cpu_slice", "rpc_timeout", ...; unlabeled sites fall into "other"). The
// profiler interns each label as a dense event-type id when the event is
// scheduled (a flat pointer-keyed probe; literals that spell the same label
// share one id) and keeps one row per type: the `sim.engine.fired.<label>`
// registry counter and the profiler's own stats. Firing an event touches its
// row by array index. Two levels of attribution:
//
//   * Counting (always on): per-type fired totals. They are deterministic per
//     seed and surface as the `sim.engine.fired.*` registry counters, so the
//     bench gate pins the event mix exactly.
//
//   * Timing (opt-in, set_timing): steady_clock around each handler,
//     accumulated per type with a fixed log-scale cost histogram for
//     p50/p99. Wall-clock is NOT deterministic, so timing data lives here,
//     never in the registry — except the single `sim.engine.events_per_sec`
//     gauge bench_engine_profile publishes at exit, which the gate diffs
//     with a wide one-sided tolerance band (see scripts/bench_gate.py).
//
// The top-N hottest-event-type table (report()) is appended to every
// flight-recorder dump via Registry::set_dump_hook, so a starved or
// CHECK-failed run shows what the engine was spending its time on.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace sprite::sim {

class EngineProfiler {
 public:
  // Log-scale per-event handler-cost bounds in nanoseconds.
  static constexpr std::array<double, 12> kCostBoundsNs = {
      100,  250,  500,   1e3,   2.5e3, 5e3,
      1e4,  2.5e4, 5e4,  1e5,   1e6,   1e7};

  struct LabelStats {
    const char* label = "";
    std::int64_t fired = 0;
    double total_ns = 0.0;
    std::array<std::int64_t, kCostBoundsNs.size() + 1> cost_buckets{};
  };

  // `reg` receives the sim.engine.fired.<label> counters; it must outlive
  // the profiler.
  explicit EngineProfiler(trace::Registry& reg) : reg_(reg) {}

  // The dense event-type id of `label`, a static string literal.
  std::uint32_t type_of(const char* label) {
    for (std::size_t i = probe_index(label);;
         i = (i + 1) & (probe_.size() - 1)) {
      if (probe_[i].label == label) return probe_[i].type;
      if (probe_[i].label == nullptr) return add_label(label);
    }
  }

  // One event of type `type` fired. `ns` < 0 means timing was off (count
  // only).
  void record(std::uint32_t type, double ns) {
    Type& t = types_[type];
    ++t.stats.fired;
    ++events_;
    // Made on first firing, not at intern time, so a type that is scheduled
    // but never fires leaves no zero counter in the registry.
    if (t.fired == nullptr) t.fired = &fired_counter(t.stats.label);
    t.fired->inc();
    if (ns >= 0.0) record_time(t.stats, ns);
  }

  bool timing() const { return timing_; }
  void set_timing(bool on) { timing_ = on; }

  // Wall-clock bracket around the run under measurement; events_per_sec()
  // uses it as the denominator. end_run() is idempotent per begin_run().
  void begin_run();
  void end_run();

  std::int64_t events() const { return events_; }
  double wall_s() const;
  double events_per_sec() const;

  // Per-label stats, hottest first (by total_ns when timing, else by fired
  // count; ties broken by label so the order is reproducible).
  std::vector<LabelStats> top(std::size_t n) const;
  static double percentile_ns(const LabelStats& s, double q);

  // Human-readable top-N table for reports and flight dumps.
  std::string report(std::size_t n = 10) const;

  // Zeroes the stats; type ids and registry counters stay.
  void reset();

 private:
  struct Type {
    LabelStats stats;
    trace::Counter* fired = nullptr;  // sim.engine.fired.<label>
  };
  struct Probe {
    const char* label = nullptr;
    std::uint32_t type = 0;
  };

  std::size_t probe_index(const char* label) const {
    const auto key =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(label));
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    probe_shift_);
  }
  std::uint32_t add_label(const char* label);
  void insert_probe(Probe p);
  trace::Counter& fired_counter(const char* label);
  void record_time(LabelStats& s, double ns);

  trace::Registry& reg_;
  bool timing_ = false;
  std::int64_t events_ = 0;
  double total_ns_ = 0.0;
  double run_start_ns_ = 0.0;
  double run_ns_ = 0.0;
  bool running_ = false;
  std::vector<Type> types_;  // indexed by type id
  // Open-addressed label-pointer -> type-id table, at most half full.
  std::vector<Probe> probe_ = std::vector<Probe>(64);
  unsigned probe_shift_ = 64 - 6;
  std::size_t pointers_ = 0;  // entries in probe_
};

}  // namespace sprite::sim
