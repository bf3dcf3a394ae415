// Shared pieces of the repository benchmark: the per-workload scope
// interface, sample summaries, host-time spans, and the result record the
// benchmark prints.
//
// A repetition is a fixed set of sub-runs, each a unit of simulated work
// built fresh from a seed derived from the benchmark's seed; their simulated
// results pool, so one run averages over several independent workloads. The
// benchmark repeats it until the run's host-time budget is spent: simulated
// results come from the first repetition (every later one must reproduce
// them exactly), host-time results are medians over all repetitions, each
// read at a reference machine speed by a calibration kernel run beside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kern/cluster.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace perfbench {

// Host wall clock, seconds since an arbitrary epoch.
inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host seconds for one pass of a fixed calibration kernel: random
// read-modify-writes over a 4 MB table, then insert/erase churn on a bounded
// std::map — cache misses, allocation and pointer chasing, like the
// simulator. It shares no code with the simulator, so its time moves only
// with the speed the machine gives this thread at that moment.
double calibration_s();
// The kernel's time on the reference machine; a host time t measured next
// to a kernel pass that took k reads as t * kCalibrationRefS / k at the
// reference speed.
inline constexpr double kCalibrationRefS = 0.015;

// Host-time spans around the public calls the benchmark makes. Each span has
// its own id and the id of the span that caused it (0 for a root). Spans stay
// in memory and are written out once, when the benchmark ends. A disabled log
// records nothing and returns id 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  void end(std::uint64_t id);
  // Chrome trace_event JSON ('X' complete events; args carry id/parent).
  std::string json() const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  // < 0 while open
  };

  bool enabled_;
  std::vector<Span> spans_;
};

// Closes a span when the enclosing block ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::uint64_t parent = 0)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

// A nearest-rank percentile summary of simulated samples. The tail is the
// highest percentile on a fixed ladder that still has at least 10 samples
// beyond it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  // e.g. 0.99; 1.0 means "max" (fewer than 20 samples)
};
Summary summarize(std::vector<double> samples);
double percentile(std::vector<double> samples, double q);  // 0 when empty
std::string describe(const std::string& name, const Summary& s,
                     const std::string& unit);

// n values evenly spaced over [lo, hi], in an order shuffled by `rng`: every
// seed gets the same spread of input sizes, assigned differently, so the
// total work does not swing with the seed.
std::vector<std::int64_t> shuffled_spread(std::int64_t lo, std::int64_t hi,
                                          int n, sprite::util::Rng& rng);

// A ratio printed with its base.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den > 0 ? num / den : 0.0; }
  bool operator==(const Ratio&) const = default;
};

// Simulated results (deterministic per seed) in a form that pools across
// sub-runs: samples concatenate, counts and ratio terms add, peaks take the
// maximum.
struct SimData {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  std::map<std::string, Ratio> ratios;
  std::map<std::string, double> peaks;

  void merge(const SimData& o);
  // Adds a merged latency histogram as samples: each observation reads as
  // the upper bound of its bucket (the overflow bucket as the last bound).
  void add_histogram(const std::string& key,
                     const sprite::trace::Registry::HistSnapshot& h);
  bool operator==(const SimData&) const = default;
};

// What one sub-run produced besides host time.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  std::vector<std::string> notes;
  // Host ms of the named set-up phases (cluster, install, warmup).
  std::map<std::string, double> setup_ms;
  SimData sim;
  std::string sim_digest;
};

struct Options {
  std::uint64_t seed = 1;
  bool small = false;  // self-test shape: a fraction of the simulated work
};

// One sub-run: a fixed unit of simulated work built fresh from its seed.
// setup() builds the cluster, installs programs, prepares inputs and warms
// up; run() does the measured work; finish() checks outputs and adds the
// workload's own simulated results.
class Scope {
 public:
  virtual ~Scope() = default;
  virtual void setup(SpanLog& spans, std::uint64_t parent,
                     Outcome& out) = 0;
  virtual void run(SpanLog& spans, std::uint64_t parent) = 0;
  virtual void finish(Outcome& out) = 0;
  virtual sprite::kern::Cluster& cluster() = 0;
};

std::unique_ptr<Scope> make_soak_wide(const Options& o);
std::unique_ptr<Scope> make_pmake_farm(const Options& o);
std::unique_ptr<Scope> make_migrate_churn(const Options& o);

// Per-layer results every workload reports, read from the cluster's registry
// and kernel objects after a sub-run (simulated only; no host time).
void collect_layers(sprite::kern::Cluster& cluster, SimData& out);

// FNV-1a over the registry's metrics snapshot, minus the one wall-clock
// gauge (sim.engine.events_per_sec) — equal digests mean every simulated
// statistic is unchanged.
std::string sim_digest(sprite::kern::Cluster& cluster);
// One digest for several sub-runs: FNV-1a over their digests in order.
std::string combine_digests(const std::vector<std::string>& digests);

}  // namespace perfbench
