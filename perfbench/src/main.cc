// perfbench: the repository benchmark.
//
//   perfbench --workload <soak_wide|pmake_farm|migrate_churn> --seed N
//             --seconds S --trace <0|1> [--small] [--spans-out FILE]
//
// Repeats the workload — a fixed set of sub-runs of simulated work — until S
// seconds of host time are spent (at least two repetitions), checks every
// repetition's outputs, and prints a report whose last line is one JSON
// object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 spends half the budget untraced and half with the engine
// profiler's handler timing on, and reports the per-layer metrics; FILE then
// receives the benchmark's host-time spans as Chrome trace JSON.
// --small runs the self-test shape (a fraction of the simulated work).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/profiler.h"
#include "util/rng.h"

namespace {

using perfbench::Outcome;
using perfbench::Scope;
using perfbench::SpanLog;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--small") {
      a->small = true;
    } else if (k == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a->trace = std::string(argv[++i]) == "1";
    } else if (k == "--spans-out" && has_value) {
      a->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// Host ms per layer from the profiler's per-label handler time, grouped by
// label prefix. "engine" is the loop's own time outside every handler.
std::map<std::string, double> layer_host_ms(
    const sprite::sim::EngineProfiler& prof) {
  static const char* kLayers[] = {"cpu", "net", "rpc", "recov", "fs",
                                  "ls",  "wl",  "trace"};
  std::map<std::string, double> ms;
  for (const char* l : kLayers) ms[l] = 0.0;
  ms["other"] = 0.0;
  double handlers = 0.0;
  for (const auto& s : prof.top(1u << 20)) {
    const std::string label = s.label;
    std::string layer = "other";
    for (const char* l : kLayers)
      if (label.rfind(std::string(l) + "_", 0) == 0) layer = l;
    ms[layer] += s.total_ns / 1e6;
    handlers += s.total_ns / 1e6;
  }
  ms["engine"] = prof.wall_s() * 1e3 - handlers;
  return ms;
}

// Sub-runs per repetition: two independent workloads pool into one set of
// simulated results, which then varies less from seed to seed; more would
// leave fewer repetitions, and a noisier host-time median, per run.
constexpr int kSubRuns = 2;

std::unique_ptr<Scope> make_scope(const std::string& workload,
                                  const perfbench::Options& o) {
  if (workload == "soak_wide") return perfbench::make_soak_wide(o);
  if (workload == "pmake_farm") return perfbench::make_pmake_farm(o);
  return perfbench::make_migrate_churn(o);
}

// Resets the process's resident-memory high-water mark to its current
// resident set (Linux: "5" to /proc/self/clear_refs).
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// The resident-memory high-water mark since the last reset, MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

// One repetition: every sub-run's set-up, run and checks, pooled.
// Host times are kept both as measured (wall_*) and at the reference speed:
// each phase's time scaled by kCalibrationRefS over the mean of the
// calibration passes on either side of it (see calibration_s()).
struct Rep {
  double setup_s = 0.0;
  double host_s = 0.0;
  double wall_setup_s = 0.0;
  double wall_host_s = 0.0;
  std::vector<double> calibration;  // every kernel pass, seconds
  double peak_rss_mb = 0.0;
  std::map<std::string, double> layer_ms;  // traced repetitions only
  Outcome out;              // pooled over the sub-runs
  std::vector<std::string> digests;
};

Rep run_rep(const Args& a, bool timed, SpanLog& spans) {
  Rep r;
  const std::uint64_t root =
      spans.begin(a.workload + (timed ? " (traced)" : ""));
  sprite::util::Rng seeds(a.seed);
  for (int k = 0; k < kSubRuns; ++k) {
    const perfbench::Options o{.seed = seeds.next_u64() >> 1, .small = a.small};
    std::unique_ptr<Scope> scope = make_scope(a.workload, o);
    Outcome out;
    const std::uint64_t sub =
        spans.begin("sub-run " + std::to_string(k), root);

    // Calibration passes bracket the set-up and the run; the resident-memory
    // peak is taken over the set-up and over the run with its checks, with
    // the passes outside both windows.
    const double k0 = perfbench::calibration_s();
    reset_peak_rss();
    double t0 = perfbench::host_now_s();
    {
      perfbench::ScopedSpan s(spans, "setup", sub);
      scope->setup(spans, s.id(), out);
    }
    const double setup_s = perfbench::host_now_s() - t0;
    r.peak_rss_mb = std::max(r.peak_rss_mb, peak_rss_mb());
    const double k1 = perfbench::calibration_s();
    reset_peak_rss();

    sprite::sim::EngineProfiler& prof = scope->cluster().sim().profiler();
    prof.reset();
    prof.set_timing(timed);
    prof.begin_run();
    t0 = perfbench::host_now_s();
    {
      perfbench::ScopedSpan s(spans, "run", sub);
      scope->run(spans, s.id());
    }
    const double host_s = perfbench::host_now_s() - t0;
    prof.end_run();
    out.sim.counts["sim.events"] += static_cast<double>(prof.events());
    if (timed)
      for (const auto& [layer, ms] : layer_host_ms(prof)) r.layer_ms[layer] += ms;

    {
      perfbench::ScopedSpan s(spans, "check + metrics export", sub);
      scope->finish(out);
      perfbench::collect_layers(scope->cluster(), out.sim);
      r.digests.push_back(perfbench::sim_digest(scope->cluster()));
    }
    spans.end(sub);
    r.peak_rss_mb = std::max(r.peak_rss_mb, peak_rss_mb());
    scope.reset();
    const double k2 = perfbench::calibration_s();
    r.wall_setup_s += setup_s;
    r.setup_s += setup_s * perfbench::kCalibrationRefS / ((k0 + k1) / 2);
    r.wall_host_s += host_s;
    r.host_s += host_s * perfbench::kCalibrationRefS / ((k1 + k2) / 2);
    r.calibration.insert(r.calibration.end(), {k0, k1, k2});

    r.out.attempted += out.attempted;
    r.out.failed += out.failed;
    for (auto& p : out.problems)
      r.out.problems.push_back("[sub-run " + std::to_string(k) + "] " + p);
    for (auto& n : out.notes)
      r.out.notes.push_back("[sub-run " + std::to_string(k) + "] " + n);
    for (const auto& [name, ms] : out.setup_ms) r.out.setup_ms[name] += ms;
    r.out.sim.merge(out.sim);
  }
  spans.end(root);

  r.out.sim_digest = perfbench::combine_digests(r.digests);
  return r;
}

// Repeats the workload until `budget` host seconds are spent (at least
// twice), stopping early rather than overrun the run's hard time limit.
std::vector<Rep> repeat(const Args& a, bool timed, double budget,
                        SpanLog& spans) {
  std::vector<Rep> reps;
  const double start = perfbench::host_now_s();
  const double hard_limit = 120.0;
  for (;;) {
    const double r0 = perfbench::host_now_s();
    reps.push_back(run_rep(a, timed, spans));
    const double now = perfbench::host_now_s();
    const double elapsed = now - start, last = now - r0;
    if (reps.size() >= 2 && elapsed >= budget) break;
    if (elapsed + last > hard_limit) break;
  }
  return reps;
}

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"host_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MB"},     {"migrate_p50_ms", "ms"},
    {"migrate_tail_ms", "ms"},
    {"freeze_p50_ms", "ms"},   {"freeze_tail_ms", "ms"},
};

const Metric kPerLayer[] = {
    {"sim.events", "count"},          {"sim.ns_per_event", "ns"},
    {"sim.queue_peak", "count"},      {"cpu.slices", "count"},
    {"host_ms.cpu", "ms"},            {"cpu.ws_busy_frac", "frac"},
    {"net.msgs", "count"},            {"net.mb", "MB"},
    {"net.util", "frac"},             {"host_ms.net", "ms"},
    {"rpc.calls", "count"},           {"rpc.retransmit_frac", "frac"},
    {"rpc.dedup_hits", "count"},      {"rpc.timeouts", "count"},
    {"host_ms.rpc", "ms"},            {"recov.probes", "count"},
    {"recov.false_suspect_frac", "frac"}, {"host_ms.recov", "ms"},
    {"fs.lookups", "count"},          {"fs.block_hit_frac", "frac"},
    {"fs.name_hit_frac", "frac"},     {"fs.server_reads", "count"},
    {"fs.server_writes", "count"},    {"fs.server_write_mb", "MB"},
    {"fs.disk_ops", "count"},         {"fs.server_cpu_frac", "frac"},
    {"host_ms.fs", "ms"},             {"vm.faults", "count"},
    {"vm.pages_flushed", "count"},    {"vm.pages_paged_in", "count"},
    {"vm.pages_remote_pulled", "count"}, {"proc.syscalls", "count"},
    {"proc.forwarded_frac", "frac"},  {"proc.spawned", "count"},
    {"mig.completed", "count"},       {"mig.failed", "count"},
    {"mig.exec_time_frac", "frac"},   {"xfer.mb", "MB"},
    {"xfer.pages_sent", "count"},     {"xfer.resent_frac", "frac"},
    {"xfer.dedup_frac", "frac"},      {"xfer.rounds", "count"},
    {"xfer.push_redundant_frac", "frac"}, {"ls.requests", "count"},
    {"ls.grant_frac", "frac"},        {"ls.grant_p99_ms", "ms"},
    {"ls.update_events", "count"},    {"host_ms.ls", "ms"},
    {"wl.events_applied", "count"},
    {"wl.jobs_finished", "count"},    {"host_ms.wl", "ms"},
    {"pmake.jobs", "count"},          {"pmake.remote_frac", "frac"},
    {"trace.overhead_frac", "frac"},  {"host_ms.trace", "ms"},
    {"host_ms.other", "ms"},          {"host_ms.engine", "ms"},
    {"setup.cluster_ms", "ms"},       {"setup.install_ms", "ms"},
    {"setup.warmup_ms", "ms"},        {"makespan_p50_s", "s"},
    {"makespan_tail_s", "s"},         {"evict_p50_ms", "ms"},
    {"evict_tail_ms", "ms"},          {"fail_frac", "frac"},
    {"util_recovered", "frac"},
};

std::string json_metrics(const std::map<std::string, double>& values,
                         const Metric* list, std::size_t n) {
  std::string s = "{";
  for (std::size_t i = 0; i < n; ++i) {
    char buf[160];
    const auto it = values.find(list[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", list[i].name, std::isfinite(v) ? v : 0.0,
                  list[i].unit);
    s += buf;
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a) ||
      (a.workload != "soak_wide" && a.workload != "pmake_farm" &&
       a.workload != "migrate_churn")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <soak_wide|pmake_farm|"
                 "migrate_churn> --seed N --seconds S --trace <0|1> [--small] "
                 "[--spans-out FILE]\n");
    return 2;
  }

  SpanLog spans(a.trace);
  SpanLog untraced_spans(false);
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<Rep> plain = repeat(a, false, budget, untraced_spans);
  const std::vector<Rep> traced =
      a.trace ? repeat(a, true, budget, spans) : std::vector<Rep>{};

  // Simulated results come from the first repetition; every other one
  // (traced too: profiler timing must not perturb the simulation) has to
  // reproduce them exactly.
  const Outcome& out = plain.front().out;
  std::vector<std::string> problems = out.problems;
  for (const std::vector<Rep>* set : {&plain, &traced})
    for (const Rep& r : *set)
      if (r.out.sim_digest != out.sim_digest || r.out.sim != out.sim)
        problems.push_back("repetition not deterministic: sim_digest " +
                           r.out.sim_digest + " vs " + out.sim_digest);
  if (a.trace && !a.spans_out.empty()) {
    std::ofstream f(a.spans_out);
    f << spans.json();
    if (!f) problems.push_back("cannot write spans to " + a.spans_out);
  }

  std::vector<double> host, setup, traced_host, wall_host, wall_setup, cal;
  std::map<std::string, std::vector<double>> setup_ms, layer_ms;
  for (const Rep& r : plain) {
    host.push_back(r.host_s);
    setup.push_back(r.setup_s);
    wall_host.push_back(r.wall_host_s);
    wall_setup.push_back(r.wall_setup_s);
    cal.insert(cal.end(), r.calibration.begin(), r.calibration.end());
    for (const auto& [k, v] : r.out.setup_ms) setup_ms[k].push_back(v);
  }
  for (const Rep& r : traced) {
    traced_host.push_back(r.host_s);
    for (const auto& [k, v] : r.layer_ms) layer_ms[k].push_back(v);
  }

  std::printf("workload %s, seed %llu%s: %zu untraced + %zu traced "
              "repetitions of %d sub-runs\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.small ? " (small shape)" : "", plain.size(), traced.size(),
              kSubRuns);
  std::printf("sim_digest %s\n", out.sim_digest.c_str());
  for (const auto& n : out.notes) std::printf("  %s\n", n.c_str());

  std::map<std::string, double> m;
  const perfbench::SimData& sim = out.sim;
  for (const auto& [k, v] : sim.counts) m[k] = v;
  for (const auto& [k, v] : sim.peaks) m[k] = v;
  for (const auto& [k, r] : sim.ratios) {
    m[k] = r.value();
    std::printf("  %s = %.6g / %.6g = %.4f\n", k.c_str(), r.num, r.den,
                r.value());
  }
  struct Latency {
    const char* samples;
    const char* p50;
    const char* tail;
    const char* unit;
    const char* what;
  };
  static const Latency kLatencies[] = {
      {"migrate_ms", "migrate_p50_ms", "migrate_tail_ms", "ms",
       "migrate (start to done)"},
      {"freeze_ms", "freeze_p50_ms", "freeze_tail_ms", "ms",
       "freeze (frozen to resumed)"},
      {"makespan_s", "makespan_p50_s", "makespan_tail_s", "s",
       "build makespan"},
      {"evict_ms", "evict_p50_ms", "evict_tail_ms", "ms",
       "evict (owner return until every foreign process is home)"},
  };
  for (const Latency& l : kLatencies) {
    const auto it = sim.samples.find(l.samples);
    if (it == sim.samples.end()) continue;
    const perfbench::Summary su = perfbench::summarize(it->second);
    m[l.p50] = su.p50;
    m[l.tail] = su.tail;
    std::printf("  %s\n", perfbench::describe(l.what, su, l.unit).c_str());
  }
  if (const auto it = sim.samples.find("ls.grant_ms"); it != sim.samples.end())
    m["ls.grant_p99_ms"] = perfbench::percentile(it->second, 0.99);
  std::printf("  ops: %lld attempted, %lld failed\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  m["host_s"] = median(host);
  m["setup_s"] = median(setup);
  for (const Rep& r : plain)
    m["peak_rss_mb"] = std::max(m["peak_rss_mb"], r.peak_rss_mb);
  m["fail_frac"] = out.attempted > 0 ? static_cast<double>(out.failed) /
                                           static_cast<double>(out.attempted)
                                     : 0.0;
  m["sim.ns_per_event"] =
      m["sim.events"] > 0 ? m["host_s"] * 1e9 / m["sim.events"] : 0.0;
  for (const auto& [k, v] : setup_ms) m["setup." + k + "_ms"] = median(v);
  for (const auto& [k, v] : layer_ms) m["host_ms." + k] = median(v);
  if (a.trace)
    m["trace.overhead_frac"] = median(traced_host) / m["host_s"] - 1.0;

  std::printf("  calibration kernel: median %.2f ms over %zu passes "
              "(reference %.2f ms)\n",
              median(cal) * 1e3, cal.size(), perfbench::kCalibrationRefS * 1e3);
  std::printf("  host_s per repetition, at the reference speed:");
  for (double h : host) std::printf(" %.3f", h);
  std::printf("\n  host_s per repetition, wall clock:");
  for (double h : wall_host) std::printf(" %.3f", h);
  std::printf("\n  wall-clock medians: host_s %.4f, setup_s %.4f\n",
              median(wall_host), median(wall_setup));

  const bool correct = problems.empty();
  const std::string metrics =
      a.trace ? json_metrics(m, kPerLayer, std::size(kPerLayer))
              : json_metrics(m, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(out.attempted, 1)),
              static_cast<long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
