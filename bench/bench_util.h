// Shared helpers for the experiment harnesses.
//
// Each bench binary reproduces one table or figure from the thesis (see
// DESIGN.md's experiment index): it runs the mechanisms in simulation and
// prints the measured rows next to the values the paper reports. Absolute
// numbers depend on the calibration in sim/costs.h; the claims under test
// are the *shapes* (who wins, by what factor, where curves bend).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sprite.h"
#include "trace/series.h"
#include "trace/slo.h"
#include "util/table.h"

namespace bench {

// ---- Multi-server (sharded) clusters ----
//
// Server 0 exports "/", server i > 0 exports "/s<i>"; the kernel seeds each
// partition's mount point at boot, so workloads can create files under
// partition_root(i) immediately. With replicas == 2 every partition gets a
// primary-backup pair: writes apply synchronously at the backup and clients
// fail over to it on a down verdict against the primary.
struct ShardedOptions {
  int workstations = 8;
  int file_servers = 2;
  int fs_replicas = 1;
  std::uint64_t seed = 33;
  bool load_sharing = true;
};

inline std::string partition_root(int i) {
  return i == 0 ? "" : "/s" + std::to_string(i);
}

inline std::unique_ptr<sprite::core::SpriteCluster> sharded_cluster(
    const ShardedOptions& o) {
  sprite::core::SpriteCluster::Options co;
  co.workstations = o.workstations;
  co.file_servers = o.file_servers;
  co.fs_replicas = o.fs_replicas;
  co.seed = o.seed;
  co.enable_load_sharing = o.load_sharing;
  return std::make_unique<sprite::core::SpriteCluster>(co);
}

inline void header(const char* experiment, const char* paper_claim) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==================================================================\n\n");
}

inline void footnote(const char* text) { std::printf("\n%s\n", text); }

// ---- Tracing & metrics export (trace/trace.h) ----
//
// Every bench binary accepts `--trace-out <file>.json`. When given, event
// tracing is enabled on the cluster's simulator, the run's events are written
// as Chrome trace_event JSON (open in Perfetto / chrome://tracing — causal
// cross-host edges render as flow arrows), and the metrics table is printed
// at exit. Without the flag, only the always-on counters run.
//
// `--metrics-out <file>.json` independently writes the final metrics
// snapshot (counters/gauges/histograms, deterministic key order) as JSON for
// scripted comparison across runs. Suggested suffixes `*.trace.json` /
// `*.metrics.json` are gitignored.

inline std::string flag_arg(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == flag && i + 1 < argc) return argv[i + 1];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
  }
  return "";
}

// Returns the --trace-out argument, or "" when absent.
inline std::string trace_out_arg(int argc, char** argv) {
  return flag_arg(argc, argv, "--trace-out");
}

// Returns the --metrics-out argument, or "" when absent.
inline std::string metrics_out_arg(int argc, char** argv) {
  return flag_arg(argc, argv, "--metrics-out");
}

// Returns the --series-out argument, or "" when absent. When given, the
// bench exports its continuous-telemetry time series (trace/series.h) as
// JSON: one shared t_ms axis plus every tracked series' points, sorted by
// label so same-seed runs are byte-identical. scripts/series_to_csv.py
// flattens the JSON for plotting. Suggested suffix `*.series.json`.
inline std::string series_out_arg(int argc, char** argv) {
  return flag_arg(argc, argv, "--series-out");
}

// Arms an externally-owned sampler on a cluster that has no harness of its
// own (bench_fs_sharding): tracks the standard cluster series and ticks it
// (and optionally a watchdog) from the simulator clock.
inline void arm_series(sprite::core::SpriteCluster& cluster,
                       sprite::trace::SeriesSampler& sampler,
                       sprite::trace::SloWatchdog* watchdog = nullptr) {
  sampler.track_all(sprite::trace::default_cluster_series());
  cluster.sim().every(sampler.stride(), "trace_series_sample",
                      [&sampler, watchdog] {
                        sampler.sample();
                        if (watchdog != nullptr) watchdog->evaluate();
                      });
}

// Writes the series snapshot as JSON when a --series-out path was given.
inline void write_series(const sprite::trace::SeriesSampler& sampler,
                         const std::string& path) {
  if (path.empty()) return;
  const sprite::util::Status s = sampler.write_series_json(path);
  if (s.is_ok())
    std::printf("\nseries: %zu series x %lld samples -> %s\n",
                sampler.tracked(),
                static_cast<long long>(sampler.samples_taken()), path.c_str());
  else
    std::printf("\nseries: write failed: %s\n", s.to_string().c_str());
}

// Call after constructing the cluster, before running the workload. `force`
// enables tracing even without an output path — for benches that analyse
// the span tree in-process (critical-path breakdowns).
inline void arm_trace(sprite::core::SpriteCluster& cluster,
                      const std::string& path, bool force = false) {
  if (path.empty() && !force) return;
  sprite::trace::Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  for (std::size_t h = 0; h < cluster.kernel().num_hosts(); ++h) {
    auto id = static_cast<sprite::sim::HostId>(h);
    tr.set_host_name(id, cluster.kernel().host(id).name());
  }
}

// Writes the metrics snapshot as JSON when a --metrics-out path was given.
inline void write_metrics(sprite::core::SpriteCluster& cluster,
                          const std::string& path) {
  if (path.empty()) return;
  const sprite::util::Status s =
      cluster.sim().trace().write_metrics_json(path);
  if (s.is_ok())
    std::printf("\nmetrics: -> %s\n", path.c_str());
  else
    std::printf("\nmetrics: write failed: %s\n", s.to_string().c_str());
}

// Call after the workload finishes: writes the trace JSON (when a path was
// given) and prints the metrics table.
inline void finish_trace(sprite::core::SpriteCluster& cluster,
                         const std::string& path) {
  sprite::trace::Registry& tr = cluster.sim().trace();
  if (!path.empty()) {
    const sprite::util::Status s = tr.write_chrome_json(path);
    if (s.is_ok()) {
      std::printf("\ntrace: %zu events -> %s\n", tr.events().size(),
                  path.c_str());
    } else {
      std::printf("\ntrace: write failed: %s\n", s.to_string().c_str());
    }
  }
  std::printf("\n-- metrics --\n%s", tr.metrics_report().c_str());
}

// Blocking pmake run.
inline sprite::apps::Pmake::Result run_pmake(
    sprite::core::SpriteCluster& cluster,
    std::vector<sprite::apps::Target> targets, int max_jobs, bool parallel) {
  sprite::apps::Pmake::Options opt;
  opt.controller = cluster.workstation(0);
  opt.max_jobs = max_jobs;
  opt.facility = parallel ? &cluster.load_sharing() : nullptr;
  sprite::apps::Pmake pmake(cluster.kernel(), opt, std::move(targets));
  pmake.prepare();
  bool done = false;
  sprite::apps::Pmake::Result result;
  pmake.run([&](sprite::apps::Pmake::Result r) {
    result = r;
    done = true;
  });
  cluster.kernel().run_until_done([&] { return done; });
  return result;
}

}  // namespace bench
