// E14: sharded & replicated file service — servers × replication × crash
// matrix (supersedes bench_two_servers).
//
// Two questions, one workload (the E3 compile storm):
//
//  1. Scaling: does splitting the namespace across servers move the pmake
//     saturation point out (thesis ch. 9 scaling direction), and what does
//     synchronous primary-backup replication cost on the write path?
//  2. Robustness: when the partition-0 primary crashes mid-build, how long
//     until clients converge — and how much delayed-write data dies in the
//     window? With a backup the down verdict promotes it and clients
//     reroute in seconds; without one everybody waits out the reboot.
//
// Columns: makespan + speedup over the serial baseline, jobs written off
// after failed spawns (a crash-shortened makespan with failures is not a
// win), partition-0 promotions, client reroutes/reopens, dirty blocks lost,
// and the client failover-latency percentiles (fs.failover.latency_ms:
// suspicion raised -> converged at the new home).
//
// Flags:
//   --metrics-out F   write the final metrics snapshot of the LAST matrix
//                     cell (2 servers x 2 replicas, crash) as JSON
//   --series-out F    write the LAST cell's continuous-telemetry series
//                     (10-second stride — the failover transient is visible
//                     as a step in fs.failover.promotions:total and a spike
//                     in fs.failover.latency_ms:p99)
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"

using sprite::apps::make_compile_graph_at;
using sprite::core::SpriteCluster;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

constexpr int kHosts = 8;       // workstations driving the build
constexpr int kObjects = 48;    // compile graph width
constexpr int kHeaders = 28;    // shared headers (the contended lookups)

struct Cell {
  double makespan_s = 0.0;
  double speedup = 0.0;
  int failed_jobs = 0;
  std::int64_t promotions = 0;
  std::int64_t reroutes = 0;
  std::int64_t reopens = 0;
  std::int64_t dirty_lost = 0;
  double failover_p50_ms = 0.0;
  double failover_p99_ms = 0.0;
};

Cell run_cell(int servers, int replicas, bool crash, double serial_s,
              double no_crash_makespan_s, const std::string& metrics_out,
              const std::string& series_out) {
  bench::ShardedOptions so;
  so.workstations = kHosts + 1;
  so.file_servers = servers;
  so.fs_replicas = replicas;
  so.seed = 33;
  auto cluster = bench::sharded_cluster(so);

  // Continuous telemetry: a build runs minutes, not days, so sample every
  // 10 simulated seconds to catch the failover transient.
  sprite::trace::SeriesSampler::Options sopts;
  sopts.stride = Time::sec(10);
  sprite::trace::SeriesSampler sampler(cluster->sim().trace(), sopts);
  bench::arm_series(*cluster, sampler);

  // Headers live on partition 1 when it exists: per-open lookups split
  // across server CPUs exactly as in the old two-server ablation.
  auto graph = make_compile_graph_at(kObjects, kHeaders, Time::sec(4),
                                     Time::sec(6),
                                     bench::partition_root(servers > 1 ? 1 : 0));
  cluster->warm_up();

  if (crash) {
    // Kill the partition-0 primary mid-build; reboot it a minute later.
    // With a backup the build barely notices (promotion in ~20 s of
    // in-protocol evidence); without one every FS call stalls until the
    // reboot and the kStale reopen path picks up the pieces.
    const auto victim = cluster->kernel().file_server(0).id();
    const Time at = cluster->sim().now() +
                    Time::sec(no_crash_makespan_s / 2.0);
    cluster->sim().at(at, [&cluster, victim] {
      cluster->kernel().crash_host(victim);
    });
    cluster->sim().at(at + Time::sec(60), [&cluster, victim] {
      cluster->kernel().reboot_host(victim);
    });
  }

  const Time t0 = cluster->sim().now();
  auto r = bench::run_pmake(*cluster, graph, kHosts + 1, true);
  const Time t1 = cluster->sim().now();

  Cell c;
  c.makespan_s = (t1 - t0).s();
  c.speedup = serial_s / c.makespan_s;
  c.failed_jobs = r.failed_jobs;
  const sprite::trace::Registry& tr = cluster->sim().trace();
  c.promotions = tr.counter_total("fs.failover.promotions");
  c.reroutes = tr.counter_total("fs.failover.reroutes");
  c.reopens = tr.counter_total("fs.failover.reopens");
  c.dirty_lost = tr.counter_total("fs.cache.dirty_lost");
  const auto failover = tr.histogram_total("fs.failover.latency_ms");
  c.failover_p50_ms = sprite::trace::percentile_from_buckets(
      failover.bounds, failover.counts, failover.count, 0.5);
  c.failover_p99_ms = sprite::trace::percentile_from_buckets(
      failover.bounds, failover.counts, failover.count, 0.99);
  bench::write_metrics(*cluster, metrics_out);
  bench::write_series(sampler, series_out);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header(
      "E14: sharded & replicated file service (bench_fs_sharding)",
      "namespace partitioning moves the pmake saturation point out, and "
      "primary-backup failover turns a file-server crash into seconds of "
      "degraded service instead of a dead cluster");

  // Serial baseline (single server, single host).
  double serial_s;
  {
    SpriteCluster cluster({.workstations = 2, .seed = 33});
    serial_s =
        bench::run_pmake(cluster,
                         make_compile_graph_at(kObjects, kHeaders,
                                               Time::sec(4), Time::sec(6), ""),
                         1, false)
            .makespan.s();
  }
  std::printf("serial baseline: %.1f s (%d objects, 1 host)\n\n", serial_s,
              kObjects);

  const std::string metrics = bench::metrics_out_arg(argc, argv);
  const std::string series = bench::series_out_arg(argc, argv);
  Table t({"servers", "repl", "crash", "makespan", "speedup", "failed",
           "promoted", "reroutes", "reopens", "dirty lost", "failover p50",
           "p99"});
  double no_crash[3] = {0.0, 0.0, 0.0};  // indexed by servers
  for (int servers : {1, 2}) {
    for (int replicas : {1, 2}) {
      for (bool crash : {false, true}) {
        const bool last = servers == 2 && replicas == 2 && crash;
        Cell c = run_cell(servers, replicas, crash, serial_s,
                          crash ? no_crash[servers] : 0.0,
                          last ? metrics : "", last ? series : "");
        if (!crash) no_crash[servers] = c.makespan_s;
        t.add_row({std::to_string(servers), std::to_string(replicas),
                   crash ? "primary" : "-", Table::num(c.makespan_s, 1),
                   Table::num(c.speedup, 2), std::to_string(c.failed_jobs),
                   std::to_string(c.promotions),
                   std::to_string(c.reroutes), std::to_string(c.reopens),
                   std::to_string(c.dirty_lost),
                   c.promotions + c.reroutes > 0
                       ? Table::num(c.failover_p50_ms, 0)
                       : "-",
                   c.promotions + c.reroutes > 0
                       ? Table::num(c.failover_p99_ms, 0)
                       : "-"});
      }
    }
  }
  t.print();

  bench::footnote(
      "Shape checks: (1) two servers beat one before either saturates — the\n"
      "header partition absorbs the lookup storm (the old bench_two_servers\n"
      "claim); (2) synchronous replication costs a few percent of makespan\n"
      "in backup round trips; (3) with a backup, the crash rows show one\n"
      "promotion, failover latencies in seconds, and a makespan close to\n"
      "the crash-free row — without one, the makespan absorbs the full\n"
      "outage-plus-reboot window. Dirty blocks lost stays zero except for\n"
      "the accounted unreplicated window (fs.cache.dirty_lost).");
  return 0;
}
