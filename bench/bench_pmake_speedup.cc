// E3 — pmake speedup vs number of hosts (thesis §7.4.1 figure).
//
// Paper: near-linear speedup for the first few hosts, saturating around
// 4–6x by ~12 hosts for compilations — limited by file-server name lookups
// (no client name caching) plus the serial link step (Amdahl). Roberts &
// Ellis [RE87] saw 6–12x on 15 hosts with the controller's disk as the
// limit; Baalbergen [Baa86] 3.5x on 4 hosts.
#include <cstdio>

#include "bench_util.h"

using sprite::apps::make_compile_graph;
using sprite::core::SpriteCluster;
using sprite::sim::Time;
using sprite::util::Table;

int main() {
  bench::header("E3: pmake speedup vs hosts (bench_pmake_speedup)",
                "speedup climbs near-linearly then saturates around 4-6x by "
                "12 hosts (server name-lookup bound + serial link)");

  // Real compiles opened dozens of headers through deep shared paths; the
  // per-open server lookups are what the thesis blames for the saturation.
  const int kObjects = 48;
  const auto graph = make_compile_graph(kObjects, /*shared_headers=*/28,
                                        /*compile_cpu=*/Time::sec(4),
                                        /*link_cpu=*/Time::sec(6));

  // Serial baseline.
  double serial_s = 0;
  {
    SpriteCluster cluster({.workstations = 2, .seed = 33});
    serial_s = bench::run_pmake(cluster, graph, 1, false).makespan.s();
  }

  Table t({"hosts", "makespan s", "speedup", "remote jobs", "server cpu util",
           "lookups"});
  t.add_row({"1 (serial make)", Table::num(serial_s, 1), "1.00", "0", "-",
             "-"});

  for (int hosts : {2, 4, 6, 8, 12, 16}) {
    SpriteCluster cluster({.workstations = hosts + 1, .seed = 33});
    cluster.warm_up();
    const sprite::trace::Registry& tr = cluster.sim().trace();
    const sprite::sim::HostId server = cluster.kernel().file_server().id();
    const auto lookups_before =
        tr.counter_value("fs.server.lookup.components", server);
    const Time t0 = cluster.sim().now();
    auto r = bench::run_pmake(cluster, graph, hosts + 1, true);
    const Time t1 = cluster.sim().now();
    const double server_util =
        cluster.kernel().file_server().cpu().busy_time(
            sprite::sim::JobClass::kKernel) /
        (t1 - t0 + Time::usec(1));
    t.add_row({std::to_string(hosts), Table::num(r.makespan.s(), 1),
               Table::num(serial_s / r.makespan.s(), 2),
               std::to_string(r.remote_jobs), Table::num(server_util, 2),
               std::to_string(
                   tr.counter_value("fs.server.lookup.components", server) -
                   lookups_before)});
  }
  t.print();

  bench::footnote(
      "Shape checks: speedup within ~80% of linear through 4-6 hosts, then\n"
      "bends as the file server's per-open name-lookup CPU saturates and\n"
      "the serial link step dominates (Amdahl). The server-cpu column shows\n"
      "the bottleneck forming.");
  return 0;
}
