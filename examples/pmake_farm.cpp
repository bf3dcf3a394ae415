// pmake_farm: the thesis's motivating scenario — a user types `pmake` and
// compilations transparently spread across the idle workstations.
//
// Runs the same 16-file build serially on one machine and in parallel with
// exec-time migration to hosts granted by migd, and reports the speedup.
//
//   ./example_pmake_farm
#include <cstdio>

#include "core/sprite.h"

using sprite::apps::Pmake;
using sprite::apps::make_compile_graph;
using sprite::core::SpriteCluster;
using sprite::sim::Time;

namespace {

Pmake::Result build(SpriteCluster& cluster, bool parallel) {
  Pmake::Options opt;
  opt.controller = cluster.workstation(0);
  opt.max_jobs = parallel ? 12 : 1;
  opt.facility = parallel ? &cluster.load_sharing() : nullptr;
  Pmake pmake(cluster.kernel(), opt,
              make_compile_graph(/*n=*/16, /*shared_headers=*/4,
                                 /*compile_cpu=*/Time::sec(4),
                                 /*link_cpu=*/Time::sec(2)));
  pmake.prepare();
  bool done = false;
  Pmake::Result result;
  pmake.run([&](Pmake::Result r) {
    result = r;
    done = true;
  });
  cluster.kernel().run_until_done([&] { return done; });
  return result;
}

}  // namespace

int main() {
  std::printf("building 16 objects + link; each compile needs 4 s of CPU\n\n");

  SpriteCluster serial({.workstations = 10, .seed = 21});
  const auto s = build(serial, /*parallel=*/false);
  std::printf("serial make   : %6.1f s (1 host, %d jobs)\n", s.makespan.s(),
              s.jobs);

  SpriteCluster parallel({.workstations = 10, .seed = 21});
  parallel.warm_up();  // let workstations pass the idle threshold
  const auto p = build(parallel, /*parallel=*/true);
  std::printf("parallel pmake: %6.1f s (%d of %d jobs ran remotely)\n",
              p.makespan.s(), p.remote_jobs, p.jobs);
  std::printf("speedup       : %5.2fx\n\n", s.makespan.s() / p.makespan.s());

  const sprite::trace::Registry& tr = parallel.sim().trace();
  const auto server = parallel.kernel().file_server().id();
  std::printf(
      "file server during the parallel build: %lld opens, "
      "%lld pathname components looked up\n",
      static_cast<long long>(tr.counter_value("fs.server.open.served", server)),
      static_cast<long long>(
          tr.counter_value("fs.server.lookup.components", server)));
  std::printf("server name lookups are the scaling bottleneck the thesis "
              "identifies (see bench_pmake_speedup).\n");
  return 0;
}
