// Cross-module integration scenarios: competing pmakes with cooperative
// recall, a full "day in the life" of the cluster, and smaller cross-layer
// behaviours not covered by the per-module suites.
#include <gtest/gtest.h>

#include "apps/pmake.h"
#include "core/sprite.h"
#include "migration/manager.h"

namespace sprite {
namespace {

using apps::Pmake;
using apps::make_compile_graph;
using core::SpriteCluster;
using proc::ScriptBuilder;
using sim::HostId;
using sim::Time;

TEST(PmakeContentionTest, TwoBuildsShareTheClusterViaCooperativeRecall) {
  SpriteCluster cluster({.workstations = 8, .seed = 77});
  cluster.warm_up();

  auto make_build = [&](int controller_ws, int objects) {
    Pmake::Options opt;
    opt.controller = cluster.workstation(controller_ws);
    opt.max_jobs = 8;
    opt.facility = &cluster.load_sharing();
    return std::make_unique<Pmake>(
        cluster.kernel(), opt,
        make_compile_graph(objects, 4, Time::sec(3), Time::sec(1)));
  };

  auto build_a = make_build(0, 16);
  auto build_b = make_build(1, 16);
  build_a->prepare();
  build_b->prepare();

  bool done_a = false, done_b = false;
  Pmake::Result ra, rb;
  build_a->run([&](Pmake::Result r) {
    ra = r;
    done_a = true;
  });
  // B starts once A has grabbed most hosts.
  cluster.run_for(Time::sec(5));
  build_b->run([&](Pmake::Result r) {
    rb = r;
    done_b = true;
  });
  cluster.kernel().run_until_done([&] { return done_a && done_b; });

  EXPECT_EQ(ra.jobs, 17);
  EXPECT_EQ(rb.jobs, 17);
  // Both used remote hosts: the late build was not starved, because migd
  // recalled part of the early build's allocation.
  EXPECT_GE(ra.remote_jobs, 4);
  EXPECT_GE(rb.remote_jobs, 4);
  // Neither build took pathological time (serial would be ~50 s each).
  EXPECT_LT(ra.makespan.s(), 45.0);
  EXPECT_LT(rb.makespan.s(), 45.0);
}

TEST(DayInTheLifeTest, MigrationLoadSharingAndEvictionCoexist) {
  // A long mixed scenario on one cluster: users come and go, a build runs,
  // long simulations are farmed out and evicted, and at the end every piece
  // of work completed and no host holds foreign processes while its user is
  // active.
  SpriteCluster cluster({.workstations = 10,
                         .seed = 99,
                         .horizon = Time::hours(3)});
  cluster.warm_up();

  // Long simulations from workstation 0, farmed to idle hosts.
  ScriptBuilder sim_prog;
  sim_prog.act(proc::Touch{vm::Segment::kHeap, 0, 128, true})
      .compute(Time::minutes(10))
      .exit(0);
  cluster.install_program("/bin/longsim", sim_prog.image(16, 128, 4));

  std::vector<proc::Pid> sims;
  auto hosts = cluster.request_idle_hosts(cluster.workstation(0), 3);
  ASSERT_GE(hosts.size(), 2u);
  for (auto h : hosts) {
    auto pid = cluster.spawn(cluster.workstation(0), "/bin/longsim", {});
    cluster.run_for(Time::msec(100));
    ASSERT_TRUE(cluster.migrate(pid, h).is_ok());
    sims.push_back(pid);
  }

  // A build from workstation 1 competes for the remaining hosts.
  Pmake::Options opt;
  opt.controller = cluster.workstation(1);
  opt.max_jobs = 6;
  opt.facility = &cluster.load_sharing();
  Pmake build(cluster.kernel(), opt,
              make_compile_graph(12, 4, Time::sec(3), Time::sec(1)));
  build.prepare();
  bool build_done = false;
  build.run([&](Pmake::Result) { build_done = true; });

  // Meanwhile two users return at their desks (eviction of whatever landed
  // there).
  cluster.sim().after(Time::sec(20), [&] {
    cluster.host(hosts[0]).note_user_input();
  });
  cluster.sim().after(Time::sec(40), [&] {
    cluster.host(cluster.workstation(5)).note_user_input();
  });

  cluster.kernel().run_until_done([&] { return build_done; });

  // All simulations finish despite evictions.
  for (auto pid : sims) EXPECT_EQ(cluster.wait(pid), 0);

  // Owner protection held: the returned hosts carry no foreign processes.
  cluster.run_for(Time::sec(10));
  EXPECT_TRUE(
      cluster.host(hosts[0]).procs().foreign_processes().empty());
  EXPECT_TRUE(cluster.host(cluster.workstation(5))
                  .procs()
                  .foreign_processes()
                  .empty());
}

TEST(PmakeEvictionTest, BuildSurvivesAnOwnerReturningMidCompile) {
  // A compile job is running on a granted host when its owner comes back.
  // The job is evicted to its home (the pmake controller) and finishes
  // there; the build completes with every output present.
  SpriteCluster cluster({.workstations = 6, .seed = 88});
  cluster.warm_up();

  Pmake::Options opt;
  opt.controller = cluster.workstation(0);
  opt.max_jobs = 6;
  opt.facility = &cluster.load_sharing();
  Pmake build(cluster.kernel(), opt,
              make_compile_graph(10, 4, Time::sec(5), Time::sec(1)));
  build.prepare();
  bool done = false;
  Pmake::Result result;
  build.run([&](Pmake::Result r) {
    result = r;
    done = true;
  });

  // Mid-build, the owners of two granted hosts return.
  int evicted_hosts = 0;
  cluster.sim().after(Time::sec(6), [&] {
    for (auto w : cluster.kernel().workstations()) {
      if (w == cluster.workstation(0)) continue;
      if (!cluster.host(w).procs().foreign_processes().empty()) {
        cluster.host(w).note_user_input();
        if (++evicted_hosts == 2) break;
      }
    }
  });

  cluster.kernel().run_until_done([&] { return done; });
  EXPECT_EQ(result.jobs, 11);
  EXPECT_GE(evicted_hosts, 1);
  // Every output exists despite the evictions.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(cluster.kernel()
                    .file_server()
                    .fs_server()
                    ->stat_path("/src/f" + std::to_string(i) + ".o")
                    .is_ok());
  }
  EXPECT_TRUE(
      cluster.kernel().file_server().fs_server()->stat_path("/src/prog").is_ok());
}

TEST(NameCacheIntegrationTest, PmakeWithNameCacheReducesServerWork) {
  auto run_build = [](bool cache) {
    SpriteCluster cluster({.workstations = 6, .seed = 55});
    if (cache) {
      for (std::size_t i = 0; i < cluster.kernel().num_hosts(); ++i)
        cluster.kernel().host(static_cast<HostId>(i)).fs().enable_name_cache(
            true);
    }
    cluster.warm_up();
    Pmake::Options opt;
    opt.controller = cluster.workstation(0);
    opt.max_jobs = 6;
    opt.facility = &cluster.load_sharing();
    // Enough jobs per host that cache reuse dominates first-touch misses.
    Pmake build(cluster.kernel(), opt,
                make_compile_graph(30, 10, Time::sec(2), Time::sec(1)));
    build.prepare();
    const trace::Registry& tr = cluster.sim().trace();
    const sim::HostId server = cluster.kernel().file_server().id();
    const auto lookups_before =
        tr.counter_value("fs.server.lookup.components", server);
    bool done = false;
    Pmake::Result result;
    build.run([&](Pmake::Result r) {
      result = r;
      done = true;
    });
    cluster.kernel().run_until_done([&] { return done; });
    return std::make_pair(
        result.makespan.s(),
        tr.counter_value("fs.server.lookup.components", server) -
            lookups_before);
  };

  auto [t_off, lookups_off] = run_build(false);
  auto [t_on, lookups_on] = run_build(true);
  // Each host pays first-touch lookups once; everything after that resolves
  // by hint, so total lookup work drops well below the uncached build's.
  EXPECT_LT(lookups_on, lookups_off * 6 / 10);
  EXPECT_LE(t_on, t_off);
}

}  // namespace
}  // namespace sprite
