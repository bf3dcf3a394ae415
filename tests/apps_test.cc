// Tests for the application layer: pmake, the user-activity model, and the
// policy workload.
#include <gtest/gtest.h>

#include "apps/pmake.h"
#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "sim/time.h"
#include "workload/activity.h"
#include "workload/policy.h"
#include "workload/session.h"

namespace sprite::apps {
namespace {

using kern::Cluster;
using sim::HostId;
using sim::Time;
using wl::PolicyWorkload;
using wl::UserActivityModel;
using wl::ZhouLifetimes;

Pmake::Result run_pmake(Cluster& cluster, ls::Facility* facility,
                        std::vector<Target> targets, int max_jobs) {
  Pmake::Options opt;
  opt.controller = cluster.workstations()[0];
  opt.max_jobs = max_jobs;
  opt.facility = facility;
  Pmake pmake(cluster, opt, std::move(targets));
  pmake.prepare();
  bool done = false;
  Pmake::Result result;
  pmake.run([&](Pmake::Result r) {
    result = r;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return result;
}

TEST(PmakeTest, SerialBuildCompletesAndCreatesOutputs) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  auto targets = make_compile_graph(4, 3, Time::sec(2), Time::sec(1));
  auto result = run_pmake(cluster, nullptr, targets, 1);
  EXPECT_EQ(result.jobs, 5);  // 4 compiles + 1 link
  EXPECT_EQ(result.remote_jobs, 0);
  // Outputs exist on the server.
  for (int i = 0; i < 4; ++i) {
    auto st = cluster.file_server().fs_server()->stat_path(
        "/src/f" + std::to_string(i) + ".o");
    EXPECT_TRUE(st.is_ok());
  }
  EXPECT_TRUE(
      cluster.file_server().fs_server()->stat_path("/src/prog").is_ok());
  // Serial: makespan at least the sum of CPU demands.
  EXPECT_GE(result.makespan.s(), 9.0);
}

TEST(PmakeTest, ParallelBuildIsFasterThanSerial) {
  const auto graph = make_compile_graph(8, 3, Time::sec(3), Time::sec(1));

  Cluster serial_cluster({.num_workstations = 6, .num_file_servers = 1});
  auto serial = run_pmake(serial_cluster, nullptr, graph, 1);

  Cluster par_cluster({.num_workstations = 6, .num_file_servers = 1});
  ls::Facility facility(par_cluster, ls::Arch::kCentral);
  par_cluster.sim().run_until(Time::sec(45));  // hosts become idle
  auto parallel = run_pmake(par_cluster, &facility, graph, 8);

  EXPECT_EQ(parallel.jobs, 9);
  EXPECT_GE(parallel.remote_jobs, 4);
  const double speedup = serial.makespan.s() / parallel.makespan.s();
  EXPECT_GT(speedup, 2.0) << "serial " << serial.makespan.s() << "s vs "
                          << parallel.makespan.s() << "s";
}

TEST(PmakeTest, LinkWaitsForAllObjects) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  cluster.sim().run_until(Time::sec(45));
  auto targets = make_compile_graph(3, 2, Time::sec(1), Time::msec(500));
  auto result = run_pmake(cluster, &facility, targets, 8);
  EXPECT_EQ(result.jobs, 4);
  // Even perfectly parallel, the link's CPU is serial: makespan exceeds
  // compile + link.
  EXPECT_GE(result.makespan.s(), 1.5);
}

TEST(ActivityModelTest, DayIdleFractionNearPaper) {
  Cluster cluster({.num_workstations = 20,
                   .num_file_servers = 1,
                   .horizon = sim::Time::hours(30)});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  UserActivityModel activity(cluster, UserActivityModel::Profile::office());
  activity.start();

  // Sample idleness hourly from 9:00 to 18:00 of day one.
  double idle_sum = 0;
  int samples = 0;
  for (int hour = 9; hour <= 17; ++hour) {
    cluster.sim().run_until(Time::hours(hour));
    idle_sum += facility.idle_count();
    ++samples;
  }
  const double day_idle = idle_sum / samples / 20.0;
  EXPECT_GT(day_idle, 0.5);
  EXPECT_LT(day_idle, 0.85);

  // Night: hosts mostly idle.
  cluster.sim().run_until(Time::hours(26));  // 2 AM next day
  const double night_idle = facility.idle_count() / 20.0;
  EXPECT_GT(night_idle, day_idle - 0.05);
}

TEST(ZhouLifetimesTest, HeavyTailedWithPaperMoments) {
  ZhouLifetimes gen{util::Rng(99)};
  util::Accumulator acc;
  for (int i = 0; i < 300000; ++i) acc.add(gen.next().s());
  EXPECT_NEAR(acc.mean(), 1.5, 0.15);
  EXPECT_GT(acc.stddev(), 14.0);
  EXPECT_LT(acc.stddev(), 26.0);
}

TEST(PolicyWorkloadTest, PlacementReducesSlowdownUnderLoad) {
  auto run_policy = [](PolicyWorkload::Policy policy) {
    Cluster cluster({.num_workstations = 8,
                     .num_file_servers = 1,
                     .seed = 7,
                     .horizon = sim::Time::hours(4)});
    ls::Facility facility(cluster, ls::Arch::kCentral);
    cluster.sim().run_until(Time::sec(45));
    PolicyWorkload::Options opt;
    opt.policy = policy;
    opt.arrivals_per_host_hz = 0.25;
    opt.duration = Time::minutes(8);
    PolicyWorkload wl(cluster, facility, opt);
    return wl.run();
  };

  auto none = run_policy(PolicyWorkload::Policy::kNone);
  auto placed = run_policy(PolicyWorkload::Policy::kPlacement);

  EXPECT_EQ(none.jobs_submitted, none.jobs_finished);
  EXPECT_EQ(placed.jobs_submitted, placed.jobs_finished);
  EXPECT_GT(placed.placed_remotely, 0);
  // With heavy-tailed lifetimes, queueing behind a long job dominates the
  // local-only policy; placement must shrink mean response time.
  EXPECT_LT(placed.response_s.mean(), none.response_s.mean())
      << "placement " << placed.response_s.mean() << "s vs local-only "
      << none.response_s.mean() << "s";
}

TEST(PolicyWorkloadTest, MigrationAddsActiveMoves) {
  Cluster cluster({.num_workstations = 8,
                   .num_file_servers = 1,
                   .seed = 11,
                   .horizon = sim::Time::hours(4)});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  cluster.sim().run_until(Time::sec(45));
  PolicyWorkload::Options opt;
  opt.policy = PolicyWorkload::Policy::kPlacementPlusMigration;
  opt.arrivals_per_host_hz = 0.5;
  opt.duration = Time::minutes(8);
  PolicyWorkload wl(cluster, facility, opt);
  auto r = wl.run();
  EXPECT_EQ(r.jobs_submitted, r.jobs_finished);
  EXPECT_GT(r.active_migrations, 0);
}

}  // namespace
}  // namespace sprite::apps
