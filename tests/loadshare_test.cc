// Tests for load sharing: idle detection, the four host-selection
// architectures, reservation, fairness, flood prevention, and eviction on
// user return.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"

namespace sprite::ls {
namespace {

using kern::Cluster;
using proc::Pid;
using proc::ScriptBuilder;
using sim::HostId;
using sim::Time;
using util::Err;

class LoadShareTest : public ::testing::TestWithParam<Arch> {
 protected:
  LoadShareTest()
      : cluster_({.num_workstations = 6, .num_file_servers = 1}),
        facility_(cluster_, GetParam()) {}

  // Runs the cluster until hosts have warmed up to idleness and the
  // architecture has propagated availability.
  void warm_up(double seconds = 45.0) {
    cluster_.sim().run_until(cluster_.sim().now() + Time::sec(seconds));
  }

  std::vector<HostId> request(int from_ws, int n) {
    std::vector<HostId> out;
    bool done = false;
    facility_.selector(ws(from_ws)).request_hosts(n, [&](std::vector<HostId> h) {
      out = std::move(h);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  void release(int from_ws, HostId h) {
    facility_.selector(ws(from_ws)).release_host(h);
    cluster_.sim().run_until(cluster_.sim().now() + Time::msec(200));
  }

  HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }

  Cluster cluster_;
  Facility facility_;
};

TEST_P(LoadShareTest, FreshHostsBecomeIdleAfterThreshold) {
  EXPECT_FALSE(facility_.node(ws(0)).is_idle());  // input threshold not met
  warm_up();
  EXPECT_TRUE(facility_.node(ws(0)).is_idle());
  EXPECT_EQ(facility_.idle_count(), 6);
}

TEST_P(LoadShareTest, TypingMakesHostNotIdle) {
  warm_up();
  cluster_.host(ws(0)).note_user_input();
  EXPECT_FALSE(facility_.node(ws(0)).is_idle());
  EXPECT_TRUE(facility_.node(ws(1)).is_idle());
}

TEST_P(LoadShareTest, CpuLoadMakesHostNotIdle) {
  ScriptBuilder b;
  b.compute(Time::sec(300)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/hog", b.image()).is_ok());
  bool spawned = false;
  cluster_.host(ws(0)).procs().spawn("/bin/hog", {},
                                     [&](util::Result<Pid>) { spawned = true; });
  cluster_.run_until_done([&] { return spawned; });
  warm_up();
  EXPECT_FALSE(facility_.node(ws(0)).is_idle());
  EXPECT_TRUE(facility_.node(ws(1)).is_idle());
}

TEST_P(LoadShareTest, RequestGrantsOnlyActuallyIdleHosts) {
  warm_up();
  auto hosts = request(0, 2);
  ASSERT_GE(hosts.size(), 1u);
  for (HostId h : hosts) {
    EXPECT_NE(h, ws(0));  // never granted itself
  }
  EXPECT_EQ(cluster_.sim().trace().counter_total("ls.select.bad_grant"), 0);
}

TEST_P(LoadShareTest, GrantedHostNotGrantedAgainUntilReleased) {
  warm_up();
  auto first = request(0, 1);
  ASSERT_EQ(first.size(), 1u);
  // Collect everything another requester can get: the granted host must not
  // be among it.
  auto rest = request(1, 10);
  for (HostId h : rest) EXPECT_NE(h, first[0]);

  for (HostId h : rest) release(1, h);
  release(0, first[0]);
  warm_up(20);
  // Ask from a third workstation (a requester is never granted its own
  // machine, and first[0] may be requester 1's machine).
  auto again = request(2, 10);
  bool found = false;
  for (HostId h : again) found |= (h == first[0]);
  EXPECT_TRUE(found) << "released host should be grantable again";
}

TEST_P(LoadShareTest, NoIdleHostsMeansEmptyGrant) {
  // Every workstation's user is typing.
  warm_up();
  for (int i = 0; i < 6; ++i) cluster_.host(ws(i)).note_user_input();
  // Give state time to propagate (announcements, gossip, load file).
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(6));
  auto hosts = request(0, 3);
  EXPECT_TRUE(hosts.empty());
}

TEST_P(LoadShareTest, UserReturnEvictsForeignProcesses) {
  warm_up();
  // Put a long-running process from ws0 onto an idle host.
  ScriptBuilder b;
  b.compute(Time::sec(600)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/guest", b.image()).is_ok());
  bool spawned = false;
  Pid pid = proc::kInvalidPid;
  cluster_.host(ws(0)).procs().spawn("/bin/guest", {},
                                     [&](util::Result<Pid> r) {
                                       pid = *r;
                                       spawned = true;
                                     });
  cluster_.run_until_done([&] { return spawned; });

  auto hosts = request(0, 1);
  ASSERT_EQ(hosts.size(), 1u);
  const HostId target = hosts[0];
  auto pcb = cluster_.host(ws(0)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  util::Status st(Err::kAgain);
  bool done = false;
  cluster_.host(ws(0)).mig().migrate(pcb, target, [&](util::Status s) {
    st = s;
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  ASSERT_TRUE(st.is_ok());
  ASSERT_EQ(cluster_.host(target).procs().foreign_processes().size(), 1u);

  // The owner comes back: the foreign process must be evicted home.
  cluster_.host(target).note_user_input();
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(5));
  EXPECT_TRUE(cluster_.host(target).procs().foreign_processes().empty());
  auto home_pcb = cluster_.host(ws(0)).procs().find(pid);
  ASSERT_TRUE(home_pcb != nullptr);
  EXPECT_FALSE(home_pcb->foreign());
  EXPECT_GE(
      cluster_.sim().trace().counter_value("ls.eviction.triggered", target),
      1);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, LoadShareTest,
    ::testing::Values(Arch::kCentral, Arch::kSharedFile, Arch::kProbabilistic,
                      Arch::kMulticast),
    [](const ::testing::TestParamInfo<Arch>& info) {
      std::string n = arch_name(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// ---- Architecture-specific behaviours ----

TEST(CentralTest, SelectAndReleaseNearCalibration) {
  // E5: select + release an idle host through migd ~56 ms.
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  Facility facility(cluster, Arch::kCentral);
  cluster.sim().run_until(Time::sec(45));

  HostId target = sim::kInvalidHost;
  // Warm the pdev stream first (the one-time open is not part of the
  // steady-state cost the thesis reports).
  {
    bool done = false;
    facility.selector(cluster.workstations()[0])
        .request_hosts(1, [&](std::vector<HostId> h) {
          ASSERT_EQ(h.size(), 1u);
          target = h[0];
          done = true;
        });
    cluster.run_until_done([&] { return done; });
    facility.selector(cluster.workstations()[0]).release_host(target);
    cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  }

  const Time start = cluster.sim().now();
  bool done = false;
  facility.selector(cluster.workstations()[0])
      .request_hosts(1, [&](std::vector<HostId> h) {
        ASSERT_EQ(h.size(), 1u);
        facility.selector(cluster.workstations()[0]).release_host(h[0]);
        done = true;
      });
  cluster.run_until_done([&] { return done; });
  // Wait for the release transaction to finish too.
  cluster.sim().run_until(cluster.sim().now() + Time::msec(60));
  const double ms = (cluster.sim().now() - start).ms();
  EXPECT_GT(ms, 35.0);
  EXPECT_LT(ms, 110.0);
}

TEST(CentralTest, FairAllocationUnderContention) {
  Cluster cluster({.num_workstations = 8, .num_file_servers = 1});
  Facility facility(cluster, Arch::kCentral);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  // Requester A grabs everything first; when B arrives, the daemon must
  // recall part of A's allocation rather than starve B (cooperative recall).
  std::vector<HostId> got_a, got_b;
  bool da = false, db = false;
  facility.selector(w[0]).request_hosts(10, [&](std::vector<HostId> h) {
    got_a = std::move(h);
    da = true;
  });
  cluster.run_until_done([&] { return da; });
  EXPECT_GE(got_a.size(), 6u);  // A holds nearly everything

  facility.selector(w[1]).request_hosts(10, [&](std::vector<HostId> h) {
    got_b = std::move(h);
    db = true;
  });
  cluster.run_until_done([&] { return db; });
  EXPECT_GE(got_b.size(), 2u) << "B must not be starved";

  // A polls again and learns which hosts were recalled.
  bool da2 = false;
  facility.selector(w[0]).request_hosts(0, [&](std::vector<HostId>) {
    da2 = true;
  });
  cluster.run_until_done([&] { return da2; });
  auto* sel_a = static_cast<CentralSelector*>(&facility.selector(w[0]));
  const auto revoked = sel_a->take_revoked();
  // Everything recalled from A went to B (B may also have received hosts
  // that were never A's, e.g. A's own idle workstation).
  EXPECT_GE(revoked.size(), 1u);
  EXPECT_LE(revoked.size(), got_b.size());
  for (HostId r : revoked)
    EXPECT_NE(std::find(got_b.begin(), got_b.end(), r), got_b.end());

  // After honouring the recall, effective holdings are disjoint.
  std::set<HostId> a_effective(got_a.begin(), got_a.end());
  for (HostId h : revoked) a_effective.erase(h);
  for (HostId b : got_b) EXPECT_EQ(a_effective.count(b), 0u);
}

TEST(ProbabilisticTest, StaleVectorCausesRefusedReservations) {
  Cluster cluster({.num_workstations = 5, .num_file_servers = 1});
  Facility facility(cluster, Arch::kProbabilistic);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  // All hosts look idle in everyone's vector. Suddenly make one busy; until
  // gossip catches up, a requester may pick it and get refused.
  ASSERT_FALSE(facility.node(w[0]).load_vector().empty());
  cluster.host(w[1]).note_user_input();  // now busy, vectors stale

  bool done = false;
  std::vector<HostId> got;
  facility.selector(w[0]).request_hosts(4, [&](std::vector<HostId> h) {
    got = std::move(h);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  for (HostId h : got) EXPECT_NE(h, w[1]);  // the busy host refused
  EXPECT_GE(cluster.sim().trace().counter_value("ls.select.bad_grant", w[0]),
            1);
}

TEST(MulticastTest, ConcurrentRequestersNeverShareAHost) {
  Cluster cluster({.num_workstations = 6, .num_file_servers = 1});
  Facility facility(cluster, Arch::kMulticast);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  std::vector<HostId> got_a, got_b;
  bool da = false, db = false;
  facility.selector(w[0]).request_hosts(3, [&](std::vector<HostId> h) {
    got_a = std::move(h);
    da = true;
  });
  facility.selector(w[1]).request_hosts(3, [&](std::vector<HostId> h) {
    got_b = std::move(h);
    db = true;
  });
  cluster.run_until_done([&] { return da && db; });
  EXPECT_GE(got_a.size() + got_b.size(), 3u);
  for (HostId a : got_a)
    for (HostId b : got_b) EXPECT_NE(a, b);  // reservation arbitrates
}

TEST(MulticastTest, QueryCostsOneTransmissionPlusOffers) {
  Cluster cluster({.num_workstations = 6, .num_file_servers = 1});
  Facility facility(cluster, Arch::kMulticast);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  cluster.net().reset_stats();
  bool done = false;
  facility.selector(w[0]).request_hosts(1, [&](std::vector<HostId> h) {
    EXPECT_EQ(h.size(), 1u);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  // 1 multicast + 5 offers + 1 reserve round trip (+ offer acks); far fewer
  // than a per-host poll would need, but every host received the query.
  EXPECT_LT(cluster.net().messages_sent(), 20);
  EXPECT_GE(cluster.net().messages_sent(), 7);
}

TEST(FloodPreventionTest, ReservationAddsAnticipatedLoad) {
  // MOSIX-style flood prevention: a reserved host reports itself busier
  // before the migrated work arrives, so other selectors skip it even
  // though its measured load is still zero.
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  Facility facility(cluster, Arch::kProbabilistic);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  auto& node = facility.node(w[2]);
  ASSERT_TRUE(node.is_idle());
  ASSERT_TRUE(node.try_reserve(w[0]).is_ok());
  // The bias pushes the advertised load over the idle threshold.
  EXPECT_GE(cluster.host(w[2]).cpu().load_average(),
            cluster.costs().idle_load_threshold);
  EXPECT_FALSE(node.is_idle());
  // A second reservation is refused outright.
  EXPECT_EQ(node.try_reserve(w[1]).err(), Err::kBusy);

  // Releasing removes the anticipation; idleness returns.
  node.release(w[0]);
  EXPECT_TRUE(node.is_idle());
}

TEST(SharedFileTest, ClaimsArbitrateSequentialRequesters) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  Facility facility(cluster, Arch::kSharedFile);
  cluster.sim().run_until(Time::sec(45));
  const auto w = cluster.workstations();

  bool d1 = false;
  std::vector<HostId> got1;
  facility.selector(w[0]).request_hosts(1, [&](std::vector<HostId> h) {
    got1 = std::move(h);
    d1 = true;
  });
  cluster.run_until_done([&] { return d1; });
  ASSERT_EQ(got1.size(), 1u);

  bool d2 = false;
  std::vector<HostId> got2;
  facility.selector(w[1]).request_hosts(3, [&](std::vector<HostId> h) {
    got2 = std::move(h);
    d2 = true;
  });
  cluster.run_until_done([&] { return d2; });
  for (HostId h : got2) EXPECT_NE(h, got1[0]);
}

TEST(SharedFileTest, SelectionIsSlowerThanCentral) {
  // The thesis's complaint: shared-file selection does several uncacheable
  // file operations per request.
  Cluster c1({.num_workstations = 6, .num_file_servers = 1});
  Facility f1(c1, Arch::kSharedFile);
  c1.sim().run_until(Time::sec(45));
  bool done = false;
  const Time s1 = c1.sim().now();
  f1.selector(c1.workstations()[0]).request_hosts(1, [&](std::vector<HostId> h) {
    EXPECT_EQ(h.size(), 1u);
    done = true;
  });
  c1.run_until_done([&] { return done; });
  const double shared_ms = (c1.sim().now() - s1).ms();

  // Shared-file requests do a multi-record read plus claim write + verify
  // read on an uncacheable file: multiple server round trips.
  EXPECT_GT(shared_ms, 5.0);
}

}  // namespace
}  // namespace sprite::ls
