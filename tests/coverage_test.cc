// Focused unit tests for paths the scenario suites exercise only
// incidentally: one-way RPC multicast, pseudo-device registry edges, CPU
// accounting details, gossip aging, stream reference counting, and VM
// release/re-adopt round trips.
#include <gtest/gtest.h>

#include "fs/pdev.h"
#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "vm/vm.h"

namespace sprite {
namespace {

using kern::Cluster;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

TEST(RpcMulticastTest, OneWayRequestReachesEveryServiceNoReplies) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  // Count kLoadShare deliveries via a custom service on each workstation.
  int delivered = 0;
  for (HostId w : cluster.workstations()) {
    cluster.host(w).rpc().register_service(
        rpc::ServiceId::kEcho,
        [&delivered](HostId, const rpc::Request&,
                     std::function<void(rpc::Reply)> respond) {
          ++delivered;
          respond(rpc::Reply{Status::ok(), nullptr});  // sink: goes nowhere
        });
  }
  cluster.net().reset_stats();
  cluster.host(cluster.workstations()[0])
      .rpc()
      .multicast(rpc::ServiceId::kEcho, 0, nullptr);
  cluster.sim().run_until(cluster.sim().now() + Time::msec(50));
  EXPECT_EQ(delivered, 3);  // all workstations except the sender...
  // ...plus the file server has no kEcho service: silently ignored.
  EXPECT_EQ(cluster.net().messages_sent(), 1);  // ONE transmission, no replies
}

TEST(PdevTest, UnregisteredTagFailsAndUnregisterWorks) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  auto& owner = cluster.host(cluster.workstations()[1]);
  const int tag = owner.pdev().register_server(
      [](const fs::Bytes&, std::function<void(util::Result<fs::Bytes>)> r) {
        r(fs::Bytes{});
      });
  cluster.file_server().fs_server()->mkdir_p("/dev");
  ASSERT_TRUE(cluster.file_server()
                  .fs_server()
                  ->create_pdev("/dev/x", owner.id(), tag)
                  .is_ok());

  auto& fs0 = cluster.host(cluster.workstations()[0]).fs();
  fs::StreamPtr s;
  bool opened = false;
  fs0.open("/dev/x", fs::OpenFlags::read_write(),
           [&](util::Result<fs::StreamPtr> r) {
             ASSERT_TRUE(r.is_ok());
             s = *r;
             opened = true;
           });
  cluster.run_until_done([&] { return opened; });

  // Works while registered.
  bool ok1 = false;
  fs0.pdev_call(s, {}, [&](util::Result<fs::Bytes> r) {
    EXPECT_TRUE(r.is_ok());
    ok1 = true;
  });
  cluster.run_until_done([&] { return ok1; });

  // The server process "exits": calls now fail cleanly.
  owner.pdev().unregister_server(tag);
  bool ok2 = false;
  fs0.pdev_call(s, {}, [&](util::Result<fs::Bytes> r) {
    EXPECT_EQ(r.err(), Err::kNoEnt);
    ok2 = true;
  });
  cluster.run_until_done([&] { return ok2; });
}

TEST(CpuAccountingTest, BiasNeverGoesNegativeAndUtilizationIsBounded) {
  sim::Simulator sim;
  sim::Costs costs;
  sim::Cpu cpu(sim, costs);
  cpu.set_load_bias(1.0);
  cpu.set_load_bias(std::max(0.0, cpu.load_bias() - 1.0));
  cpu.set_load_bias(std::max(0.0, cpu.load_bias() - 1.0));
  EXPECT_DOUBLE_EQ(cpu.load_bias(), 0.0);

  cpu.submit(sim::JobClass::kUser, Time::msec(10), [] {});
  sim.run_until(Time::msec(100));
  EXPECT_LE(cpu.utilization(), 1.0);
  EXPECT_NEAR(cpu.utilization(), 0.1, 1e-6);
}

TEST(CpuAccountingTest, CancelReportsRemainingForQueuedAndRunning) {
  sim::Simulator sim;
  sim::Costs costs;
  sim::Cpu cpu(sim, costs);
  auto running = cpu.submit(sim::JobClass::kUser, Time::msec(100), [] {});
  auto queued = cpu.submit(sim::JobClass::kUser, Time::msec(40), [] {});
  sim.run_until(Time::msec(30));
  EXPECT_EQ(cpu.cancel(queued).ms(), 40.0);
  EXPECT_EQ(cpu.cancel(running).ms(), 70.0);
  EXPECT_EQ(cpu.cancel(running).ms(), 0.0);  // already cancelled
}

TEST(GossipAgingTest, StaleEntriesExpireFromVectors) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1});
  ls::Facility facility(cluster, ls::Arch::kProbabilistic);
  cluster.sim().run_until(Time::sec(50));
  const auto ws = cluster.workstations();
  ASSERT_GE(facility.node(ws[0]).load_vector().size(), 3u);

  // Partition one host: its entries age out of everyone's vectors.
  cluster.net().set_host_up(ws[3], false);
  cluster.sim().run_until(cluster.sim().now() +
                          cluster.costs().ls_entry_max_age + Time::sec(5));
  for (int i = 0; i < 3; ++i) {
    const auto& vec = facility.node(ws[static_cast<std::size_t>(i)])
                          .load_vector();
    EXPECT_EQ(vec.count(ws[3]), 0u)
        << "host " << i << " still remembers the partitioned host";
  }
}

TEST(StreamRefCountTest, ServerSeesOneOpenUntilLastLocalCloseAfterFork) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  // A process opens a file, forks; parent and child both close. The server
  // must not underflow its reference counts, and the file must stay
  // consistent throughout (exercised via the final reopen).
  proc::ScriptBuilder b;
  b.act(proc::SysOpen{"/refc", fs::OpenFlags::create_rw()})
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysFork{};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["is_child"] = c.view->is_child ? 1 : 0;
        return proc::SysClose{static_cast<int>(c.locals["fd"])};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        if (c.locals["is_child"]) return proc::Action{proc::SysExit{0}};
        return proc::Action{proc::SysWait{}};
      })
      .act(proc::SysExit{0});
  SPRITE_CHECK(cluster.install_program("/bin/refc", b.image()).is_ok());
  bool spawned = false;
  proc::Pid pid = proc::kInvalidPid;
  cluster.host(cluster.workstations()[0])
      .procs()
      .spawn("/bin/refc", {}, [&](util::Result<proc::Pid> r) {
        pid = *r;
        spawned = true;
      });
  cluster.run_until_done([&] { return spawned; });
  int status = -1;
  bool exited = false;
  cluster.host(cluster.workstations()[0]).procs().notify_on_exit(pid, [&](int s) {
    status = s;
    exited = true;
  });
  cluster.run_until_done([&] { return exited; });
  EXPECT_EQ(status, 0);
  cluster.sim().run_until(cluster.sim().now() + Time::msec(100));

  // A fresh exclusive open from the other host sees a clean, cacheable file.
  bool checked = false;
  cluster.host(cluster.workstations()[1])
      .fs()
      .open("/refc", fs::OpenFlags::write_only(),
            [&](util::Result<fs::StreamPtr> r) {
              ASSERT_TRUE(r.is_ok());
              EXPECT_TRUE((*r)->cacheable);
              checked = true;
            });
  cluster.run_until_done([&] { return checked; });
}

TEST(VmReleaseTest, ReleasedSpaceCanBeReadoptedOnTheSameHost) {
  Cluster cluster({.num_workstations = 1, .num_file_servers = 1});
  cluster.file_server().fs_server()->mkdir_p("/bin");
  ASSERT_TRUE(
      cluster.file_server().fs_server()->create_file("/bin/e", 4 * 4096).is_ok());
  auto& vmm = cluster.host(1).vm();

  vm::SpacePtr sp;
  bool created = false;
  vmm.create_space("/bin/e", 4, 16, 4, [&](util::Result<vm::SpacePtr> r) {
    ASSERT_TRUE(r.is_ok());
    sp = *r;
    created = true;
  });
  cluster.run_until_done([&] { return created; });

  bool touched = false;
  vmm.touch(sp, vm::Segment::kHeap, 0, 16, true, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    touched = true;
  });
  cluster.run_until_done([&] { return touched; });
  bool flushed = false;
  vmm.flush_dirty(sp, [&](Status) { flushed = true; });
  cluster.run_until_done([&] { return flushed; });

  auto desc = vmm.describe(sp);
  bool released = false;
  vmm.release_space(sp, [&](Status) { released = true; });
  cluster.run_until_done([&] { return released; });

  // Swap files survive a release (unlike destroy): re-adoption works and
  // the flushed pages fault back in from backing store.
  vm::SpacePtr again;
  bool adopted = false;
  vmm.adopt_space(desc, [&](util::Result<vm::SpacePtr> r) {
    ASSERT_TRUE(r.is_ok());
    again = *r;
    adopted = true;
  });
  cluster.run_until_done([&] { return adopted; });
  const trace::Registry& tr = cluster.sim().trace();
  const auto in_before = tr.counter_value("vm.page.paged_in", 1);
  vmm.invalidate(again);
  bool refaulted = false;
  vmm.touch(again, vm::Segment::kHeap, 0, 16, false, [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    refaulted = true;
  });
  cluster.run_until_done([&] { return refaulted; });
  EXPECT_EQ(tr.counter_value("vm.page.paged_in", 1) - in_before, 16);
}

TEST(MigrationStatsTest, RecordsAccumulateAcrossMigrations) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1});
  proc::ScriptBuilder b;
  b.compute(Time::sec(20)).exit(0);
  SPRITE_CHECK(cluster.install_program("/bin/mover", b.image()).is_ok());
  bool spawned = false;
  proc::Pid pid = proc::kInvalidPid;
  cluster.host(cluster.workstations()[0])
      .procs()
      .spawn("/bin/mover", {}, [&](util::Result<proc::Pid> r) {
        pid = *r;
        spawned = true;
      });
  cluster.run_until_done([&] { return spawned; });
  cluster.sim().run_until(cluster.sim().now() + Time::msec(100));

  auto migrate_now = [&](HostId from, HostId to) {
    auto pcb = cluster.host(from).procs().find(pid);
    ASSERT_TRUE(pcb != nullptr);
    bool done = false;
    cluster.host(from).mig().migrate(pcb, to, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      done = true;
    });
    cluster.run_until_done([&] { return done; });
  };
  const auto w = cluster.workstations();
  migrate_now(w[0], w[1]);
  migrate_now(w[1], w[2]);
  migrate_now(w[2], w[0]);

  const trace::Registry& tr = cluster.sim().trace();
  EXPECT_EQ(tr.counter_value("mig.out.completed", w[0]), 1);
  EXPECT_EQ(tr.counter_value("mig.in.completed", w[0]), 1);
  EXPECT_EQ(tr.counter_value("mig.out.completed", w[1]), 1);
  EXPECT_EQ(tr.counter_value("mig.in.completed", w[1]), 1);
  EXPECT_EQ(cluster.host(w[2]).mig().records().size(), 1u);
}

TEST(SimulatorHorizonTest, RecurringEventsStopButWorkContinues) {
  sim::Simulator sim;
  sim.set_horizon(Time::sec(5));
  int ticks = 0;
  sim.every(Time::sec(1), [&] { ++ticks; });
  bool late_work = false;
  sim.at(Time::sec(20), [&] { late_work = true; });
  sim.run();
  EXPECT_EQ(ticks, 5);        // recurring stopped at the horizon
  EXPECT_TRUE(late_work);     // one-shot events past the horizon still fire
  EXPECT_EQ(sim.now(), Time::sec(20));
}

}  // namespace
}  // namespace sprite
