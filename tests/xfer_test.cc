// Tests for the live-transfer engine (src/xfer/): iterative pre-copy
// convergence, content-addressed dedup + determinism, the post-copy push
// drain, and the crash matrix entries the stage observers cannot reach
// (mid-round and mid-push crashes).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kern/cluster.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "xfer/engine.h"

namespace sprite::mig {
namespace {

using kern::Cluster;
using proc::Pid;
using proc::ScriptBuilder;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class XferTest : public ::testing::Test {
 protected:
  XferTest() : cluster_({.num_workstations = 4, .num_file_servers = 1}) {}

  Pid spawn_installed(int i, const std::string& path) {
    util::Result<Pid> out(Err::kAgain);
    bool done = false;
    cluster_.host(ws(i)).procs().spawn(path, {}, [&](util::Result<Pid> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : proc::kInvalidPid;
  }

  // Spawns a process that dirties `pages` heap pages (after faulting its
  // text in, so content IDs have something shareable) then sleeps forever.
  Pid spawn_dirty(int wsi, std::int64_t pages, const std::string& name,
                  std::int64_t code_pages = 16) {
    ScriptBuilder b;
    b.act(proc::Touch{vm::Segment::kCode, 0, code_pages, false})
        .act(proc::Touch{vm::Segment::kHeap, 0, pages, true})
        .act(proc::Pause{Time::hours(2)})
        .act(proc::SysExit{0});
    proc::ProgramImage img = b.image(code_pages, pages, 4);
    SPRITE_CHECK(cluster_.install_program("/bin/" + name, img).is_ok());
    const Pid pid = spawn_installed(wsi, "/bin/" + name);
    cluster_.sim().run_until(cluster_.sim().now() + Time::sec(5));
    auto pcb = cluster_.host(ws(wsi)).procs().find(pid);
    SPRITE_CHECK(pcb && pcb->paused);
    return pid;
  }

  Status migrate_now(int from_ws, Pid pid, int to_ws) {
    auto pcb = cluster_.host(ws(from_ws)).procs().find(pid);
    SPRITE_CHECK(pcb != nullptr);
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(ws(from_ws)).mig().migrate(pcb, ws(to_ws),
                                             [&](Status s) {
                                               out = s;
                                               done = true;
                                             });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }

  Cluster cluster_;
};

// ---- Iterative pre-copy ----

TEST_F(XferTest, IterPreCopyRoundsAreMonotoneNonIncreasingWhenQuiescent) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kIterPreCopy);
  const Pid pid = spawn_dirty(0, 256, "iterq");
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  const auto& rec = cluster_.host(ws(0)).mig().last_record();

  // The resend set can only shrink on a quiescent process: round 0 ships
  // the resident image, every later round only what the previous round's
  // duration let the process dirty — here, nothing.
  ASSERT_GE(rec.round_pages.size(), 2u);  // at least one round + final set
  for (std::size_t i = 1; i < rec.round_pages.size(); ++i)
    EXPECT_LE(rec.round_pages[i], rec.round_pages[i - 1])
        << "resend set grew at round " << i;
  EXPECT_GE(rec.round_pages.front(), 256);
  EXPECT_EQ(rec.round_pages.back(), 0);  // frozen copy had nothing left
  EXPECT_GE(rec.precopy_rounds, 1);
  EXPECT_GT(rec.bytes_on_wire, 256 * 4096);
}

// ---- Content-addressed transfer ----

TEST_F(XferTest, SecondMigrationOfSameTextDedupsAgainstTargetCache) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kContentAddr);
  const std::int64_t code = 128;
  const Pid p1 = spawn_dirty(0, 32, "farm", code);
  const Pid p2 = spawn_installed(0, "/bin/farm");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(5));

  ASSERT_TRUE(migrate_now(0, p1, 1).is_ok());
  const MigrationRecord first = cluster_.host(ws(0)).mig().last_record();
  ASSERT_TRUE(migrate_now(0, p2, 1).is_ok());
  const MigrationRecord second = cluster_.host(ws(0)).mig().last_record();

  // The text crossed the wire with p1; p2's copy resolves to cache hits at
  // the target and travels as short references.
  EXPECT_GE(second.pages_deduped, code);
  EXPECT_LT(second.bytes_on_wire, first.bytes_on_wire);
  EXPECT_GE(cluster_.sim().trace().counter_total("xfer.ref.sent"), 1);
}

// Same seed, same script => byte-identical metrics snapshots, including
// every xfer.* counter: the dedup cache, round accounting, and wire-cost
// bookkeeping must not depend on anything but the simulation.
TEST(XferDeterminismTest, SameSeedYieldsByteIdenticalXferMetrics) {
  auto run = [](const std::string& out_path) {
    Cluster cluster({.num_workstations = 3, .num_file_servers = 1,
                     .seed = 77});
    ScriptBuilder b;
    b.act(proc::Touch{vm::Segment::kCode, 0, 64, false})
        .act(proc::Touch{vm::Segment::kHeap, 0, 128, true})
        .act(proc::Pause{Time::hours(1)})
        .act(proc::SysExit{0});
    SPRITE_CHECK(
        cluster.install_program("/bin/det", b.image(64, 128, 4)).is_ok());
    const auto wss = cluster.workstations();
    for (const VmStrategy strategy :
         {VmStrategy::kContentAddr, VmStrategy::kIterPreCopy,
          VmStrategy::kPostCopy}) {
      util::Result<Pid> spawned(Err::kAgain);
      bool spawn_done = false;
      cluster.host(wss[0]).procs().spawn("/bin/det", {},
                                         [&](util::Result<Pid> r) {
                                           spawned = std::move(r);
                                           spawn_done = true;
                                         });
      cluster.run_until_done([&] { return spawn_done; });
      ASSERT_TRUE(spawned.is_ok());
      cluster.sim().run_until(cluster.sim().now() + Time::sec(3));
      cluster.host(wss[0]).mig().set_strategy(strategy);
      auto pcb = cluster.host(wss[0]).procs().find(*spawned);
      ASSERT_TRUE(pcb != nullptr);
      Status st(Err::kAgain);
      bool done = false;
      cluster.host(wss[0]).mig().migrate(pcb, wss[1], [&](Status s) {
        st = s;
        done = true;
      });
      cluster.run_until_done([&] { return done; });
      ASSERT_TRUE(st.is_ok()) << st.to_string();
    }
    cluster.sim().run_until(cluster.sim().now() + Time::sec(10));
    ASSERT_TRUE(cluster.sim().trace().write_metrics_json(out_path).is_ok());
  };

  const std::string a = ::testing::TempDir() + "/xfer_det_a.json";
  const std::string b = ::testing::TempDir() + "/xfer_det_b.json";
  run(a);
  run(b);
  const std::string sa = slurp(a), sb = slurp(b);
  ASSERT_FALSE(sa.empty());
  EXPECT_TRUE(sa.find("xfer.page.sent") != std::string::npos);
  EXPECT_TRUE(sa.find("xfer.page.deduped") != std::string::npos);
  EXPECT_EQ(sa, sb) << "same-seed runs diverged";
}

// ---- Post-copy ----

TEST_F(XferTest, PostCopyPushDrainsResidualsWithoutTargetFaults) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kPostCopy);
  const Pid pid = spawn_dirty(0, 256, "posty");
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  // Freeze covered only the page tables.
  EXPECT_EQ(rec.pages_moved, 0);
  EXPECT_LT(rec.freeze_time().ms(), 120.0);
  // Resume leaves a residual image behind...
  EXPECT_EQ(cluster_.host(ws(0)).mig().residual_spaces(), 1u);

  // ...which the background push drains with the process fast asleep.
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(10));
  EXPECT_GE(cluster_.sim().trace().counter_total("xfer.postcopy.drained"), 1);
  EXPECT_EQ(cluster_.host(ws(0)).mig().xfer().active_pushes(), 0u);
  EXPECT_EQ(cluster_.host(ws(1)).mig().xfer().active_incoming(), 0u);
  EXPECT_EQ(cluster_.host(ws(0)).mig().residual_spaces(), 0u);
  auto pcb = cluster_.host(ws(1)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr && pcb->space != nullptr);
  for (const auto seg : vm::kAllSegments)
    EXPECT_EQ(pcb->space->segment(seg).remote_pages(), 0)
        << "undrained pages in segment " << static_cast<int>(seg);

  // A drained process has no residual dependency left on the source. ws0
  // is also the home host, so crashing it still kills the process — but
  // the kill must come from the home-host rule, not from a lingering
  // copy-on-reference source dependency.
  cluster_.crash_host(ws(0));
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(60));
  const trace::Registry& tr = cluster_.sim().trace();
  EXPECT_EQ(tr.counter_total("mig.cor.killed_source_crash"), 0);
  EXPECT_GE(tr.counter_total("proc.process.killed_home_crash"), 1);
}

// ---- Crash matrix: the stages only the engine can reach ----

// A process that computes long enough to migrate mid-run, then exits 7.
Pid spawn_worker(Cluster& cluster, HostId where, const std::string& name) {
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .compute(Time::sec(30))
      .act(proc::SysExit{7});
  SPRITE_CHECK(
      cluster.install_program("/bin/" + name, b.image(16, 64, 4)).is_ok());
  util::Result<Pid> spawned(Err::kAgain);
  bool done = false;
  cluster.host(where).procs().spawn("/bin/" + name, {},
                                    [&](util::Result<Pid> r) {
                                      spawned = std::move(r);
                                      done = true;
                                    });
  cluster.run_until_done([&] { return done; });
  SPRITE_CHECK(spawned.is_ok());
  return *spawned;
}

void expect_converged(Cluster& cluster, Pid pid) {
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h) {
    EXPECT_FALSE(cluster.host_crashed(h)) << "host " << h << " still down";
    EXPECT_EQ(cluster.host(h).mig().active_migrations(), 0u)
        << "half-open migration on host " << h;
    EXPECT_EQ(cluster.host(h).mig().residual_spaces(), 0u)
        << "leaked residual image on host " << h;
    EXPECT_EQ(cluster.host(h).mig().xfer().active_pushes(), 0u)
        << "leaked push session on host " << h;
    EXPECT_EQ(cluster.host(h).mig().xfer().active_incoming(), 0u)
        << "leaked incoming session on host " << h;
    for (const auto& p : cluster.host(h).procs().local_processes())
      EXPECT_NE(p->state, proc::ProcState::kFrozen)
          << "pid " << p->pid << " frozen forever on host " << h;
  }
  // At most one live copy anywhere.
  int alive = 0;
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h)
    if (cluster.host(h).procs().find(pid) != nullptr) ++alive;
  EXPECT_LE(alive, 1) << "duplicated incarnation";
}

TEST(XferCrashTest, SourceCrashMidPreCopyRoundKillsCleanly) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = 5});
  const auto wss = cluster.workstations();
  const Pid pid = spawn_worker(cluster, wss[1], "midround");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  cluster.host(wss[1]).mig().set_strategy(VmStrategy::kIterPreCopy);
  bool crash_fired = false;
  cluster.host(wss[1]).mig().add_stage_observer(
      [&](Pid p, MigStage s) {
        if (p != pid || s != MigStage::kXferRound || crash_fired) return;
        crash_fired = true;
        cluster.crash_host(wss[1]);
        cluster.sim().after(Time::sec(2),
                            [&cluster, &wss] { cluster.reboot_host(wss[1]); });
      });

  auto pcb = cluster.host(wss[1]).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  bool mig_done = false;
  cluster.host(wss[1]).mig().migrate(pcb, wss[2],
                                     [&](Status) { mig_done = true; });
  cluster.sim().run_until(cluster.sim().now() + Time::sec(60));

  EXPECT_TRUE(crash_fired) << "migration never reached a pre-copy round";
  expect_converged(cluster, pid);
  // The process lived on the crashed source and had not resumed anywhere:
  // it died with the host, and nothing of it survives on the target.
  EXPECT_EQ(cluster.host(wss[2]).procs().find(pid), nullptr);
  EXPECT_FALSE(cluster.host(wss[1]).procs().home_record_alive(pid));
  (void)mig_done;  // the callback may be dropped by the crash itself
}

TEST(XferCrashTest, TargetCrashMidPreCopyRoundRollsBack) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = 6});
  const auto wss = cluster.workstations();
  const Pid pid = spawn_worker(cluster, wss[1], "midround2");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  bool exited = false;
  int exit_status = -1;
  cluster.host(wss[1]).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  cluster.host(wss[1]).mig().set_strategy(VmStrategy::kIterPreCopy);
  bool crash_fired = false;
  cluster.host(wss[1]).mig().add_stage_observer(
      [&](Pid p, MigStage s) {
        if (p != pid || s != MigStage::kXferRound || crash_fired) return;
        crash_fired = true;
        cluster.crash_host(wss[2]);
        cluster.sim().after(Time::sec(2),
                            [&cluster, &wss] { cluster.reboot_host(wss[2]); });
      });

  auto pcb = cluster.host(wss[1]).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  Status mig_status(Err::kAgain);
  bool mig_done = false;
  cluster.host(wss[1]).mig().migrate(pcb, wss[2], [&](Status s) {
    mig_status = s;
    mig_done = true;
  });
  cluster.sim().run_until(cluster.sim().now() + Time::sec(90));

  EXPECT_TRUE(crash_fired) << "migration never reached a pre-copy round";
  // Pre-copy rounds run before the freeze, so the rollback is cheap: the
  // migrate call fails and the process finishes where it was.
  EXPECT_TRUE(mig_done);
  EXPECT_FALSE(mig_status.is_ok());
  EXPECT_TRUE(exited);
  EXPECT_EQ(exit_status, 7);
  expect_converged(cluster, pid);
}

TEST(XferCrashTest, SourceCrashDuringPostCopyPushKillsDependents) {
  Cluster cluster({.num_workstations = 4, .num_file_servers = 1, .seed = 7});
  const auto wss = cluster.workstations();
  const Pid pid = spawn_worker(cluster, wss[1], "midpush");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  cluster.host(wss[1]).mig().set_strategy(VmStrategy::kPostCopy);
  // Pushes outlive the migration pipeline; hook the engine, not the stages.
  bool crash_fired = false;
  cluster.host(wss[1]).mig().xfer().add_observer(
      [&](std::int64_t, xfer::Engine::Event e) {
        if (e != xfer::Engine::Event::kPushSent || crash_fired) return;
        crash_fired = true;
        cluster.sim().after(Time::zero(), [&cluster, &wss] {
          cluster.crash_host(wss[1]);
          cluster.sim().after(Time::sec(2), [&cluster, &wss] {
            cluster.reboot_host(wss[1]);
          });
        });
      });

  auto pcb = cluster.host(wss[1]).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  Status mig_status(Err::kAgain);
  bool mig_done = false;
  cluster.host(wss[1]).mig().migrate(pcb, wss[2], [&](Status s) {
    mig_status = s;
    mig_done = true;
  });
  cluster.sim().run_until(cluster.sim().now() + Time::sec(60));

  ASSERT_TRUE(mig_done);
  EXPECT_TRUE(mig_status.is_ok()) << mig_status.to_string();
  EXPECT_TRUE(crash_fired) << "the push daemon never sent a page";
  // The source died mid-drain, so the target's copy still had unreachable
  // remote pages: the residual-dependency kill must have fired, and both
  // ends must be clean afterwards — no lost pages served from a dead host,
  // no duplicated incarnation.
  EXPECT_EQ(cluster.host(wss[2]).procs().find(pid), nullptr)
      << "process survived with unpullable remote pages";
  expect_converged(cluster, pid);
  EXPECT_FALSE(cluster.host(wss[1]).procs().home_record_alive(pid));
}

}  // namespace
}  // namespace sprite::mig
