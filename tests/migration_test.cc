// Tests for the migration mechanism: exec-time and active migration, pid and
// stream preservation, transparency of forwarded calls, the four VM transfer
// strategies, version skew, eligibility, and eviction.
#include <gtest/gtest.h>

#include <string>

#include "kern/cluster.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"

namespace sprite::mig {
namespace {

using kern::Cluster;
using proc::Action;
using proc::Pid;
using proc::ScriptBuilder;
using proc::ScriptProgram;
using sim::Time;
using util::Err;

std::string to_string(const fs::Bytes& b) {
  return std::string(b.begin(), b.end());
}
fs::Bytes make_bytes(const std::string& s) {
  return fs::Bytes(s.begin(), s.end());
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : cluster_({.num_workstations = 4, .num_file_servers = 1}) {}

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

  int wait_exit(int home_ws, Pid pid) {
    int status = -1;
    bool done = false;
    cluster_.host(ws(home_ws)).procs().notify_on_exit(pid, [&](int s) {
      status = s;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return status;
  }

  // Directly migrates `pid` (currently on host `from_ws`) to `to_ws`.
  util::Status migrate_now(int from_ws, Pid pid, int to_ws) {
    auto pcb = cluster_.host(ws(from_ws)).procs().find(pid);
    SPRITE_CHECK(pcb != nullptr);
    util::Status out(Err::kAgain);
    bool done = false;
    cluster_.host(ws(from_ws)).mig().migrate(pcb, ws(to_ws),
                                             [&](util::Status s) {
                                               out = s;
                                               done = true;
                                             });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  std::string read_file(const std::string& path) {
    auto st = cluster_.file_server().fs_server()->stat_path(path);
    if (!st.is_ok()) return "<missing>";
    auto data = cluster_.file_server().fs_server()->read_direct(
        st->id, 0, st->size);
    return data.is_ok() ? to_string(*data) : "<error>";
  }

  sim::HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }

  Cluster cluster_;
};

// A program that migrates itself at exec time (pmake's remote-exec pattern):
// migrate-self deferred, exec /bin/remotework, which writes its identity to
// /out and exits.
void install_remote_work(Cluster& cluster) {
  ScriptBuilder work;
  work.act(proc::SysGetPid{})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["pid"] = c.view->rv;
        return proc::SysGetHostName{};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.locals["hn"] = 1;
        c.note("host=" + c.view->text);
        return proc::SysOpen{"/out", fs::OpenFlags::create_rw()};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.locals["out"] = c.view->rv;
        const std::string line = "pid=" + std::to_string(c.locals["pid"]) +
                                 " " + c.trace.back();
        return proc::SysWrite{static_cast<int>(c.locals["out"]),
                              make_bytes(line), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return proc::SysFsync{static_cast<int>(c.locals["out"])};
      })
      .act(proc::SysExit{0});
  SPRITE_CHECK(
      cluster.install_program("/bin/remotework", work.image()).is_ok());
}

TEST_F(MigrationTest, ExecTimeMigrationRunsOnTargetKeepsIdentity) {
  install_remote_work(cluster_);
  ScriptBuilder launcher;
  launcher.act(proc::SysMigrateSelf{.target = sim::kInvalidHost})  // patched
      .act(proc::SysExec{"/bin/remotework", {}});
  // Patch in the concrete target.
  ScriptBuilder launcher2;
  const sim::HostId target = ws(2);
  launcher2.act(proc::SysMigrateSelf{.target = target, .at_exec = true})
      .act(proc::SysExec{"/bin/remotework", {}});
  SPRITE_CHECK(
      cluster_.install_program("/bin/launcher", launcher2.image()).is_ok());

  const Pid pid = spawn_installed(0, "/bin/launcher");
  EXPECT_EQ(wait_exit(0, pid), 0);

  // Identity was preserved: same pid, and gethostname reported the HOME
  // machine even though the work ran on the target.
  const std::string out = read_file("/out");
  EXPECT_EQ(out, "pid=" + std::to_string(pid) +
                     " host=" + cluster_.host(ws(0)).name());

  // The work really did run on the target host.
  const trace::Registry& tr = cluster_.sim().trace();
  EXPECT_EQ(tr.counter_value("mig.in.completed", target), 1);
  EXPECT_EQ(tr.counter_value("mig.out.completed", ws(0)), 1);
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  EXPECT_TRUE(rec.exec_time);
  EXPECT_EQ(rec.pages_moved, 0);
  EXPECT_EQ(rec.pages_flushed, 0);
}

TEST_F(MigrationTest, NullExecTimeMigrationCostNearCalibration) {
  // E1 headline: exec-time migration of a trivial process ~76 ms.
  install_remote_work(cluster_);
  ScriptBuilder launcher;
  launcher.act(proc::SysMigrateSelf{.target = ws(1), .at_exec = true})
      .act(proc::SysExec{"/bin/remotework", {}});
  SPRITE_CHECK(
      cluster_.install_program("/bin/nullmig", launcher.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/nullmig");
  EXPECT_EQ(wait_exit(0, pid), 0);
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  const double ms = rec.total_time().ms();
  EXPECT_GT(ms, 40.0);
  EXPECT_LT(ms, 120.0);
}

TEST_F(MigrationTest, ActiveMigrationCarriesRemainingCompute) {
  ScriptBuilder b;
  b.compute(Time::sec(2)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/burn", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/burn");

  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(500));
  EXPECT_TRUE(migrate_now(0, pid, 1).is_ok());
  EXPECT_EQ(wait_exit(0, pid), 0);

  // ~0.5 s ran on the source, ~1.5 s on the target.
  EXPECT_GT(cluster_.host(ws(1)).cpu().busy_time(sim::JobClass::kUser).s(),
            1.3);
  // Home record followed the process and then its death.
  EXPECT_FALSE(cluster_.host(ws(0)).procs().home_record_alive(pid));
}

TEST_F(MigrationTest, MigratedProcessKeepsOpenStreamOffset) {
  ScriptBuilder b;
  b.act(proc::SysOpen{"/streamfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("first-"), 0};
      })
      .act(proc::Pause{Time::sec(1)})  // migration happens here
      .step([](ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("second"), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return proc::SysFsync{static_cast<int>(c.locals["fd"])};
      })
      .act(proc::SysExit{0});
  SPRITE_CHECK(cluster_.install_program("/bin/streamer", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/streamer");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(300));
  EXPECT_TRUE(migrate_now(0, pid, 2).is_ok());
  EXPECT_EQ(wait_exit(0, pid), 0);
  EXPECT_EQ(read_file("/streamfile"), "first-second");
  EXPECT_EQ(cluster_.host(ws(0)).mig().last_record().streams_moved, 1);
}

TEST_F(MigrationTest, TransparencyTraceIdenticalWithAndWithoutMigration) {
  // The observable behaviour of a program (file contents it produces from
  // its identity and data it reads) must be identical whether or not it
  // migrated mid-run.
  auto build = [](const std::string& outfile) {
    ScriptBuilder b;
    b.act(proc::SysOpen{"/input", fs::OpenFlags::read_only()})
        .step([](ScriptProgram::Ctx& c) {
          c.locals["in"] = c.view->rv;
          return proc::SysRead{static_cast<int>(c.locals["in"]), 16};
        })
        .step([](ScriptProgram::Ctx& c) {
          c.note(std::string(c.view->data.begin(), c.view->data.end()));
          return proc::SysGetPid{};
        })
        .act(proc::Pause{Time::sec(1)})  // migration point
        // Name-space calls after the move run against the same file
        // server and must report the same results.
        .act(proc::SysMkdir{outfile + ".d"})
        .step([](ScriptProgram::Ctx& c) {
          c.note("mkdir " + c.view->status.to_string());
          return proc::SysStat{"/input"};
        })
        .step([outfile](ScriptProgram::Ctx& c) {
          c.note("stat " + c.view->status.to_string() + " " +
                 std::to_string(c.view->rv));
          return proc::SysUnlink{outfile + ".d"};
        })
        .step([](ScriptProgram::Ctx& c) {
          c.note("unlink " + c.view->status.to_string());
          return proc::SysGetHostName{};
        })
        .step([outfile](ScriptProgram::Ctx& c) {
          c.note(c.view->text);
          return proc::SysOpen{outfile, fs::OpenFlags::create_rw()};
        })
        .step([](ScriptProgram::Ctx& c) {
          c.locals["out"] = c.view->rv;
          std::string all;
          for (const auto& t : c.trace) all += t + ";";
          return proc::SysWrite{static_cast<int>(c.locals["out"]),
                                make_bytes(all), 0};
        })
        .step([](ScriptProgram::Ctx& c) {
          return proc::SysFsync{static_cast<int>(c.locals["out"])};
        })
        .act(proc::SysExit{0});
    return b;
  };

  cluster_.file_server().fs_server()->create_file("/input", 0);
  // Seed input content.
  {
    bool done = false;
    cluster_.host(ws(3)).fs().open(
        "/input", fs::OpenFlags::write_only(),
        [&](util::Result<fs::StreamPtr> r) {
          ASSERT_TRUE(r.is_ok());
          // Hoist the stream: the inner callbacks outlive `r` itself.
          fs::StreamPtr s = *r;
          cluster_.host(ws(3)).fs().write(
              s, make_bytes("hello"), [&, s](util::Result<std::int64_t>) {
                cluster_.host(ws(3)).fs().fsync(
                    s, [&](util::Status) { done = true; });
              });
        });
    cluster_.run_until_done([&] { return done; });
  }

  auto local_prog = build("/out_local");
  SPRITE_CHECK(
      cluster_.install_program("/bin/tr_local", local_prog.image()).is_ok());
  auto mig_prog = build("/out_mig");
  SPRITE_CHECK(
      cluster_.install_program("/bin/tr_mig", mig_prog.image()).is_ok());

  const Pid a = spawn_installed(0, "/bin/tr_local");
  wait_exit(0, a);

  const Pid b = spawn_installed(0, "/bin/tr_mig");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(200));
  EXPECT_TRUE(migrate_now(0, b, 1).is_ok());
  wait_exit(0, b);

  std::string local = read_file("/out_local");
  std::string migrated = read_file("/out_mig");
  // Same input data, same hostname (the home machine's): traces identical.
  EXPECT_EQ(local, migrated);
  EXPECT_NE(local.find(cluster_.host(ws(0)).name()), std::string::npos)
      << "hostname must be the home machine's, got: " << local;
  EXPECT_NE(local.find("mkdir OK;stat OK 5;unlink OK;"), std::string::npos)
      << local;
}

TEST_F(MigrationTest, ForeignProcessVisibleAndEvictable) {
  ScriptBuilder b;
  b.compute(Time::sec(10)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/longburn", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/longburn");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(100));
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());

  auto foreign = cluster_.host(ws(1)).procs().foreign_processes();
  ASSERT_EQ(foreign.size(), 1u);
  EXPECT_EQ(foreign[0]->pid, pid);
  EXPECT_EQ(foreign[0]->home, ws(0));

  // Owner returns: eviction sends it home, where it finishes.
  int evicted = -1;
  bool done = false;
  cluster_.host(ws(1)).mig().evict_all_foreign([&](int n) {
    evicted = n;
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(evicted, 1);
  EXPECT_TRUE(cluster_.host(ws(1)).procs().foreign_processes().empty());
  auto back = cluster_.host(ws(0)).procs().find(pid);
  ASSERT_TRUE(back != nullptr);
  EXPECT_FALSE(back->foreign());
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(MigrationTest, KillChasesMigratedProcess) {
  ScriptBuilder b;
  b.compute(Time::hours(1)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/victim2", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/victim2");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  ASSERT_TRUE(migrate_now(0, pid, 2).is_ok());

  ScriptBuilder killer;
  killer.step([pid](ScriptProgram::Ctx&) { return proc::SysKill{pid, 9}; })
      .act(proc::SysExit{0});
  SPRITE_CHECK(cluster_.install_program("/bin/killer3", killer.image()).is_ok());
  spawn_installed(3, "/bin/killer3");

  EXPECT_EQ(wait_exit(0, pid), 128 + 9);
  EXPECT_LT(cluster_.sim().now().s(), 10.0);
}

TEST_F(MigrationTest, WaitingParentMigratesAndStillGetsNotified) {
  // Parent forks, waits; while blocked in wait it is migrated (eviction
  // case); the child's exit must still wake it on its new host.
  ScriptBuilder b;
  b.act(proc::SysFork{})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["is_child"] = c.view->is_child ? 1 : 0;
        if (c.locals["is_child"]) return Action{proc::Compute{Time::sec(3)}};
        return Action{proc::SysWait{}};
      })
      .step([](ScriptProgram::Ctx& c) {
        if (c.locals["is_child"]) return Action{proc::SysExit{11}};
        return Action{proc::SysExit{c.view->aux == 11 ? 0 : 1}};
      });
  SPRITE_CHECK(cluster_.install_program("/bin/waitmig", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/waitmig");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(1));
  // The parent is blocked in wait now; move it.
  ASSERT_TRUE(migrate_now(0, pid, 2).is_ok());
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(MigrationTest, VersionSkewRefusesMigration) {
  ScriptBuilder b;
  b.compute(Time::sec(5)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/skew", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/skew");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  cluster_.host(ws(1)).mig().set_version(2);  // incompatible kernel
  EXPECT_EQ(migrate_now(0, pid, 1).err(), Err::kVersionSkew);
  // The process was never frozen and keeps running locally.
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(MigrationTest, SharedWritableMemoryIsNotMigratable) {
  ScriptBuilder b;
  b.compute(Time::sec(5)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/shmem", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/shmem");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  cluster_.host(ws(0)).procs().find(pid)->space->shared_writable = true;
  EXPECT_EQ(migrate_now(0, pid, 1).err(), Err::kNotMigratable);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(MigrationTest, MigrationToDownHostFailsAndProcessSurvives) {
  ScriptBuilder b;
  b.compute(Time::sec(20)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/survivor", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/survivor");
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  cluster_.net().set_host_up(ws(1), false);
  // The init RPC never reaches the target: retries exhaust, the process was
  // never frozen, and it simply keeps running where it was.
  EXPECT_EQ(migrate_now(0, pid, 1).err(), Err::kTimedOut);
  EXPECT_TRUE(cluster_.host(ws(0)).procs().find(pid) != nullptr);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(MigrationTest, TargetCrashMidTransferThawsProcessLocally) {
  // The target accepts the init handshake, then dies while the (large)
  // dirty image is still being flushed. The transfer RPC times out, the
  // migration fails, and the process resumes where it was — the thesis's
  // position that a failed migration must never lose the process.
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 1024, true})  // 4 MB dirty
      .compute(Time::sec(30))
      .act(proc::SysExit{5});
  proc::ProgramImage img = b.image(16, 1024, 4);
  SPRITE_CHECK(cluster_.install_program("/bin/crashy", img).is_ok());
  const Pid pid = spawn_installed(0, "/bin/crashy");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(5));

  util::Status st(Err::kAgain);
  bool done = false;
  auto pcb = cluster_.host(ws(0)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  cluster_.host(ws(0)).mig().migrate(pcb, ws(1), [&](util::Status s) {
    st = s;
    done = true;
  });
  // Kill the target shortly after the handshake, mid-flush.
  cluster_.sim().after(Time::msec(300),
                       [&] { cluster_.net().set_host_up(ws(1), false); });
  cluster_.run_until_done([&] { return done; });
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(cluster_.sim().trace().counter_value("mig.out.failed", ws(0)), 1);

  // The process is still here and completes normally.
  EXPECT_EQ(wait_exit(0, pid), 5);
  EXPECT_EQ(cluster_.host(ws(0)).procs().home_record_location(pid),
            sim::kInvalidHost);  // exited
}

// ---- VM strategies (experiment E2 mechanics) ----

class StrategyTest : public MigrationTest {
 protected:
  // Spawns a process that dirties `pages` heap pages then sleeps forever;
  // returns its pid once the dirtying is done.
  Pid spawn_dirty(int wsi, std::int64_t pages, const std::string& name) {
    ScriptBuilder b;
    b.act(proc::Touch{vm::Segment::kHeap, 0, pages, true})
        .act(proc::Pause{Time::hours(2)})
        .act(proc::SysExit{0});
    proc::ProgramImage img = b.image(16, pages, 4);
    SPRITE_CHECK(cluster_.install_program("/bin/" + name, img).is_ok());
    const Pid pid = spawn_installed(wsi, "/bin/" + name);
    // Let it finish dirtying.
    cluster_.sim().run_until(cluster_.sim().now() + Time::sec(5));
    auto pcb = cluster_.host(ws(wsi)).procs().find(pid);
    SPRITE_CHECK(pcb && pcb->paused);
    return pid;
  }
};

TEST_F(StrategyTest, SpriteFlushWritesDirtyPagesToServerAndDemandPages) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kSpriteFlush);
  const Pid pid = spawn_dirty(0, 256, "flushy");  // 1 MB dirty
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  EXPECT_EQ(rec.pages_flushed, 256);
  EXPECT_EQ(rec.pages_moved, 0);
  // ~480 ms per MB through the FS while frozen.
  EXPECT_GT(rec.freeze_time().ms(), 350.0);

  // Target demand-pages from the server when the process touches memory.
  auto pcb = cluster_.host(ws(1)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  EXPECT_EQ(pcb->space->resident_pages(), 0);
  bool touched = false;
  cluster_.host(ws(1)).vm().touch(pcb->space, vm::Segment::kHeap, 0, 256,
                                  false, [&](util::Status s) {
                                    EXPECT_TRUE(s.is_ok());
                                    touched = true;
                                  });
  cluster_.run_until_done([&] { return touched; });
  EXPECT_EQ(cluster_.sim().trace().counter_value("vm.page.paged_in", ws(1)),
            256);
}

TEST_F(StrategyTest, WholeCopyFreezesForTheFullImage) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kWholeCopy);
  const Pid pid = spawn_dirty(0, 256, "wholey");
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  EXPECT_GE(rec.pages_moved, 256);  // resident image crossed the wire
  EXPECT_EQ(rec.pages_flushed, 0);
  // All transfer happened while frozen.
  EXPECT_GT(rec.freeze_time().ms(), 300.0);
  // Target has the pages resident immediately — no faults needed.
  auto pcb = cluster_.host(ws(1)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  EXPECT_GE(pcb->space->resident_pages(), 256);
}

TEST_F(StrategyTest, CopyOnReferenceResumesFastWithResidualDependency) {
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kCopyOnRef);
  const Pid pid = spawn_dirty(0, 256, "cory");
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  const auto& rec = cluster_.host(ws(0)).mig().last_record();
  EXPECT_EQ(rec.pages_moved, 0);
  EXPECT_EQ(rec.pages_flushed, 0);
  // Freeze time is tiny: only tables moved.
  EXPECT_LT(rec.freeze_time().ms(), 120.0);
  // The source keeps the image: residual dependency.
  EXPECT_EQ(cluster_.host(ws(0)).mig().residual_spaces(), 1u);

  // Touching memory on the target pulls pages from the source.
  auto pcb = cluster_.host(ws(1)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  bool touched = false;
  cluster_.host(ws(1)).vm().touch(pcb->space, vm::Segment::kHeap, 0, 256,
                                  false, [&](util::Status s) {
                                    EXPECT_TRUE(s.is_ok());
                                    touched = true;
                                  });
  cluster_.run_until_done([&] { return touched; });
  const trace::Registry& tr = cluster_.sim().trace();
  EXPECT_EQ(tr.counter_value("vm.page.remote_pulled", ws(1)), 256);
  EXPECT_EQ(tr.counter_value("mig.cor_page.served", ws(0)), 256);
}

TEST_F(StrategyTest, PreCopyShrinksFreezeTimeVersusWholeCopy) {
  // An actively-dirtying process: pre-copy's freeze covers only the final
  // dirty set, while whole-copy freezes for the entire image.
  auto install_writer = [&](const std::string& name) {
    ScriptBuilder b;
    // Loop: touch a small window, compute, repeat — keeps re-dirtying a
    // small working set within a large image.
    b.act(proc::Touch{vm::Segment::kHeap, 0, 512, true});
    const int loop_start = b.next_index();
    b.step([](ScriptProgram::Ctx& c) {
      c.jump(c.locals["i"] > 500 ? 1000000 : -1);  // fall off the end late
      ++c.locals["i"];
      return proc::Touch{vm::Segment::kHeap, 0, 16, true};
    });
    b.step([loop_start](ScriptProgram::Ctx& c) {
      c.jump(loop_start);
      return proc::Compute{Time::msec(20)};
    });
    proc::ProgramImage img = b.image(16, 512, 4);
    SPRITE_CHECK(cluster_.install_program("/bin/" + name, img).is_ok());
  };

  install_writer("precopy");
  cluster_.host(ws(0)).mig().set_strategy(VmStrategy::kPreCopy);
  const Pid p1 = spawn_installed(0, "/bin/precopy");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(8));
  ASSERT_TRUE(migrate_now(0, p1, 1).is_ok());
  const MigrationRecord pre = cluster_.host(ws(0)).mig().last_record();

  install_writer("whole2");
  cluster_.host(ws(2)).mig().set_strategy(VmStrategy::kWholeCopy);
  const Pid p2 = spawn_installed(2, "/bin/whole2");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(8));
  auto pcb2 = cluster_.host(ws(2)).procs().find(p2);
  ASSERT_TRUE(pcb2 != nullptr);
  util::Status st(Err::kAgain);
  bool done = false;
  cluster_.host(ws(2)).mig().migrate(pcb2, ws(3), [&](util::Status s) {
    st = s;
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  ASSERT_TRUE(st.is_ok());
  const MigrationRecord whole = cluster_.host(ws(2)).mig().last_record();

  EXPECT_GE(pre.precopy_rounds, 1);
  EXPECT_LT(pre.freeze_time().ms(), whole.freeze_time().ms() / 2.0)
      << "pre-copy freeze " << pre.freeze_time().ms() << "ms vs whole-copy "
      << whole.freeze_time().ms() << "ms";
  // But pre-copy may move more total pages than the image (re-sends).
  EXPECT_GE(pre.pages_moved, 512);
}

TEST_F(MigrationTest, EvictionOfSleepingProcessGoesHomeAndFinishes) {
  ScriptBuilder b;
  b.act(proc::Pause{Time::sec(30)}).act(proc::SysExit{3});
  SPRITE_CHECK(cluster_.install_program("/bin/sleeper", b.image()).is_ok());
  const Pid pid = spawn_installed(0, "/bin/sleeper");
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(1));
  ASSERT_TRUE(migrate_now(0, pid, 1).is_ok());
  // Evict it back while it sleeps.
  bool done = false;
  cluster_.host(ws(1)).mig().evict_all_foreign([&](int n) {
    EXPECT_EQ(n, 1);
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(wait_exit(0, pid), 3);
  // The 30 s sleep was honoured despite two migrations.
  EXPECT_GE(cluster_.sim().now().s(), 30.0);
  EXPECT_LT(cluster_.sim().now().s(), 40.0);
}

}  // namespace
}  // namespace sprite::mig
