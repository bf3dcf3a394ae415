// Tests for the process substrate: spawn/fork/exec/exit/wait, kernel-call
// dispatch, signals, the Appendix-A classification table, and home records.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kern/cluster.h"
#include "proc/script.h"
#include "proc/syscalls.h"
#include "proc/table.h"

namespace sprite::proc {
namespace {

using kern::Cluster;
using sim::Time;
using util::Err;

std::string to_string(const fs::Bytes& b) {
  return std::string(b.begin(), b.end());
}
fs::Bytes make_bytes(const std::string& s) { return fs::Bytes(s.begin(), s.end()); }

class ProcTest : public ::testing::Test {
 protected:
  ProcTest() : cluster_({.num_workstations = 3, .num_file_servers = 1}) {}

  // Installs `prog` under /bin/<name> and spawns it on ws(i)'s host,
  // returning the pid.
  Pid spawn_ok(int i, const std::string& name, ScriptBuilder& prog) {
    const std::string path = "/bin/" + name;
    SPRITE_CHECK(cluster_.install_program(path, prog.image()).is_ok());
    return spawn_installed(i, path);
  }

  Pid spawn_installed(int i, const std::string& path) {
    util::Result<Pid> out(Err::kAgain);
    bool done = false;
    cluster_.host(ws(i)).procs().spawn(path, {}, [&](util::Result<Pid> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : kInvalidPid;
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

  sim::HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }

  Cluster cluster_;
};

TEST_F(ProcTest, DispatchTableIsTotalOverAllSyscalls) {
  // Appendix-A property: every kernel call has a defined handling class.
  std::set<Handling> seen;
  for (Syscall c : all_syscalls()) {
    seen.insert(handling_of(c));  // UNREACHABLE-aborts if unclassified
    EXPECT_STRNE(syscall_name(c), "?");
  }
  // All four classes are exercised by the table.
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(ProcTest, FileCallsAreTransferredStateAndFamilyCallsInvolveHome) {
  EXPECT_EQ(handling_of(Syscall::kRead), Handling::kTransferredState);
  EXPECT_EQ(handling_of(Syscall::kOpen), Handling::kTransferredState);
  EXPECT_EQ(handling_of(Syscall::kGetTime), Handling::kLocal);
  EXPECT_EQ(handling_of(Syscall::kGetHostName), Handling::kForwardHome);
  EXPECT_EQ(handling_of(Syscall::kWait), Handling::kForwardHome);
  EXPECT_EQ(handling_of(Syscall::kFork), Handling::kHomeInvolved);
  EXPECT_EQ(handling_of(Syscall::kExit), Handling::kHomeInvolved);
}

TEST_F(ProcTest, AppendixATableIsTotalAndConsistent) {
  // The full 4.3BSD classification: every entry has a class and a
  // rationale, no duplicate names, and every call the simulation implements
  // through the Syscall enum agrees with the big table's classification.
  const auto& table = appendix_a();
  EXPECT_GE(table.size(), 70u);  // the appendix walks the whole call list
  std::set<std::string> names;
  int implemented = 0;
  for (const auto& e : table) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    EXPECT_STRNE(e.note, "");
    if (e.implemented) ++implemented;
  }
  EXPECT_GE(implemented, 18);

  // Cross-check the enum subset against the table.
  for (Syscall c : all_syscalls()) {
    const std::string n = syscall_name(c);
    bool found = false;
    for (const auto& e : table) {
      if (n == e.name) {
        found = true;
        EXPECT_TRUE(e.implemented) << n;
        EXPECT_EQ(e.handling, handling_of(c)) << n;
      }
    }
    EXPECT_TRUE(found) << n << " missing from the Appendix-A table";
  }
}

TEST_F(ProcTest, PidEncodesHomeHost) {
  const Pid p = make_pid(3, 17);
  EXPECT_EQ(pid_home(p), 3);
  EXPECT_NE(p, kInvalidPid);
}

TEST_F(ProcTest, SpawnRunExitDeliversStatus) {
  ScriptBuilder b;
  b.compute(Time::msec(50)).exit(7);
  const Pid pid = spawn_ok(0, "simple", b);
  EXPECT_EQ(wait_exit(0, pid), 7);
  EXPECT_FALSE(cluster_.host(ws(0)).procs().home_record_alive(pid));
}

TEST_F(ProcTest, ComputeConsumesSimulatedTime) {
  ScriptBuilder b;
  b.compute(Time::sec(2)).exit(0);
  const Time start = cluster_.sim().now();
  const Pid pid = spawn_ok(0, "burn", b);
  wait_exit(0, pid);
  EXPECT_GE((cluster_.sim().now() - start).s(), 2.0);
}

TEST_F(ProcTest, GetPidAndTimeAndHostName) {
  ScriptBuilder b;
  b.act(SysGetPid{})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["pid"] = c.view->rv;
        return SysGetTime{};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.locals["time"] = c.view->rv;
        return SysGetHostName{};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.note("host=" + c.view->text);
        return SysExit{0};
      });
  const Pid pid = spawn_ok(1, "ident", b);
  // Find the program's final state through the pcb before it exits... the
  // process exits quickly, so instead verify via home record death plus the
  // fact that nothing crashed: identity checks continue in the fork test.
  EXPECT_EQ(wait_exit(1, pid), 0);
}

TEST_F(ProcTest, OpenWriteReadRoundTripThroughProcess) {
  ScriptBuilder b;
  b.act(SysOpen{"/data", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return SysWrite{static_cast<int>(c.locals["fd"]),
                        make_bytes("process data"), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysSeek{static_cast<int>(c.locals["fd"]), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysRead{static_cast<int>(c.locals["fd"]), 64};
      })
      .step([](ScriptProgram::Ctx& c) {
        if (std::string(c.view->data.begin(), c.view->data.end()) ==
            "process data")
          return Action{SysExit{0}};
        return Action{SysExit{1}};
      });
  const Pid pid = spawn_ok(0, "fileio", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(ProcTest, BadDescriptorsFailCleanly) {
  ScriptBuilder b;
  b.act(SysRead{42, 10})
      .step([](ScriptProgram::Ctx& c) {
        return SysExit{c.view->status.err() == Err::kBadF ? 0 : 1};
      });
  const Pid pid = spawn_ok(0, "badfd", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(ProcTest, ForkGivesChildNewPidAndSharedOffsets) {
  // Parent opens a file, forks; the child writes, then the parent writes:
  // the shared access position must make the writes append, not overlap.
  ScriptBuilder b;
  b.act(SysOpen{"/forkfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return SysFork{};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.locals["is_child"] = c.view->is_child ? 1 : 0;
        if (c.locals["is_child"]) {
          return Action{SysWrite{static_cast<int>(c.locals["fd"]),
                                 make_bytes("AA"), 0}};
        }
        c.locals["child"] = c.view->rv;
        // Parent: give the child time to write first.
        return Action{Pause{Time::msec(200)}};
      })
      .step([](ScriptProgram::Ctx& c) {
        if (c.locals["is_child"]) return Action{SysExit{42}};
        return Action{SysWrite{static_cast<int>(c.locals["fd"]),
                               make_bytes("BB"), 0}};
      })
      .step([](ScriptProgram::Ctx& c) {
        (void)c;
        return Action{SysWait{}};
      })
      .step([](ScriptProgram::Ctx& c) {
        const bool ok = c.view->rv == c.locals["child"] && c.view->aux == 42;
        return Action{SysExit{ok ? 0 : 1}};
      });
  const Pid pid = spawn_ok(0, "forker", b);
  EXPECT_EQ(wait_exit(0, pid), 0);

  // "AA" then "BB" via the shared offset.
  bool checked = false;
  cluster_.host(ws(1)).fs().open(
      "/forkfile", fs::OpenFlags::read_only(),
      [&](util::Result<fs::StreamPtr> r) {
        ASSERT_TRUE(r.is_ok());
        cluster_.host(ws(1)).fs().read(*r, 4, [&](util::Result<fs::Bytes> d) {
          ASSERT_TRUE(d.is_ok());
          EXPECT_EQ(to_string(*d), "AABB");
          checked = true;
        });
      });
  cluster_.run_until_done([&] { return checked; });
}

TEST_F(ProcTest, WaitBeforeChildExitsBlocksUntilNotify) {
  ScriptBuilder b;
  b.act(SysFork{})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["is_child"] = c.view->is_child ? 1 : 0;
        if (c.locals["is_child"]) return Action{Compute{Time::sec(1)}};
        return Action{SysWait{}};  // blocks ~1 s
      })
      .step([](ScriptProgram::Ctx& c) {
        if (c.locals["is_child"]) return Action{SysExit{5}};
        return Action{SysExit{c.view->aux == 5 ? 0 : 1}};
      });
  const Time start = cluster_.sim().now();
  const Pid pid = spawn_ok(0, "waiter", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
  EXPECT_GE((cluster_.sim().now() - start).s(), 1.0);
}

TEST_F(ProcTest, WaitWithNoChildrenReturnsEchild) {
  ScriptBuilder b;
  b.act(SysWait{}).step([](ScriptProgram::Ctx& c) {
    return SysExit{c.view->status.err() == Err::kChild ? 0 : 1};
  });
  const Pid pid = spawn_ok(0, "lonely", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(ProcTest, ExecReplacesImage) {
  ScriptBuilder worker;
  worker.compute(Time::msec(10)).exit(99);
  SPRITE_CHECK(cluster_.install_program("/bin/worker", worker.image()).is_ok());

  ScriptBuilder b;
  b.act(SysExec{"/bin/worker", {}});
  const Pid pid = spawn_ok(0, "execer", b);
  EXPECT_EQ(wait_exit(0, pid), 99);  // same pid, new image's exit status
}

TEST_F(ProcTest, ExecOfMissingBinaryReportsNoent) {
  ScriptBuilder b;
  b.act(SysExec{"/bin/nonexistent", {}})
      .step([](ScriptProgram::Ctx& c) {
        return SysExit{c.view->status.err() == Err::kNoEnt ? 0 : 1};
      });
  const Pid pid = spawn_ok(0, "execfail", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
}

TEST_F(ProcTest, KillTerminatesComputingProcess) {
  ScriptBuilder victim;
  victim.compute(Time::hours(1)).exit(0);
  const Pid vpid = spawn_ok(0, "victim", victim);

  ScriptBuilder killer;
  killer.act(Pause{Time::msec(100)})
      .step([vpid](ScriptProgram::Ctx&) { return SysKill{vpid, 9}; })
      .step([](ScriptProgram::Ctx& c) {
        return SysExit{c.view->status.is_ok() ? 0 : 1};
      });
  const Pid kpid = spawn_ok(1, "killer", killer);

  EXPECT_EQ(wait_exit(1, kpid), 0);
  EXPECT_EQ(wait_exit(0, vpid), 128 + 9);
  // The hour-long compute must NOT have elapsed.
  EXPECT_LT(cluster_.sim().now().s(), 30.0);
}

TEST_F(ProcTest, KillOfDeadProcessReturnsEsrch) {
  ScriptBuilder quick;
  quick.exit(0);
  const Pid dead = spawn_ok(0, "quick", quick);
  wait_exit(0, dead);

  ScriptBuilder killer;
  killer.step([dead](ScriptProgram::Ctx&) { return SysKill{dead, 9}; })
      .step([](ScriptProgram::Ctx& c) {
        return SysExit{c.view->status.err() == Err::kSrch ? 0 : 1};
      });
  const Pid kpid = spawn_ok(1, "killer2", killer);
  EXPECT_EQ(wait_exit(1, kpid), 0);
}

TEST_F(ProcTest, DupSharesAccessPosition) {
  // dup(2) semantics: writes through either descriptor advance one shared
  // offset, exactly like the fork-shared case.
  ScriptBuilder b;
  b.act(SysOpen{"/dupfile", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return SysDup{static_cast<int>(c.locals["fd"])};
      })
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd2"] = c.view->rv;
        return SysWrite{static_cast<int>(c.locals["fd"]), make_bytes("AB"), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysWrite{static_cast<int>(c.locals["fd2"]), make_bytes("CD"),
                        0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysClose{static_cast<int>(c.locals["fd"])};
      })
      // The file must stay open at the server through the dup'd fd.
      .step([](ScriptProgram::Ctx& c) {
        return SysWrite{static_cast<int>(c.locals["fd2"]), make_bytes("EF"),
                        0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysFsync{static_cast<int>(c.locals["fd2"])};
      })
      .exit(0);
  const Pid pid = spawn_ok(0, "duper", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
  auto st = cluster_.file_server().fs_server()->stat_path("/dupfile");
  ASSERT_TRUE(st.is_ok());
  auto data =
      cluster_.file_server().fs_server()->read_direct(st->id, 0, st->size);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(to_string(*data), "ABCDEF");
}

TEST_F(ProcTest, FtruncateShrinksFile) {
  ScriptBuilder b;
  b.act(SysOpen{"/trunc", fs::OpenFlags::create_rw()})
      .step([](ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return SysWrite{static_cast<int>(c.locals["fd"]),
                        make_bytes("0123456789"), 0};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysFsync{static_cast<int>(c.locals["fd"])};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysFtruncate{static_cast<int>(c.locals["fd"]), 4};
      })
      .step([](ScriptProgram::Ctx& c) {
        return SysExit{c.view->status.is_ok() ? 0 : 1};
      });
  const Pid pid = spawn_ok(0, "truncer", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
  auto st = cluster_.file_server().fs_server()->stat_path("/trunc");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 4);
}

TEST_F(ProcTest, TouchDrivesVmFaults) {
  ScriptBuilder b;
  b.act(Touch{vm::Segment::kHeap, 0, 8, true})
      .act(Touch{vm::Segment::kHeap, 0, 8, false})  // already resident
      .exit(0);
  const Pid pid = spawn_ok(0, "tocher", b);
  EXPECT_EQ(wait_exit(0, pid), 0);
  EXPECT_EQ(
      cluster_.sim().trace().counter_value("vm.page.zero_filled", ws(0)), 8);
}

TEST_F(ProcTest, HomeRecordTracksLocation) {
  ScriptBuilder b;
  b.compute(Time::sec(5)).exit(0);
  const Pid pid = spawn_ok(0, "tracked", b);
  EXPECT_TRUE(cluster_.host(ws(0)).procs().home_record_alive(pid));
  EXPECT_EQ(cluster_.host(ws(0)).procs().home_record_location(pid), ws(0));
  wait_exit(0, pid);
  EXPECT_FALSE(cluster_.host(ws(0)).procs().home_record_alive(pid));
}

TEST_F(ProcTest, SchedulerTimeSharesTwoProcesses) {
  ScriptBuilder b;
  b.compute(Time::sec(1)).exit(0);
  SPRITE_CHECK(cluster_.install_program("/bin/cpu1", b.image()).is_ok());
  const Pid a = spawn_installed(0, "/bin/cpu1");
  const Pid c = spawn_installed(0, "/bin/cpu1");
  int done = 0;
  cluster_.host(ws(0)).procs().notify_on_exit(a, [&](int) { ++done; });
  cluster_.host(ws(0)).procs().notify_on_exit(c, [&](int) { ++done; });
  cluster_.run_until_done([&] { return done == 2; });
  // Two seconds of demand on one CPU: at least two seconds of wall clock.
  EXPECT_GE(cluster_.sim().now().s(), 2.0);
  EXPECT_LT(cluster_.sim().now().s(), 2.6);
}

TEST_F(ProcTest, SpawnOfUnregisteredProgramFails) {
  util::Result<Pid> out(Err::kAgain);
  bool done = false;
  cluster_.host(ws(0)).procs().spawn("/bin/ghost", {},
                                     [&](util::Result<Pid> r) {
                                       out = std::move(r);
                                       done = true;
                                     });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(out.err(), Err::kNoEnt);
}

TEST_F(ProcTest, ExitClosesServerSideOpenReferences) {
  ScriptBuilder b;
  b.act(SysOpen{"/leaky", fs::OpenFlags::create_rw()}).exit(0);
  const Pid pid = spawn_ok(0, "leaker", b);
  wait_exit(0, pid);
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(100));
  // Another host may now open-for-write without triggering write sharing.
  bool checked = false;
  cluster_.host(ws(1)).fs().open("/leaky", fs::OpenFlags::write_only(),
                                 [&](util::Result<fs::StreamPtr> r) {
                                   ASSERT_TRUE(r.is_ok());
                                   EXPECT_TRUE((*r)->cacheable);
                                   checked = true;
                                 });
  cluster_.run_until_done([&] { return checked; });
}

}  // namespace
}  // namespace sprite::proc
