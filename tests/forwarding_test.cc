// Tests for the Remote-UNIX-style file-call forwarding comparator
// (thesis §4.3.1's design alternative): correctness of forwarded calls,
// restoration of direct access when the process returns home, and the
// performance gap versus transferred-state handling.
#include <gtest/gtest.h>

#include "core/sprite.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"

namespace sprite::mig {
namespace {

using core::SpriteCluster;
using proc::Action;
using proc::ScriptBuilder;
using proc::ScriptProgram;
using sim::Time;

fs::Bytes make_bytes(const std::string& s) {
  return fs::Bytes(s.begin(), s.end());
}

// Program: open /fwd, write, pause (migration point), write again, read all
// back, verify, fsync, exit 0/1.
ScriptBuilder make_prog() {
  ScriptBuilder b;
  b.act(proc::SysOpen{"/fwd", fs::OpenFlags::create_rw()});
  b.step([](ScriptProgram::Ctx& c) {
    c.locals["fd"] = c.view->rv;
    return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                          make_bytes("first."), 0};
  });
  b.act(proc::Pause{Time::sec(1)});
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                          make_bytes("second."), 0};
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysSeek{static_cast<int>(c.locals["fd"]), 0};
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysRead{static_cast<int>(c.locals["fd"]), 64};
  });
  b.step([](ScriptProgram::Ctx& c) {
    const std::string got(c.view->data.begin(), c.view->data.end());
    c.locals["ok"] = got == "first.second." ? 1 : 0;
    return proc::SysFsync{static_cast<int>(c.locals["fd"])};
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysClose{static_cast<int>(c.locals["fd"])};
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysExit{c.locals["ok"] == 1 ? 0 : 1};
  });
  return b;
}

TEST(ForwardingModeTest, ForwardedFileCallsProduceIdenticalResults) {
  SpriteCluster cluster({.workstations = 3, .seed = 101});
  for (int i = 0; i < 3; ++i) {
    cluster.host(cluster.workstation(i))
        .mig()
        .set_file_call_mode(FileCallMode::kForwardHome);
  }
  auto prog = make_prog();
  cluster.install_program("/bin/fwd", prog.image());
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/fwd", {});
  cluster.run_for(Time::msec(300));
  ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());

  // The stream stayed home: no stream migration at the file server.
  EXPECT_EQ(cluster.sim().trace().counter_total("fs.server.stream.migrated"),
            0);
  EXPECT_EQ(cluster.wait(pid), 0);  // the program verified its own data
}

TEST(ForwardingModeTest, ForwardedCallsLoadTheHomeMachine) {
  // The same remote I/O loop under both modes: forwarding must burn home
  // CPU and RPCs; transferred state must not.
  auto run_mode = [](FileCallMode mode, std::int64_t* home_rpcs) {
    SpriteCluster cluster({.workstations = 3, .seed = 102});
    for (int i = 0; i < 3; ++i)
      cluster.host(cluster.workstation(i)).mig().set_file_call_mode(mode);
    ScriptBuilder b;
    b.act(proc::SysOpen{"/loop", fs::OpenFlags::create_rw()});
    b.step([](ScriptProgram::Ctx& c) {
      c.locals["fd"] = c.view->rv;
      return proc::Pause{Time::msec(500)};
    });
    const int head = b.next_index();
    b.step([head](ScriptProgram::Ctx& c) {
      if (c.locals["i"]++ >= 50) return Action{proc::SysExit{0}};
      c.jump(head);
      return Action{proc::SysWrite{static_cast<int>(c.locals["fd"]),
                                   make_bytes("x"), 0}};
    });
    cluster.install_program("/bin/loop", b.image());
    const auto pid = cluster.spawn(cluster.workstation(0), "/bin/loop", {});
    cluster.run_for(Time::msec(200));
    EXPECT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());
    const auto before =
        cluster.host(cluster.workstation(0)).rpc().requests_served();
    EXPECT_EQ(cluster.wait(pid), 0);
    *home_rpcs =
        cluster.host(cluster.workstation(0)).rpc().requests_served() - before;
  };

  std::int64_t fwd_rpcs = 0, xfer_rpcs = 0;
  run_mode(FileCallMode::kForwardHome, &fwd_rpcs);
  run_mode(FileCallMode::kTransferStreams, &xfer_rpcs);
  EXPECT_GE(fwd_rpcs, 50);  // one home RPC per forwarded write
  EXPECT_LE(xfer_rpcs, 10);  // transferred state leaves home alone
}

TEST(ForwardingModeTest, EvictionHomeRestoresDirectAccess) {
  SpriteCluster cluster({.workstations = 3, .seed = 103});
  for (int i = 0; i < 3; ++i) {
    cluster.host(cluster.workstation(i))
        .mig()
        .set_file_call_mode(FileCallMode::kForwardHome);
  }
  ScriptBuilder b;
  b.act(proc::SysOpen{"/back", fs::OpenFlags::create_rw()});
  b.step([](ScriptProgram::Ctx& c) {
    c.locals["fd"] = c.view->rv;
    return proc::Pause{Time::sec(2)};  // migrated away during this
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                          make_bytes("home-again"), 0};
  });
  b.step([](ScriptProgram::Ctx& c) {
    return proc::SysFsync{static_cast<int>(c.locals["fd"])};
  });
  b.exit(0);
  cluster.install_program("/bin/back", b.image());
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/back", {});
  cluster.run_for(Time::msec(300));
  ASSERT_TRUE(cluster.migrate(pid, cluster.workstation(1)).is_ok());

  // Owner returns; the process is evicted home mid-sleep.
  cluster.run_for(Time::msec(300));
  EXPECT_EQ(cluster.evict(cluster.workstation(1)), 1);
  auto pcb = cluster.host(cluster.workstation(0)).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  EXPECT_FALSE(pcb->forward_file_calls);  // direct access restored
  EXPECT_EQ(pcb->fds.size(), 1u);         // the parked stream came back

  EXPECT_EQ(cluster.wait(pid), 0);
  auto st = cluster.kernel().file_server().fs_server()->stat_path("/back");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 10);  // "home-again" written through the direct path
}

}  // namespace
}  // namespace sprite::mig
