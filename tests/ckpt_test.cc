// Checkpoint/restart (src/ckpt/) tests: image format roundtrip, full +
// incremental capture chains and compaction, eligibility declines,
// home-node crash recovery (a checkpointed process survives its host),
// the eviction-by-checkpoint fast path, the incarnation guard, the
// autocheckpoint daemon, and the determinism property — a crash +
// restart-from-checkpoint run must produce byte-identical script output
// and FS contents as an uninterrupted run, across seeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/image.h"
#include "ckpt/manager.h"
#include "kern/cluster.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "vm/vm.h"

namespace sprite {
namespace {

using ckpt::CkptStage;
using kern::Cluster;
using proc::Pid;
using proc::ScriptBuilder;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

fs::Bytes make_bytes(const std::string& s) {
  return fs::Bytes(s.begin(), s.end());
}

std::vector<std::uint64_t> sweep_seeds() {
  int n = 2;
  if (const char* e = std::getenv("SPRITE_FAULT_SEEDS")) n = std::atoi(e);
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i <= std::max(1, n); ++i)
    seeds.push_back(static_cast<std::uint64_t>(i));
  return seeds;
}

// Blocking-style checkpoint of a resident process.
Status checkpoint_now(Cluster& cluster, HostId host, Pid pid) {
  auto pcb = cluster.host(host).procs().find(pid);
  if (!pcb) return Status(Err::kSrch, "pid not on host");
  Status st(Err::kAgain);
  bool done = false;
  cluster.host(host).ckpt().checkpoint(pcb, [&](Status s) {
    st = s;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return st;
}

Pid spawn_blocking(Cluster& cluster, HostId where, const std::string& exe) {
  util::Result<Pid> spawned(Err::kAgain);
  bool done = false;
  cluster.host(where).procs().spawn(exe, {}, [&](util::Result<Pid> r) {
    spawned = std::move(r);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  SPRITE_CHECK(spawned.is_ok());
  return *spawned;
}

void migrate_blocking(Cluster& cluster, HostId from, Pid pid, HostId to) {
  auto pcb = cluster.host(from).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  Status st(Err::kAgain);
  bool done = false;
  cluster.host(from).mig().migrate(pcb, to, [&](Status s) {
    st = s;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
}

// ---------------------------------------------------------------------------
// Image format
// ---------------------------------------------------------------------------

TEST(CkptImageTest, MetaEncodeDecodeRoundtrip) {
  ckpt::CkptMeta m;
  m.pid = 0x100000007;
  m.seq = 3;
  m.chain = {1, 2, 3};
  m.incarnation = 2;
  m.ppid = 0x100000001;
  m.home = 1;
  m.exe_path = "/bin/thing";
  m.args = {"a", "bb"};
  m.program_state = make_bytes("state");
  m.view_rv = 42;
  m.view_text = "host3";
  m.remaining_compute_us = 1234;
  m.blocked_in_wait = true;
  m.next_fd = 5;
  m.streams.push_back(
      {3, "/tmp/x", 17, fs::OpenFlags::read_write()});
  m.code_pages = 16;
  m.heap.pages = 64;
  m.heap.runs = {{0, 4}, {10, 2}};
  m.stack.pages = 4;
  m.stack.runs = {{0, 1}};

  auto r = ckpt::CkptMeta::decode(m.encode());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->pid, m.pid);
  EXPECT_EQ(r->seq, 3);
  EXPECT_EQ(r->chain, m.chain);
  EXPECT_EQ(r->incarnation, 2);
  EXPECT_EQ(r->exe_path, "/bin/thing");
  EXPECT_EQ(r->args, m.args);
  EXPECT_EQ(r->program_state, m.program_state);
  EXPECT_EQ(r->view_rv, 42);
  EXPECT_EQ(r->view_text, "host3");
  EXPECT_EQ(r->remaining_compute_us, 1234);
  EXPECT_TRUE(r->blocked_in_wait);
  ASSERT_EQ(r->streams.size(), 1u);
  EXPECT_EQ(r->streams[0].fd, 3);
  EXPECT_EQ(r->streams[0].path, "/tmp/x");
  EXPECT_EQ(r->streams[0].offset, 17);
  EXPECT_TRUE(r->streams[0].flags.write);
  EXPECT_EQ(r->heap.runs, m.heap.runs);
  EXPECT_EQ(r->captured_pages(), 4 + 2 + 1);

  // Truncated input must be rejected, not misparsed.
  fs::Bytes raw = m.encode();
  raw.resize(raw.size() / 2);
  EXPECT_FALSE(ckpt::CkptMeta::decode(raw).is_ok());

  // Head roundtrip.
  auto h = ckpt::decode_head(ckpt::encode_head(7));
  ASSERT_TRUE(h.is_ok());
  EXPECT_EQ(*h, 7);
  EXPECT_FALSE(ckpt::decode_head(make_bytes("garbage")).is_ok());

  // A bit flip anywhere in the head payload must fail the checksum.
  fs::Bytes hb = ckpt::encode_head(7);
  hb[8] ^= 0x01;
  EXPECT_FALSE(ckpt::decode_head(hb).is_ok());
  // A truncated head (torn rewrite) is rejected, not misparsed.
  fs::Bytes torn = ckpt::encode_head(7);
  torn.resize(torn.size() - 1);
  EXPECT_FALSE(ckpt::decode_head(torn).is_ok());

  // Same for the meta: a single flipped bit fails the trailing checksum.
  fs::Bytes flipped = m.encode();
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_FALSE(ckpt::CkptMeta::decode(flipped).is_ok());
}

// ---------------------------------------------------------------------------
// Capture chains
// ---------------------------------------------------------------------------

TEST(CkptTest, IncrementalCapturesOnlyDirtyPages) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId ws = wss[0];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .compute(Time::sec(5))
      .act(proc::Touch{vm::Segment::kHeap, 0, 4, true})
      .compute(Time::sec(5))
      .act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(16, 64, 4)).is_ok());

  const Pid pid = spawn_blocking(cluster, ws, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  auto& ck = cluster.host(ws).ckpt();
  const trace::Registry& tr = cluster.sim().trace();
  ASSERT_TRUE(checkpoint_now(cluster, ws, pid).is_ok());
  EXPECT_EQ(tr.counter_value("ckpt.capture.completed", ws), 1);
  EXPECT_EQ(tr.counter_value("ckpt.capture.full_base", ws), 1);
  const auto pages1 = tr.counter_value("ckpt.page.captured", ws);
  EXPECT_GE(pages1, 64);  // the 64 touched pages at least
  EXPECT_EQ(ck.chain_length(pid), 1);
  EXPECT_EQ(ck.last_seq(pid), 1);

  // The second capture, after only 4 pages were re-dirtied, must be an
  // increment whose size tracks the dirty set — not the 64-page image.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(5.5e0));
  ASSERT_TRUE(checkpoint_now(cluster, ws, pid).is_ok());
  EXPECT_EQ(tr.counter_value("ckpt.capture.completed", ws), 2);
  EXPECT_EQ(tr.counter_value("ckpt.capture.incremental", ws), 1);
  const std::int64_t incr_pages =
      tr.counter_value("ckpt.page.captured", ws) - pages1;
  EXPECT_GE(incr_pages, 4);
  EXPECT_LE(incr_pages, 8) << "increment captured far more than the dirty set";
  EXPECT_EQ(ck.chain_length(pid), 2);
  EXPECT_EQ(ck.last_seq(pid), 2);

  // The home's restart table learned about the image.
  cluster.sim().run_until(cluster.sim().now() + Time::msec(100));
  EXPECT_TRUE(cluster.host(ws).ckpt().home_has_checkpoint(pid));
}

TEST(CkptTest, ChainCompactsAfterMaxIncrements) {
  Cluster::Config cfg{.num_workstations = 2, .num_file_servers = 1, .seed = 1};
  cfg.costs.ckpt_chain_max = 3;
  Cluster cluster(cfg);
  const HostId ws = cluster.workstations()[0];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 8, true});
  for (int i = 0; i < 8; ++i)
    b.compute(Time::sec(2)).act(proc::Touch{vm::Segment::kHeap, 0, 2, true});
  b.act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(16, 16, 4)).is_ok());

  const Pid pid = spawn_blocking(cluster, ws, "/bin/w");
  auto& ck = cluster.host(ws).ckpt();
  // Four captures: 1 full + 2 increments fill the chain (max 3), the fourth
  // forces a fresh base and compacts seqs 1-3.
  for (int i = 0; i < 4; ++i) {
    cluster.sim().run_until(cluster.sim().now() + Time::sec(2));
    ASSERT_TRUE(checkpoint_now(cluster, ws, pid).is_ok()) << "capture " << i;
  }
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  const trace::Registry& tr = cluster.sim().trace();
  EXPECT_EQ(tr.counter_value("ckpt.capture.completed", ws), 4);
  EXPECT_EQ(tr.counter_value("ckpt.capture.full_base", ws), 2);
  EXPECT_EQ(tr.counter_value("ckpt.capture.incremental", ws), 2);
  EXPECT_EQ(tr.counter_value("ckpt.chain.compacted", ws), 1);
  EXPECT_EQ(ck.chain_length(pid), 1);  // fresh base only
  EXPECT_EQ(ck.last_seq(pid), 4);     // seq numbers stay monotonic

  // The compacted files are gone; the fresh base remains.
  auto* srv = cluster.file_server(0).fs_server();
  EXPECT_FALSE(srv->stat_path(ckpt::meta_path(pid, 1)).is_ok());
  EXPECT_FALSE(srv->stat_path(ckpt::pages_path(pid, 2)).is_ok());
  EXPECT_TRUE(srv->stat_path(ckpt::meta_path(pid, 4)).is_ok());
  EXPECT_TRUE(srv->stat_path(ckpt::head_path(pid, 4 & 1)).is_ok());
}

TEST(CkptTest, DeclinesPipesAndKeepsProcessRunning) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 1});
  const HostId ws = cluster.workstations()[0];

  ScriptBuilder b;
  b.act(proc::SysPipe{}).compute(Time::sec(10)).act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/p", b.image(8, 8, 2)).is_ok());
  const Pid pid = spawn_blocking(cluster, ws, "/bin/p");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

  const Status st = checkpoint_now(cluster, ws, pid);
  EXPECT_EQ(st.err(), Err::kNotMigratable) << st.to_string();
  EXPECT_EQ(cluster.sim().trace().counter_value("ckpt.capture.declined", ws),
            1);
  // The decline must not leave the process frozen.
  auto pcb = cluster.host(ws).procs().find(pid);
  ASSERT_TRUE(pcb != nullptr);
  EXPECT_NE(pcb->state, proc::ProcState::kFrozen);
}

// The process is reaped while its capture is in flight. Reaped after the
// output-commit flush, the capture still has its CPU job and chain reads
// ahead: by the time it plans the image the address space is gone, and it
// must fail instead of reading it. Reaped after the meta write, only the
// head commit is left: the image is durable and the capture commits, with no
// space left to clear.
TEST(CkptTest, CaptureSurvivesProcessReapedMidway) {
  for (const CkptStage stage : {CkptStage::kFlushed, CkptStage::kMetaWritten}) {
    SCOPED_TRACE(ckpt::ckpt_stage_name(stage));
    Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 1});
    const HostId ws = cluster.workstations()[0];
    ScriptBuilder b;
    b.act(proc::Touch{vm::Segment::kHeap, 0, 8, true})
        .compute(Time::sec(30))
        .act(proc::SysExit{0});
    ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 8, 2)).is_ok());
    const Pid pid = spawn_blocking(cluster, ws, "/bin/w");
    cluster.sim().run_until(cluster.sim().now() + Time::sec(1));

    cluster.host(ws).ckpt().add_stage_observer([&](Pid p, CkptStage s) {
      if (p == pid && s == stage)
        cluster.host(ws).procs().reap_stale_incarnation(pid);
    });
    const Status st = checkpoint_now(cluster, ws, pid);
    const trace::Registry& tr = cluster.sim().trace();
    if (stage == CkptStage::kFlushed) {
      EXPECT_EQ(st.err(), Err::kSrch) << st.to_string();
      EXPECT_EQ(tr.counter_value("ckpt.capture.failed", ws), 1);
      EXPECT_EQ(tr.counter_value("ckpt.capture.completed", ws), 0);
    } else {
      EXPECT_TRUE(st.is_ok()) << st.to_string();
      EXPECT_EQ(tr.counter_value("ckpt.capture.completed", ws), 1);
    }
    EXPECT_EQ(cluster.host(ws).procs().find(pid), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Crash recovery: the acceptance scenario
// ---------------------------------------------------------------------------

TEST(CkptTest, CheckpointedProcessSurvivesHostCrash) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];

  // Writes before and after the crash point, at fixed offsets so replay
  // after restart converges; heap pages dirty so real image bytes move.
  ScriptBuilder b;
  b.act(proc::SysOpen{"/out", fs::OpenFlags::create_rw()})
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("before"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(20))
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysSeek{static_cast<int>(c.locals["fd"]), 6};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("-after"), 0};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysFsync{static_cast<int>(c.locals["fd"])};
      })
      .act(proc::SysExit{7});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(16, 32, 4)).is_ok());

  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, runner);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  ASSERT_TRUE(checkpoint_now(cluster, runner, pid).is_ok());
  cluster.sim().run_until(cluster.sim().now() + Time::msec(200));
  ASSERT_TRUE(cluster.host(home).ckpt().home_has_checkpoint(pid));

  // Kill the host mid-compute. The home's monitor must discover the death,
  // and recovery must restart the process from the image elsewhere.
  cluster.crash_host(runner);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  EXPECT_TRUE(exited) << "checkpointed process never finished";
  EXPECT_EQ(exit_status, 7) << "restart did not run to correct completion";
  // It finished on some surviving host via a restart, not at the grave.
  EXPECT_EQ(cluster.sim().trace().counter_total("ckpt.restart.completed"), 1);
  EXPECT_FALSE(cluster.host(home).procs().home_record_alive(pid));
  // Output reflects the full run: the pre-crash write survived (it was
  // flushed by the capture) and the post-restart writes followed.
  auto* srv = cluster.file_server(0).fs_server();
  auto stat = srv->stat_path("/out");
  ASSERT_TRUE(stat.is_ok());
  auto bytes = srv->read_direct(stat->id, 0, stat->size);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "before-after");
  // The image was cleaned up when the home record retired (both head
  // slots).
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  EXPECT_FALSE(srv->stat_path(ckpt::head_path(pid, 0)).is_ok());
  EXPECT_FALSE(srv->stat_path(ckpt::head_path(pid, 1)).is_ok());
}

// ---------------------------------------------------------------------------
// Integrity: corrupted / torn images fall back to the previous commit
// ---------------------------------------------------------------------------

namespace {

// Replaces a file's durable contents (cache-bypassing), simulating what a
// torn rewrite or on-disk corruption leaves behind.
void overwrite_file(Cluster& cluster, HostId h, const std::string& path,
                    fs::Bytes data) {
  fs::OpenFlags fl;
  fl.read = true;
  fl.write = true;
  fl.truncate = true;
  fl.no_cache = true;
  bool done = false;
  cluster.host(h).fs().open(path, fl, [&](util::Result<fs::StreamPtr> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    cluster.host(h).fs().write(*r, std::move(data),
                               [&, s = *r](util::Result<std::int64_t> w) {
                                 ASSERT_TRUE(w.is_ok());
                                 cluster.host(h).fs().close(
                                     s, [&](Status) { done = true; });
                               });
  });
  cluster.run_until_done([&] { return done; });
}

// Shared scenario: two committed captures (seq 1 -> head slot 1, seq 2 ->
// head slot 0), then `sabotage` garbles part of the newest image, then the
// runner dies. Recovery must restart from a *committed* image — never
// half-apply — and the process must still finish correctly.
void run_fallback_scenario(
    Cluster& cluster,
    const std::function<void(Cluster&, Pid, HostId)>& sabotage) {
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];

  ScriptBuilder b;
  b.act(proc::SysOpen{"/out", fs::OpenFlags::create_rw()})
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("before"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 16, true})
      .compute(Time::sec(20))
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysSeek{static_cast<int>(c.locals["fd"]), 6};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("-after"), 0};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysFsync{static_cast<int>(c.locals["fd"])};
      })
      .act(proc::SysExit{7});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(16, 32, 4)).is_ok());

  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, runner);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  // Two commits: seq 1 (slot 1) and seq 2 (slot 0), the second incremental.
  ASSERT_TRUE(checkpoint_now(cluster, runner, pid).is_ok());
  cluster.sim().run_until(cluster.sim().now() + Time::sec(2));
  ASSERT_TRUE(checkpoint_now(cluster, runner, pid).is_ok());
  cluster.sim().run_until(cluster.sim().now() + Time::msec(200));
  ASSERT_TRUE(cluster.host(home).ckpt().home_has_checkpoint(pid));

  sabotage(cluster, pid, wss[2]);

  cluster.crash_host(runner);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  EXPECT_TRUE(exited) << "process never finished after fallback restart";
  EXPECT_EQ(exit_status, 7);
  EXPECT_EQ(cluster.sim().trace().counter_total("ckpt.restart.completed"), 1);
  auto* srv = cluster.file_server(0).fs_server();
  auto stat = srv->stat_path("/out");
  ASSERT_TRUE(stat.is_ok());
  auto bytes = srv->read_direct(stat->id, 0, stat->size);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "before-after")
      << "fallback restart half-applied or replayed wrong state";
}

}  // namespace

TEST(CkptTest, TruncatedHeadSlotFallsBackToPriorCommittedSeq) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  run_fallback_scenario(cluster, [](Cluster& c, Pid pid, HostId via) {
    // Cut the newest head slot mid-rewrite: keep a strict prefix of its
    // bytes. decode_head must reject it and restart must use the other
    // slot's seq — the previously committed image.
    auto* srv = c.file_server(0).fs_server();
    auto st = srv->stat_path(ckpt::head_path(pid, 2 & 1));
    ASSERT_TRUE(st.is_ok());
    auto raw = srv->read_direct(st->id, 0, st->size);
    ASSERT_TRUE(raw.is_ok());
    raw->resize(raw->size() / 2);
    overwrite_file(c, via, ckpt::head_path(pid, 2 & 1), *raw);
  });
  // The torn slot never became a candidate, so no chain-level fallback was
  // needed — the restart simply used the surviving slot.
  std::int64_t fell_back = 0;
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h)
    fell_back +=
        cluster.sim().trace().counter("ckpt.restore.fell_back", h).value();
  EXPECT_EQ(fell_back, 0);
}

TEST(CkptTest, CorruptNewestChainMetaFallsBackToPreviousImage) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  run_fallback_scenario(cluster, [](Cluster& c, Pid pid, HostId via) {
    // The newest head (seq 2) still decodes, but its chain meta is garbage:
    // the restore must detect the checksum mismatch and fall back to the
    // previous committed image (seq 1) instead of half-restoring.
    overwrite_file(c, via, ckpt::meta_path(pid, 2), make_bytes("garbage"));
  });
  std::int64_t fell_back = 0;
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h)
    fell_back +=
        cluster.sim().trace().counter("ckpt.restore.fell_back", h).value();
  EXPECT_GE(fell_back, 1) << "restore never exercised the fallback path";
}

TEST(CkptTest, UncheckpointedProcessStillDiesWithCrash) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];

  ScriptBuilder b;
  b.compute(Time::sec(30)).act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 8, 2)).is_ok());
  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, runner);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });
  cluster.crash_host(runner);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(60));
  EXPECT_TRUE(exited);
  EXPECT_EQ(exit_status, proc::kHostCrashExitStatus);
}

// ---------------------------------------------------------------------------
// Incarnation guard
// ---------------------------------------------------------------------------

TEST(CkptTest, RestoreWithSupersededIncarnationIsRefused) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1], other = wss[2];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 8, true})
      .compute(Time::sec(30))
      .act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 8, 2)).is_ok());
  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, runner);
  ASSERT_TRUE(checkpoint_now(cluster, runner, pid).is_ok());
  cluster.sim().run_until(cluster.sim().now() + Time::msec(200));

  // An incarnation older than the home's epoch must be rejected at the
  // claim step: the restore tears itself down and nothing is installed.
  const std::int64_t current =
      cluster.host(home).procs().home_record_incarnation(pid);
  Status st(Err::kAgain);
  bool done = false;
  cluster.host(other).ckpt().restore(pid, current - 1, [&](Status s) {
    st = s;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(st.err(), Err::kStale) << st.to_string();
  EXPECT_EQ(cluster.host(other).procs().find(pid), nullptr);
  EXPECT_EQ(
      cluster.sim().trace().counter_value("ckpt.restart.failed", other), 1);
  // The original keeps running: exactly one incarnation.
  EXPECT_NE(cluster.host(runner).procs().find(pid), nullptr);
}

// ---------------------------------------------------------------------------
// Eviction fast path
// ---------------------------------------------------------------------------

TEST(CkptTest, EvictionByCheckpointDepartsAndRestartsElsewhere) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], borrowed = wss[1];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 16, true})
      .compute(Time::sec(15))
      .act(proc::SysExit{5});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 16, 2)).is_ok());
  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, borrowed);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  cluster.host(borrowed).ckpt().set_evict_via_checkpoint(true);
  int evicted = -1;
  cluster.host(borrowed).mig().evict_all_foreign([&](int n) { evicted = n; });
  cluster.run_until_done([&] { return evicted >= 0; });
  EXPECT_EQ(evicted, 1);
  // The frozen copy is gone from the owner's machine immediately.
  EXPECT_EQ(cluster.host(borrowed).procs().find(pid), nullptr);
  EXPECT_EQ(
      cluster.sim().trace().counter_value("ckpt.depart.completed", borrowed),
      1);

  cluster.sim().run_until(cluster.sim().now() + Time::sec(60));
  EXPECT_TRUE(exited);
  EXPECT_EQ(exit_status, 5);
  EXPECT_EQ(cluster.sim().trace().counter_total("ckpt.restart.completed"), 1);
}

// ---------------------------------------------------------------------------
// Autocheckpoint daemon
// ---------------------------------------------------------------------------

TEST(CkptTest, AutocheckpointCapturesOnIntervalAndDirtyThreshold) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 1});
  const HostId ws = cluster.workstations()[0];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 32, true});
  for (int i = 0; i < 10; ++i)
    b.compute(Time::sec(3)).act(proc::Touch{vm::Segment::kHeap, 0, 2, true});
  b.act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 32, 2)).is_ok());

  auto& ck = cluster.host(ws).ckpt();
  ck.set_auto_policy(Time::sec(8), 1000000);  // interval-driven only
  ck.enable_autocheckpoint(true);
  const Pid pid = spawn_blocking(cluster, ws, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(28));

  const trace::Registry& tr = cluster.sim().trace();
  EXPECT_GE(tr.counter_value("ckpt.auto.triggered", ws), 2)
      << "daemon never triggered on interval";
  EXPECT_GE(tr.counter_value("ckpt.capture.completed", ws), 2);
  EXPECT_GE(tr.counter_value("ckpt.capture.incremental", ws), 1)
      << "follow-up captures should be increments";
  (void)pid;
}

// ---------------------------------------------------------------------------
// Determinism property (satellite): crash + restart-from-checkpoint produces
// byte-identical output and FS contents vs an uninterrupted run.
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_status = -1;
  std::string file;
  std::string script_trace;
};

RunResult determinism_run(std::uint64_t seed, bool with_crash) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1,
                   .seed = seed});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];

  // Idempotent fixed-offset writes: replay after a restart rewrites the
  // same bytes at the same offsets, so the converged file is identical.
  ScriptBuilder b;
  b.act(proc::SysOpen{"/det", fs::OpenFlags::create_rw()})
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::Compute{Time::msec(1)};
      });
  for (int i = 0; i < 6; ++i) {
    b.step([i](proc::ScriptProgram::Ctx& c) {
         return proc::SysSeek{static_cast<int>(c.locals["fd"]), i * 4};
       })
        .step([i](proc::ScriptProgram::Ctx& c) {
          c.note("w" + std::to_string(i));
          return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                                make_bytes("w" + std::to_string(i) + "._"),
                                0};
        })
        .act(proc::Touch{vm::Segment::kHeap, i, 2, true})
        .compute(Time::sec(3));
  }
  b.step([](proc::ScriptProgram::Ctx& c) {
     return proc::SysFsync{static_cast<int>(c.locals["fd"])};
   }).act(proc::SysExit{4});
  SPRITE_CHECK(cluster.install_program("/bin/det", b.image(8, 16, 2)).is_ok());

  const Pid pid = spawn_blocking(cluster, home, "/bin/det");
  cluster.sim().run_until(cluster.sim().now() + Time::msec(500));
  auto pcb = cluster.host(home).procs().find(pid);
  SPRITE_CHECK(pcb != nullptr);
  {
    Status st(Err::kAgain);
    bool done = false;
    cluster.host(home).mig().migrate(pcb, runner, [&](Status s) {
      st = s;
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    SPRITE_CHECK(st.is_ok());
  }

  RunResult out;
  bool exited = false;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    out.exit_status = s;
    exited = true;
  });

  if (with_crash) {
    // Checkpoint a few iterations in, let it run further (writes land
    // between the checkpoint and the crash — replay must absorb them),
    // then kill the host and let recovery restart from the image.
    cluster.sim().run_until(cluster.sim().now() + Time::sec(5));
    SPRITE_CHECK(checkpoint_now(cluster, runner, pid).is_ok());
    cluster.sim().run_until(cluster.sim().now() + Time::sec(4));
    cluster.crash_host(runner);
  }
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));
  SPRITE_CHECK(exited);

  auto* srv = cluster.file_server(0).fs_server();
  auto stat = srv->stat_path("/det");
  SPRITE_CHECK(stat.is_ok());
  auto bytes = srv->read_direct(stat->id, 0, stat->size);
  SPRITE_CHECK(bytes.is_ok());
  out.file.assign(bytes->begin(), bytes->end());
  return out;
}

class CkptDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CkptDeterminismTest, CrashRestartRunMatchesUninterruptedRun) {
  const std::uint64_t seed = GetParam();
  const RunResult clean = determinism_run(seed, /*with_crash=*/false);
  const RunResult faulted = determinism_run(seed, /*with_crash=*/true);
  EXPECT_EQ(clean.exit_status, 4);
  EXPECT_EQ(faulted.exit_status, clean.exit_status);
  EXPECT_EQ(faulted.file, clean.file)
      << "FS contents diverged after restart-from-checkpoint";
  EXPECT_EQ(clean.file, "w0._w1._w2._w3._w4._w5._");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptDeterminismTest,
                         ::testing::ValuesIn(sweep_seeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "Seed" + std::to_string(i.param);
                         });

// ---------------------------------------------------------------------------
// Migration interplay: the chain stays incremental across a migration.
// ---------------------------------------------------------------------------

TEST(CkptTest, ChainStaysIncrementalAcrossMigration) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], second = wss[1];

  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(5))
      .act(proc::Touch{vm::Segment::kHeap, 0, 3, true})
      .compute(Time::sec(20))
      .act(proc::SysExit{0});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(8, 32, 2)).is_ok());
  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  ASSERT_TRUE(checkpoint_now(cluster, home, pid).is_ok());
  const trace::Registry& tr = cluster.sim().trace();
  EXPECT_EQ(tr.counter_value("ckpt.capture.full_base", home), 1);

  // Move the process; the new host has no chain knowledge, but the head on
  // the shared FS does — its next capture must still be an increment.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(5));
  migrate_blocking(cluster, home, pid, second);
  EXPECT_EQ(cluster.host(home).ckpt().chain_length(pid), 0)
      << "source should forget the chain when the process departs";
  ASSERT_TRUE(checkpoint_now(cluster, second, pid).is_ok());
  EXPECT_EQ(tr.counter_value("ckpt.capture.incremental", second), 1)
      << "capture after migration restarted the chain instead of extending";
  EXPECT_EQ(cluster.host(second).ckpt().last_seq(pid), 2);
}

// ---------------------------------------------------------------------------
// Replicated file service interplay: a capture racing the file server's death
// must not strand the process. The head rewrite is the commit point — crash
// the primary between meta.<seq> and the head rewrite, then kill the runner:
// whichever chain the head names (old or new) must restart from the
// surviving replica.
// ---------------------------------------------------------------------------

TEST(CkptTest, CaptureRacingFileServerCrashRestartsFromSurvivingReplica) {
  Cluster cluster({.num_workstations = 3,
                   .num_file_servers = 1,
                   .fs_replicas = 2,
                   .seed = 1});
  const auto wss = cluster.workstations();
  const HostId home = wss[0], runner = wss[1];
  const HostId primary_h = cluster.file_server().id();
  auto* backup = cluster.fs_backup().fs_server();

  ScriptBuilder b;
  b.act(proc::SysOpen{"/out", fs::OpenFlags::create_rw()})
      .step([](proc::ScriptProgram::Ctx& c) {
        c.locals["fd"] = c.view->rv;
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("before"), 0};
      })
      .act(proc::Touch{vm::Segment::kHeap, 0, 32, true})
      .compute(Time::sec(20))
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysSeek{static_cast<int>(c.locals["fd"]), 6};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysWrite{static_cast<int>(c.locals["fd"]),
                              make_bytes("-after"), 0};
      })
      .step([](proc::ScriptProgram::Ctx& c) {
        return proc::SysFsync{static_cast<int>(c.locals["fd"])};
      })
      .act(proc::SysExit{7});
  ASSERT_TRUE(cluster.install_program("/bin/w", b.image(16, 32, 4)).is_ok());

  const Pid pid = spawn_blocking(cluster, home, "/bin/w");
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  migrate_blocking(cluster, home, pid, runner);

  bool exited = false;
  int exit_status = -1;
  cluster.host(home).procs().notify_on_exit(pid, [&](int s) {
    exited = true;
    exit_status = s;
  });

  // First capture commits cleanly (and replicates to the backup).
  ASSERT_TRUE(checkpoint_now(cluster, runner, pid).is_ok());
  cluster.sim().run_until(cluster.sim().now() + Time::msec(200));
  ASSERT_TRUE(cluster.host(home).ckpt().home_has_checkpoint(pid));

  // Second capture: the primary dies after meta.<seq> is written but before
  // the head rewrite commits it. The capture may fail or may commit at the
  // promoted replica; both leave a restartable chain.
  bool crash_fired = false;
  cluster.host(runner).ckpt().add_stage_observer([&](Pid p, CkptStage s) {
    if (p != pid || s != CkptStage::kMetaWritten || crash_fired) return;
    crash_fired = true;
    cluster.crash_host(primary_h);  // and it never comes back
  });
  {
    auto pcb = cluster.host(runner).procs().find(pid);
    ASSERT_TRUE(pcb != nullptr);
    bool done = false;
    cluster.host(runner).ckpt().checkpoint(pcb, [&](Status) { done = true; });
    cluster.run_until_done([&] { return done; });
  }
  ASSERT_TRUE(crash_fired) << "capture never reached kMetaWritten";
  cluster.sim().run_until(cluster.sim().now() + Time::sec(20));
  EXPECT_TRUE(backup->is_primary());

  // Now kill the runner: the home must restart the process from whatever
  // the head (at the surviving replica) names.
  cluster.crash_host(runner);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(120));

  EXPECT_TRUE(exited) << "process never finished after server+runner death";
  EXPECT_EQ(exit_status, 7);
  EXPECT_EQ(cluster.sim().trace().counter_total("ckpt.restart.completed"), 1)
      << "expected exactly one restart incarnation";

  // Output converged at the surviving replica: fixed-offset writes make the
  // replayed run idempotent.
  auto stat = backup->stat_path("/out");
  ASSERT_TRUE(stat.is_ok());
  auto bytes = backup->read_direct(stat->id, 0, stat->size);
  ASSERT_TRUE(bytes.is_ok());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "before-after");
}

}  // namespace
}  // namespace sprite
