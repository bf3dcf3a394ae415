// E15 — checkpoint/restart cost scaling and the checkpoint-vs-migration
// tradeoff (extends the thesis beyond [DO91]: Sprite itself had no
// checkpointing; the image format reuses the migration encapsulation and
// the shared-FS recovery machinery).
//
// Claims under test:
//   1. A full base checkpoint costs O(resident pages); an *incremental*
//      checkpoint costs O(pages dirtied since the last capture), not
//      O(address-space size). Scaling the dirty set scales the increment;
//      scaling the address space does not.
//   2. Eviction by checkpoint-and-depart frees the workstation without
//      consuming cycles on any other host immediately, at the price of a
//      restart later; eviction by migration pays the transfer up front.
//   3. After a host crash, a checkpointed process restarts elsewhere in
//      detection time (~recov_down_after) plus a restore that costs
//      O(chain pages) — an outcome migration alone cannot provide at all.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "ckpt/manager.h"
#include "proc/table.h"

using sprite::core::SpriteCluster;
using sprite::proc::Pid;
using sprite::proc::ScriptBuilder;
using sprite::sim::HostId;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

// Blocks until a checkpoint of `pid` (resident on `h`) commits; returns the
// simulated capture latency in milliseconds.
double checkpoint_ms(SpriteCluster& cluster, HostId h, Pid pid) {
  auto pcb = cluster.host(h).procs().find(pid);
  if (!pcb) return -1.0;
  const Time t0 = cluster.sim().now();
  bool done = false;
  sprite::util::Status st(sprite::util::Err::kAgain);
  cluster.host(h).ckpt().checkpoint(pcb, [&](sprite::util::Status s) {
    st = s;
    done = true;
  });
  cluster.kernel().run_until_done([&] { return done; });
  if (!st.is_ok()) return -1.0;
  return (cluster.sim().now() - t0).ms();
}

// One capture-scaling run: a process touches `total` heap pages, takes a
// full base, dirties `dirty` pages, takes an increment. Returns both
// latencies.
struct CaptureCost {
  double full_ms = 0;
  double incr_ms = 0;
};

CaptureCost capture_cost(std::int64_t total, std::int64_t dirty) {
  SpriteCluster cluster({.workstations = 2, .seed = 11,
                         .enable_load_sharing = false});
  ScriptBuilder b;
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, total, true})
      .compute(Time::sec(5))
      .act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, dirty, true})
      .compute(Time::minutes(10))
      .exit(0);
  cluster.install_program("/bin/w", b.image(8, total, 2));

  const HostId ws = cluster.workstation(0);
  const Pid pid = cluster.spawn(ws, "/bin/w", {});
  cluster.run_for(Time::sec(2));  // first touch done, second not yet

  CaptureCost out;
  out.full_ms = checkpoint_ms(cluster, ws, pid);
  cluster.run_for(Time::sec(6));  // past the dirtying touch
  out.incr_ms = checkpoint_ms(cluster, ws, pid);
  return out;
}

// Eviction comparison: a foreign process with `dirty_pages` of dirty heap is
// evicted either by migration home or by checkpoint-and-depart. Returns the
// simulated time the eviction took on the evicting host.
double evict_ms(std::int64_t dirty_pages, bool via_checkpoint) {
  SpriteCluster cluster({.workstations = 3, .seed = 23,
                         .enable_load_sharing = false});
  ScriptBuilder b;
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, dirty_pages, true})
      .compute(Time::minutes(10))
      .exit(0);
  cluster.install_program("/bin/w", b.image(8, dirty_pages, 2));

  const HostId home = cluster.workstation(0);
  const HostId runner = cluster.workstation(1);
  const Pid pid = cluster.spawn(home, "/bin/w", {});
  cluster.run_for(Time::msec(200));
  if (!cluster.migrate(pid, runner).is_ok()) return -1.0;
  cluster.run_for(Time::sec(3));  // the touch lands on the runner

  cluster.host(runner).ckpt().set_evict_via_checkpoint(via_checkpoint);
  const Time t0 = cluster.sim().now();
  cluster.evict(runner);
  return (cluster.sim().now() - t0).ms();
}

// Crash recovery: checkpoint on the runner, crash it, measure from the crash
// to the process resuming on another host.
struct RecoveryCost {
  double detect_and_restart_ms = 0;
  std::int64_t pages_restored = 0;
  bool recovered = false;
};

RecoveryCost crash_recovery(std::int64_t pages) {
  SpriteCluster cluster({.workstations = 3, .seed = 31,
                         .enable_load_sharing = false});
  ScriptBuilder b;
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, pages, true})
      .compute(Time::minutes(10))
      .exit(0);
  cluster.install_program("/bin/w", b.image(8, pages, 2));

  const HostId home = cluster.workstation(0);
  const HostId runner = cluster.workstation(1);
  const Pid pid = cluster.spawn(home, "/bin/w", {});
  cluster.run_for(Time::msec(200));
  if (!cluster.migrate(pid, runner).is_ok()) return {};
  cluster.run_for(Time::sec(3));
  if (checkpoint_ms(cluster, runner, pid) < 0) return {};
  // Registration with the home's restart table is asynchronous and
  // best-effort; give it a beat before pulling the plug.
  cluster.run_for(Time::msec(500));

  const Time t0 = cluster.sim().now();
  cluster.kernel().crash_host(runner);
  RecoveryCost out;
  const sprite::trace::Registry& tr = cluster.sim().trace();
  auto restarted = [&] {
    for (int i = 0; i < cluster.num_workstations(); ++i) {
      const HostId h = cluster.workstation(i);
      if (h == runner) continue;
      if (tr.counter_value("ckpt.restart.completed", h) > 0) return true;
    }
    return false;
  };
  for (int tick = 0; tick < 600 && !restarted(); ++tick)
    cluster.run_for(Time::msec(100));
  out.recovered = restarted();
  out.detect_and_restart_ms = (cluster.sim().now() - t0).ms();
  for (int i = 0; i < cluster.num_workstations(); ++i)
    out.pages_restored +=
        tr.counter_value("ckpt.page.restored", cluster.workstation(i));
  cluster.kernel().reboot_host(runner);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header(
      "E15: checkpoint/restart — incremental cost scaling, eviction and "
      "crash recovery vs migration",
      "incremental checkpoints cost O(dirty pages); checkpoint gives "
      "crash recovery migration cannot");

  std::printf("-- capture cost vs dirty set (total = 1024 pages / 4 MB) --\n");
  {
    Table t({"dirty pages", "full base (ms)", "increment (ms)"});
    for (std::int64_t dirty : {8LL, 32LL, 128LL, 512LL}) {
      const auto c = capture_cost(1024, dirty);
      t.add_row({std::to_string(dirty), Table::num(c.full_ms, 1),
             Table::num(c.incr_ms, 1)});
    }
    t.print();
  }

  std::printf(
      "\n-- capture cost vs address-space size (dirty set fixed at 32) --\n");
  {
    Table t({"total pages", "full base (ms)", "increment (ms)"});
    for (std::int64_t total : {256LL, 512LL, 1024LL, 2048LL}) {
      const auto c = capture_cost(total, 32);
      t.add_row({std::to_string(total), Table::num(c.full_ms, 1),
             Table::num(c.incr_ms, 1)});
    }
    t.print();
  }

  std::printf("\n-- eviction: migrate home vs checkpoint-and-depart --\n");
  {
    Table t({"dirty pages", "migrate (ms)", "ckpt+depart (ms)"});
    for (std::int64_t dirty : {256LL, 1024LL}) {
      t.add_row({std::to_string(dirty), Table::num(evict_ms(dirty, false), 1),
             Table::num(evict_ms(dirty, true), 1)});
    }
    t.print();
  }

  std::printf("\n-- crash recovery from checkpoint --\n");
  {
    Table t({"image pages", "crash->resumed (ms)", "pages restored",
             "recovered"});
    for (std::int64_t pages : {256LL, 1024LL}) {
      const auto r = crash_recovery(pages);
      t.add_row({std::to_string(pages), Table::num(r.detect_and_restart_ms, 0),
             std::to_string(r.pages_restored), r.recovered ? "yes" : "NO"});
    }
    t.print();
  }

  bench::footnote(
      "Increment latency tracks the dirty set, not the address space; the\n"
      "full-base column tracks total resident pages. Eviction by checkpoint\n"
      "pays image-write time instead of transfer time and leaves nothing\n"
      "behind. Crash->resumed includes the failure-detection window\n"
      "(recov_down_after) before the restore begins.");
  (void)argc;
  (void)argv;
  return 0;
}
