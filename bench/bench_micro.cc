// Engine micro-benchmarks (wall-clock, via google-benchmark).
//
// Not a paper reproduction: these measure the simulator substrate itself so
// regressions in the event loop, RPC path, or FS path are visible. All other
// bench binaries report *simulated* time.
#include <benchmark/benchmark.h>

#include "core/sprite.h"
#include "kern/cluster.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace {

using sprite::sim::Time;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sprite::sim::Simulator sim;
    for (int i = 0; i < 1000; ++i)
      sim.after(Time::usec(i), [] {});
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

// RPC's timer pattern: each call arms a retransmission timeout, the reply
// arrives first and cancels it, so every other event is a cancelled one.
void BM_EventQueueTimeoutCancel(benchmark::State& state) {
  for (auto _ : state) {
    sprite::sim::Simulator sim;
    int replies = 0;
    for (int i = 0; i < 1000; ++i) {
      sprite::sim::EventHandle timeout =
          sim.after(Time::sec(1), "rpc_timeout", [] {});
      sim.after(Time::usec(i), "rpc_callback", [timeout, &replies]() mutable {
        timeout.cancel();
        ++replies;
      });
    }
    sim.run();
    benchmark::DoNotOptimize(replies);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueTimeoutCancel);

void BM_RpcRoundTrips(benchmark::State& state) {
  for (auto _ : state) {
    sprite::kern::Cluster cluster(
        {.num_workstations = 2, .num_file_servers = 1});
    int done = 0;
    for (int i = 0; i < 100; ++i) {
      cluster.host(1).rpc().call(
          2, sprite::rpc::ServiceId::kProc,
          static_cast<int>(sprite::proc::ProcOp::kGetHostName), nullptr,
          [&](sprite::util::Result<sprite::rpc::Reply>) { ++done; });
    }
    cluster.run_until_done([&] { return done == 100; });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RpcRoundTrips);

void BM_FsCachedReads(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sprite::kern::Cluster cluster(
        {.num_workstations = 1, .num_file_servers = 1});
    cluster.file_server().fs_server()->create_file("/f", 64 * 1024);
    sprite::fs::StreamPtr s;
    bool opened = false;
    cluster.host(1).fs().open("/f", sprite::fs::OpenFlags::read_only(),
                              [&](sprite::util::Result<sprite::fs::StreamPtr> r) {
                                s = *r;
                                opened = true;
                              });
    cluster.run_until_done([&] { return opened; });
    state.ResumeTiming();

    int reads = 0;
    for (int i = 0; i < 200; ++i) {
      cluster.host(1).fs().seek(s, (i % 16) * 4096);
      cluster.host(1).fs().read(s, 4096,
                                [&](sprite::util::Result<sprite::fs::Bytes>) {
                                  ++reads;
                                });
    }
    cluster.run_until_done([&] { return reads == 200; });
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FsCachedReads);

// The server-side data path: 4 KB block writes (journal copy, block store,
// block checksum) and reads verified against the block checksums, through a
// no-cache stream so every block reaches the server.
void BM_FsServerWriteVerifyRead(benchmark::State& state) {
  constexpr int kBlocks = 64;
  const sprite::fs::Bytes block(4096, 0x5a);
  for (auto _ : state) {
    state.PauseTiming();
    sprite::kern::Cluster cluster(
        {.num_workstations = 1, .num_file_servers = 1});
    auto& fs = cluster.host(1).fs();
    sprite::fs::OpenFlags flags = sprite::fs::OpenFlags::create_rw();
    flags.no_cache = true;
    sprite::fs::StreamPtr s;
    bool opened = false;
    fs.open("/data", flags,
            [&](sprite::util::Result<sprite::fs::StreamPtr> r) {
              s = *r;
              opened = true;
            });
    cluster.run_until_done([&] { return opened; });
    state.ResumeTiming();

    // One operation at a time: each advances the stream offset.
    int done = 0;
    for (int i = 0; i < kBlocks; ++i) {
      fs.write(s, block,
               [&](sprite::util::Result<std::int64_t>) { ++done; });
      cluster.run_until_done([&] { return done == i + 1; });
    }
    fs.seek(s, 0);
    for (int i = 0; i < kBlocks; ++i) {
      fs.read(s, 4096, [&](sprite::util::Result<sprite::fs::Bytes> r) {
        benchmark::DoNotOptimize(r);
        ++done;
      });
      cluster.run_until_done([&] { return done == kBlocks + i + 1; });
    }
  }
  state.SetBytesProcessed(state.iterations() * 2 * kBlocks * 4096);
}
BENCHMARK(BM_FsServerWriteVerifyRead);

void BM_ExecTimeMigration(benchmark::State& state) {
  for (auto _ : state) {
    sprite::core::SpriteCluster cluster(
        {.workstations = 3, .enable_load_sharing = false});
    sprite::proc::ScriptBuilder work;
    work.exit(0);
    cluster.install_program("/bin/n", work.image(4, 4, 2));
    sprite::proc::ScriptBuilder launch;
    launch
        .act(sprite::proc::SysMigrateSelf{.target = cluster.workstation(1),
                                          .at_exec = true})
        .act(sprite::proc::SysExec{"/bin/n", {}});
    cluster.install_program("/bin/l", launch.image(4, 4, 2));
    const auto pid = cluster.spawn(cluster.workstation(0), "/bin/l", {});
    cluster.wait(pid);
  }
}
BENCHMARK(BM_ExecTimeMigration);

// ---- Tracing overhead ----
//
// The same RPC workload with event tracing off (the default: every
// instrumentation site is one predictable branch, counters still count) and
// on (spans/instants are recorded). The off/on pair bounds what the
// instrumentation costs a production run: off must track BM_RpcRoundTrips.

void rpc_workload(sprite::kern::Cluster& cluster) {
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    cluster.host(1).rpc().call(
        2, sprite::rpc::ServiceId::kProc,
        static_cast<int>(sprite::proc::ProcOp::kGetHostName), nullptr,
        [&](sprite::util::Result<sprite::rpc::Reply>) { ++done; });
  }
  cluster.run_until_done([&] { return done == 100; });
}

void BM_RpcRoundTripsTracingOff(benchmark::State& state) {
  for (auto _ : state) {
    sprite::kern::Cluster cluster(
        {.num_workstations = 2, .num_file_servers = 1});
    rpc_workload(cluster);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RpcRoundTripsTracingOff);

void BM_RpcRoundTripsTracingOn(benchmark::State& state) {
  for (auto _ : state) {
    sprite::kern::Cluster cluster(
        {.num_workstations = 2, .num_file_servers = 1});
    cluster.sim().trace().set_tracing(true);
    rpc_workload(cluster);
    benchmark::DoNotOptimize(cluster.sim().trace().events().size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_RpcRoundTripsTracingOn);

}  // namespace

BENCHMARK_MAIN();
