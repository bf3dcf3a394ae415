// FS robustness: cache-capacity eviction, delayed writes surviving close,
// cold reads paying disk latency, server crash visibility, and RPC dedup
// under load.
#include <gtest/gtest.h>

#include "fs/client.h"
#include "fs/server.h"
#include "kern/cluster.h"
#include "sim/time.h"

namespace sprite::fs {
namespace {

using kern::Cluster;
using sim::Time;
using util::Err;
using util::Status;

StreamPtr open_blocking(Cluster& cluster, sim::HostId h,
                        const std::string& path, OpenFlags flags) {
  StreamPtr out;
  bool done = false;
  cluster.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (r.is_ok()) out = *r;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

Bytes read_blocking(Cluster& cluster, sim::HostId h, const StreamPtr& s,
                    std::int64_t len) {
  Bytes out;
  bool done = false;
  cluster.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
    EXPECT_TRUE(r.is_ok());
    if (r.is_ok()) out = std::move(*r);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

TEST(FsCapacityTest, ClientCacheEvictsUnderPressureWithoutDataLoss) {
  // A tiny client cache (16 blocks): reading a 64-block file sweeps the
  // cache several times; integrity must survive the evictions.
  kern::Cluster::Config config{.num_workstations = 1, .num_file_servers = 1};
  config.costs.fs_client_cache_blocks = 16;
  Cluster cluster(config);
  auto* server = cluster.file_server().fs_server();

  // Seed known contents directly at the server.
  auto id = server->create_file("/big", 0);
  ASSERT_TRUE(id.is_ok());
  {
    // Write through a client once (fills and overflows the cache).
    auto s = open_blocking(cluster, 1, "/big", OpenFlags::read_write());
    Bytes data(64 * 4096);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>((i / 4096 + i) & 0xff);
    bool done = false;
    cluster.host(1).fs().write(s, data, [&](util::Result<std::int64_t> r) {
      ASSERT_TRUE(r.is_ok());
      done = true;
    });
    cluster.run_until_done([&] { return done; });
    done = false;
    cluster.host(1).fs().fsync(s, [&](Status) { done = true; });
    cluster.run_until_done([&] { return done; });

    // Read it all back through the same (small) cache.
    cluster.host(1).fs().seek(s, 0);
    Bytes got = read_blocking(cluster, 1, s, 64 * 4096);
    ASSERT_EQ(got.size(), data.size());
    EXPECT_EQ(got, data);
  }
  // The cache respected its capacity: of the 64 blocks read back, only the
  // ~16 still resident after the write sweep could hit.
  EXPECT_GE(cluster.sim().trace().counter_value("fs.client.block.miss", 1), 48);
}

TEST(FsDelayedWriteTest, DirtyDataSurvivesCloseAndFlushesLater) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  auto* server = cluster.file_server().fs_server();
  auto s = open_blocking(cluster, 1, "/later", OpenFlags::create_rw());
  bool done = false;
  Bytes payload{'d', 'a', 't', 'a'};
  cluster.host(1).fs().write(s, payload, [&](util::Result<std::int64_t> r) {
    ASSERT_TRUE(r.is_ok());
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  done = false;
  cluster.host(1).fs().close(s, [&](Status) { done = true; });
  cluster.run_until_done([&] { return done; });

  // Closed, but the delayed write has not fired: server sees nothing yet.
  auto st = server->stat_path("/later");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 0);

  // After the 30 s delay it lands.
  cluster.sim().run_until(cluster.sim().now() + Time::sec(31));
  st = server->stat_path("/later");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 4);
}

TEST(FsDiskLatencyTest, ColdServerReadsPayDiskWarmOnesDoNot) {
  // Shrink the server cache so the file cannot fit, then read it twice.
  kern::Cluster::Config config{.num_workstations = 1, .num_file_servers = 1};
  config.costs.fs_server_cache_blocks = 4;
  Cluster cluster(config);
  auto* server = cluster.file_server().fs_server();
  server->create_file("/cold", 16 * 4096);

  OpenFlags flags = OpenFlags::read_only();
  flags.no_cache = true;  // bypass the client cache: hit the server each time
  auto s = open_blocking(cluster, 1, "/cold", flags);

  const trace::Registry& tr = cluster.sim().trace();
  const sim::HostId server_id = cluster.file_server().id();
  const auto disk_before =
      tr.counter_value("fs.server.disk.accessed", server_id);
  const Time t0 = cluster.sim().now();
  read_blocking(cluster, 1, s, 16 * 4096);
  const double cold_ms = (cluster.sim().now() - t0).ms();
  EXPECT_GT(tr.counter_value("fs.server.disk.accessed", server_id),
            disk_before);
  // 16 blocks, mostly misses at 15 ms each: disk dominates.
  EXPECT_GT(cold_ms, 100.0);

  // A 4-block re-read fits the LRU tail and can be served warm.
  cluster.host(1).fs().seek(s, 12 * 4096);
  const auto disk_mid = tr.counter_value("fs.server.disk.accessed", server_id);
  const Time t1 = cluster.sim().now();
  read_blocking(cluster, 1, s, 4 * 4096);
  const double warm_ms = (cluster.sim().now() - t1).ms();
  EXPECT_EQ(tr.counter_value("fs.server.disk.accessed", server_id),
            disk_mid);  // all cached
  EXPECT_LT(warm_ms, cold_ms / 4);
}

TEST(FsServerDownTest, OperationsFailWithTimeoutsNotHangs) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1});
  cluster.file_server().fs_server()->create_file("/there", 128);
  auto s = open_blocking(cluster, 1, "/there", OpenFlags::read_only());

  cluster.net().set_host_up(cluster.file_server().id(), false);
  bool done = false;
  Err err = Err::kOk;
  // Bypass the cache so the read must reach the (dead) server.
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  cluster.host(1).fs().open("/there", nf, [&](util::Result<StreamPtr> r) {
    err = r.err();
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(err, Err::kTimedOut);
  (void)s;
}

TEST(FsServerDownTest, ReplicatedInflightOpsConvergeInsteadOfFailing) {
  // Same shape as OperationsFailWithTimeoutsNotHangs, but with a backup
  // replica: the in-flight open parks under suspicion, the down verdict
  // promotes the backup and flips the client's route, and the retried call
  // succeeds there — the caller never sees the crash.
  Cluster cluster(
      {.num_workstations = 2, .num_file_servers = 1, .fs_replicas = 2});
  cluster.file_server().fs_server()->create_file("/there", 128);
  cluster.fs_backup().fs_server()->create_file("/there", 128);
  const sim::HostId ws = cluster.workstations()[0];
  auto s = open_blocking(cluster, ws, "/there", OpenFlags::read_only());
  ASSERT_TRUE(s);

  cluster.crash_host(cluster.file_server().id());
  bool done = false;
  Err err = Err::kAgain;
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  cluster.host(ws).fs().open("/there", nf, [&](util::Result<StreamPtr> r) {
    err = r.err();
    if (r.is_ok()) {
      EXPECT_EQ((*r)->file.server, cluster.fs_backup().id());
    }
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(err, Err::kOk);
  EXPECT_TRUE(cluster.fs_backup().fs_server()->is_primary());
}

TEST(FsWritebackCoalescingTest, FlushBatchesContiguousDirtyBlocks) {
  Cluster cluster({.num_workstations = 1, .num_file_servers = 1});
  auto s = open_blocking(cluster, 1, "/batch", OpenFlags::create_rw());
  bool done = false;
  // 64 KB of contiguous dirty data = 16 blocks; at 16 KB per transfer the
  // flush needs exactly 4 write RPCs, not 16.
  cluster.host(1).fs().write(s, Bytes(64 * 1024, 'b'),
                             [&](util::Result<std::int64_t> r) {
                               ASSERT_TRUE(r.is_ok());
                               done = true;
                             });
  cluster.run_until_done([&] { return done; });
  const trace::Registry& tr = cluster.sim().trace();
  const auto writes_before = tr.counter_value("fs.client.write.sent", 1);
  done = false;
  cluster.host(1).fs().fsync(s, [&](Status) { done = true; });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(tr.counter_value("fs.client.write.sent", 1) - writes_before, 4);
}

}  // namespace
}  // namespace sprite::fs
