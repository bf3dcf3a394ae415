// Sharded + replicated file service: synchronous mirroring to the backup,
// failover promotion driven by the host monitor's down verdict, client
// rerouting and dirty-block rehoming, demotion/resync of a rebooted primary,
// partition independence, and the flush-on-suspect hedge.
#include <gtest/gtest.h>

#include <string>

#include "fs/client.h"
#include "fs/server.h"
#include "kern/cluster.h"
#include "sim/time.h"

namespace sprite::fs {
namespace {

using kern::Cluster;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

StreamPtr open_blocking(Cluster& cluster, HostId h, const std::string& path,
                        OpenFlags flags) {
  StreamPtr out;
  bool done = false;
  cluster.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
    EXPECT_TRUE(r.is_ok()) << path << ": " << r.status().to_string();
    if (r.is_ok()) out = *r;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

void write_blocking(Cluster& cluster, HostId h, const StreamPtr& s,
                    const std::string& data) {
  bool done = false;
  cluster.host(h).fs().write(s, Bytes(data.begin(), data.end()),
                             [&](util::Result<std::int64_t> r) {
                               EXPECT_TRUE(r.is_ok())
                                   << r.status().to_string();
                               done = true;
                             });
  cluster.run_until_done([&] { return done; });
}

Status fsync_blocking(Cluster& cluster, HostId h, const StreamPtr& s) {
  Status out(Err::kAgain);
  bool done = false;
  cluster.host(h).fs().fsync(s, [&](Status st) {
    out = st;
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

std::string read_blocking(Cluster& cluster, HostId h, const StreamPtr& s,
                          std::int64_t len) {
  std::string out;
  bool done = false;
  cluster.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    if (r.is_ok()) out.assign(r->begin(), r->end());
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

util::Result<Bytes> read_result(Cluster& cluster, HostId h,
                                const StreamPtr& s, std::int64_t len) {
  util::Result<Bytes> out(Err::kAgain);
  bool done = false;
  cluster.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
    out = std::move(r);
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  return out;
}

std::string server_bytes(FsServer* srv, const std::string& path,
                         std::int64_t len) {
  auto st = srv->stat_path(path);
  if (!st.is_ok()) return "<noent>";
  auto data = srv->read_direct(st->id, 0, len);
  if (!data.is_ok()) return "<readfail>";
  return std::string(data->begin(), data->end());
}

std::int64_t counter(Cluster& cluster, const std::string& name, HostId h) {
  return cluster.sim().trace().counter(name, h).value();
}

void run_for(Cluster& cluster, Time d) {
  cluster.sim().run_until(cluster.sim().now() + d);
}

// ---------------------------------------------------------------------------
// Synchronous mirroring: by the time the client's fsync returns, every
// acked mutation exists at the backup too (creates, writes, unlinks).
TEST(FsReplicationTest, MutationsMirrorToBackupSynchronously) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* primary = cluster.file_server().fs_server();
  auto* backup = cluster.fs_backup().fs_server();
  ASSERT_TRUE(primary->is_primary());
  ASSERT_FALSE(backup->is_primary());
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/mirror", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "mirrored");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s).is_ok());

  // The backup holds the same name and bytes, without ever serving a client.
  auto bst = backup->stat_path("/mirror");
  ASSERT_TRUE(bst.is_ok());
  EXPECT_EQ(bst->size, 8);
  EXPECT_EQ(server_bytes(backup, "/mirror", 8), "mirrored");
  EXPECT_GE(counter(cluster, "fs.repl.records_applied", backup->host()), 2);

  // Unlink propagates too.
  bool done = false;
  cluster.host(ws).fs().unlink("/mirror", [&](Status st) {
    EXPECT_TRUE(st.is_ok());
    done = true;
  });
  cluster.run_until_done([&] { return done; });
  // The open stream keeps the inode alive at both replicas; after close the
  // name is gone everywhere.
  done = false;
  cluster.host(ws).fs().close(s, [&](Status) { done = true; });
  cluster.run_until_done([&] { return done; });
  run_for(cluster, Time::sec(1));
  EXPECT_FALSE(backup->stat_path("/mirror").is_ok());
  EXPECT_FALSE(primary->stat_path("/mirror").is_ok());
}

// ---------------------------------------------------------------------------
// Primary dies: the backup's monitor reaches a down verdict and promotes it;
// clients flip their prefix routes and later opens are served by the backup
// with all previously-acked data intact.
TEST(FsFailoverTest, PromotesBackupAndClientsReroute) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* backup = cluster.fs_backup().fs_server();
  const HostId primary_h = cluster.file_server().id();
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/durable", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "acked-before-crash");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s).is_ok());

  cluster.crash_host(primary_h);
  // Echo probes -> suspicion -> down verdict -> promotion; give the
  // protocol a comfortable margin.
  run_for(cluster, Time::sec(20));
  EXPECT_TRUE(backup->is_primary());
  EXPECT_GE(counter(cluster, "fs.failover.promotions", backup->host()), 1);

  // The client's prefix table now points at the backup.
  auto rt = cluster.host(ws).fs().route("/durable");
  ASSERT_TRUE(rt.is_ok());
  EXPECT_EQ(*rt, backup->host());
  EXPECT_GE(counter(cluster, "fs.failover.reroutes", ws), 1);

  // A fresh open + uncached read is served by the promoted replica.
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  auto s2 = open_blocking(cluster, ws, "/durable", nf);
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2->file.server, backup->host());
  EXPECT_EQ(read_blocking(cluster, ws, s2, 64), "acked-before-crash");
}

// ---------------------------------------------------------------------------
// Dirty delayed-write blocks cached at a client when the primary dies are
// rehomed: reopened by path at the promoted backup and flushed there. No
// client-acked byte is lost, and none is silently dropped.
TEST(FsFailoverTest, DirtyDelayedWritesRehomeToPromotedBackup) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* backup = cluster.fs_backup().fs_server();
  const HostId primary_h = cluster.file_server().id();
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/precious", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "precious");  // cached dirty, NOT fsynced

  cluster.crash_host(primary_h);
  // Down verdict (~10 s), rehome reopen at the backup, then the rescheduled
  // 30 s delayed write lands there.
  run_for(cluster, Time::sec(60));

  ASSERT_TRUE(backup->is_primary());
  EXPECT_EQ(server_bytes(backup, "/precious", 8), "precious");
  EXPECT_EQ(counter(cluster, "fs.cache.dirty_lost", ws), 0);
  EXPECT_GE(counter(cluster, "fs.failover.rehomed_blocks", ws), 1);

  // The surviving stream still works against the new home.
  cluster.host(ws).fs().seek(s, 0);
  EXPECT_EQ(read_blocking(cluster, ws, s, 8), "precious");
}

// ---------------------------------------------------------------------------
// The old primary reboots after a failover: it must come back as a backup
// (higher partition epoch wins), full-snapshot resync from the survivor, and
// be ready to take over if the current primary then dies.
TEST(FsFailoverTest, RebootedPrimaryDemotesResyncsAndCanTakeOver) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* old_primary = cluster.file_server().fs_server();
  auto* backup = cluster.fs_backup().fs_server();
  const HostId primary_h = cluster.file_server().id();
  const HostId backup_h = cluster.fs_backup().id();
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/epoch", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "v1");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s).is_ok());

  cluster.crash_host(primary_h);
  run_for(cluster, Time::sec(20));
  ASSERT_TRUE(backup->is_primary());

  // Write new data only the promoted replica has.
  auto s2 = open_blocking(cluster, ws, "/epoch", OpenFlags::read_write());
  ASSERT_TRUE(s2);
  write_blocking(cluster, ws, s2, "V2");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s2).is_ok());

  // Old primary reboots: its Hello meets a higher epoch and it demotes,
  // then snapshot-resyncs the namespace it missed.
  cluster.reboot_host(primary_h);
  run_for(cluster, Time::sec(10));
  EXPECT_FALSE(old_primary->is_primary());
  EXPECT_TRUE(backup->is_primary());
  EXPECT_EQ(old_primary->partition_epoch(), backup->partition_epoch());
  EXPECT_GE(counter(cluster, "fs.repl.snapshot_syncs", primary_h), 1);
  EXPECT_EQ(server_bytes(old_primary, "/epoch", 2), "V2");

  // Double failover: kill the current primary; the resynced replica takes
  // over with the post-failover data.
  cluster.crash_host(backup_h);
  run_for(cluster, Time::sec(20));
  EXPECT_TRUE(old_primary->is_primary());
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  auto s3 = open_blocking(cluster, ws, "/epoch", nf);
  ASSERT_TRUE(s3);
  EXPECT_EQ(read_blocking(cluster, ws, s3, 2), "V2");
}

// ---------------------------------------------------------------------------
// A snapshot resync carries each block's sum and taint: a block corrupt on
// the primary stays corrupt on the resynced replica, and is never served as
// good data after the next failover.
TEST(FsFailoverTest, SnapshotResyncKeepsCorruptionVisible) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* old_primary = cluster.file_server().fs_server();
  auto* backup = cluster.fs_backup().fs_server();
  const HostId primary_h = cluster.file_server().id();
  const HostId backup_h = cluster.fs_backup().id();
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/epoch", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "v1");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s).is_ok());
  cluster.crash_host(primary_h);
  run_for(cluster, Time::sec(20));
  ASSERT_TRUE(backup->is_primary());
  auto s2 = open_blocking(cluster, ws, "/epoch", OpenFlags::read_write());
  ASSERT_TRUE(s2);
  write_blocking(cluster, ws, s2, "V2");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s2).is_ok());

  // Silent corruption on the promoted replica, then the old primary
  // reboots and resyncs from it by snapshot.
  backup->inject_bit_flip(0);
  cluster.reboot_host(primary_h);
  run_for(cluster, Time::sec(10));
  ASSERT_FALSE(old_primary->is_primary());
  ASSERT_GE(counter(cluster, "fs.repl.snapshot_syncs", primary_h), 1);
  EXPECT_EQ(old_primary->scrub_all_now(), 1);

  // After the second failover the resynced replica refuses to serve it.
  cluster.crash_host(backup_h);
  run_for(cluster, Time::sec(20));
  ASSERT_TRUE(old_primary->is_primary());
  OpenFlags nf = OpenFlags::read_only();
  nf.no_cache = true;
  auto s3 = open_blocking(cluster, ws, "/epoch", nf);
  ASSERT_TRUE(s3);
  EXPECT_EQ(read_result(cluster, ws, s3, 2).err(), Err::kCorrupt);
}

// ---------------------------------------------------------------------------
// A partial overwrite of a corrupt block cannot bless its surviving bytes:
// reads fail kCorrupt until the block is repaired from the replica, whose
// copy applied the same write to intact bytes.
TEST(FsIntegrityTest, PartialOverwriteOfCorruptBlockStaysCorruptUntilRepair) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 1, .fs_replicas = 2});
  auto* primary = cluster.file_server().fs_server();
  const HostId ws = cluster.workstations()[0];
  const std::int64_t bs = cluster.costs().block_size;
  OpenFlags flags = OpenFlags::create_rw();
  flags.no_cache = true;
  auto s = open_blocking(cluster, ws, "/rmw", flags);
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, std::string(static_cast<std::size_t>(bs), 'a'));

  primary->inject_bit_flip(0);
  cluster.host(ws).fs().seek(s, 10);
  write_blocking(cluster, ws, s, "XY");
  std::string want(static_cast<std::size_t>(bs), 'a');
  want.replace(10, 2, "XY");

  cluster.host(ws).fs().seek(s, 0);
  EXPECT_EQ(read_result(cluster, ws, s, bs).err(), Err::kCorrupt);
  run_for(cluster, Time::sec(1));  // the read kicked a repair
  EXPECT_EQ(counter(cluster, "fs.scrub.repaired", primary->host()), 1);
  cluster.host(ws).fs().seek(s, 0);
  EXPECT_EQ(read_blocking(cluster, ws, s, bs), want);
}

// ---------------------------------------------------------------------------
// Two partitions, each replicated: killing partition 0's primary must not
// perturb routing or service on partition 1.
TEST(FsShardingTest, PartitionsFailIndependently) {
  Cluster cluster(
      {.num_workstations = 1, .num_file_servers = 2, .fs_replicas = 2});
  const HostId p0 = cluster.file_server(0).id();
  const HostId p1 = cluster.file_server(1).id();
  const HostId b0 = cluster.fs_backup(0).id();
  const HostId ws = cluster.workstations()[0];

  auto s0 = open_blocking(cluster, ws, "/root-file", OpenFlags::create_rw());
  auto s1 = open_blocking(cluster, ws, "/s1/shard-file",
                          OpenFlags::create_rw());
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  EXPECT_EQ(s0->file.server, p0);
  EXPECT_EQ(s1->file.server, p1);
  write_blocking(cluster, ws, s1, "shard1");
  ASSERT_TRUE(fsync_blocking(cluster, ws, s1).is_ok());

  cluster.crash_host(p0);
  run_for(cluster, Time::sec(20));

  // Partition 0 failed over; partition 1 kept its configured primary.
  auto r_root = cluster.host(ws).fs().route("/root-file");
  auto r_shard = cluster.host(ws).fs().route("/s1/shard-file");
  ASSERT_TRUE(r_root.is_ok());
  ASSERT_TRUE(r_shard.is_ok());
  EXPECT_EQ(*r_root, b0);
  EXPECT_EQ(*r_shard, p1);
  EXPECT_TRUE(cluster.fs_backup(0).fs_server()->is_primary());
  EXPECT_TRUE(cluster.file_server(1).fs_server()->is_primary());
  EXPECT_EQ(counter(cluster, "fs.failover.promotions",
                    cluster.fs_backup(1).id()),
            0);

  // Service on the surviving partition is uninterrupted.
  cluster.host(ws).fs().seek(s1, 0);
  EXPECT_EQ(read_blocking(cluster, ws, s1, 6), "shard1");
}

// ---------------------------------------------------------------------------
// Flush-on-suspect hedge: a network blip (not a crash) raises suspicion; the
// client flushes its dirty blocks early rather than sitting out the 30 s
// delayed-write window. The flush fails (peer unreachable), re-arms, and
// lands once the network heals — nothing is lost or double-counted.
TEST(FsSuspectFlushTest, FalseSuspicionFlushesEarlyWithoutLoss) {
  Cluster cluster({.num_workstations = 1, .num_file_servers = 1});
  auto* server = cluster.file_server().fs_server();
  const HostId server_h = cluster.file_server().id();
  const HostId ws = cluster.workstations()[0];

  auto s = open_blocking(cluster, ws, "/hedge", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  write_blocking(cluster, ws, s, "hedged");  // dirty, delayed write pending

  // Network partition (the server itself stays up).
  cluster.net().set_host_up(server_h, false);

  // Any RPC that times out raises suspicion; use an unrelated open so the
  // dirty block is untouched when the suspect observer fires.
  bool done = false;
  cluster.host(ws).fs().open("/other", OpenFlags::create_rw(),
                             [&](util::Result<StreamPtr> r) {
                               EXPECT_FALSE(r.is_ok());
                               done = true;
                             });
  cluster.run_until_done([&] { return done; });
  run_for(cluster, Time::sec(5));
  EXPECT_GE(counter(cluster, "fs.cache.suspect_flush", ws), 1);

  // Heal the partition; the re-armed delayed write retries and lands.
  cluster.net().set_host_up(server_h, true);
  run_for(cluster, Time::sec(60));

  EXPECT_EQ(server_bytes(server, "/hedge", 6), "hedged");
  EXPECT_EQ(counter(cluster, "fs.cache.dirty_lost", ws), 0);
}

}  // namespace
}  // namespace sprite::fs
