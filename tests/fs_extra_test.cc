// Additional FS tests: client name caching (the implemented future-work
// optimization), stream-migration consistency (regression for the
// write-A->B->A stale-cache bug), and multi-server prefix routing.
#include <gtest/gtest.h>

#include <string>

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

Bytes make_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

class FsExtraTest : public ::testing::Test {
 protected:
  FsExtraTest() : cluster_({.num_workstations = 3, .num_file_servers = 1}) {}

  StreamPtr open_ok(sim::HostId h, const std::string& path, OpenFlags flags) {
    StreamPtr out;
    bool done = false;
    cluster_.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
      EXPECT_TRUE(r.is_ok()) << r.status().to_string();
      if (r.is_ok()) out = *r;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  void close_ok(sim::HostId h, const StreamPtr& s) {
    bool done = false;
    cluster_.host(h).fs().close(s, [&](Status) { done = true; });
    cluster_.run_until_done([&] { return done; });
  }

  sim::HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }
  FsServer& server() { return *cluster_.file_server().fs_server(); }
  sim::HostId server_id() { return cluster_.file_server().id(); }
  const trace::Registry& tr() { return cluster_.sim().trace(); }

  Cluster cluster_;
};

TEST_F(FsExtraTest, NameCacheSkipsServerLookups) {
  server().mkdir_p("/a/b/c");
  server().create_file("/a/b/c/deep", 128);
  auto& fs = cluster_.host(ws(0)).fs();
  fs.enable_name_cache(true);

  auto s1 = open_ok(ws(0), "/a/b/c/deep", OpenFlags::read_only());
  close_ok(ws(0), s1);
  const auto lookups_after_first =
      tr().counter_value("fs.server.lookup.components", server_id());
  EXPECT_EQ(fs.name_cache_size(), 1u);

  auto s2 = open_ok(ws(0), "/a/b/c/deep", OpenFlags::read_only());
  close_ok(ws(0), s2);
  EXPECT_EQ(tr().counter_value("fs.server.lookup.components", server_id()),
            lookups_after_first)
      << "second open must resolve by hint, not by path";
  EXPECT_EQ(tr().counter_value("fs.server.open.hinted", server_id()), 1);
  EXPECT_GE(tr().counter_value("fs.client.name_cache.hit", ws(0)), 1);
}

TEST_F(FsExtraTest, StaleNameCacheHintFallsBackTransparently) {
  server().create_file("/victim", 16);
  auto& fs = cluster_.host(ws(0)).fs();
  fs.enable_name_cache(true);
  auto s1 = open_ok(ws(0), "/victim", OpenFlags::read_only());
  close_ok(ws(0), s1);

  // Another host replaces the file: unlink + recreate (new inode).
  bool done = false;
  cluster_.host(ws(1)).fs().unlink("/victim", [&](Status st) {
    EXPECT_TRUE(st.is_ok());
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  server().create_file("/victim", 32);

  // The cached hint names a reaped inode: the server detects it and falls
  // back to a full lookup on its own, so the open still succeeds and finds
  // the NEW file.
  const auto hinted_before =
      tr().counter_value("fs.server.open.hinted", server_id());
  auto s2 = open_ok(ws(0), "/victim", OpenFlags::read_only());
  ASSERT_TRUE(s2);
  EXPECT_EQ(s2->size_hint, 32);
  EXPECT_EQ(tr().counter_value("fs.server.open.hinted", server_id()),
            hinted_before);

  // And the client's cache self-corrects: the next open hints the new inode.
  close_ok(ws(0), s2);
  auto s3 = open_ok(ws(0), "/victim", OpenFlags::read_only());
  ASSERT_TRUE(s3);
  EXPECT_EQ(tr().counter_value("fs.server.open.hinted", server_id()),
            hinted_before + 1);
}

TEST_F(FsExtraTest, NameCacheInvalidatedByLocalUnlink) {
  server().create_file("/gone2", 8);
  auto& fs = cluster_.host(ws(0)).fs();
  fs.enable_name_cache(true);
  auto s = open_ok(ws(0), "/gone2", OpenFlags::read_only());
  close_ok(ws(0), s);
  EXPECT_EQ(fs.name_cache_size(), 1u);
  bool done = false;
  fs.unlink("/gone2", [&](Status) { done = true; });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(fs.name_cache_size(), 0u);
}

TEST_F(FsExtraTest, WriteStreamMigrationBumpsVersionAndInvalidatesStaleCache) {
  // Regression for the bug the migration-chain property test caught: a
  // write stream moving A -> B -> A must not let A reuse its stale cache.
  auto s = open_ok(ws(0), "/roundtrip", OpenFlags::create_rw());
  bool done = false;
  cluster_.host(ws(0)).fs().write(s, make_bytes("AAAA"),
                                  [&](util::Result<std::int64_t>) {
                                    done = true;
                                  });
  cluster_.run_until_done([&] { return done; });

  // Move the stream to host 1, write there, move it back.
  ExportedStream e1;
  done = false;
  cluster_.host(ws(0)).fs().export_stream(
      s, ws(1), false, [&](util::Result<ExportedStream> r) {
        ASSERT_TRUE(r.is_ok());
        e1 = *r;
        done = true;
      });
  cluster_.run_until_done([&] { return done; });
  auto s1 = cluster_.host(ws(1)).fs().import_stream(e1);
  done = false;
  cluster_.host(ws(1)).fs().write(s1, make_bytes("BBBB"),
                                  [&](util::Result<std::int64_t>) {
                                    done = true;
                                  });
  cluster_.run_until_done([&] { return done; });

  ExportedStream e2;
  done = false;
  cluster_.host(ws(1)).fs().export_stream(
      s1, ws(0), false, [&](util::Result<ExportedStream> r) {
        ASSERT_TRUE(r.is_ok());
        e2 = *r;
        done = true;
      });
  cluster_.run_until_done([&] { return done; });
  auto s0 = cluster_.host(ws(0)).fs().import_stream(e2);

  // Write once more on host 0 (extends the same block) and flush.
  done = false;
  cluster_.host(ws(0)).fs().write(s0, make_bytes("CCCC"),
                                  [&](util::Result<std::int64_t>) {
                                    done = true;
                                  });
  cluster_.run_until_done([&] { return done; });
  done = false;
  cluster_.host(ws(0)).fs().fsync(s0, [&](Status) { done = true; });
  cluster_.run_until_done([&] { return done; });

  auto st = server().stat_path("/roundtrip");
  ASSERT_TRUE(st.is_ok());
  auto data = server().read_direct(st->id, 0, st->size);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(to_string(*data), "AAAABBBBCCCC");
}

TEST(FsMultiServerTest, PrefixesRouteToDistinctServersAndMigrationSpansThem) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 2});
  auto ws = cluster.workstations();
  // Server 1 exports /s1.
  ASSERT_TRUE(cluster.file_server(1).fs_server()->mkdir_p("/s1").is_ok());
  ASSERT_TRUE(
      cluster.file_server(1).fs_server()->create_file("/s1/data", 64).is_ok());
  ASSERT_TRUE(
      cluster.file_server(0).fs_server()->create_file("/rootdata", 64).is_ok());

  auto open_on = [&](sim::HostId h, const std::string& p) {
    StreamPtr out;
    bool done = false;
    cluster.host(h).fs().open(p, OpenFlags::read_write(),
                              [&](util::Result<StreamPtr> r) {
                                EXPECT_TRUE(r.is_ok());
                                if (r.is_ok()) out = *r;
                                done = true;
                              });
    cluster.run_until_done([&] { return done; });
    return out;
  };

  auto a = open_on(ws[0], "/rootdata");
  auto b = open_on(ws[0], "/s1/data");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->file.server, cluster.file_server(0).id());
  EXPECT_EQ(b->file.server, cluster.file_server(1).id());

  // A stream on the second server migrates between workstations: the
  // I/O-server RPC goes to server 1, not server 0.
  const trace::Registry& tr = cluster.sim().trace();
  const sim::HostId srv0 = cluster.file_server(0).id();
  const sim::HostId srv1 = cluster.file_server(1).id();
  const auto migs_before = tr.counter_value("fs.server.stream.migrated", srv1);
  bool done = false;
  cluster.host(ws[0]).fs().export_stream(
      b, ws[1], false, [&](util::Result<ExportedStream> r) {
        ASSERT_TRUE(r.is_ok());
        auto imported = cluster.host(ws[1]).fs().import_stream(*r);
        EXPECT_EQ(imported->file.server, cluster.file_server(1).id());
        done = true;
      });
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(tr.counter_value("fs.server.stream.migrated", srv1),
            migs_before + 1);
  EXPECT_EQ(tr.counter_value("fs.server.stream.migrated", srv0), 0);
}

}  // namespace
}  // namespace sprite::fs
