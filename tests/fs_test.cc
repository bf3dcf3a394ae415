// Tests for the Sprite network file system substrate: naming, block caching,
// delayed writes, cache consistency (recall / disable), shared access
// positions, stream migration, and pseudo-devices.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fs/client.h"
#include "fs/server.h"
#include "kern/cluster.h"
#include "sim/time.h"
#include "util/rng.h"

namespace sprite::fs {
namespace {

using kern::Cluster;
using sim::Time;
using util::Err;
using util::Status;

Bytes make_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

class FsTest : public ::testing::Test {
 protected:
  FsTest() : cluster_({.num_workstations = 3, .num_file_servers = 1}) {}

  // Blocking-style wrappers: run the simulation until the callback fires.
  StreamPtr open_ok(sim::HostId h, const std::string& path, OpenFlags flags) {
    util::Result<StreamPtr> out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : nullptr;
  }

  Err open_err(sim::HostId h, const std::string& path, OpenFlags flags) {
    Err out = Err::kOk;
    bool done = false;
    cluster_.host(h).fs().open(path, flags, [&](util::Result<StreamPtr> r) {
      out = r.err();
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  Bytes read_ok(sim::HostId h, const StreamPtr& s, std::int64_t len) {
    util::Result<Bytes> out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : Bytes{};
  }

  std::int64_t write_ok(sim::HostId h, const StreamPtr& s, const Bytes& data) {
    util::Result<std::int64_t> out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().write(s, data, [&](util::Result<std::int64_t> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : -1;
  }

  Status close_s(sim::HostId h, const StreamPtr& s) {
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().close(s, [&](Status st) {
      out = st;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  // A read whose failure the test expects to see.
  util::Result<Bytes> read_r(sim::HostId h, const StreamPtr& s,
                             std::int64_t len) {
    util::Result<Bytes> out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().read(s, len, [&](util::Result<Bytes> r) {
      out = std::move(r);
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  Status ftruncate_s(sim::HostId h, const StreamPtr& s, std::int64_t size) {
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().ftruncate(s, size, [&](Status st) {
      out = st;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  Status fsync_s(sim::HostId h, const StreamPtr& s) {
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(h).fs().fsync(s, [&](Status st) {
      out = st;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  FsServer& server() { return *cluster_.file_server().fs_server(); }
  sim::HostId server_id() { return cluster_.file_server().id(); }
  const trace::Registry& tr() { return cluster_.sim().trace(); }
  sim::HostId ws(int i) { return cluster_.workstations()[static_cast<std::size_t>(i)]; }

  Cluster cluster_;
};

TEST_F(FsTest, PrefixRoutingPicksLongestMatch) {
  auto& fs = cluster_.host(ws(0)).fs();
  fs.add_prefix("/special", 2);
  auto r1 = fs.route("/a/b");
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(*r1, cluster_.file_server().id());
  auto r2 = fs.route("/special/x");
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(*r2, 2);
}

TEST_F(FsTest, OpenMissingFileFails) {
  EXPECT_EQ(open_err(ws(0), "/nope", OpenFlags::read_only()), Err::kNoEnt);
}

TEST_F(FsTest, CreateWriteReadBackSameHost) {
  auto s = open_ok(ws(0), "/f", OpenFlags::create_rw());
  ASSERT_TRUE(s);
  EXPECT_EQ(write_ok(ws(0), s, make_bytes("hello sprite")), 12);
  EXPECT_TRUE(cluster_.host(ws(0)).fs().seek(s, 0).is_ok());
  EXPECT_EQ(to_string(read_ok(ws(0), s, 64)), "hello sprite");
  EXPECT_TRUE(close_s(ws(0), s).is_ok());
}

TEST_F(FsTest, DataVisibleAcrossHostsAfterDelayedWriteRecall) {
  // Host 0 writes through its cache (delayed write, nothing at the server
  // yet); host 1's open triggers a recall of the dirty blocks [NWO88].
  auto s0 = open_ok(ws(0), "/shared", OpenFlags::create_rw());
  write_ok(ws(0), s0, make_bytes("cached-data"));
  EXPECT_TRUE(close_s(ws(0), s0).is_ok());
  EXPECT_GT(cluster_.host(ws(0)).fs().dirty_bytes(s0->file), 0);

  auto s1 = open_ok(ws(1), "/shared", OpenFlags::read_only());
  ASSERT_TRUE(s1);
  EXPECT_EQ(to_string(read_ok(ws(1), s1, 64)), "cached-data");
  EXPECT_EQ(tr().counter_value("fs.server.recall.sent", server_id()), 1);
  // The recall flushed host 0's cache.
  EXPECT_EQ(cluster_.host(ws(0)).fs().dirty_bytes(s0->file), 0);
}

TEST_F(FsTest, RepeatedReadsHitClientCache) {
  server().create_file("/warm", 8192);
  auto s = open_ok(ws(0), "/warm", OpenFlags::read_only());
  read_ok(ws(0), s, 8192);
  const auto misses_before = tr().counter_value("fs.client.block.miss", ws(0));
  cluster_.host(ws(0)).fs().seek(s, 0);
  read_ok(ws(0), s, 8192);
  EXPECT_EQ(tr().counter_value("fs.client.block.miss", ws(0)),
            misses_before);  // no new misses
  EXPECT_GE(tr().counter_value("fs.client.block.hit", ws(0)), 2);
}

TEST_F(FsTest, DelayedWritebackReachesServerAfterDelay) {
  auto s = open_ok(ws(0), "/delayed", OpenFlags::create_rw());
  write_ok(ws(0), s, make_bytes("zzz"));
  // Before the 30 s delay, the server has no data.
  auto direct = server().read_direct(s->file, 0, 3);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(direct->size(), 0u);  // size still 0 at server
  cluster_.sim().run_until(cluster_.sim().now() + Time::sec(31));
  direct = server().read_direct(s->file, 0, 3);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(to_string(*direct), "zzz");
}

TEST_F(FsTest, FsyncFlushesImmediately) {
  auto s = open_ok(ws(0), "/sync", OpenFlags::create_rw());
  write_ok(ws(0), s, make_bytes("now"));
  EXPECT_TRUE(fsync_s(ws(0), s).is_ok());
  auto direct = server().read_direct(s->file, 0, 3);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(to_string(*direct), "now");
}

TEST_F(FsTest, ConcurrentWriteSharingDisablesCaching) {
  auto s0 = open_ok(ws(0), "/conc", OpenFlags::create_rw());
  ASSERT_TRUE(s0->cacheable);
  // A second host opens for writing while host 0 still has it open.
  auto s1 = open_ok(ws(1), "/conc", OpenFlags::write_only());
  ASSERT_TRUE(s1);
  EXPECT_FALSE(s1->cacheable);
  EXPECT_FALSE(server().is_cacheable(s0->file));
  EXPECT_GE(tr().counter_value("fs.server.cache.disabled", server_id()), 1);
  // Run a little so host 0 processes its disable callback.
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  EXPECT_GE(tr().counter_value("fs.client.cache.disabled", ws(0)), 1);
}

TEST_F(FsTest, UncachedWritesAreImmediatelyVisibleToOtherHost) {
  auto s0 = open_ok(ws(0), "/wshare", OpenFlags::create_rw());
  auto s1 = open_ok(ws(1), "/wshare", OpenFlags::read_write());
  cluster_.sim().run_until(cluster_.sim().now() + Time::msec(50));
  // Both hosts now bypass their caches: writes go straight to the server.
  write_ok(ws(0), s0, make_bytes("AB"));
  auto got = read_ok(ws(1), s1, 2);
  EXPECT_EQ(to_string(got), "AB");
}

TEST_F(FsTest, CachingReenabledAfterSharingEnds) {
  auto s0 = open_ok(ws(0), "/reuse", OpenFlags::create_rw());
  auto s1 = open_ok(ws(1), "/reuse", OpenFlags::write_only());
  EXPECT_FALSE(s1->cacheable);
  EXPECT_TRUE(close_s(ws(0), s0).is_ok());
  EXPECT_TRUE(close_s(ws(1), s1).is_ok());
  // With no conflicting users left, a fresh open may cache again.
  auto s2 = open_ok(ws(2), "/reuse", OpenFlags::read_write());
  EXPECT_TRUE(s2->cacheable);
}

TEST_F(FsTest, VersionChangeInvalidatesStaleCache) {
  server().create_file("/ver", 0);
  auto s0 = open_ok(ws(0), "/ver", OpenFlags::read_write());
  write_ok(ws(0), s0, make_bytes("old!"));
  close_s(ws(0), s0);

  // Host 1 rewrites the file (recall flushes host 0, version bumps).
  auto s1 = open_ok(ws(1), "/ver", OpenFlags::read_write());
  write_ok(ws(1), s1, make_bytes("new!"));
  close_s(ws(1), s1);

  // Host 0 reopens: version mismatch must invalidate its old blocks, and the
  // open recalls host 1's dirty data.
  auto s2 = open_ok(ws(0), "/ver", OpenFlags::read_only());
  EXPECT_EQ(to_string(read_ok(ws(0), s2, 4)), "new!");
}

TEST_F(FsTest, LargeFileRoundTripAcrossHosts) {
  // Multi-block, multi-RPC-run content integrity.
  auto s0 = open_ok(ws(0), "/big", OpenFlags::create_rw());
  Bytes data(50 * 1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>((i * 7 + 3) & 0xff);
  write_ok(ws(0), s0, data);
  close_s(ws(0), s0);

  auto s1 = open_ok(ws(1), "/big", OpenFlags::read_only());
  Bytes got = read_ok(ws(1), s1, static_cast<std::int64_t>(data.size()) + 100);
  EXPECT_EQ(got, data);
}

TEST_F(FsTest, ReadModifyWritePreservesSurroundingBytes) {
  // A partial-block write on a host that has not cached the block must
  // fetch it first (read-modify-write).
  auto s0 = open_ok(ws(0), "/rmw", OpenFlags::create_rw());
  Bytes base(6000, 'a');
  write_ok(ws(0), s0, base);
  fsync_s(ws(0), s0);
  close_s(ws(0), s0);

  auto s1 = open_ok(ws(1), "/rmw", OpenFlags::read_write());
  cluster_.host(ws(1)).fs().seek(s1, 100);
  write_ok(ws(1), s1, make_bytes("XY"));
  fsync_s(ws(1), s1);

  auto direct = server().read_direct(s1->file, 0, 6000);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ((*direct)[99], 'a');
  EXPECT_EQ((*direct)[100], 'X');
  EXPECT_EQ((*direct)[101], 'Y');
  EXPECT_EQ((*direct)[102], 'a');
  EXPECT_EQ((*direct)[5999], 'a');
}

TEST_F(FsTest, SeekBeyondEofReadsShort) {
  server().create_file("/short", 10);
  auto s = open_ok(ws(0), "/short", OpenFlags::read_only());
  cluster_.host(ws(0)).fs().seek(s, 8);
  EXPECT_EQ(read_ok(ws(0), s, 100).size(), 2u);
  EXPECT_EQ(read_ok(ws(0), s, 100).size(), 0u);  // at EOF
}

TEST_F(FsTest, UnlinkRemovesName) {
  server().create_file("/gone", 5);
  bool done = false;
  Status st(Err::kAgain);
  cluster_.host(ws(0)).fs().unlink("/gone", [&](Status s) {
    st = s;
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(open_err(ws(0), "/gone", OpenFlags::read_only()), Err::kNoEnt);
}

TEST_F(FsTest, MkdirAndNestedCreate) {
  bool done = false;
  cluster_.host(ws(0)).fs().mkdir("/dir", [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  auto s = open_ok(ws(0), "/dir/file", OpenFlags::create_rw());
  EXPECT_TRUE(s);
}

TEST_F(FsTest, StatReportsSizeAndType) {
  server().mkdir_p("/d");
  server().create_file("/d/f", 1234);
  bool done = false;
  StatResult st;
  cluster_.host(ws(0)).fs().stat("/d/f", [&](util::Result<StatResult> r) {
    ASSERT_TRUE(r.is_ok());
    st = *r;
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(st.size, 1234);
  EXPECT_EQ(st.type, FileType::kRegular);
}

TEST_F(FsTest, TruncateOnOpenClearsContent) {
  auto s0 = open_ok(ws(0), "/t", OpenFlags::create_rw());
  write_ok(ws(0), s0, make_bytes("0123456789"));
  fsync_s(ws(0), s0);
  close_s(ws(0), s0);
  OpenFlags trunc = OpenFlags::create_rw();
  trunc.truncate = true;
  auto s1 = open_ok(ws(1), "/t", trunc);
  EXPECT_EQ(read_ok(ws(1), s1, 10).size(), 0u);
}

TEST_F(FsTest, LookupCostScalesWithPathComponents) {
  server().mkdir_p("/a/b/c/d");
  server().create_file("/a/b/c/d/deep", 0);
  server().create_file("/flat", 0);
  const auto before =
      tr().counter_value("fs.server.lookup.components", server_id());
  open_ok(ws(0), "/a/b/c/d/deep", OpenFlags::read_only());
  EXPECT_EQ(
      tr().counter_value("fs.server.lookup.components", server_id()) - before,
      5);
  open_ok(ws(0), "/flat", OpenFlags::read_only());
  EXPECT_EQ(
      tr().counter_value("fs.server.lookup.components", server_id()) - before,
      6);
}

TEST_F(FsTest, SharedOffsetMovesToServerAndStaysCoherent) {
  server().create_file("/log", 0);
  auto s = open_ok(ws(0), "/log", OpenFlags::read_write());
  write_ok(ws(0), s, make_bytes("aaaa"));  // offset now 4

  // Simulate migration splitting the stream group across hosts 0 and 1.
  bool done = false;
  ExportedStream exported;
  cluster_.host(ws(0)).fs().export_stream(
      s, ws(1), /*shared_on_source=*/true,
      [&](util::Result<ExportedStream> r) {
        ASSERT_TRUE(r.is_ok());
        exported = *r;
        done = true;
      });
  cluster_.run_until_done([&] { return done; });
  EXPECT_TRUE(exported.server_offset);
  EXPECT_TRUE(s->server_offset);  // the copy left behind also goes remote
  EXPECT_EQ(server().group_offset(s->file, s->group), 4);

  auto s1 = cluster_.host(ws(1)).fs().import_stream(exported);
  // Writes from both hosts interleave through the server-managed offset.
  write_ok(ws(1), s1, make_bytes("bb"));
  write_ok(ws(0), s, make_bytes("cc"));
  EXPECT_EQ(server().group_offset(s->file, s->group), 8);
  auto direct = server().read_direct(s->file, 0, 8);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(to_string(*direct), "aaaabbcc");
}

TEST_F(FsTest, ExportFlushesDirtyDataSoDestinationSeesIt) {
  auto s = open_ok(ws(0), "/mig", OpenFlags::create_rw());
  write_ok(ws(0), s, make_bytes("payload"));
  EXPECT_GT(cluster_.host(ws(0)).fs().dirty_bytes(s->file), 0);

  bool done = false;
  ExportedStream exported;
  cluster_.host(ws(0)).fs().export_stream(
      s, ws(1), /*shared_on_source=*/false,
      [&](util::Result<ExportedStream> r) {
        ASSERT_TRUE(r.is_ok());
        exported = *r;
        done = true;
      });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(cluster_.host(ws(0)).fs().dirty_bytes(s->file), 0);
  EXPECT_EQ(tr().counter_value("fs.server.stream.migrated", server_id()), 1);

  auto s1 = cluster_.host(ws(1)).fs().import_stream(exported);
  EXPECT_EQ(s1->offset, 7);         // access position travelled with it
  EXPECT_FALSE(s1->server_offset);  // sole owner: offset stays local
  cluster_.host(ws(1)).fs().seek(s1, 0);
  EXPECT_EQ(to_string(read_ok(ws(1), s1, 7)), "payload");
}

TEST_F(FsTest, MigrationCreatingWriteSharingDisablesCaching) {
  // A writer and a reader on the SAME host share nothing across hosts, so
  // caching stays enabled. Migrating the writer stream to another host
  // creates cross-host write sharing, which must disable caching.
  auto w = open_ok(ws(0), "/x", OpenFlags::create_rw());
  auto r = open_ok(ws(0), "/x", OpenFlags::read_only());
  ASSERT_TRUE(w->cacheable);
  ASSERT_TRUE(r->cacheable);
  ASSERT_TRUE(server().is_cacheable(w->file));

  bool done = false;
  ExportedStream exported;
  cluster_.host(ws(0)).fs().export_stream(
      w, ws(1), false, [&](util::Result<ExportedStream> res) {
        ASSERT_TRUE(res.is_ok());
        exported = *res;
        done = true;
      });
  cluster_.run_until_done([&] { return done; });
  // Writer now on 1, reader still on 0 -> write-shared.
  EXPECT_FALSE(exported.cacheable);
  EXPECT_FALSE(server().is_cacheable(w->file));
}

TEST_F(FsTest, PdevRequestResponseAcrossHosts) {
  // A server process on workstation 2 registers a pseudo-device; host 0
  // opens it and transacts.
  auto& owner = cluster_.host(ws(2));
  const int tag = owner.pdev().register_server(
      [](const Bytes& req, std::function<void(util::Result<Bytes>)> reply) {
        Bytes out = req;
        for (auto& b : out) b = static_cast<std::uint8_t>(b + 1);
        reply(out);
      });
  server().mkdir_p("/dev");
  ASSERT_TRUE(server().create_pdev("/dev/svc", ws(2), tag).is_ok());

  auto s = open_ok(ws(0), "/dev/svc", OpenFlags::read_write());
  ASSERT_TRUE(s);
  EXPECT_EQ(s->type, FileType::kPseudoDevice);

  bool done = false;
  Bytes rep;
  cluster_.host(ws(0)).fs().pdev_call(s, make_bytes("abc"),
                                      [&](util::Result<Bytes> r) {
                                        ASSERT_TRUE(r.is_ok());
                                        rep = *r;
                                        done = true;
                                      });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(to_string(rep), "bcd");
}

TEST_F(FsTest, PdevCallIncludesWakeupLatency) {
  auto& owner = cluster_.host(ws(1));
  const int tag = owner.pdev().register_server(
      [](const Bytes&, std::function<void(util::Result<Bytes>)> reply) {
        reply(Bytes{});
      });
  server().mkdir_p("/dev");
  ASSERT_TRUE(server().create_pdev("/dev/slow", ws(1), tag).is_ok());
  auto s = open_ok(ws(0), "/dev/slow", OpenFlags::read_write());
  const Time start = cluster_.sim().now();
  bool done = false;
  cluster_.host(ws(0)).fs().pdev_call(s, {}, [&](util::Result<Bytes>) {
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  const double ms = (cluster_.sim().now() - start).ms();
  // Two RPC legs + 10 ms wakeup + ~4 ms service CPU.
  EXPECT_GT(ms, 14.0);
  EXPECT_LT(ms, 40.0);
}

TEST_F(FsTest, NoCacheStreamsBypassClientCache) {
  server().create_file("/swapfile", 64 * 1024);
  OpenFlags flags = OpenFlags::read_write();
  flags.no_cache = true;
  auto s = open_ok(ws(0), "/swapfile", flags);
  read_ok(ws(0), s, 16 * 1024);
  EXPECT_EQ(tr().counter_value("fs.client.block.hit", ws(0)) +
                tr().counter_value("fs.client.block.miss", ws(0)),
            0);
  EXPECT_GE(tr().counter_value("fs.client.read.sent", ws(0)), 1);
}

TEST_F(FsTest, BulkFlushRateNearCalibration) {
  // E1's per-MB figure: flushing 1 MB of dirty data through the FS should
  // take roughly 480 ms (we accept 380-700 ms).
  auto s = open_ok(ws(0), "/bulk", OpenFlags::create_rw());
  Bytes mb(1 << 20, 0x5a);
  write_ok(ws(0), s, mb);
  const Time start = cluster_.sim().now();
  EXPECT_TRUE(fsync_s(ws(0), s).is_ok());
  const double ms = (cluster_.sim().now() - start).ms();
  EXPECT_GT(ms, 380.0);
  EXPECT_LT(ms, 700.0);
}

TEST_F(FsTest, SparseFileReadsByteExactCachedAndUncached) {
  // A sparse layout written through a no-cache stream, so each write lands
  // at the server at exactly its offset: block 0 full, block 1 a hole, an
  // unaligned span across blocks 2-4 (block 4 stored short, with the file
  // extending past it), and a short last block 5.
  const std::int64_t bs = cluster_.costs().block_size;
  struct Span {
    std::int64_t offset;
    std::int64_t len;
  };
  const Span spans[] = {{0, bs}, {2 * bs + 100, 2 * bs + 300}, {5 * bs, 123}};
  const std::int64_t size = 5 * bs + 123;

  OpenFlags wflags = OpenFlags::create_rw();
  wflags.no_cache = true;
  auto w = open_ok(ws(0), "/sparse", wflags);
  ASSERT_TRUE(w);
  Bytes ref(static_cast<std::size_t>(size), 0);
  for (const Span& sp : spans) {
    Bytes data(static_cast<std::size_t>(sp.len));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>((sp.offset + 31 * i + 1) % 251 + 1);
      ref[static_cast<std::size_t>(sp.offset) + i] = data[i];
    }
    ASSERT_TRUE(cluster_.host(ws(0)).fs().seek(w, sp.offset).is_ok());
    ASSERT_EQ(write_ok(ws(0), w, data), sp.len);
  }
  ASSERT_TRUE(close_s(ws(0), w).is_ok());

  // Whole file plus unaligned windows that start inside a block, span the
  // hole, and run into the stored-short block and past EOF.
  const Span windows[] = {{0, size + 500},
                          {bs - 7, bs + 20},
                          {2 * bs + 50, 3 * bs},
                          {4 * bs + 250, bs + 400}};
  auto expect = [&](const Span& win) {
    const std::int64_t end = std::min(win.offset + win.len, size);
    return Bytes(ref.begin() + win.offset, ref.begin() + end);
  };

  OpenFlags rflags = OpenFlags::read_only();
  rflags.no_cache = true;
  auto uncached = open_ok(ws(1), "/sparse", rflags);
  auto cached = open_ok(ws(2), "/sparse", OpenFlags::read_only());
  ASSERT_TRUE(uncached && cached && cached->cacheable);
  for (const Span& win : windows) {
    SCOPED_TRACE(win.offset);
    cluster_.host(ws(1)).fs().seek(uncached, win.offset);
    EXPECT_EQ(read_ok(ws(1), uncached, win.len), expect(win));
    cluster_.host(ws(2)).fs().seek(cached, win.offset);
    EXPECT_EQ(read_ok(ws(2), cached, win.len), expect(win));
  }
  // The first stream really went to the server, the second to the cache.
  EXPECT_EQ(tr().counter_value("fs.client.block.hit", ws(1)) +
                tr().counter_value("fs.client.block.miss", ws(1)),
            0);
  EXPECT_GT(tr().counter_value("fs.client.block.hit", ws(2)), 0);
}

TEST_F(FsTest, TruncateThenExtendReadsZeros) {
  // Truncating into the middle of a block must drop the block's tail, or a
  // later write past the new end brings the old bytes back.
  const std::int64_t bs = cluster_.costs().block_size;
  OpenFlags flags = OpenFlags::create_rw();
  flags.no_cache = true;
  auto s = open_ok(ws(0), "/cut", flags);
  ASSERT_TRUE(s);
  ASSERT_EQ(write_ok(ws(0), s, Bytes(static_cast<std::size_t>(bs), 'A')), bs);
  ASSERT_TRUE(ftruncate_s(ws(0), s, 100).is_ok());
  ASSERT_TRUE(cluster_.host(ws(0)).fs().seek(s, 200).is_ok());
  ASSERT_EQ(write_ok(ws(0), s, make_bytes("ZZ")), 2);

  Bytes want(202, 0);
  std::fill(want.begin(), want.begin() + 100, 'A');
  want[200] = want[201] = 'Z';
  auto got = server().read_direct(s->file, 0, bs);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, want);
  cluster_.host(ws(0)).fs().seek(s, 0);
  EXPECT_EQ(read_ok(ws(0), s, bs), want);
}

// ---- Verify once per version ----

TEST_F(FsTest, BitFlipAfterVerifiedReadIsStillCaught) {
  // A block that already passed verification must not stay trusted when
  // its bytes change behind its sum.
  const std::int64_t bs = cluster_.costs().block_size;
  OpenFlags flags = OpenFlags::create_rw();
  flags.no_cache = true;
  auto s = open_ok(ws(0), "/flip", flags);
  ASSERT_TRUE(s);
  const Bytes block(static_cast<std::size_t>(bs), 'B');
  ASSERT_EQ(write_ok(ws(0), s, block), bs);
  cluster_.host(ws(0)).fs().seek(s, 0);
  ASSERT_EQ(read_ok(ws(0), s, bs), block);

  server().inject_bit_flip(0);
  cluster_.host(ws(0)).fs().seek(s, 0);
  EXPECT_EQ(read_r(ws(0), s, bs).err(), Err::kCorrupt);
  EXPECT_EQ(server().scrub_all_now(), 1);
  // No replica to repair from: the corruption stays visible.
  EXPECT_EQ(read_r(ws(0), s, bs).err(), Err::kCorrupt);
  EXPECT_EQ(tr().counter_value("fs.scrub.read_detected", server_id()), 2);
}

// ---- Redo journal: a torn final write and the crash after it ----

class FsJournalTest : public FsTest {
 protected:
  // A no-cache stream on `path`, created if need be.
  StreamPtr open_nc(const std::string& path) {
    OpenFlags flags = OpenFlags::create_rw();
    flags.no_cache = true;
    return open_ok(ws(0), path, flags);
  }
  void write_at(const StreamPtr& s, std::int64_t offset, const Bytes& data) {
    ASSERT_TRUE(cluster_.host(ws(0)).fs().seek(s, offset).is_ok());
    ASSERT_EQ(write_ok(ws(0), s, data), static_cast<std::int64_t>(data.size()));
  }
  util::Result<Bytes> read_at(const StreamPtr& s, std::int64_t offset,
                              std::int64_t len) {
    EXPECT_TRUE(cluster_.host(ws(0)).fs().seek(s, offset).is_ok());
    return read_r(ws(0), s, len);
  }
  // Crashes the file server and boots it again; its disk (blocks and the
  // pending journal record) survives. Returns a fresh stream on `path`.
  StreamPtr crash_and_boot(const std::string& path) {
    server().crash_reset();
    server().boot();
    return open_nc(path);
  }
  std::int64_t replayed() {
    return tr().counter_value("fs.journal.replayed", server_id());
  }
  std::int64_t discarded() {
    return tr().counter_value("fs.journal.discarded", server_id());
  }
  std::int64_t bs() { return cluster_.costs().block_size; }
};

Bytes pattern(std::int64_t n, std::uint8_t salt) {
  Bytes b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return b;
}

TEST_F(FsJournalTest, EvenDrawTearIsReplayedWholeAtBoot) {
  auto s = open_nc("/j");
  ASSERT_TRUE(s);
  const Bytes data = pattern(3 * bs(), 1);
  write_at(s, 0, data);
  // Three blocks, draw 4: the first block survives, the other two are
  // garbled, and the record itself is intact.
  server().tear_last_write(4);
  EXPECT_EQ(read_at(s, 0, 3 * bs()).err(), Err::kCorrupt);
  s = crash_and_boot("/j");
  ASSERT_TRUE(s);
  EXPECT_EQ(replayed(), 1);
  EXPECT_EQ(discarded(), 0);
  auto got = read_at(s, 0, 3 * bs());
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(*got, data);
}

TEST_F(FsJournalTest, OddDrawTearIsDiscardedAndTheGarbleStaysVisible) {
  auto s = open_nc("/j");
  ASSERT_TRUE(s);
  const Bytes data = pattern(2 * bs(), 2);
  write_at(s, 0, data);
  // Two blocks, draw 1: block 0 survives, block 1 is garbled, and the
  // record is torn too, so recovery has nothing to replay.
  server().tear_last_write(1);
  s = crash_and_boot("/j");
  ASSERT_TRUE(s);
  EXPECT_EQ(replayed(), 0);
  EXPECT_EQ(discarded(), 1);
  auto first = read_at(s, 0, bs());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(*first, Bytes(data.begin(), data.begin() + bs()));
  // No replica to repair from: the garbled block fails every read.
  EXPECT_EQ(read_at(s, bs(), bs()).err(), Err::kCorrupt);
  EXPECT_EQ(read_at(s, 0, 2 * bs()).err(), Err::kCorrupt);
}

TEST_F(FsJournalTest, TearWithNoWriteSinceTheCrashIsANoOp) {
  auto s = open_nc("/j");
  ASSERT_TRUE(s);
  const Bytes data = pattern(2 * bs(), 3);
  write_at(s, 0, data);
  server().crash_reset();
  server().tear_last_write(2);  // down: the crash already happened
  server().boot();
  server().tear_last_write(3);  // up, but nothing written since the boot
  s = open_nc("/j");
  ASSERT_TRUE(s);
  auto got = read_at(s, 0, 2 * bs());
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(*got, data);
  EXPECT_EQ(replayed(), 0);
  EXPECT_EQ(discarded(), 0);
}

TEST_F(FsJournalTest, ReplayDoesNotBlessABitFlipOutsideTheRecord) {
  // A block flipped after its last verified write and before a torn crash
  // must stay corrupt once recovery replays a record that covers only part
  // of it: the replay's fresh sum would otherwise bless the flipped bytes.
  auto s = open_nc("/j");
  ASSERT_TRUE(s);
  write_at(s, 0, Bytes(static_cast<std::size_t>(bs()), 'A'));
  write_at(s, 0, Bytes(100, 'B'));
  server().inject_bit_flip(2000);  // the one stored block, byte 2000
  server().tear_last_write(2);
  s = crash_and_boot("/j");
  ASSERT_TRUE(s);
  EXPECT_EQ(replayed(), 1);
  EXPECT_EQ(read_at(s, 0, bs()).err(), Err::kCorrupt);
}

TEST_F(FsJournalTest, PartialWriteAfterABitFlipStaysCorruptThroughReplay) {
  auto s = open_nc("/j");
  ASSERT_TRUE(s);
  write_at(s, 0, Bytes(static_cast<std::size_t>(bs()), 'A'));
  server().inject_bit_flip(2000);
  write_at(s, 0, Bytes(100, 'B'));
  server().tear_last_write(2);
  s = crash_and_boot("/j");
  ASSERT_TRUE(s);
  EXPECT_EQ(replayed(), 1);
  EXPECT_EQ(read_at(s, 0, bs()).err(), Err::kCorrupt);
}

// ---- block_checksum detection properties ----

Bytes random_block(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

// Flips every bit of `b` in turn; each flip must change the checksum.
void expect_every_bit_flip_detected(Bytes b) {
  const std::uint64_t base = block_checksum(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      b[i] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_NE(block_checksum(b), base)
          << "size " << b.size() << " byte " << i << " bit " << bit;
      b[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(block_checksum(b), base);
}

TEST(FsChecksumTest, EverySingleBitFlipOfABlockIsDetected) {
  expect_every_bit_flip_detected(random_block(4096, 1));  // 32,768 bits
}

TEST(FsChecksumTest, ShortAndOddLengthsDetectFlipsAndDiffer) {
  // Lengths that exercise an empty input, the tail word alone, stripes
  // plus whole leftover words, and a tail after a full 4 KB run.
  std::set<std::uint64_t> zero_sums;
  for (std::size_t n : {0, 1, 7, 31, 33, 4095}) {
    SCOPED_TRACE(n);
    expect_every_bit_flip_detected(random_block(n, 100 + n));
    zero_sums.insert(block_checksum(Bytes(n, 0)));
  }
  EXPECT_EQ(zero_sums.size(), 6u);  // the length is part of the sum
}

TEST(FsChecksumTest, HighBitFlipsInTwoWordsOfOneLaneDoNotCancel) {
  // Bit 63 of a little-endian word is the top bit of its last byte. Pair
  // every word with each of the next eight, covering any lane count <= 8:
  // a multiply-only lane would carry the first flip to bit 63 only, where
  // the second flip would cancel it.
  const Bytes block = random_block(4096, 7);
  const std::uint64_t base = block_checksum(block);
  for (std::size_t w = 0; w < 64; ++w) {
    for (std::size_t d = 1; d <= 8; ++d) {
      Bytes b = block;
      b[8 * w + 7] ^= 0x80;
      b[8 * (w + d) + 7] ^= 0x80;
      ASSERT_NE(block_checksum(b), base) << "words " << w << "," << w + d;
    }
  }
}

TEST(FsChecksumTest, AppendedZeroByteChangesSum) {
  for (std::size_t n : {0, 1, 7, 8, 31, 32, 33, 63, 4095, 4096}) {
    Bytes b = random_block(n, 50 + n);
    const std::uint64_t before = block_checksum(b);
    b.push_back(0);
    EXPECT_NE(block_checksum(b), before) << "size " << n;
  }
}

TEST(FsChecksumTest, EqualBytesGiveEqualSums) {
  const Bytes a = random_block(4096, 3);
  for (std::size_t n : {0, 5, 32, 100, 4096}) {
    // A separate allocation (and a copy cut from an offset) of the same
    // bytes must sum identically.
    const Bytes x(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n));
    Bytes y(n + 3);
    std::copy(x.begin(), x.end(), y.begin() + 3);
    const Bytes z(y.begin() + 3, y.end());
    EXPECT_EQ(block_checksum(x), block_checksum(z)) << "size " << n;
  }
}

// ---- FileBlocks repair rule ----

TEST(FileBlocksTest, RepairNeedsTheStoredSumUnlessTainted) {
  FileBlocks blocks(64);
  const Bytes good(64, 'g');
  blocks.write(0, good, /*verify_rmw=*/true);
  ASSERT_TRUE(blocks.verify(0));

  // A bit flip leaves the sum of `good` in place: only bytes matching it
  // may repair the block, so a stale peer copy is refused.
  blocks.flip_bit(0, 5);
  EXPECT_FALSE(blocks.verify(0));
  EXPECT_EQ(blocks.serve(0), nullptr);
  EXPECT_FALSE(blocks.repair(0, Bytes(64, 's')));
  EXPECT_FALSE(blocks.verify(0));
  EXPECT_TRUE(blocks.repair(0, good));
  EXPECT_TRUE(blocks.verify(0));
  ASSERT_NE(blocks.serve(0), nullptr);
  EXPECT_EQ(*blocks.serve(0), good);

  // A partial overwrite of a flipped block taints it; a tainted block's sum
  // is untrusted, so any peer copy is accepted.
  blocks.flip_bit(0, 5);
  blocks.write(10, Bytes(4, 'w'), /*verify_rmw=*/true);
  EXPECT_FALSE(blocks.verify(0));
  const Bytes peer(64, 'p');
  EXPECT_TRUE(blocks.repair(0, peer));
  EXPECT_TRUE(blocks.verify(0));
  EXPECT_EQ(blocks.read(0, 64), peer);
}

TEST(FileBlocksTest, FullOverwriteOfATaintedBlockClearsTheTaint) {
  FileBlocks blocks(64);
  blocks.write(0, Bytes(64, 'a'), /*verify_rmw=*/true);
  blocks.flip_bit(0, 5);
  blocks.write(10, Bytes(4, 'w'), /*verify_rmw=*/true);
  ASSERT_FALSE(blocks.verify(0));
  // Every byte is new, so nothing of the corrupt version survives.
  blocks.write(0, Bytes(64, 'n'), /*verify_rmw=*/true);
  EXPECT_TRUE(blocks.verify(0));
  EXPECT_EQ(blocks.read(0, 64), Bytes(64, 'n'));
}

TEST(FileBlocksTest, ImportedRecordsAreCheckedOnFirstUse) {
  FileBlocks src(64);
  src.write(0, Bytes(64, 'a'), /*verify_rmw=*/true);
  src.write(64, Bytes(64, 'b'), /*verify_rmw=*/true);
  src.write(128, Bytes(10, 'c'), /*verify_rmw=*/true);
  src.flip_bit(1, 0);
  src.garble(130, 4);

  FileBlocks dst(64);
  dst.import(src.records(), src.size());
  EXPECT_EQ(dst.size(), 138);
  EXPECT_EQ(dst.corrupt_blocks(0, 192), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(dst.read(0, 64), Bytes(64, 'a'));
  // A cut through a corrupt block keeps it corrupt.
  dst.truncate(130);
  EXPECT_EQ(dst.corrupt_blocks(0, 130), (std::vector<std::int64_t>{1, 2}));
  dst.truncate(100);
  EXPECT_EQ(dst.corrupt_blocks(0, 100), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(dst.read(96, 8), (Bytes{'b', 'b', 'b', 'b'}));
  dst.extend(104);
  EXPECT_EQ(dst.read(96, 8), (Bytes{'b', 'b', 'b', 'b', 0, 0, 0, 0}));
}

}  // namespace
}  // namespace sprite::fs
