// Tests for the virtual memory substrate: demand paging, zero-fill, dirty
// tracking, flushing to backing store, and space adoption across hosts.
#include <gtest/gtest.h>

#include "kern/cluster.h"
#include "sim/time.h"
#include "vm/vm.h"

namespace sprite::vm {
namespace {

using kern::Cluster;
using sim::Time;
using util::Err;
using util::Status;

class VmTest : public ::testing::Test {
 protected:
  VmTest() : cluster_({.num_workstations = 2, .num_file_servers = 1}) {
    // A 64 KB executable (16 pages of code).
    cluster_.file_server().fs_server()->mkdir_p("/bin");
    auto r =
        cluster_.file_server().fs_server()->create_file("/bin/prog", 16 * 4096);
    SPRITE_CHECK(r.is_ok());
  }

  const trace::Registry& tr() { return cluster_.sim().trace(); }

  SpacePtr create_ok(sim::HostId h, std::int64_t code, std::int64_t heap,
                     std::int64_t stack) {
    util::Result<SpacePtr> out(Err::kAgain);
    bool done = false;
    cluster_.host(h).vm().create_space("/bin/prog", code, heap, stack,
                                       [&](util::Result<SpacePtr> r) {
                                         out = std::move(r);
                                         done = true;
                                       });
    cluster_.run_until_done([&] { return done; });
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? *out : nullptr;
  }

  Status touch_s(sim::HostId h, const SpacePtr& sp, Segment seg,
                 std::int64_t first, std::int64_t count, bool write) {
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(h).vm().touch(sp, seg, first, count, write, [&](Status s) {
      out = s;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  Status flush_s(sim::HostId h, const SpacePtr& sp) {
    Status out(Err::kAgain);
    bool done = false;
    cluster_.host(h).vm().flush_dirty(sp, [&](Status s) {
      out = s;
      done = true;
    });
    cluster_.run_until_done([&] { return done; });
    return out;
  }

  sim::HostId ws(int i) {
    return cluster_.workstations()[static_cast<std::size_t>(i)];
  }

  Cluster cluster_;
};

TEST_F(VmTest, CreateSpaceStartsEmpty) {
  auto sp = create_ok(ws(0), 16, 32, 8);
  ASSERT_TRUE(sp);
  EXPECT_EQ(sp->total_pages(), 56);
  EXPECT_EQ(sp->resident_pages(), 0);
  EXPECT_EQ(sp->dirty_pages(), 0);
}

TEST_F(VmTest, MissingExecutableFailsCreation) {
  util::Result<SpacePtr> out(Err::kAgain);
  bool done = false;
  cluster_.host(ws(0)).vm().create_space("/bin/missing", 4, 4, 4,
                                         [&](util::Result<SpacePtr> r) {
                                           out = std::move(r);
                                           done = true;
                                         });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(out.err(), Err::kNoEnt);
}

TEST_F(VmTest, CodeFaultsReadFromExecutable) {
  auto sp = create_ok(ws(0), 16, 4, 4);
  EXPECT_TRUE(touch_s(ws(0), sp, Segment::kCode, 0, 16, false).is_ok());
  EXPECT_EQ(sp->segment(Segment::kCode).resident_pages(), 16);
  EXPECT_EQ(tr().counter_value("vm.page.paged_in", ws(0)), 16);
  EXPECT_EQ(tr().counter_value("vm.page.zero_filled", ws(0)), 0);
}

TEST_F(VmTest, HeapFirstTouchIsZeroFill) {
  auto sp = create_ok(ws(0), 4, 32, 4);
  EXPECT_TRUE(touch_s(ws(0), sp, Segment::kHeap, 0, 32, true).is_ok());
  EXPECT_EQ(tr().counter_value("vm.page.zero_filled", ws(0)), 32);
  EXPECT_EQ(tr().counter_value("vm.page.paged_in", ws(0)), 0);
  EXPECT_EQ(sp->segment(Segment::kHeap).dirty_pages(), 32);
}

TEST_F(VmTest, WriteToCodeSegmentRejected) {
  auto sp = create_ok(ws(0), 4, 4, 4);
  EXPECT_EQ(touch_s(ws(0), sp, Segment::kCode, 0, 1, true).err(),
            Err::kAccess);
}

TEST_F(VmTest, TouchOutOfBoundsRejected) {
  auto sp = create_ok(ws(0), 4, 4, 4);
  EXPECT_EQ(touch_s(ws(0), sp, Segment::kHeap, 2, 10, false).err(),
            Err::kInval);
}

TEST_F(VmTest, RepeatedTouchFaultsOnlyOnce) {
  auto sp = create_ok(ws(0), 8, 8, 8);
  touch_s(ws(0), sp, Segment::kCode, 0, 8, false);
  const auto faults = tr().counter_value("vm.page.faulted", ws(0));
  touch_s(ws(0), sp, Segment::kCode, 0, 8, false);
  EXPECT_EQ(tr().counter_value("vm.page.faulted", ws(0)), faults);
}

TEST_F(VmTest, FlushWritesDirtyPagesAndCleans) {
  auto sp = create_ok(ws(0), 4, 64, 4);
  touch_s(ws(0), sp, Segment::kHeap, 0, 64, true);
  EXPECT_TRUE(flush_s(ws(0), sp).is_ok());
  EXPECT_EQ(tr().counter_value("vm.page.flushed", ws(0)), 64);
  EXPECT_EQ(sp->dirty_pages(), 0);
  EXPECT_EQ(sp->segment(Segment::kHeap).resident_pages(), 64);  // stays in
  // The swap file now holds the pages.
  auto st = cluster_.file_server().fs_server()->stat_path(
      sp->segment(Segment::kHeap).backing_path);
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 64 * 4096);
}

TEST_F(VmTest, FlushTimeScalesWithDirtyPages) {
  // Calibration check for E1/E2: ~480 ms per dirty megabyte.
  auto sp = create_ok(ws(0), 4, 256, 4);  // 1 MB heap
  touch_s(ws(0), sp, Segment::kHeap, 0, 256, true);
  const Time start = cluster_.sim().now();
  flush_s(ws(0), sp);
  const double ms = (cluster_.sim().now() - start).ms();
  EXPECT_GT(ms, 380.0);
  EXPECT_LT(ms, 700.0);
}

TEST_F(VmTest, ReFaultAfterFlushReadsFromSwap) {
  auto sp = create_ok(ws(0), 4, 16, 4);
  auto& vmm = cluster_.host(ws(0)).vm();
  touch_s(ws(0), sp, Segment::kHeap, 0, 16, true);
  flush_s(ws(0), sp);
  vmm.invalidate(sp);
  EXPECT_EQ(sp->resident_pages(), 0);
  const auto in_before = tr().counter_value("vm.page.paged_in", ws(0));
  const auto zero_before = tr().counter_value("vm.page.zero_filled", ws(0));
  touch_s(ws(0), sp, Segment::kHeap, 0, 16, false);
  // From swap now, not zero-fill.
  EXPECT_EQ(tr().counter_value("vm.page.paged_in", ws(0)) - in_before, 16);
  EXPECT_EQ(tr().counter_value("vm.page.zero_filled", ws(0)), zero_before);
}

TEST_F(VmTest, AdoptedSpaceDemandPagesFromSharedSwap) {
  // Sprite's migration VM strategy end-to-end at the VM layer: flush on the
  // source, adopt on the destination with nothing resident, fault from the
  // shared backing files.
  auto sp = create_ok(ws(0), 8, 32, 8);
  touch_s(ws(0), sp, Segment::kHeap, 0, 32, true);
  flush_s(ws(0), sp);

  auto desc = cluster_.host(ws(0)).vm().describe(sp);
  for (auto& seg : desc.segments) {
    seg.resident.assign(seg.resident.size(), false);
    seg.dirty.assign(seg.dirty.size(), false);
  }

  bool released = false;
  cluster_.host(ws(0)).vm().release_space(sp, [&](Status) { released = true; });
  cluster_.run_until_done([&] { return released; });

  util::Result<SpacePtr> adopted(Err::kAgain);
  bool done = false;
  cluster_.host(ws(1)).vm().adopt_space(desc, [&](util::Result<SpacePtr> r) {
    adopted = std::move(r);
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  ASSERT_TRUE(adopted.is_ok());
  EXPECT_EQ((*adopted)->asid(), sp->asid());
  EXPECT_EQ((*adopted)->resident_pages(), 0);

  const auto in_before = tr().counter_value("vm.page.paged_in", ws(1));
  EXPECT_TRUE(touch_s(ws(1), *adopted, Segment::kHeap, 0, 32, false).is_ok());
  // Pulled from the server's swap.
  EXPECT_EQ(tr().counter_value("vm.page.paged_in", ws(1)) - in_before, 32);
}

TEST_F(VmTest, DestroyUnlinksSwapFiles) {
  auto sp = create_ok(ws(0), 4, 8, 8);
  const std::string heap_path = sp->segment(Segment::kHeap).backing_path;
  touch_s(ws(0), sp, Segment::kHeap, 0, 8, true);
  flush_s(ws(0), sp);
  ASSERT_TRUE(
      cluster_.file_server().fs_server()->stat_path(heap_path).is_ok());

  bool done = false;
  cluster_.host(ws(0)).vm().destroy_space(sp, [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    done = true;
  });
  cluster_.run_until_done([&] { return done; });
  EXPECT_EQ(
      cluster_.file_server().fs_server()->stat_path(heap_path).err(),
      Err::kNoEnt);
}

TEST_F(VmTest, DescriptorWireSizeScalesWithPages) {
  auto small = create_ok(ws(0), 4, 4, 4);
  auto large = create_ok(ws(0), 4, 2048, 4);
  const auto ds = cluster_.host(ws(0)).vm().describe(small);
  const auto dl = cluster_.host(ws(0)).vm().describe(large);
  EXPECT_LT(ds.wire_bytes(), dl.wire_bytes());
  EXPECT_LT(dl.wire_bytes(), 2048 * 4096 / 2);  // far smaller than the data
}

TEST_F(VmTest, ZeroSizedSegmentsAreLegal) {
  auto sp = create_ok(ws(0), 4, 0, 0);
  ASSERT_TRUE(sp);
  EXPECT_EQ(sp->total_pages(), 4);
  EXPECT_TRUE(touch_s(ws(0), sp, Segment::kCode, 0, 4, false).is_ok());
}

}  // namespace
}  // namespace sprite::vm
