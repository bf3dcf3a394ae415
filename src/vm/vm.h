// Virtual memory substrate: address spaces demand-paged through the shared
// file system, exactly the arrangement Sprite's migration design exploits —
// because backing store lives on the file server, migrating a process's
// memory reduces to flushing dirty pages and letting the target demand-page
// them from the server.
//
// Each address space has three segments:
//   code  — backed by the executable file, never dirty, demand-loaded;
//   heap  — backed by a per-space swap file on the server;
//   stack — likewise.
// Heap/stack pages that were never flushed are zero-fill (no I/O on first
// touch). Page contents are not materialized — only sizes move through the
// simulated file system — because no experiment depends on memory bytes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/client.h"
#include "sim/costs.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace sprite::vm {

enum class Segment : int { kCode = 0, kHeap = 1, kStack = 2 };
inline constexpr std::array<Segment, 3> kAllSegments = {
    Segment::kCode, Segment::kHeap, Segment::kStack};
const char* segment_name(Segment s);

// Named dirty planes. Every consumer of write tracking gets its own plane:
// all planes are set together on each write, but each is cleared only by its
// own consumer, so the planes answer different questions about the same
// write stream.
enum class DirtyPlane : int {
  // "Which pages differ from backing store?" Cleared by flush_dirty.
  kFlush = 0,
  // "Which pages were written since the last checkpoint capture?" Cleared
  // by clear_ckpt_dirty when src/ckpt/ captures the space.
  kCkpt = 1,
  // "Which pages were written since the current transfer round started?"
  // Round-scoped: src/xfer/ clears it at the start of every pre-copy round
  // and re-sends exactly the pages dirtied during the previous round.
  kXfer = 2,
};
inline constexpr std::array<DirtyPlane, 3> kAllDirtyPlanes = {
    DirtyPlane::kFlush, DirtyPlane::kCkpt, DirtyPlane::kXfer};
const char* dirty_plane_name(DirtyPlane p);

// One bitmap per plane over a segment's pages. The write path marks all
// planes in one place (mark); consumers read and clear only their own. A
// fourth consumer is one enum value plus one clear() call site.
class DirtyPlanes {
 public:
  void init(std::int64_t pages) {
    for (auto& p : planes_)
      p.assign(static_cast<std::size_t>(pages), false);
  }
  // The single write-path hook: a store to [first, first+count) dirties the
  // range in every plane.
  void mark(std::int64_t first, std::int64_t count) {
    for (auto& plane : planes_)
      for (std::int64_t p = first; p < first + count; ++p)
        plane[static_cast<std::size_t>(p)] = true;
  }
  std::vector<bool>& operator[](DirtyPlane p) {
    return planes_[static_cast<std::size_t>(p)];
  }
  const std::vector<bool>& operator[](DirtyPlane p) const {
    return planes_[static_cast<std::size_t>(p)];
  }
  void clear(DirtyPlane p) {
    auto& plane = planes_[static_cast<std::size_t>(p)];
    plane.assign(plane.size(), false);
  }
  std::int64_t count(DirtyPlane p) const;

 private:
  std::array<std::vector<bool>, 3> planes_;
};

// Per-segment page state.
struct SegmentState {
  Segment seg = Segment::kCode;
  std::int64_t pages = 0;
  std::string backing_path;        // executable or swap file
  fs::StreamPtr backing;           // no-cache stream used for paging I/O
  std::vector<bool> resident;
  std::vector<bool> in_backing;    // page exists in the backing file
  // Copy-on-reference: page must be pulled from the migration source host
  // rather than from backing store (Accent-style residual dependency).
  std::vector<bool> in_remote;
  // Write tracking, one plane per consumer (flush / checkpoint / transfer).
  DirtyPlanes planes;

  std::int64_t resident_pages() const;
  std::int64_t remote_pages() const;
  std::int64_t dirty_pages() const { return planes.count(DirtyPlane::kFlush); }
  std::int64_t ckpt_dirty_pages() const {
    return planes.count(DirtyPlane::kCkpt);
  }
  std::int64_t xfer_dirty_pages() const {
    return planes.count(DirtyPlane::kXfer);
  }
};

// Synthetic content identity for content-addressed transfer. Page bytes are
// not materialized in this simulation, so identity derives from provenance:
// an executable-text page is keyed by (backing_path, page index) — identical
// program text across a pmake farm hashes identically on every host — and a
// heap/stack page that was never written is the zero-fill page (id 0). Any
// written anonymous page has unique bytes and must ship in full.
struct PageContentId {
  bool shareable = false;  // false: unique bytes, no reference possible
  std::uint64_t id = 0;    // 0 = the zero page; else hash of (path, index)
};
PageContentId page_content_id(const SegmentState& st, std::int64_t page);

// Serializable description of an address space, shipped by migration.
struct SpaceDescriptor {
  std::int64_t asid = 0;
  struct Seg {
    Segment seg = Segment::kCode;
    std::int64_t pages = 0;
    std::string backing_path;
    std::vector<bool> resident;
    std::vector<bool> dirty;
    std::vector<bool> in_backing;
    std::vector<bool> in_remote;
    // Carried across migration so an incremental-checkpoint chain stays
    // valid when the process moves between captures.
    std::vector<bool> ckpt_dirty;
  };
  std::array<Seg, 3> segments;

  std::int64_t total_pages() const;
  std::int64_t resident_pages() const;
  // Wire size of the page tables + ids when encapsulated for transfer.
  std::int64_t wire_bytes() const;
};

class AddressSpace {
 public:
  std::int64_t asid() const { return asid_; }
  SegmentState& segment(Segment s) {
    return segments_[static_cast<std::size_t>(s)];
  }
  const SegmentState& segment(Segment s) const {
    return segments_[static_cast<std::size_t>(s)];
  }

  std::int64_t total_pages() const;
  std::int64_t resident_pages() const;
  std::int64_t dirty_pages() const;

  // Processes sharing writable memory cannot migrate in Sprite; tests and
  // experiments set this flag to exercise that rule.
  bool shared_writable = false;

 private:
  friend class VmManager;
  std::int64_t asid_ = 0;
  std::array<SegmentState, 3> segments_;
};

using SpacePtr = std::shared_ptr<AddressSpace>;

class VmManager {
 public:
  using SpaceCb = std::function<void(util::Result<SpacePtr>)>;
  using StatusCb = std::function<void(util::Status)>;

  VmManager(sim::Simulator& sim, sim::Cpu& cpu, fs::FsClient& fs,
            const sim::Costs& costs, sim::HostId self);

  // Creates a fresh address space for exec: code demand-loaded from
  // `exe_path` (must exist), heap/stack backed by new swap files under
  // /swap. Nothing is resident initially.
  void create_space(const std::string& exe_path, std::int64_t code_pages,
                    std::int64_t heap_pages, std::int64_t stack_pages,
                    SpaceCb cb);

  // Reconstructs an address space shipped from another host. Residency in
  // the descriptor is honoured (whole-copy migration marks pages resident;
  // Sprite's flush strategy ships an all-non-resident table).
  void adopt_space(const SpaceDescriptor& desc, SpaceCb cb);

  // Ensures pages [first, first+count) of `seg` are resident, faulting as
  // needed; marks them dirty when `write` (code segments reject writes).
  void touch(const SpacePtr& space, Segment seg, std::int64_t first,
             std::int64_t count, bool write, StatusCb cb);

  // Writes every dirty page to backing store (migration's flush step and
  // eviction's reclaim step); pages stay resident but become clean.
  void flush_dirty(const SpacePtr& space, StatusCb cb);

  // Drops all residency (the source's final act under the flush strategy).
  void invalidate(const SpacePtr& space);

  // Snapshot for migration.
  SpaceDescriptor describe(const SpacePtr& space) const;

  // Copy-on-reference support: pages flagged in_remote are fetched through
  // this pager (installed by the migration module) instead of from backing
  // store; each fetched page clears its flag.
  using RemotePager = std::function<void(Segment seg, std::int64_t first,
                                         std::int64_t count, StatusCb cb)>;
  void set_remote_pager(const SpacePtr& space, RemotePager pager);
  void clear_remote_pager(std::int64_t asid);

  // ---- Checkpoint support (src/ckpt/) ----
  // Pages written since the last checkpoint capture, across all segments.
  std::int64_t ckpt_dirty_pages(const SpacePtr& space) const;
  // A checkpoint captured the space: resets the checkpoint-dirty plane.
  void clear_ckpt_dirty(const SpacePtr& space);
  // Checkpoint restart staged page contents into the swap backing files;
  // marks them present so demand-paging reads them instead of zero-filling.
  void note_staged(const SpacePtr& space, Segment seg, std::int64_t first,
                   std::int64_t count);

  // Crash support: address spaces die with their PCBs (proc/table.cc owns
  // those); the manager's only volatile state is the pager table.
  void crash_reset() { remote_pagers_.clear(); }

  // Closes paging streams and unlinks this space's swap files (process exit
  // on the host where it lives).
  void destroy_space(SpacePtr space, StatusCb cb);

  // Closes paging streams but keeps the swap files: the source side of a
  // migration, where the destination adopts the same backing files.
  void release_space(SpacePtr space, StatusCb cb);

 private:
  std::string swap_path(std::int64_t asid, Segment seg) const;
  void open_backings(SpacePtr space, bool create_swap, SpaceCb cb);

  sim::Simulator& sim_;
  sim::Cpu& cpu_;
  fs::FsClient& fs_;
  const sim::Costs& costs_;
  sim::HostId self_;
  std::int64_t next_asid_ = 1;
  std::map<std::int64_t, RemotePager> remote_pagers_;  // by asid

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_faults_;
  trace::Counter* c_pages_in_;
  trace::Counter* c_zero_fill_;
  trace::Counter* c_flushed_;
  trace::Counter* c_from_remote_;
};

}  // namespace sprite::vm
