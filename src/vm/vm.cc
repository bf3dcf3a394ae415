#include "vm/vm.h"

#include <algorithm>

#include "util/assert.h"
#include "util/async.h"
#include "util/log.h"

namespace sprite::vm {

using fs::OpenFlags;
using sim::JobClass;
using sim::Time;
using util::Err;
using util::Status;

const char* segment_name(Segment s) {
  switch (s) {
    case Segment::kCode: return "code";
    case Segment::kHeap: return "heap";
    case Segment::kStack: return "stack";
  }
  return "?";
}

const char* dirty_plane_name(DirtyPlane p) {
  switch (p) {
    case DirtyPlane::kFlush: return "flush";
    case DirtyPlane::kCkpt: return "ckpt";
    case DirtyPlane::kXfer: return "xfer";
  }
  return "?";
}

std::int64_t DirtyPlanes::count(DirtyPlane p) const {
  const auto& plane = planes_[static_cast<std::size_t>(p)];
  return std::count(plane.begin(), plane.end(), true);
}

std::int64_t SegmentState::resident_pages() const {
  return std::count(resident.begin(), resident.end(), true);
}

std::int64_t SegmentState::remote_pages() const {
  return std::count(in_remote.begin(), in_remote.end(), true);
}

PageContentId page_content_id(const SegmentState& st, std::int64_t page) {
  if (st.seg == Segment::kCode) {
    // FNV-1a over the backing path, mixed with the page index. Program text
    // is immutable and named, so (path, index) is the identity of the bytes.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : st.backing_path) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(page) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
    if (h == 0) h = 1;  // 0 is reserved for the zero page
    return {true, h};
  }
  // Anonymous page: if it was ever written it carries unique bytes (still
  // dirty, or flushed to swap — in_backing). Otherwise it is the zero page.
  const auto i = static_cast<std::size_t>(page);
  if (!st.in_backing[i] && !st.planes[DirtyPlane::kFlush][i])
    return {true, 0};
  return {false, 0};
}

std::int64_t SpaceDescriptor::total_pages() const {
  std::int64_t n = 0;
  for (const auto& s : segments) n += s.pages;
  return n;
}

std::int64_t SpaceDescriptor::resident_pages() const {
  std::int64_t n = 0;
  for (const auto& s : segments)
    n += std::count(s.resident.begin(), s.resident.end(), true);
  return n;
}

std::int64_t SpaceDescriptor::wire_bytes() const {
  // ids + per-page bits (3 bitmaps), rounded up.
  return 64 + total_pages() * 3 / 8 + 3 * 16;
}

std::int64_t AddressSpace::total_pages() const {
  std::int64_t n = 0;
  for (const auto& s : segments_) n += s.pages;
  return n;
}

std::int64_t AddressSpace::resident_pages() const {
  std::int64_t n = 0;
  for (const auto& s : segments_) n += s.resident_pages();
  return n;
}

std::int64_t AddressSpace::dirty_pages() const {
  std::int64_t n = 0;
  for (const auto& s : segments_) n += s.dirty_pages();
  return n;
}

VmManager::VmManager(sim::Simulator& sim, sim::Cpu& cpu, fs::FsClient& fs,
                     const sim::Costs& costs, sim::HostId self)
    : sim_(sim), cpu_(cpu), fs_(fs), costs_(costs), self_(self) {
  trace::Registry& tr = sim_.trace();
  c_faults_ = &tr.counter("vm.page.faulted", self_);
  c_pages_in_ = &tr.counter("vm.page.paged_in", self_);
  c_zero_fill_ = &tr.counter("vm.page.zero_filled", self_);
  c_flushed_ = &tr.counter("vm.page.flushed", self_);
  c_from_remote_ = &tr.counter("vm.page.remote_pulled", self_);
}

std::string VmManager::swap_path(std::int64_t asid, Segment seg) const {
  return "/swap/as" + std::to_string(asid) + "." + segment_name(seg);
}

void VmManager::create_space(const std::string& exe_path,
                             std::int64_t code_pages, std::int64_t heap_pages,
                             std::int64_t stack_pages, SpaceCb cb) {
  auto space = std::make_shared<AddressSpace>();
  space->asid_ = ((static_cast<std::int64_t>(self_) + 1) << 32) | next_asid_++;
  const std::int64_t sizes[3] = {code_pages, heap_pages, stack_pages};
  for (auto seg : kAllSegments) {
    SegmentState& st = space->segment(seg);
    st.seg = seg;
    st.pages = sizes[static_cast<int>(seg)];
    st.backing_path = seg == Segment::kCode ? exe_path
                                            : swap_path(space->asid_, seg);
    st.resident.assign(static_cast<std::size_t>(st.pages), false);
    // Code lives in the executable; heap/stack start zero-fill.
    st.in_backing.assign(static_cast<std::size_t>(st.pages),
                         seg == Segment::kCode);
    st.in_remote.assign(static_cast<std::size_t>(st.pages), false);
    st.planes.init(st.pages);
  }
  open_backings(space, /*create_swap=*/true, std::move(cb));
}

void VmManager::adopt_space(const SpaceDescriptor& desc, SpaceCb cb) {
  auto space = std::make_shared<AddressSpace>();
  space->asid_ = desc.asid;
  for (auto seg : kAllSegments) {
    const auto& d = desc.segments[static_cast<std::size_t>(seg)];
    SegmentState& st = space->segment(seg);
    st.seg = seg;
    st.pages = d.pages;
    st.backing_path = d.backing_path;
    st.resident = d.resident;
    st.in_backing = d.in_backing;
    st.in_remote = d.in_remote.empty()
                       ? std::vector<bool>(static_cast<std::size_t>(d.pages),
                                           false)
                       : d.in_remote;
    st.planes.init(d.pages);
    if (!d.dirty.empty()) st.planes[DirtyPlane::kFlush] = d.dirty;
    if (!d.ckpt_dirty.empty()) st.planes[DirtyPlane::kCkpt] = d.ckpt_dirty;
  }
  open_backings(space, /*create_swap=*/false, std::move(cb));
}

void VmManager::open_backings(SpacePtr space, bool create_swap, SpaceCb cb) {
  // Open code read-only, heap/stack read-write, all bypassing the block
  // cache (VM traffic does not pollute the FS cache).
  util::async_loop([this, space, create_swap, cb = std::move(cb)](
                       std::size_t i, auto next) {
    if (i >= kAllSegments.size()) return cb(space);
    const Segment seg = kAllSegments[i];
    SegmentState& st = space->segment(seg);
    if (st.pages == 0) return next();
    OpenFlags flags;
    if (seg == Segment::kCode) {
      flags = OpenFlags::read_only();
    } else {
      flags = create_swap ? OpenFlags::create_rw() : OpenFlags::read_write();
      flags.create = true;  // robust to re-adoption after server cleanup
    }
    flags.no_cache = true;
    fs_.open(st.backing_path, flags,
             [&st, next, cb](util::Result<fs::StreamPtr> r) {
               if (!r.is_ok()) return cb(r.status());
               st.backing = *r;
               next();
             });
  });
}

void VmManager::touch(const SpacePtr& space, Segment seg, std::int64_t first,
                      std::int64_t count, bool write, StatusCb cb) {
  SegmentState& st = space->segment(seg);
  if (first < 0 || count < 0 || first + count > st.pages)
    return cb(Status(Err::kInval, "touch out of segment bounds"));
  if (write && seg == Segment::kCode)
    return cb(Status(Err::kAccess, "write to code segment"));

  // Dirty marking applies to the whole range on writes: every consumer's
  // plane (flush / checkpoint / transfer-round) is set here, in one place.
  if (write) st.planes.mark(first, count);

  // Group non-resident pages into runs with the same page source
  // (remote > backing > zero-fill).
  auto source_of = [&st](std::int64_t p) {
    if (st.in_remote[static_cast<std::size_t>(p)]) return 2;
    if (st.in_backing[static_cast<std::size_t>(p)]) return 1;
    return 0;
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;  // (first, count)
  for (std::int64_t p = first; p < first + count; ++p) {
    if (st.resident[static_cast<std::size_t>(p)]) continue;
    if (!runs.empty() && runs.back().first + runs.back().second == p &&
        source_of(runs.back().first) == source_of(p)) {
      ++runs.back().second;
    } else {
      runs.emplace_back(p, 1);
    }
  }
  if (runs.empty()) {
    sim_.after(Time::zero(), [cb = std::move(cb)] { cb(Status::ok()); });
    return;
  }
  // Span over the whole fault service for this touch (all runs, including
  // the backing-store reads or copy-on-reference pulls they trigger), so a
  // migrated process's demand-paging cost is measurable from the trace.
  if (trace::Registry& tr = sim_.trace(); tr.tracing()) {
    std::int64_t npages = 0;
    for (const auto& r : runs) npages += r.second;
    const trace::SpanId sp =
        tr.begin_span("vm", "demand-page", self_, -1,
                      {{"seg", segment_name(seg)},
                       {"pages", std::to_string(npages)}});
    cb = [&tr, sp, inner = std::move(cb)](Status s) {
      tr.end_span(sp, {{"ok", s.is_ok() ? "1" : "0"}});
      inner(s);
    };
  }
  sim_.trace().flight_note("vm.fault", segment_name(seg), self_, -1,
                           static_cast<std::int64_t>(runs.size()));
  util::async_loop([this, space, seg, runs = std::move(runs),
                    cb = std::move(cb)](std::size_t i, auto next) {
    if (i >= runs.size()) return cb(Status::ok());
    SegmentState& st = space->segment(seg);
    const auto [first, count] = runs[i];
    const bool remote = st.in_remote[static_cast<std::size_t>(first)];
    const bool backed =
        !remote && st.in_backing[static_cast<std::size_t>(first)];
    c_faults_->inc(count);
    if (trace::Registry& tr = sim_.trace(); tr.tracing())
      tr.instant("vm", "page-in run", self_, -1,
                 {{"seg", segment_name(seg)},
                  {"first", std::to_string(first)},
                  {"count", std::to_string(count)},
                  {"source", remote ? "remote" : backed ? "backing" : "zero"}});

    auto mark_resident = [this, space, seg, first = first, count = count,
                          backed, remote] {
      SegmentState& st = space->segment(seg);
      for (std::int64_t p = first; p < first + count; ++p) {
        st.resident[static_cast<std::size_t>(p)] = true;
        st.in_remote[static_cast<std::size_t>(p)] = false;
      }
      if (remote) {
        c_from_remote_->inc(count);
      } else if (backed) {
        c_pages_in_->inc(count);
      } else {
        c_zero_fill_->inc(count);
      }
    };

    cpu_.submit(
        JobClass::kKernel, costs_.vm_fault_cpu * count,
        [this, space, seg, backed, remote, first = first, count = count,
         mark_resident, next, cb] {
          SegmentState& st = space->segment(seg);
          if (remote) {
            // Copy-on-reference: pull the pages from the migration source.
            auto pit = remote_pagers_.find(space->asid());
            if (pit == remote_pagers_.end())
              return cb(Status(Err::kInval, "remote pages without a pager"));
            pit->second(seg, first, count,
                        [mark_resident, next, cb](Status s) {
                          if (!s.is_ok()) return cb(s);
                          mark_resident();
                          next();
                        });
            return;
          }
          if (!backed) {
            // Zero-fill: no I/O.
            mark_resident();
            return next();
          }
          const Status se = fs_.seek(st.backing, first * costs_.page_size);
          SPRITE_CHECK(se.is_ok());
          fs_.read(st.backing, count * costs_.page_size,
                   [mark_resident, next, cb](util::Result<fs::Bytes> r) {
                     if (!r.is_ok()) return cb(r.status());
                     mark_resident();
                     next();
                   });
        });
  });
}

void VmManager::set_remote_pager(const SpacePtr& space, RemotePager pager) {
  remote_pagers_[space->asid()] = std::move(pager);
}

void VmManager::clear_remote_pager(std::int64_t asid) {
  remote_pagers_.erase(asid);
}

void VmManager::flush_dirty(const SpacePtr& space, StatusCb cb) {
  // Span over the whole dirty-page flush (every segment's runs and their
  // file-server writes); nested under whatever operation — typically a
  // Sprite-flush migration — is ambient.
  if (trace::Registry& tr = sim_.trace(); tr.tracing()) {
    const trace::SpanId sp =
        tr.begin_span("vm", "flush-dirty", self_, -1,
                      {{"asid", std::to_string(space->asid())}});
    cb = [&tr, sp, inner = std::move(cb)](Status s) {
      tr.end_span(sp, {{"ok", s.is_ok() ? "1" : "0"}});
      inner(s);
    };
  }
  sim_.trace().flight_note("vm.flush", "dirty", self_, -1, space->asid());
  // Flush heap then stack (code is never dirty).
  util::async_loop([this, space, cb = std::move(cb)](std::size_t si,
                                                     auto next_seg) {
    if (si >= kAllSegments.size()) return cb(Status::ok());
    const Segment seg = kAllSegments[si];
    SegmentState& st = space->segment(seg);
    const auto& dirty = st.planes[DirtyPlane::kFlush];
    std::vector<std::pair<std::int64_t, std::int64_t>> runs;
    for (std::int64_t p = 0; p < st.pages; ++p) {
      if (!dirty[static_cast<std::size_t>(p)]) continue;
      if (!runs.empty() && runs.back().first + runs.back().second == p) {
        ++runs.back().second;
      } else {
        runs.emplace_back(p, 1);
      }
    }
    // Each segment's dirty runs in turn; an empty list moves straight on.
    util::async_loop([this, space, seg, runs = std::move(runs), next_seg,
                      cb](std::size_t i, auto next) {
      if (i >= runs.size()) return next_seg();
      SegmentState& st = space->segment(seg);
      const auto [first, count] = runs[i];
      const Status se = fs_.seek(st.backing, first * costs_.page_size);
      SPRITE_CHECK(se.is_ok());
      fs::Bytes zeros(static_cast<std::size_t>(count * costs_.page_size), 0);
      fs_.write(st.backing, std::move(zeros),
                [this, space, seg, first = first, count = count, next,
                 cb](util::Result<std::int64_t> r) {
                  if (!r.is_ok()) return cb(r.status());
                  SegmentState& st = space->segment(seg);
                  for (std::int64_t p = first; p < first + count; ++p) {
                    st.planes[DirtyPlane::kFlush]
                             [static_cast<std::size_t>(p)] = false;
                    st.in_backing[static_cast<std::size_t>(p)] = true;
                  }
                  c_flushed_->inc(count);
                  if (trace::Registry& tr = sim_.trace(); tr.tracing())
                    tr.instant("vm", "page flush", self_, -1,
                               {{"seg", segment_name(seg)},
                                {"first", std::to_string(first)},
                                {"count", std::to_string(count)}});
                  next();
                });
    });
  });
}

void VmManager::invalidate(const SpacePtr& space) {
  for (auto seg : kAllSegments) {
    SegmentState& st = space->segment(seg);
    st.resident.assign(static_cast<std::size_t>(st.pages), false);
    st.planes.clear(DirtyPlane::kFlush);
  }
}

SpaceDescriptor VmManager::describe(const SpacePtr& space) const {
  SpaceDescriptor d;
  d.asid = space->asid();
  for (auto seg : kAllSegments) {
    const SegmentState& st = space->segment(seg);
    auto& out = d.segments[static_cast<std::size_t>(seg)];
    out.seg = seg;
    out.pages = st.pages;
    out.backing_path = st.backing_path;
    out.resident = st.resident;
    out.dirty = st.planes[DirtyPlane::kFlush];
    out.in_backing = st.in_backing;
    out.in_remote = st.in_remote;
    out.ckpt_dirty = st.planes[DirtyPlane::kCkpt];
  }
  return d;
}

std::int64_t VmManager::ckpt_dirty_pages(const SpacePtr& space) const {
  std::int64_t n = 0;
  for (auto seg : kAllSegments) n += space->segment(seg).ckpt_dirty_pages();
  return n;
}

void VmManager::clear_ckpt_dirty(const SpacePtr& space) {
  for (auto seg : kAllSegments)
    space->segment(seg).planes.clear(DirtyPlane::kCkpt);
}

void VmManager::note_staged(const SpacePtr& space, Segment seg,
                            std::int64_t first, std::int64_t count) {
  SegmentState& st = space->segment(seg);
  SPRITE_CHECK(first >= 0 && count >= 0 && first + count <= st.pages);
  for (std::int64_t p = first; p < first + count; ++p)
    st.in_backing[static_cast<std::size_t>(p)] = true;
}

void VmManager::release_space(SpacePtr space, StatusCb cb) {
  util::async_loop([this, space, cb = std::move(cb)](std::size_t i,
                                                     auto next) {
    if (i >= kAllSegments.size()) return cb(Status::ok());
    SegmentState& st = space->segment(kAllSegments[i]);
    if (!st.backing) return next();
    fs_.close(st.backing, [&st, next](Status) {
      st.backing = nullptr;
      next();
    });
  });
}

void VmManager::destroy_space(SpacePtr space, StatusCb cb) {
  // Close all paging streams, then unlink the swap files.
  util::async_loop([this, space, cb = std::move(cb)](std::size_t i,
                                                     auto next) mutable {
    if (i >= kAllSegments.size()) {
      // Unlink swap files (heap, stack).
      util::async_loop([this, space, cb = std::move(cb)](std::size_t j,
                                                         auto next) {
        if (j >= kAllSegments.size()) return cb(Status::ok());
        const Segment seg = kAllSegments[j];
        if (seg == Segment::kCode || space->segment(seg).pages == 0)
          return next();
        fs_.unlink(space->segment(seg).backing_path,
                   [next](Status) { next(); });
      });
      return;
    }
    SegmentState& st = space->segment(kAllSegments[i]);
    if (!st.backing) return next();
    fs_.close(st.backing, [&st, next](Status) {
      st.backing = nullptr;
      next();
    });
  });
}

}  // namespace sprite::vm
