#include "xfer/engine.h"

#include <algorithm>

#include "kern/cluster.h"
#include "util/assert.h"
#include "util/log.h"

namespace sprite::xfer {

using proc::Pid;
using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

namespace {
std::int64_t space_remote_pages(const vm::SpacePtr& space) {
  std::int64_t n = 0;
  for (auto seg : vm::kAllSegments) n += space->segment(seg).remote_pages();
  return n;
}
}  // namespace

const char* strategy_name(VmStrategy s) {
  switch (s) {
    case VmStrategy::kSpriteFlush: return "sprite-flush";
    case VmStrategy::kWholeCopy: return "whole-copy";
    case VmStrategy::kPreCopy: return "pre-copy";
    case VmStrategy::kCopyOnRef: return "copy-on-reference";
    case VmStrategy::kIterPreCopy: return "iter-pre-copy";
    case VmStrategy::kPostCopy: return "post-copy";
    case VmStrategy::kContentAddr: return "content-addressed";
  }
  return "?";
}

bool strategy_from_name(const std::string& name, VmStrategy* out) {
  for (VmStrategy s :
       {VmStrategy::kSpriteFlush, VmStrategy::kWholeCopy, VmStrategy::kPreCopy,
        VmStrategy::kCopyOnRef, VmStrategy::kIterPreCopy, VmStrategy::kPostCopy,
        VmStrategy::kContentAddr}) {
    if (name == strategy_name(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

Engine::Engine(kern::Host& host)
    : host_(host),
      self_(host.id()),
      cache_(static_cast<std::size_t>(
          host.cluster().costs().xfer_content_cache_entries)) {
  trace::Registry& tr = host_.cluster().sim().trace();
  c_rounds_ = &tr.counter("xfer.round.completed", self_);
  c_pages_sent_ = &tr.counter("xfer.page.sent", self_);
  c_pages_resent_ = &tr.counter("xfer.page.resent", self_);
  c_pages_deduped_ = &tr.counter("xfer.page.deduped", self_);
  c_refs_sent_ = &tr.counter("xfer.ref.sent", self_);
  c_pages_pushed_ = &tr.counter("xfer.page.pushed", self_);
  c_push_redundant_ = &tr.counter("xfer.push.redundant", self_);
  c_bytes_sent_ = &tr.counter("xfer.bytes.sent", self_);
  c_drained_ = &tr.counter("xfer.postcopy.drained", self_);
  h_downtime_ms_ = &tr.histogram("xfer.migration.downtime_ms",
                                 trace::default_latency_bounds_ms(), self_);
  h_round_pages_ = &tr.histogram("xfer.round.pages",
                                 trace::default_latency_bounds_ms(), self_);
  h_drain_ms_ = &tr.histogram("xfer.postcopy.drain_ms",
                              trace::default_latency_bounds_ms(), self_);
}

void Engine::register_services() {
  host_.rpc().register_service(
      ServiceId::kXfer,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_rpc(src, req, std::move(r));
      });
}

void Engine::record_downtime_ms(double ms) { h_downtime_ms_->record(ms); }

PrecopyTuning Engine::tuning_for(VmStrategy s) const {
  if (s == VmStrategy::kPreCopy)
    return PrecopyTuning{4, 32, Time::zero()};  // the paper's fixed tuning
  const sim::Costs& c = host_.cluster().costs();
  return PrecopyTuning{c.xfer_max_rounds, c.xfer_stop_pages,
                       c.xfer_downtime_target};
}

void Engine::notify(std::int64_t asid, Event e) {
  if (observers_.empty()) return;
  // Copy: an observer may crash hosts and mutate these lists reentrantly.
  auto obs = observers_;
  for (auto& fn : obs) fn(asid, e);
}

// ---------------------------------------------------------------------------
// Outgoing sessions
// ---------------------------------------------------------------------------

void Engine::transfer(Params p, DoneFn done) {
  const Pid pid = p.pid;
  SPRITE_CHECK(p.space != nullptr);
  SPRITE_CHECK(out_.find(pid) == out_.end());
  Session s;
  s.p = std::move(p);
  s.done = std::move(done);
  s.tune = tuning_for(s.p.strategy);
  s.prev_dirty = INT64_MAX;
  auto [it, inserted] = out_.emplace(pid, std::move(s));
  SPRITE_CHECK(inserted);

  host_.cluster().sim().trace().flight_note(
      "xfer.start", strategy_name(it->second.p.strategy), self_,
      static_cast<std::int64_t>(pid), it->second.p.target);

  switch (it->second.p.strategy) {
    case VmStrategy::kPreCopy:
    case VmStrategy::kIterPreCopy:
      // Rounds run while the process keeps executing; the freeze comes at
      // convergence.
      precopy_round(pid);
      return;
    default:
      it->second.p.freeze([this, pid] { run_frozen(pid); });
      return;
  }
}

void Engine::cancel(Pid pid) {
  out_.erase(pid);
  // A push session that never started belongs to a migration that failed
  // before its transfer completed; drop it with the session.
  for (auto it = push_.begin(); it != push_.end();) {
    it = (it->second.pid == pid && !it->second.started) ? push_.erase(it)
                                                        : std::next(it);
  }
}

void Engine::finish_error(Pid pid, Status why) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  DoneFn done = std::move(it->second.done);
  out_.erase(it);
  done(why);
}

void Engine::finish_ok(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  DoneFn done = std::move(it->second.done);
  Result res = std::move(it->second.res);
  out_.erase(it);
  done(std::move(res));
}

void Engine::describe_release_done(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  vm::SpacePtr space = s.p.space;
  s.res.desc = host_.vm().describe(space);
  host_.vm().release_space(space, [this, pid](Status) { finish_ok(pid); });
}

void Engine::send_batches(Pid pid, std::int64_t pages, int round,
                          std::function<void()> then) {
  if (pages <= 0) {
    host_.cluster().sim().after(Time::zero(), std::move(then));
    return;
  }
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  const std::int64_t chunk = std::min<std::int64_t>(pages, 16);  // 64 KB
  auto body = std::make_shared<PageBatchReq>();
  body->pid = pid;
  body->round = round;
  body->pages = chunk;
  body->bytes = chunk * host_.cluster().costs().page_size;
  s.res.bytes_on_wire += body->wire_bytes();
  c_bytes_sent_->inc(body->wire_bytes());
  c_pages_sent_->inc(chunk);
  if (round != 0) c_pages_resent_->inc(chunk);
  trace::ScopedContext scope(host_.cluster().sim().trace(), s.p.ctx);
  host_.rpc().call(
      s.p.target, ServiceId::kXfer, static_cast<int>(XferOp::kPageBatch),
      body,
      [this, pid, pages, chunk, round,
       then = std::move(then)](util::Result<Reply> r) mutable {
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        if (!r.is_ok() || !r->status.is_ok())
          return finish_error(pid, r.is_ok() ? r->status : r.status());
        send_batches(pid, pages - chunk, round, std::move(then));
      });
}

// ---- Pre-copy family ----

void Engine::precopy_round(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  // The process keeps executing during the rounds; it may exit under us.
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited during pre-copy"));
  vm::SpacePtr space = s.p.space;

  std::int64_t pages = 0;
  for (auto seg : vm::kAllSegments)
    pages += s.round == 0 ? space->segment(seg).resident_pages()
                          : space->segment(seg).xfer_dirty_pages();

  // Converged (or stopped converging): freeze and send the final set. The
  // downtime-target rule lifts the page floor to however many pages cross
  // the wire within the target at the medium's bandwidth.
  std::int64_t stop_pages = s.tune.stop_pages;
  if (s.tune.downtime_target > Time::zero()) {
    const sim::Costs& c = host_.cluster().costs();
    const auto bound = static_cast<std::int64_t>(
        s.tune.downtime_target.s() * c.net_bytes_per_sec /
        static_cast<double>(c.page_size));
    stop_pages = std::max(stop_pages, bound);
  }
  const bool stop =
      s.round > 0 && (pages <= stop_pages || s.round >= s.tune.max_rounds ||
                      pages >= s.prev_dirty);
  if (stop) {
    s.p.freeze([this, pid] { finish_precopy(pid); });
    return;
  }

  // Copy this round's pages while the process keeps running; it re-dirties
  // some of them and the next round picks exactly those up off the
  // round-scoped plane. The flush plane is cleared in lockstep: these pages
  // cross the wire, so the target's copy arrives resident and clean.
  for (auto seg : vm::kAllSegments) {
    auto& st = space->segment(seg);
    st.planes.clear(vm::DirtyPlane::kXfer);
    st.planes.clear(vm::DirtyPlane::kFlush);
  }
  s.res.pages_moved += pages;
  s.res.rounds += 1;
  s.res.round_pages.push_back(pages);
  s.prev_dirty = pages == 0 ? 1 : pages;
  const int round = s.round++;
  c_rounds_->inc();
  h_round_pages_->record(static_cast<double>(pages));
  send_batches(pid, pages, round, [this, pid, round, pages] {
    auto it = out_.find(pid);
    if (it == out_.end()) return;
    if (it->second.p.on_round) {
      it->second.p.on_round(round, pages);
      if (out_.find(pid) == out_.end()) return;  // observer crashed us
    }
    precopy_round(pid);
  });
}

void Engine::finish_precopy(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited during pre-copy"));
  vm::SpacePtr space = s.p.space;
  std::int64_t final_pages = 0;
  for (auto seg : vm::kAllSegments) {
    final_pages += space->segment(seg).xfer_dirty_pages();
    auto& st = space->segment(seg);
    st.planes.clear(vm::DirtyPlane::kXfer);
    st.planes.clear(vm::DirtyPlane::kFlush);
  }
  s.res.pages_moved += final_pages;
  s.res.round_pages.push_back(final_pages);
  h_round_pages_->record(static_cast<double>(final_pages));
  send_batches(pid, final_pages, /*round=*/-1,
               [this, pid] { describe_release_done(pid); });
}

// ---- Freeze-first strategies ----

void Engine::run_frozen(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (!s.p.alive() || !s.p.space)
    return finish_error(pid,
                        Status(Err::kSrch, "process exited before transfer"));
  vm::SpacePtr space = s.p.space;

  switch (s.p.strategy) {
    case VmStrategy::kSpriteFlush: {
      s.res.pages_flushed = space->dirty_pages();
      host_.vm().flush_dirty(space, [this, pid, space](Status st) {
        if (!st.is_ok()) return finish_error(pid, st);
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        // Nothing is shipped: the target demand-pages from the server.
        host_.vm().invalidate(space);
        describe_release_done(pid);
      });
      return;
    }
    case VmStrategy::kWholeCopy: {
      const std::int64_t pages = space->resident_pages();
      s.res.pages_moved = pages;
      s.res.round_pages.push_back(pages);
      send_batches(pid, pages, /*round=*/0, [this, pid, space] {
        if (out_.find(pid) == out_.end()) return;
        // Pages crossed the wire; the target's copy is resident and clean.
        for (auto seg : vm::kAllSegments)
          space->segment(seg).planes.clear(vm::DirtyPlane::kFlush);
        describe_release_done(pid);
      });
      return;
    }
    case VmStrategy::kContentAddr: {
      content_transfer(pid);
      return;
    }
    case VmStrategy::kCopyOnRef:
    case VmStrategy::kPostCopy: {
      // Ship only page tables; previously-resident pages become remote on
      // the target, and the source keeps the image to serve pulls (the
      // residual dependency). Post-copy additionally arms a push session
      // over the frozen resident set; the manager starts it once the
      // transfer RPC succeeds.
      vm::SpaceDescriptor desc = host_.vm().describe(space);
      for (auto& seg : desc.segments) {
        seg.in_remote = seg.resident;
        seg.resident.assign(seg.resident.size(), false);
        seg.dirty.assign(seg.dirty.size(), false);
      }
      s.res.desc = std::move(desc);
      s.res.cor_source_resident = true;
      if (s.p.strategy == VmStrategy::kPostCopy) {
        s.res.postcopy_push = true;
        Push push;
        push.pid = pid;
        push.target = s.p.target;
        push.space = space;
        push.ctx = s.p.ctx;
        push.left = 0;
        for (auto seg : vm::kAllSegments) {
          const auto& st = space->segment(seg);
          push.owed[static_cast<std::size_t>(seg)] = st.resident;
          push.left += st.resident_pages();
        }
        push_[space->asid()] = std::move(push);
      }
      finish_ok(pid);
      return;
    }
    case VmStrategy::kPreCopy:
    case VmStrategy::kIterPreCopy:
      break;  // handled by precopy_round
  }
  SPRITE_UNREACHABLE("unknown transfer strategy");
}

// ---- Content-addressed transfer ----

void Engine::content_transfer(Pid pid) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  vm::SpacePtr space = s.p.space;

  // Partition the frozen resident set: shareable pages (program text, the
  // zero page) go through the id map exchange; written anonymous pages have
  // unique bytes and ship in full.
  auto ids = std::make_shared<std::vector<std::uint64_t>>();
  std::int64_t unique = 0;
  for (auto seg : vm::kAllSegments) {
    const vm::SegmentState& st = space->segment(seg);
    for (std::int64_t p = 0; p < st.pages; ++p) {
      if (!st.resident[static_cast<std::size_t>(p)]) continue;
      const vm::PageContentId cid = vm::page_content_id(st, p);
      if (cid.shareable)
        ids->push_back(cid.id);
      else
        ++unique;
    }
  }
  s.res.round_pages.push_back(unique +
                              static_cast<std::int64_t>(ids->size()));
  send_batches(pid, unique, /*round=*/0, [this, pid, ids] {
    content_map_round(pid, ids, 0);
  });
}

void Engine::content_map_round(
    Pid pid, std::shared_ptr<std::vector<std::uint64_t>> ids,
    std::size_t next) {
  auto it = out_.find(pid);
  if (it == out_.end()) return;
  Session& s = it->second;
  if (next >= ids->size()) {
    // Everything accounted for; the target's copy is resident and clean.
    vm::SpacePtr space = s.p.space;
    s.res.pages_moved = s.res.round_pages.empty() ? 0 : s.res.round_pages[0];
    for (auto seg : vm::kAllSegments)
      space->segment(seg).planes.clear(vm::DirtyPlane::kFlush);
    describe_release_done(pid);
    return;
  }
  const sim::Costs& costs = host_.cluster().costs();
  const std::size_t batch = std::min<std::size_t>(
      ids->size() - next, static_cast<std::size_t>(costs.xfer_map_batch_pages));
  auto body = std::make_shared<MapReq>();
  body->pid = pid;
  body->asid = s.p.space->asid();
  body->ref_bytes = costs.xfer_ref_bytes;
  body->ids.assign(ids->begin() + static_cast<std::ptrdiff_t>(next),
                   ids->begin() + static_cast<std::ptrdiff_t>(next + batch));
  s.res.bytes_on_wire += body->wire_bytes();
  c_bytes_sent_->inc(body->wire_bytes());
  c_refs_sent_->inc(static_cast<std::int64_t>(batch));
  trace::ScopedContext scope(host_.cluster().sim().trace(), s.p.ctx);
  host_.rpc().call(
      s.p.target, ServiceId::kXfer, static_cast<int>(XferOp::kMap), body,
      [this, pid, ids, next, batch](util::Result<Reply> r) mutable {
        auto it = out_.find(pid);
        if (it == out_.end()) return;
        if (!r.is_ok() || !r->status.is_ok())
          return finish_error(pid, r.is_ok() ? r->status : r.status());
        auto rep = rpc::body_cast<MapRep>(r->body);
        SPRITE_CHECK(rep != nullptr && rep->need.size() == batch);
        const auto needed = static_cast<std::int64_t>(
            std::count(rep->need.begin(), rep->need.end(), true));
        const auto hits = static_cast<std::int64_t>(batch) - needed;
        it->second.res.pages_deduped += hits;
        c_pages_deduped_->inc(hits);
        send_batches(pid, needed, /*round=*/0, [this, pid, ids, next, batch] {
          content_map_round(pid, ids, next + batch);
        });
      });
}

// ---------------------------------------------------------------------------
// Post-copy push daemon (source side)
// ---------------------------------------------------------------------------

void Engine::begin_push(std::int64_t asid) {
  auto it = push_.find(asid);
  if (it == push_.end()) return;
  Push& push = it->second;
  SPRITE_CHECK(!push.started);
  push.started = true;
  push.started_at = host_.cluster().sim().now();
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "begin", self_, static_cast<std::int64_t>(push.pid),
      push.left);
  if (push.left == 0) return finish_push_drained(asid);
  host_.cluster().sim().after(host_.cluster().costs().xfer_push_interval,
                              [this, asid] { push_tick(asid); });
}

void Engine::push_tick(std::int64_t asid) {
  auto it = push_.find(asid);
  if (it == push_.end()) return;
  Push& push = it->second;
  if (push.left == 0) return finish_push_drained(asid);

  // Next owed run, bounded to one segment and the push batch size.
  const std::int64_t max_pages = host_.cluster().costs().xfer_push_pages;
  vm::Segment run_seg = vm::Segment::kHeap;
  std::int64_t first = -1, count = 0;
  for (auto seg : vm::kAllSegments) {
    const auto& owed = push.owed[static_cast<std::size_t>(seg)];
    for (std::size_t p = 0; p < owed.size(); ++p) {
      if (!owed[p]) {
        if (first >= 0) break;
        continue;
      }
      if (first < 0) {
        run_seg = seg;
        first = static_cast<std::int64_t>(p);
      }
      if (++count >= max_pages) break;
    }
    if (first >= 0) break;
  }
  if (first < 0) return finish_push_drained(asid);

  auto body = std::make_shared<PushReq>();
  body->asid = asid;
  body->seg = run_seg;
  body->first = first;
  body->count = count;
  body->bytes = count * host_.cluster().costs().page_size;
  c_bytes_sent_->inc(body->wire_bytes());
  trace::ScopedContext scope(host_.cluster().sim().trace(), push.ctx);
  host_.rpc().call(
      push.target, ServiceId::kXfer, static_cast<int>(XferOp::kPush), body,
      [this, asid, run_seg, first, count](util::Result<Reply> r) {
        auto it = push_.find(asid);
        if (it == push_.end()) return;
        if (!r.is_ok() || !r->status.is_ok()) {
          // Target unreachable or mid-reboot: retry next interval; a down
          // verdict tears the session down via peer_crashed.
          host_.cluster().sim().after(
              host_.cluster().costs().xfer_push_interval,
              [this, asid] { push_tick(asid); });
          return;
        }
        Push& push = it->second;
        auto& owed = push.owed[static_cast<std::size_t>(run_seg)];
        std::int64_t sent = 0;
        for (std::int64_t p = first; p < first + count; ++p) {
          if (!owed[static_cast<std::size_t>(p)]) continue;
          owed[static_cast<std::size_t>(p)] = false;
          ++sent;
        }
        push.left -= sent;
        c_pages_pushed_->inc(sent);
        auto rep = rpc::body_cast<PushRep>(r->body);
        if (rep != nullptr && rep->applied < sent)
          c_push_redundant_->inc(sent - rep->applied);
        notify(asid, Event::kPushSent);
        it = push_.find(asid);  // an observer may have crashed hosts
        if (it == push_.end()) return;
        if (it->second.left == 0) return finish_push_drained(asid);
        host_.cluster().sim().after(
            host_.cluster().costs().xfer_push_interval,
            [this, asid] { push_tick(asid); });
      });
}

void Engine::note_pull_served(std::int64_t asid, vm::Segment seg,
                              std::int64_t first, std::int64_t count) {
  auto it = push_.find(asid);
  if (it == push_.end()) return;
  Push& push = it->second;
  auto& owed = push.owed[static_cast<std::size_t>(seg)];
  for (std::int64_t p = first;
       p < first + count && p < static_cast<std::int64_t>(owed.size()); ++p) {
    if (!owed[static_cast<std::size_t>(p)]) continue;
    owed[static_cast<std::size_t>(p)] = false;
    --push.left;
  }
  if (push.started && push.left == 0) finish_push_drained(asid);
}

void Engine::finish_push_drained(std::int64_t asid) {
  auto it = push_.find(asid);
  if (it == push_.end()) return;
  const Pid pid = it->second.pid;
  h_drain_ms_->record(
      (host_.cluster().sim().now() - it->second.started_at).ms());
  push_.erase(it);
  c_drained_->inc();
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "drained", self_, static_cast<std::int64_t>(pid), asid);
  if (source_drained_) source_drained_(asid);
  notify(asid, Event::kSourceDrained);
}

// ---------------------------------------------------------------------------
// Post-copy target side
// ---------------------------------------------------------------------------

void Engine::register_incoming(std::int64_t asid, Pid pid, HostId source,
                               const vm::SpacePtr& space) {
  Incoming in;
  in.pid = pid;
  in.source = source;
  in.space = space;
  in_[asid] = std::move(in);
}

void Engine::note_remote_drain(std::int64_t asid) {
  auto it = in_.find(asid);
  if (it == in_.end()) return;
  if (space_remote_pages(it->second.space) == 0) finish_target_drained(asid);
}

void Engine::finish_target_drained(std::int64_t asid) {
  auto it = in_.find(asid);
  if (it == in_.end()) return;
  const Pid pid = it->second.pid;
  in_.erase(it);
  host_.vm().clear_remote_pager(asid);
  host_.cluster().sim().trace().flight_note(
      "xfer.push", "target_drained", self_, static_cast<std::int64_t>(pid),
      asid);
  // The residual dependency is gone: a later source crash must no longer
  // kill this process.
  if (target_drained_) target_drained_(pid);
  notify(asid, Event::kTargetDrained);
}

// ---------------------------------------------------------------------------
// Crash support
// ---------------------------------------------------------------------------

void Engine::crash_reset() {
  out_.clear();   // no callbacks: their closures died with the kernel
  push_.clear();
  in_.clear();
  cache_.clear();  // kernel soft state
}

void Engine::peer_crashed(HostId peer) {
  // Outgoing sessions to the dead target: the manager's fail path cancels
  // them too, but drop them here first so in-flight continuations no-op.
  for (auto it = out_.begin(); it != out_.end();)
    it = it->second.p.target == peer ? out_.erase(it) : std::next(it);
  // Push sessions serving the dead target are unreachable (the manager
  // frees the matching residual image).
  for (auto it = push_.begin(); it != push_.end();)
    it = it->second.target == peer ? push_.erase(it) : std::next(it);
  // Incoming postcopy spaces fed by the dead source: the manager kills the
  // dependent processes (cor_sources_); drop the apply sessions.
  for (auto it = in_.begin(); it != in_.end();)
    it = it->second.source == peer ? in_.erase(it) : std::next(it);
}

void Engine::collect_peer_interest(std::vector<HostId>& out) const {
  for (const auto& [asid, push] : push_) out.push_back(push.target);
  for (const auto& [asid, in] : in_) out.push_back(in.source);
}

// ---------------------------------------------------------------------------
// Incoming RPCs
// ---------------------------------------------------------------------------

void Engine::handle_rpc(HostId, const Request& req,
                        std::function<void(Reply)> respond) {
  switch (static_cast<XferOp>(req.op)) {
    case XferOp::kPageBatch: {
      // The payload's wire time is the cost; nothing to store.
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case XferOp::kMap: {
      auto body = rpc::body_cast<MapReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<MapRep>();
      rep->need.reserve(body->ids.size());
      for (const std::uint64_t id : body->ids) {
        const bool have = cache_.touch(id);
        rep->need.push_back(!have);
        cache_.insert(id);  // the full page follows when we lacked it
      }
      respond(Reply{Status::ok(), rep});
      return;
    }
    case XferOp::kPush: {
      auto body = rpc::body_cast<PushReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto it = in_.find(body->asid);
      auto rep = std::make_shared<PushRep>();
      if (it == in_.end()) {
        // Already drained (or never registered): benign race, nothing owed.
        respond(Reply{Status::ok(), rep});
        return;
      }
      vm::SegmentState& st = it->second.space->segment(body->seg);
      for (std::int64_t p = body->first;
           p < body->first + body->count && p < st.pages; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (!st.in_remote[i]) continue;  // pulled while the push was in flight
        st.in_remote[i] = false;
        st.resident[i] = true;
        ++rep->applied;
      }
      if (space_remote_pages(it->second.space) == 0)
        finish_target_drained(body->asid);
      respond(Reply{Status::ok(), rep});
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad xfer op"), nullptr});
}

}  // namespace sprite::xfer
