#include "ckpt/manager.h"

#include <algorithm>
#include <utility>

#include "ckpt/wire.h"
#include "kern/cluster.h"
#include "proc/wire.h"
#include "util/assert.h"
#include "util/async.h"
#include "util/log.h"

namespace sprite::ckpt {

using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Result;
using util::Status;

const char* ckpt_stage_name(CkptStage s) {
  switch (s) {
    case CkptStage::kFrozen: return "frozen";
    case CkptStage::kFlushed: return "flushed";
    case CkptStage::kPagesWritten: return "pages_written";
    case CkptStage::kMetaWritten: return "meta_written";
    case CkptStage::kCommitted: return "committed";
    case CkptStage::kCompacted: return "compacted";
    case CkptStage::kRegistered: return "registered";
    case CkptStage::kRestartRead: return "restart_read";
    case CkptStage::kRestartStaged: return "restart_staged";
    case CkptStage::kRestartResumed: return "restart_resumed";
  }
  return "?";
}

CkptManager::CkptManager(kern::Host& host)
    : host_(host), self_(host.id()) {
  const sim::Costs& costs = host_.cluster().costs();
  auto_interval_ = costs.ckpt_auto_interval;
  auto_dirty_threshold_ = costs.ckpt_dirty_threshold_pages;

  trace::Registry& tr = host_.cluster().sim().trace();
  c_captures_ = &tr.counter("ckpt.capture.completed", self_);
  c_capture_failed_ = &tr.counter("ckpt.capture.failed", self_);
  c_full_ = &tr.counter("ckpt.capture.full_base", self_);
  c_incr_ = &tr.counter("ckpt.capture.incremental", self_);
  c_declined_ = &tr.counter("ckpt.capture.declined", self_);
  c_pages_captured_ = &tr.counter("ckpt.page.captured", self_);
  c_restarts_ = &tr.counter("ckpt.restart.completed", self_);
  c_restart_failed_ = &tr.counter("ckpt.restart.failed", self_);
  c_restore_fell_back_ = &tr.counter("ckpt.restore.fell_back", self_);
  c_pages_restored_ = &tr.counter("ckpt.page.restored", self_);
  c_compactions_ = &tr.counter("ckpt.chain.compacted", self_);
  c_auto_ = &tr.counter("ckpt.auto.triggered", self_);
  c_departs_ = &tr.counter("ckpt.depart.completed", self_);
  c_stale_reaped_ = &tr.counter("ckpt.stale.reaped", self_);
  c_registers_ = &tr.counter("ckpt.register.received", self_);
  h_capture_ms_ = &tr.histogram("ckpt.capture.total_ms",
                                trace::default_latency_bounds_ms(), self_);
  h_restart_ms_ = &tr.histogram("ckpt.restart.total_ms",
                                trace::default_latency_bounds_ms(), self_);

  // Reintegration / reboot of a host the home restarted away from: a healed
  // partition may still run the superseded incarnation — kill it; a reboot
  // wiped it.
  host_.monitor().add_peer_reintegrated_observer([this](HostId peer) {
    std::vector<std::pair<proc::Pid, std::int64_t>> kills;
    for (auto it = restarted_from_.begin(); it != restarted_from_.end();) {
      if (it->second == peer) {
        kills.emplace_back(it->first, procs().home_record_incarnation(it->first));
        it = restarted_from_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [pid, inc] : kills) {
      auto body = std::make_shared<KillStaleReq>();
      body->pid = pid;
      body->incarnation = inc;
      host_.rpc().call(peer, ServiceId::kCkpt,
                       static_cast<int>(CkptOp::kKillStale), body,
                       [](Result<Reply>) {});
    }
  });
  host_.monitor().add_peer_rebooted_observer([this](HostId peer) {
    for (auto it = restarted_from_.begin(); it != restarted_from_.end();) {
      if (it->second == peer)
        it = restarted_from_.erase(it);
      else
        ++it;
    }
  });
}

void CkptManager::register_services() {
  host_.rpc().register_service(
      ServiceId::kCkpt,
      [this](HostId src, const Request& req,
             std::function<void(Reply)> respond) {
        handle_rpc(src, req, std::move(respond));
      });
}

proc::ProcTable& CkptManager::procs() const { return host_.procs(); }
vm::VmManager& CkptManager::vm() const { return host_.vm(); }
fs::FsClient& CkptManager::fs() const { return host_.fs(); }

std::int64_t CkptManager::chain_length(proc::Pid pid) const {
  auto it = chains_.find(pid);
  return it == chains_.end()
             ? 0
             : static_cast<std::int64_t>(it->second.seqs.size());
}

std::int64_t CkptManager::last_seq(proc::Pid pid) const {
  auto it = chains_.find(pid);
  return it == chains_.end() || it->second.seqs.empty()
             ? 0
             : it->second.seqs.back();
}

void CkptManager::notify_stage(proc::Pid pid, CkptStage stage) {
  // Copy: an observer may crash this host reentrantly (fault tests),
  // clearing the vector under us.
  auto observers = stage_observers_;
  for (const auto& fn : observers) fn(pid, stage);
}

// ---------------------------------------------------------------------------
// Eligibility

util::Status CkptManager::eligible(const proc::Pcb& pcb) const {
  if (pcb.state == proc::ProcState::kZombie ||
      pcb.state == proc::ProcState::kDead)
    return Status(Err::kSrch, "process is gone");
  if (!pcb.program || !pcb.program->checkpointable())
    return Status(Err::kNotSupported, "program is not checkpointable");
  if (pcb.forward_file_calls)
    return Status(Err::kNotMigratable,
            "file calls are forwarded home (no transferred stream state)");
  if (!pcb.space) return Status(Err::kNotMigratable, "no address space");
  if (pcb.space->shared_writable)
    return Status(Err::kNotMigratable, "shares writable memory");
  for (auto seg : vm::kAllSegments) {
    if (pcb.space->segment(seg).remote_pages() > 0)
      return Status(Err::kNotMigratable,
              "copy-on-reference residue (pages still on the source host)");
  }
  for (const auto& [fd, s] : pcb.fds) {
    (void)fd;
    if (!fs::FsClient::recoverable_by_path(*s))
      return Status(Err::kNotMigratable,
              "stream not recoverable by path: " +
                  (s->path.empty() ? std::string("<anonymous>") : s->path));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Capture pipeline

void CkptManager::checkpoint(const proc::PcbPtr& pcb, StatusCb cb) {
  capture_begin(pcb, /*keep_frozen=*/false, std::move(cb));
}

void CkptManager::capture_begin(const proc::PcbPtr& pcb, bool keep_frozen,
                                StatusCb cb) {
  if (!cb) cb = [](Status) {};
  SPRITE_CHECK(pcb != nullptr);
  const proc::Pid pid = pcb->pid;
  if (active_captures_.count(pid))
    return cb(Status(Err::kBusy, "checkpoint already in progress"));
  if (active_restores_.count(pid))
    return cb(Status(Err::kBusy, "restore in progress"));
  if (procs().find(pid) != pcb)
    return cb(Status(Err::kSrch, "process not resident on this host"));
  if (Status e = eligible(*pcb); !e.is_ok()) {
    c_declined_->inc();
    host_.cluster().sim().trace().flight_note("ckpt.capture", "declined",
                                              self_, static_cast<std::int64_t>(pid),
                                              static_cast<int>(e.err()));
    return cb(e);
  }

  const std::uint64_t token = next_token_++;
  Capture& c = captures_[token];
  c.pcb = pcb;
  c.cb = std::move(cb);
  c.keep_frozen = keep_frozen;
  c.t0 = host_.cluster().sim().now();
  c.span = host_.cluster().sim().trace().begin_span(
      "ckpt", "capture", self_, static_cast<std::int64_t>(pid));
  active_captures_.insert(pid);

  procs().freeze(pcb, [this, token] {
    auto it = captures_.find(token);
    if (it == captures_.end()) return;  // crashed meanwhile
    notify_stage(it->second.pcb->pid, CkptStage::kFrozen);
    capture_flush(token);
  });
}

void CkptManager::capture_flush(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  // Output-commit: data the program believes written may still sit dirty in
  // this host's cache. A restart elsewhere replays from the checkpoint
  // onward; bytes written *before* the capture must already be durable or
  // the replayed run diverges from the surviving file contents.
  std::vector<fs::FileId> ids;
  for (const auto& [fd, s] : it->second.pcb->fds) {
    (void)fd;
    if (std::find(ids.begin(), ids.end(), s->file) == ids.end())
      ids.push_back(s->file);
  }
  util::async_loop([this, token, ids = std::move(ids)](std::size_t i,
                                                       auto next) {
    if (i < ids.size()) {
      fs().flush_file(ids[i], [this, token, next](Status st) {
        if (!st.is_ok()) return capture_fail(token, st);
        next();
      });
      return;
    }
    auto it = captures_.find(token);
    if (it == captures_.end()) return;
    notify_stage(it->second.pcb->pid, CkptStage::kFlushed);
    // Serialize the PCB record and page maps (migration's encapsulate
    // sibling).
    host_.cpu().submit(sim::JobClass::kKernel,
                       host_.cluster().costs().ckpt_capture_cpu,
                       [this, token] { capture_load_chain(token); });
  });
}

void CkptManager::capture_load_chain(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  const proc::Pid pid = it->second.pcb->pid;
  if (chains_.count(pid)) return capture_plan(token);

  // Unknown chain: first capture here, or the process arrived by migration
  // mid-chain. Read the head slots so sequence numbers stay monotonic
  // across hosts, and adopt the chain list so the capture can stay
  // incremental (the checkpoint-dirty plane travelled in the space
  // descriptor).
  read_head_seqs(pid, [this, token, pid](std::vector<std::int64_t> cands) {
    auto it = captures_.find(token);
    if (it == captures_.end()) return;
    if (cands.empty()) return capture_plan(token);  // fresh chain, seq 1
    // New captures must land above everything on disk, including a capture
    // whose chain meta turns out unreadable (its files still exist).
    it->second.seq_floor = cands.front();
    util::async_loop([this, token, pid, cands = std::move(cands)](
                         std::size_t i, auto next) {
      if (i >= cands.size()) {
        // No candidate's chain is readable: force a fresh base above the
        // head seq (nothing to compact — the old files leak, the chain
        // stays consistent).
        return capture_plan(token);
      }
      read_image_file(meta_path(pid, cands[i]),
                      [this, token, pid, next](Result<fs::Bytes> mr) {
                        auto it = captures_.find(token);
                        if (it == captures_.end()) return;
                        if (mr.is_ok()) {
                          auto m = CkptMeta::decode(*mr);
                          if (m.is_ok() && m->pid == pid) {
                            Chain& ch = chains_[pid];
                            ch.seqs = m->chain;
                            ch.last_capture = host_.cluster().sim().now();
                            return capture_plan(token);
                          }
                        }
                        next();
                      });
    });
  });
}

void CkptManager::capture_plan(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  Capture& c = it->second;
  const proc::Pid pid = c.pcb->pid;
  // eligible() ran before the freeze; the flush, the CPU job and the chain
  // reads since then give an exit, exec or stale-incarnation reap time to
  // take the process (and its address space) away.
  if (procs().find(pid) != c.pcb)
    return capture_fail(
        token, Status(Err::kSrch, "process left this host mid-capture"));
  if (Status e = eligible(*c.pcb); !e.is_ok()) return capture_fail(token, e);
  const int chain_max = host_.cluster().costs().ckpt_chain_max;

  auto cit = chains_.find(pid);
  // seq_floor wins even over an adopted chain: when the newest head's meta
  // was unreadable and an older candidate's chain was adopted instead, new
  // captures must still not collide with the unreadable capture's files.
  std::int64_t next_seq = c.seq_floor + 1;
  if (cit != chains_.end() && !cit->second.seqs.empty())
    next_seq = std::max(next_seq, cit->second.seqs.back() + 1);
  c.seq = next_seq;
  c.full = cit == chains_.end() ||
           static_cast<int>(cit->second.seqs.size()) >= chain_max;
  if (c.full) {
    c.chain = {c.seq};
    if (cit != chains_.end()) c.compacted = cit->second.seqs;
  } else {
    c.chain = cit->second.seqs;
    c.chain.push_back(c.seq);
  }
  c.meta = build_meta(*c.pcb, c.seq, c.chain, c.full);
  capture_write_pages(token);
}

CkptMeta CkptManager::build_meta(const proc::Pcb& pcb, std::int64_t seq,
                                 std::vector<std::int64_t> chain,
                                 bool full) const {
  CkptMeta m;
  m.pid = pcb.pid;
  m.seq = seq;
  m.chain = std::move(chain);
  m.incarnation = pcb.incarnation;
  m.ppid = pcb.ppid;
  m.home = pcb.home;
  m.exe_path = pcb.exe_path;
  m.args = pcb.args;
  m.program_state = pcb.program->encode_state();
  m.view_err = static_cast<int>(pcb.view.status.err());
  m.view_msg = pcb.view.status.message();
  m.view_rv = pcb.view.rv;
  m.view_aux = pcb.view.aux;
  m.view_data = pcb.view.data;
  m.view_is_child = pcb.view.is_child;
  m.view_text = pcb.view.text;
  m.remaining_compute_us = pcb.remaining_compute.us();
  m.pause_remaining_us = pcb.pause_remaining.us();
  m.blocked_in_wait = pcb.blocked_in_wait;
  m.kill_pending = pcb.kill_pending;
  m.kill_sig = pcb.kill_sig;
  m.next_fd = pcb.next_fd;
  m.spawned_at_us = pcb.spawned_at.us();
  for (const auto& [fd, s] : pcb.fds) {
    CkptStream cs;
    cs.fd = fd;
    cs.path = s->path;
    cs.offset = s->offset;
    cs.flags = s->flags;
    m.streams.push_back(std::move(cs));
  }
  m.code_pages = pcb.space->segment(vm::Segment::kCode).pages;

  // Capture set: a full base takes every page that differs from zero-fill
  // (dirty in memory, flushed to swap, or written since the last capture);
  // an increment takes exactly the checkpoint-dirty pages.
  auto runs_for = [full](const vm::SegmentState& st) {
    CkptSegRuns out;
    out.pages = st.pages;
    std::int64_t run_start = -1;
    for (std::int64_t p = 0; p <= st.pages; ++p) {
      const bool take =
          p < st.pages &&
          (full ? (st.planes[vm::DirtyPlane::kFlush]
                            [static_cast<std::size_t>(p)] ||
                   st.in_backing[static_cast<std::size_t>(p)] ||
                   st.planes[vm::DirtyPlane::kCkpt]
                            [static_cast<std::size_t>(p)])
                : st.planes[vm::DirtyPlane::kCkpt]
                           [static_cast<std::size_t>(p)]);
      if (take && run_start < 0) run_start = p;
      if (!take && run_start >= 0) {
        out.runs.emplace_back(run_start, p - run_start);
        run_start = -1;
      }
    }
    return out;
  };
  m.heap = runs_for(pcb.space->segment(vm::Segment::kHeap));
  m.stack = runs_for(pcb.space->segment(vm::Segment::kStack));
  return m;
}

void CkptManager::capture_write_pages(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  Capture& c = it->second;
  const std::int64_t nbytes =
      c.meta.captured_pages() * host_.cluster().costs().page_size;
  write_image_zeros(pages_path(c.pcb->pid, c.seq), nbytes,
                    [this, token](Status st) {
                      auto it = captures_.find(token);
                      if (it == captures_.end()) return;
                      if (!st.is_ok()) return capture_fail(token, st);
                      notify_stage(it->second.pcb->pid,
                                   CkptStage::kPagesWritten);
                      capture_write_meta(token);
                    });
}

void CkptManager::capture_write_meta(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  Capture& c = it->second;
  write_image_file(meta_path(c.pcb->pid, c.seq), c.meta.encode(),
                   [this, token](Status st) {
                     auto it = captures_.find(token);
                     if (it == captures_.end()) return;
                     if (!st.is_ok()) return capture_fail(token, st);
                     notify_stage(it->second.pcb->pid,
                                  CkptStage::kMetaWritten);
                     capture_commit(token);
                   });
}

void CkptManager::capture_commit(std::uint64_t token) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  const std::int64_t seq = it->second.seq;
  // The head rewrite is the commit point: everything before it is invisible
  // to restart, everything after it is recoverable. Consecutive seqs
  // alternate head slots (seq & 1), so this write never touches the slot
  // naming the previous committed capture — a crash that tears this write
  // garbles only the new slot and restart falls back to the old one.
  write_image_file(head_path(it->second.pcb->pid, static_cast<int>(seq & 1)),
                   encode_head(seq), [this, token](Status st) {
    auto it = captures_.find(token);
    if (it == captures_.end()) return;
    if (!st.is_ok()) return capture_fail(token, st);

    Capture c = std::move(it->second);
    captures_.erase(it);
    const proc::Pid pid = c.pcb->pid;
    active_captures_.erase(pid);

    const Time now = host_.cluster().sim().now();
    // The image is durable; a process reaped during the writes has no
    // space left to clear.
    if (c.pcb->space) vm().clear_ckpt_dirty(c.pcb->space);
    Chain& ch = chains_[pid];
    ch.seqs = c.chain;
    ch.last_capture = now;
    auto_first_seen_.erase(pid);

    const std::int64_t npages = c.meta.captured_pages();
    c_captures_->inc();
    (c.full ? c_full_ : c_incr_)->inc();
    c_pages_captured_->inc(npages);
    h_capture_ms_->record((now - c.t0).ms());
    trace::Registry& tr = host_.cluster().sim().trace();
    tr.flight_note("ckpt.capture", "done", self_,
                   static_cast<std::int64_t>(pid), c.seq, npages);
    if (tr.tracing())
      tr.instant("ckpt", c.full ? "full base committed" : "increment committed",
                 self_, static_cast<std::int64_t>(pid));
    tr.end_span(c.span);
    notify_stage(pid, CkptStage::kCommitted);

    // Tell the home an image exists (its restart table indexes recovery).
    // Best-effort: a lost registration only costs recoverability of this
    // capture, never chain consistency.
    auto body = std::make_shared<RegisterReq>();
    body->pid = pid;
    body->seq = c.seq;
    body->host = self_;
    body->incarnation = c.pcb->incarnation;
    host_.rpc().call(c.pcb->home, ServiceId::kCkpt,
                     static_cast<int>(CkptOp::kRegister), body,
                     [](Result<Reply>) {});

    if (!c.keep_frozen && procs().find(pid) == c.pcb)
      procs().install_and_resume(c.pcb);

    if (!c.compacted.empty()) compact(pid, std::move(c.compacted));
    c.cb(Status::ok());
  });
}

void CkptManager::capture_fail(std::uint64_t token, util::Status st) {
  auto it = captures_.find(token);
  if (it == captures_.end()) return;
  Capture c = std::move(it->second);
  captures_.erase(it);
  const proc::Pid pid = c.pcb->pid;
  active_captures_.erase(pid);
  c_capture_failed_->inc();
  trace::Registry& tr = host_.cluster().sim().trace();
  tr.flight_note("ckpt.capture", "failed", self_,
                 static_cast<std::int64_t>(pid),
                 static_cast<int>(st.err()));
  tr.end_span(c.span);
  // Thaw: a failed capture must leave the process exactly as it was.
  if (procs().find(pid) == c.pcb &&
      c.pcb->state == proc::ProcState::kFrozen)
    procs().install_and_resume(c.pcb);
  c.cb(st);
}

void CkptManager::compact(proc::Pid pid, std::vector<std::int64_t> seqs) {
  // Unlink superseded captures after the fresh base committed. Failures are
  // ignored: a leaked file wastes space, the chain stays consistent.
  std::vector<std::string> paths;
  for (std::int64_t s : seqs) {
    paths.push_back(meta_path(pid, s));
    paths.push_back(pages_path(pid, s));
  }
  const std::int64_t n = static_cast<std::int64_t>(seqs.size());
  util::async_loop([this, pid, paths = std::move(paths), n](std::size_t i,
                                                            auto next) {
    if (i >= paths.size()) {
      c_compactions_->inc();
      host_.cluster().sim().trace().flight_note(
          "ckpt.compact", "done", self_, static_cast<std::int64_t>(pid), n);
      notify_stage(pid, CkptStage::kCompacted);
      return;
    }
    fs().unlink(paths[i], [next](Status) { next(); });
  });
}

void CkptManager::cleanup_chain(proc::Pid pid) {
  // Best-effort: the pid's home record was retired, so the whole image is
  // garbage. Read the heads to learn the chain, then unlink everything.
  read_head_seqs(pid, [this, pid](std::vector<std::int64_t> cands) {
    if (cands.empty()) return;
    read_image_file(meta_path(pid, cands.front()),
                    [this, pid, cands](Result<fs::Bytes> mr) {
      // Unlink every seq any head slot names plus the newest chain; an
      // unreadable meta just means its chain members leak.
      std::set<std::int64_t> seqs(cands.begin(), cands.end());
      if (mr.is_ok()) {
        auto m = CkptMeta::decode(*mr);
        if (m.is_ok()) seqs.insert(m->chain.begin(), m->chain.end());
      }
      std::vector<std::string> paths;
      for (std::int64_t s : seqs) {
        paths.push_back(meta_path(pid, s));
        paths.push_back(pages_path(pid, s));
      }
      for (int slot = 0; slot < kHeadSlots; ++slot)
        paths.push_back(head_path(pid, slot));
      util::async_loop([this, paths = std::move(paths)](std::size_t i,
                                                        auto next) {
        if (i >= paths.size()) return;
        fs().unlink(paths[i], [next](Status) { next(); });
      });
    });
  });
}

// ---------------------------------------------------------------------------
// Restore pipeline

void CkptManager::restore(proc::Pid pid, std::int64_t incarnation,
                          StatusCb cb) {
  if (!cb) cb = [](Status) {};
  if (active_restores_.count(pid))
    return cb(Status(Err::kBusy, "restore already in progress"));
  if (procs().find(pid))
    return cb(Status(Err::kExist, "pid already resident on this host"));

  const std::uint64_t token = next_token_++;
  Restore& r = restores_[token];
  r.pid = pid;
  r.incarnation = incarnation;
  r.cb = std::move(cb);
  r.t0 = host_.cluster().sim().now();
  active_restores_.insert(pid);
  trace::Registry& tr = host_.cluster().sim().trace();
  r.span = tr.begin_span("ckpt", "restart", self_,
                         static_cast<std::int64_t>(pid));
  tr.flight_note("ckpt.restart", "begin", self_,
                 static_cast<std::int64_t>(pid), incarnation);

  read_head_seqs(pid, [this, token](std::vector<std::int64_t> cands) {
    auto it = restores_.find(token);
    if (it == restores_.end()) return;
    if (cands.empty())
      return restore_fail(token, Status(Err::kNoEnt, "no checkpoint image"));
    it->second.head_cands = std::move(cands);
    restore_try_candidate(token);
  });
}

void CkptManager::restore_try_candidate(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  r.head_seq = r.head_cands[r.cand_i];
  r.metas.clear();
  r.to_read.assign(1, r.head_seq);
  r.read_i = 0;
  restore_read_chain(token);
}

// A chain meta of the current head candidate was unreadable (missing,
// truncated, checksum-corrupt, or naming the wrong identity): fall back to
// the previous committed image named by the other head slot rather than
// half-restoring — only when every candidate is exhausted does the restore
// fail.
void CkptManager::restore_chain_unreadable(std::uint64_t token,
                                           util::Status st) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  if (r.cand_i + 1 >= r.head_cands.size()) return restore_fail(token, st);
  ++r.cand_i;
  c_restore_fell_back_->inc();
  host_.cluster().sim().trace().flight_note(
      "ckpt.restart", "fell_back", self_, static_cast<std::int64_t>(r.pid),
      r.head_seq, r.head_cands[r.cand_i]);
  restore_try_candidate(token);
}

void CkptManager::restore_read_chain(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  if (r.read_i >= r.to_read.size()) {
    notify_stage(r.pid, CkptStage::kRestartRead);
    // Deserialize (migration's deencapsulate sibling), then rebuild.
    host_.cpu().submit(sim::JobClass::kKernel,
                       host_.cluster().costs().ckpt_restore_cpu,
                       [this, token] { restore_build(token); });
    return;
  }
  const std::int64_t seq = r.to_read[r.read_i];
  read_image_file(meta_path(r.pid, seq),
                  [this, token, seq](Result<fs::Bytes> mr) {
    auto it = restores_.find(token);
    if (it == restores_.end()) return;
    Restore& r = it->second;
    if (!mr.is_ok()) return restore_chain_unreadable(token, mr.status());
    auto m = CkptMeta::decode(*mr);
    if (!m.is_ok()) return restore_chain_unreadable(token, m.status());
    if (m->pid != r.pid || m->seq != seq)
      return restore_chain_unreadable(
          token, Status(Err::kInval, "checkpoint meta identity mismatch"));
    if (seq == r.head_seq) {
      // The head meta names the rest of the chain.
      for (std::int64_t s : m->chain)
        if (s != r.head_seq) r.to_read.push_back(s);
    }
    r.metas.emplace(seq, std::move(*m));
    ++r.read_i;
    restore_read_chain(token);
  });
}

void CkptManager::restore_build(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  const CkptMeta& m = r.metas.at(r.head_seq);

  const proc::ProgramImage* img = host_.cluster().find_program(m.exe_path);
  if (!img)
    return restore_fail(token, Status(Err::kNoEnt, "unknown executable: " + m.exe_path));
  auto program = img->factory(m.args);
  if (!program)
    return restore_fail(token, Status(Err::kInval, "program factory failed"));
  if (Status ds = program->decode_state(m.program_state); !ds.is_ok())
    return restore_fail(token, ds);

  auto pcb = std::make_shared<proc::Pcb>();
  pcb->pid = m.pid;
  pcb->ppid = m.ppid;
  pcb->home = m.home;
  pcb->current = self_;
  pcb->state = proc::ProcState::kFrozen;
  pcb->incarnation = r.incarnation;
  pcb->program = std::move(program);
  pcb->view.pid = m.pid;
  pcb->view.ppid = m.ppid;
  pcb->view.status = Status(static_cast<Err>(m.view_err), m.view_msg);
  pcb->view.rv = m.view_rv;
  pcb->view.aux = m.view_aux;
  pcb->view.data = m.view_data;
  pcb->view.is_child = m.view_is_child;
  pcb->view.text = m.view_text;
  pcb->exe_path = m.exe_path;
  pcb->args = m.args;
  pcb->next_fd = m.next_fd;
  pcb->remaining_compute = Time::usec(m.remaining_compute_us);
  pcb->pause_remaining = Time::usec(m.pause_remaining_us);
  pcb->blocked_in_wait = m.blocked_in_wait;
  pcb->kill_pending = m.kill_pending;
  pcb->kill_sig = m.kill_sig;
  pcb->spawned_at = Time::usec(m.spawned_at_us);
  r.pcb = std::move(pcb);

  vm().create_space(m.exe_path, m.code_pages, m.heap.pages, m.stack.pages,
                    [this, token](Result<vm::SpacePtr> rs) {
                      auto it = restores_.find(token);
                      if (it == restores_.end()) return;
                      if (!rs.is_ok()) return restore_fail(token, rs.status());
                      it->second.space = *rs;
                      it->second.pcb->space = *rs;
                      restore_stage_pages(token);
                    });
}

void CkptManager::restore_stage_pages(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;

  // Overlay the chain's capture lists oldest-first: for every page the
  // final owner is the *latest* capture that wrote it, and its position in
  // that capture's pages file is its capture-order index (heap runs first,
  // then stack runs).
  struct Owner {
    std::int64_t seq = 0;
    std::int64_t src = -1;
  };
  std::map<vm::Segment, std::vector<Owner>> owners;
  const CkptMeta& head = r.metas.at(r.head_seq);
  owners[vm::Segment::kHeap].resize(static_cast<std::size_t>(head.heap.pages));
  owners[vm::Segment::kStack].resize(
      static_cast<std::size_t>(head.stack.pages));
  for (std::int64_t seq : head.chain) {
    const CkptMeta& m = r.metas.at(seq);
    std::int64_t idx = 0;
    auto overlay = [&](vm::Segment seg, const CkptSegRuns& sr) {
      auto& own = owners[seg];
      for (const auto& [first, count] : sr.runs) {
        for (std::int64_t p = first; p < first + count; ++p, ++idx) {
          if (p >= 0 && static_cast<std::size_t>(p) < own.size())
            own[static_cast<std::size_t>(p)] = {seq, idx};
        }
      }
    };
    overlay(vm::Segment::kHeap, m.heap);
    overlay(vm::Segment::kStack, m.stack);
  }

  // Coalesce into contiguous (same capture, consecutive source, consecutive
  // destination) stage ops.
  for (auto seg : {vm::Segment::kHeap, vm::Segment::kStack}) {
    const auto& own = owners[seg];
    for (std::size_t p = 0; p < own.size(); ++p) {
      if (own[p].src < 0) continue;
      if (!r.ops.empty() && r.ops.back().seg == seg &&
          r.ops.back().seq == own[p].seq &&
          r.ops.back().dest_first + r.ops.back().count ==
              static_cast<std::int64_t>(p) &&
          r.ops.back().src_first + r.ops.back().count == own[p].src) {
        ++r.ops.back().count;
      } else {
        r.ops.push_back({seg, static_cast<std::int64_t>(p), 1, own[p].seq,
                         own[p].src});
      }
    }
  }
  restore_stage_step(token);
}

void CkptManager::restore_stage_step(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  if (r.op_i >= r.ops.size()) {
    // Done staging: drop the image streams and move on to the descriptor
    // table.
    for (auto& [seq, s] : r.imgs) fs().close(s, [](Status) {});
    r.imgs.clear();
    notify_stage(r.pid, CkptStage::kRestartStaged);
    return restore_streams(token);
  }
  const StageOp op = r.ops[r.op_i];
  auto iit = r.imgs.find(op.seq);
  if (iit == r.imgs.end()) {
    fs::OpenFlags fl = fs::OpenFlags::read_only();
    fl.no_cache = true;
    fs().open(pages_path(r.pid, op.seq), fl,
              [this, token, seq = op.seq](Result<fs::StreamPtr> rs) {
                auto it = restores_.find(token);
                if (it == restores_.end()) return;
                if (!rs.is_ok()) return restore_fail(token, rs.status());
                it->second.imgs.emplace(seq, *rs);
                restore_stage_step(token);  // re-enter with the stream open
              });
    return;
  }
  const fs::StreamPtr img = iit->second;
  const std::int64_t page_size = host_.cluster().costs().page_size;
  if (Status st = fs().seek(img, op.src_first * page_size); !st.is_ok())
    return restore_fail(token, st);
  fs().read(img, op.count * page_size, [this, token,
                                        op](Result<fs::Bytes> rb) {
    auto it = restores_.find(token);
    if (it == restores_.end()) return;
    if (!rb.is_ok()) return restore_fail(token, rb.status());
    Restore& r = it->second;
    const std::int64_t page_size = host_.cluster().costs().page_size;
    const fs::StreamPtr backing = r.space->segment(op.seg).backing;
    if (Status st = fs().seek(backing, op.dest_first * page_size);
        !st.is_ok())
      return restore_fail(token, st);
    fs().write(backing,
               fs::Bytes(static_cast<std::size_t>(op.count * page_size), 0),
               [this, token, op](Result<std::int64_t> w) {
                 auto it = restores_.find(token);
                 if (it == restores_.end()) return;
                 if (!w.is_ok()) return restore_fail(token, w.status());
                 Restore& r = it->second;
                 vm().note_staged(r.space, op.seg, op.dest_first, op.count);
                 r.staged_pages += op.count;
                 c_pages_restored_->inc(op.count);
                 ++r.op_i;
                 restore_stage_step(token);
               });
  });
}

void CkptManager::restore_streams(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  const CkptMeta& m = r.metas.at(r.head_seq);
  if (r.stream_i >= m.streams.size()) return restore_claim(token);
  const CkptStream& cs = m.streams[r.stream_i];
  // Rebuild by recorded identity — the same reopen-by-path helper staleness
  // recovery uses, so a server reboot between capture and restart is
  // absorbed the same way.
  fs().open_recorded(cs.path, cs.flags, cs.offset,
                     [this, token, fd = cs.fd](Result<fs::StreamPtr> rs) {
                       auto it = restores_.find(token);
                       if (it == restores_.end()) return;
                       if (!rs.is_ok()) return restore_fail(token, rs.status());
                       Restore& r = it->second;
                       r.pcb->fds[fd] = *rs;
                       ++r.stream_i;
                       restore_streams(token);
                     });
}

void CkptManager::restore_claim(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore& r = it->second;
  // Claim the process's location under the new incarnation. This is where
  // the "exactly one incarnation" invariant bites: if a newer epoch exists
  // (another restart won the race), the home answers kStale and this copy
  // dismantles itself instead of installing.
  if (r.pcb->home == self_) {
    if (!procs().home_record_alive(r.pid))
      return restore_fail(token, Status(Err::kSrch, "home record retired"));
    if (r.incarnation < procs().home_record_incarnation(r.pid))
      return restore_fail(token, Status(Err::kStale, "superseded incarnation"));
    procs().set_home_record_location(r.pid, self_);
    return restore_finish(token);
  }
  auto body = std::make_shared<proc::UpdateLocationReq>();
  body->pid = r.pid;
  body->host = self_;
  body->incarnation = r.incarnation;
  host_.rpc().call(r.pcb->home, ServiceId::kProc,
                   static_cast<int>(proc::ProcOp::kUpdateLocation), body,
                   [this, token](Result<Reply> rr) {
                     auto it = restores_.find(token);
                     if (it == restores_.end()) return;
                     const Status st = rr.is_ok() ? rr->status : rr.status();
                     if (!st.is_ok()) return restore_fail(token, st);
                     restore_finish(token);
                   });
}

void CkptManager::restore_finish(std::uint64_t token) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore r = std::move(it->second);
  restores_.erase(it);
  active_restores_.erase(r.pid);

  procs().install_and_resume(r.pcb);
  const Time now = host_.cluster().sim().now();
  Chain& ch = chains_[r.pid];
  ch.seqs = r.metas.at(r.head_seq).chain;
  ch.last_capture = now;

  c_restarts_->inc();
  h_restart_ms_->record((now - r.t0).ms());
  trace::Registry& tr = host_.cluster().sim().trace();
  tr.flight_note("ckpt.restart", "done", self_,
                 static_cast<std::int64_t>(r.pid), r.head_seq,
                 r.staged_pages);
  if (tr.tracing())
    tr.instant("ckpt", "restart resumed", self_,
               static_cast<std::int64_t>(r.pid));
  tr.end_span(r.span);
  notify_stage(r.pid, CkptStage::kRestartResumed);
  r.cb(Status::ok());
}

void CkptManager::restore_fail(std::uint64_t token, util::Status st) {
  auto it = restores_.find(token);
  if (it == restores_.end()) return;
  Restore r = std::move(it->second);
  restores_.erase(it);
  active_restores_.erase(r.pid);

  c_restart_failed_->inc();
  trace::Registry& tr = host_.cluster().sim().trace();
  tr.flight_note("ckpt.restart", "failed", self_,
                 static_cast<std::int64_t>(r.pid),
                 static_cast<int>(st.err()));
  tr.end_span(r.span);
  // Dismantle the half-built copy: nothing of it may survive.
  for (auto& [seq, s] : r.imgs) fs().close(s, [](Status) {});
  if (r.pcb)
    for (auto& [fd, s] : r.pcb->fds) fs().close(s, [](Status) {});
  if (r.space) vm().destroy_space(r.space, [](Status) {});
  r.cb(st);
}

// ---------------------------------------------------------------------------
// Eviction fast path

void CkptManager::checkpoint_and_depart(const proc::PcbPtr& pcb,
                                        StatusCb cb) {
  if (!cb) cb = [](Status) {};
  const proc::Pid pid = pcb->pid;
  if (pcb->home == self_)
    return cb(Status(Err::kInval, "depart is for foreign processes"));
  capture_begin(pcb, /*keep_frozen=*/true, [this, pcb, pid,
                                            cb = std::move(cb)](Status st) {
    if (!st.is_ok()) return cb(st);  // capture thawed the process already
    auto cit = chains_.find(pid);
    auto body = std::make_shared<DepartReq>();
    body->pid = pid;
    body->seq = (cit != chains_.end() && !cit->second.seqs.empty())
                    ? cit->second.seqs.back()
                    : 0;
    body->host = self_;
    host_.rpc().call(pcb->home, ServiceId::kCkpt,
                     static_cast<int>(CkptOp::kDepart), body,
                     [this, pcb, pid, cb](Result<Reply> rr) {
      const Status st = rr.is_ok() ? rr->status : rr.status();
      auto resident = procs().find(pid);
      if (resident != pcb) return cb(Status(Err::kSrch, "process vanished"));
      if (!st.is_ok()) {
        // Home refused (or is unreachable): thaw and let the caller fall
        // back to a plain migration home.
        if (pcb->state == proc::ProcState::kFrozen)
          procs().install_and_resume(pcb);
        return cb(st);
      }
      // The home took over by image: drop the frozen copy. Its swap files
      // are garbage (the restarted incarnation stages into fresh backing).
      procs().remove(pid);
      for (auto& [fd, s] : pcb->fds) fs().close(s, [](Status) {});
      pcb->fds.clear();
      if (pcb->space) vm().destroy_space(pcb->space, [](Status) {});
      pcb->state = proc::ProcState::kDead;
      c_departs_->inc();
      host_.cluster().sim().trace().flight_note(
          "ckpt.depart", "done", self_, static_cast<std::int64_t>(pid));
      cb(Status::ok());
    });
  });
}

// ---------------------------------------------------------------------------
// Home-node crash recovery (proc::RestarterIface)

bool CkptManager::try_restart(proc::Pid pid, sim::HostId dead_host) {
  if (!recovery_enabled_) return false;
  auto it = home_table_.find(pid);
  if (it == home_table_.end()) return false;
  if (it->second.restarting) return true;  // one restart at a time
  it->second.restarting = true;
  restarted_from_[pid] = dead_host;
  // Escape the monitor's notification cascade before doing real work.
  const std::uint64_t gen = gen_;
  host_.cluster().sim().after(Time::zero(), [this, pid, dead_host, gen] {
    if (gen != gen_) return;
    initiate_restart(pid, dead_host);
  });
  return true;
}

void CkptManager::initiate_restart(proc::Pid pid, sim::HostId dead_host) {
  auto r = procs().bump_incarnation(pid);
  if (!r.is_ok()) return restart_done(pid, sim::kInvalidHost, r.status());
  const std::int64_t inc = *r;
  const HostId target = pick_restart_target(dead_host);
  host_.cluster().sim().trace().flight_note(
      "ckpt.restart", "dispatched", self_, static_cast<std::int64_t>(pid),
      target, inc);
  if (target == self_) {
    restore(pid, inc,
            [this, pid, target](Status st) { restart_done(pid, target, st); });
    return;
  }
  auto body = std::make_shared<RestartReq>();
  body->pid = pid;
  body->incarnation = inc;
  host_.rpc().call(target, ServiceId::kCkpt,
                   static_cast<int>(CkptOp::kRestart), body,
                   [this, pid, target](Result<Reply> rr) {
                     restart_done(pid, target,
                                  rr.is_ok() ? rr->status : rr.status());
                   });
}

sim::HostId CkptManager::pick_restart_target(sim::HostId exclude) const {
  if (restart_target_ != sim::kInvalidHost && restart_target_ != exclude)
    return restart_target_;
  for (HostId w : host_.cluster().workstations()) {
    if (w == exclude || w == self_) continue;
    if (host_.monitor().peer_state(w) == recov::PeerState::kDown) continue;
    return w;
  }
  return self_;
}

void CkptManager::restart_done(proc::Pid pid, sim::HostId target,
                               util::Status st) {
  auto it = home_table_.find(pid);
  if (it != home_table_.end()) it->second.restarting = false;
  if (st.is_ok()) {
    if (it != home_table_.end()) it->second.last_host = target;
    return;
  }
  host_.cluster().sim().trace().flight_note(
      "ckpt.restart", "abandoned", self_, static_cast<std::int64_t>(pid),
      static_cast<int>(st.err()));
  // No second target: the process is as dead as if never checkpointed.
  // (note_home_exit below then forgets the pid and scrubs the image.)
  if (procs().home_record_alive(pid)) procs().home_crash_exit(pid);
}

void CkptManager::note_home_exit(proc::Pid pid) {
  const bool known = home_table_.erase(pid) != 0;
  restarted_from_.erase(pid);
  if (known && host_.up()) cleanup_chain(pid);
}

void CkptManager::note_departed(proc::Pid pid) {
  // The PCB left this host: chain knowledge follows the image head now.
  chains_.erase(pid);
  auto_first_seen_.erase(pid);
}

// ---------------------------------------------------------------------------
// RPC service

void CkptManager::handle_rpc(sim::HostId src, const rpc::Request& req,
                             std::function<void(rpc::Reply)> respond) {
  switch (static_cast<CkptOp>(req.op)) {
    case CkptOp::kRegister: {
      auto body = rpc::body_cast<RegisterReq>(req.body);
      if (!body) return respond({Status(Err::kInval, "bad body"), nullptr});
      if (procs().home_record_alive(body->pid) &&
          body->incarnation >= procs().home_record_incarnation(body->pid)) {
        HomeCkpt& e = home_table_[body->pid];
        e.last_seq = body->seq;
        e.last_host = body->host;
        c_registers_->inc();
        notify_stage(body->pid, CkptStage::kRegistered);
      }
      return respond({Status::ok(), nullptr});
    }
    case CkptOp::kRestart: {
      auto body = rpc::body_cast<RestartReq>(req.body);
      if (!body) return respond({Status(Err::kInval, "bad body"), nullptr});
      auto respond_sp =
          std::make_shared<std::function<void(Reply)>>(std::move(respond));
      restore(body->pid, body->incarnation, [respond_sp](Status st) {
        (*respond_sp)({st, nullptr});
      });
      return;
    }
    case CkptOp::kDepart: {
      auto body = rpc::body_cast<DepartReq>(req.body);
      if (!body) return respond({Status(Err::kInval, "bad body"), nullptr});
      const proc::Pid pid = body->pid;
      if (!procs().home_record_alive(pid))
        return respond({Status(Err::kSrch, "no live home record"), nullptr});
      auto it = home_table_.find(pid);
      if (it != home_table_.end() && it->second.restarting)
        return respond({Status(Err::kBusy, "restart in progress"), nullptr});
      auto r = procs().bump_incarnation(pid);
      if (!r.is_ok()) return respond({r.status(), nullptr});
      HomeCkpt& e = home_table_[pid];
      e.last_seq = body->seq;
      e.last_host = body->host;
      e.restarting = true;
      // Accept now (the image is committed and the epoch is bumped: any
      // stale copy fails kStale from here on), restart asynchronously.
      respond({Status::ok(), nullptr});
      const std::int64_t inc = *r;
      const HostId departing = body->host;
      const std::uint64_t gen = gen_;
      host_.cluster().sim().after(Time::zero(), [this, pid, departing, inc,
                                                 gen] {
        if (gen != gen_) return;
        const HostId target = pick_restart_target(departing);
        if (target == self_) {
          restore(pid, inc, [this, pid, target](Status st) {
            restart_done(pid, target, st);
          });
          return;
        }
        auto rb = std::make_shared<RestartReq>();
        rb->pid = pid;
        rb->incarnation = inc;
        host_.rpc().call(target, ServiceId::kCkpt,
                         static_cast<int>(CkptOp::kRestart), rb,
                         [this, pid, target](Result<Reply> rr) {
                           restart_done(pid, target,
                                        rr.is_ok() ? rr->status : rr.status());
                         });
      });
      return;
    }
    case CkptOp::kKillStale: {
      auto body = rpc::body_cast<KillStaleReq>(req.body);
      if (!body) return respond({Status(Err::kInval, "bad body"), nullptr});
      auto pcb = procs().find(body->pid);
      if (pcb && pcb->incarnation < body->incarnation) {
        c_stale_reaped_->inc();
        host_.cluster().sim().trace().flight_note(
            "ckpt.stale", "reaped", self_,
            static_cast<std::int64_t>(body->pid), body->incarnation);
        procs().reap_stale_incarnation(body->pid);
      }
      return respond({Status::ok(), nullptr});
    }
  }
  respond({Status(Err::kInval, "unknown ckpt op"), nullptr});
  (void)src;
}

// ---------------------------------------------------------------------------
// Autocheckpoint daemon

void CkptManager::enable_autocheckpoint(bool on) {
  auto_enabled_ = on;
  if (on) {
    arm_autockpt();
  } else {
    auto_tick_ev_.cancel();
    auto_ticking_ = false;
  }
}

void CkptManager::set_auto_policy(sim::Time interval,
                                  std::int64_t dirty_threshold) {
  auto_interval_ = interval;
  auto_dirty_threshold_ = dirty_threshold;
}

void CkptManager::arm_autockpt() {
  if (!auto_enabled_ || auto_ticking_ || !host_.up()) return;
  auto_ticking_ = true;
  const std::int64_t scan_us =
      std::max<std::int64_t>(auto_interval_.us() / 4, Time::msec(500).us());
  const std::uint64_t gen = gen_;
  auto_tick_ev_ = host_.cluster().sim().after(Time::usec(scan_us),
                                              "ckpt_auto_scan", [this, gen] {
                                                if (gen != gen_) return;
                                                auto_ticking_ = false;
                                                autockpt_tick();
                                              });
}

void CkptManager::autockpt_tick() {
  if (!auto_enabled_ || !host_.up()) return;
  const Time now = host_.cluster().sim().now();
  std::vector<proc::Pid> pids;
  auto consider = [&](const proc::PcbPtr& pcb) {
    const proc::Pid pid = pcb->pid;
    if (active_captures_.count(pid) || active_restores_.count(pid)) return;
    if (!eligible(*pcb).is_ok()) return;
    const std::int64_t dirty = vm().ckpt_dirty_pages(pcb->space);
    auto cit = chains_.find(pid);
    Time last;
    if (cit != chains_.end()) {
      if (dirty == 0) return;  // nothing new since the last capture
      last = cit->second.last_capture;
    } else {
      last = auto_first_seen_.try_emplace(pid, now).first->second;
    }
    const bool due = now - last >= auto_interval_;
    const bool over = dirty >= auto_dirty_threshold_;
    if (due || over) pids.push_back(pid);
  };
  for (const auto& pcb : procs().local_processes()) consider(pcb);
  for (const auto& pcb : procs().foreign_processes()) consider(pcb);
  // One capture at a time; a crash (gen_ moves on) abandons the batch.
  util::async_loop([this, pids = std::move(pids), gen = gen_](std::size_t i,
                                                              auto next) {
    if (i >= pids.size()) return arm_autockpt();
    auto pcb = procs().find(pids[i]);
    if (!pcb) return next();
    c_auto_->inc();
    checkpoint(pcb, [this, gen, next](Status) {
      if (gen != gen_) return;
      next();
    });
  });
}

// ---------------------------------------------------------------------------
// Crash / boot / interest

void CkptManager::crash_reset() {
  ++gen_;
  captures_.clear();
  restores_.clear();
  active_captures_.clear();
  active_restores_.clear();
  chains_.clear();
  auto_first_seen_.clear();
  home_table_.clear();
  restarted_from_.clear();
  auto_tick_ev_.cancel();
  auto_ticking_ = false;
  // Policy knobs (auto_enabled_, recovery_enabled_, restart_target_) are
  // boot configuration, like RPC service registrations: they survive.
}

void CkptManager::boot() {
  if (auto_enabled_) arm_autockpt();
}

void CkptManager::collect_peer_interest(std::vector<sim::HostId>& out) const {
  // Hosts the home restarted away from: their reintegration must be
  // noticed so the superseded incarnation gets killed.
  for (const auto& [pid, h] : restarted_from_) {
    (void)pid;
    out.push_back(h);
  }
}

// ---------------------------------------------------------------------------
// FS helpers

void CkptManager::write_image_file(const std::string& path, fs::Bytes data,
                                   StatusCb cb) {
  // Cache-bypassing write-through: the image must be durable at the server
  // when the callback fires, not parked in this host's delayed-write cache.
  fs::OpenFlags fl;
  fl.read = true;
  fl.write = true;
  fl.create = true;
  fl.truncate = true;
  fl.no_cache = true;
  fs().open(path, fl, [this, data = std::move(data),
                       cb = std::move(cb)](Result<fs::StreamPtr> r) mutable {
    if (!r.is_ok()) return cb(r.status());
    fs::StreamPtr s = *r;
    if (data.empty()) {
      fs().close(s, [cb = std::move(cb)](Status) { cb(Status::ok()); });
      return;
    }
    fs().write(s, std::move(data),
               [this, s, cb = std::move(cb)](Result<std::int64_t> w) {
                 const Status st = w.is_ok() ? Status::ok() : w.status();
                 fs().close(s, [cb, st](Status) { cb(st); });
               });
  });
}

void CkptManager::write_image_zeros(const std::string& path,
                                    std::int64_t nbytes, StatusCb cb) {
  write_image_file(path, fs::Bytes(static_cast<std::size_t>(nbytes), 0),
                   std::move(cb));
}

void CkptManager::read_image_file(const std::string& path, BytesCb cb) {
  fs::OpenFlags fl = fs::OpenFlags::read_only();
  fl.no_cache = true;
  fs().open(path, fl, [this, cb = std::move(cb)](Result<fs::StreamPtr> r) mutable {
    if (!r.is_ok()) return cb(r.status());
    fs::StreamPtr s = *r;
    const std::int64_t len = s->size_hint;
    if (len <= 0) {
      fs().close(s, [cb = std::move(cb)](Status) { cb(fs::Bytes{}); });
      return;
    }
    fs().read(s, len, [this, s, cb = std::move(cb)](Result<fs::Bytes> rb) {
      fs().close(s, [cb = std::move(cb), rb = std::move(rb)](Status) mutable {
        cb(std::move(rb));
      });
    });
  });
}

void CkptManager::read_head_seqs(
    proc::Pid pid, std::function<void(std::vector<std::int64_t>)> cb) {
  auto cands = std::make_shared<std::vector<std::int64_t>>();
  read_image_file(
      head_path(pid, 0),
      [this, pid, cands, done = std::move(cb)](Result<fs::Bytes> r0) mutable {
        if (r0.is_ok())
          if (auto s = decode_head(*r0); s.is_ok()) cands->push_back(*s);
        read_image_file(head_path(pid, 1),
                        [cands, done = std::move(done)](Result<fs::Bytes> r1) {
                          if (r1.is_ok())
                            if (auto s = decode_head(*r1); s.is_ok())
                              cands->push_back(*s);
                          std::sort(cands->begin(), cands->end(),
                                    std::greater<std::int64_t>());
                          done(std::move(*cands));
                        });
      });
}

}  // namespace sprite::ckpt
