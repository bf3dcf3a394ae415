#include "migration/manager.h"

#include <algorithm>

#include "ckpt/manager.h"
#include "kern/cluster.h"
#include "util/assert.h"
#include "util/async.h"
#include "util/log.h"

namespace sprite::mig {

using proc::Pcb;
using proc::PcbPtr;
using proc::Pid;
using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::JobClass;
using sim::Time;
using util::Err;
using util::Status;

const char* mig_stage_name(MigStage s) {
  switch (s) {
    case MigStage::kInit: return "init";
    case MigStage::kFreeze: return "freeze";
    case MigStage::kVmTransfer: return "vm-transfer";
    case MigStage::kStreams: return "streams";
    case MigStage::kResume: return "resume";
    case MigStage::kXferRound: return "xfer-round";
  }
  return "?";
}

MigrationManager::MigrationManager(kern::Host& host)
    : host_(host), self_(host.id()), xfer_(host) {
  // Residual-drain hooks: once post-copy push empties the owed set, the
  // source's residual image is droppable; once the target's remote set
  // drains, the process no longer dies with the source.
  xfer_.set_source_drained_hook([this](std::int64_t asid) {
    residual_.erase(asid);
    residual_owner_.erase(asid);
  });
  xfer_.set_target_drained_hook(
      [this](proc::Pid pid) { cor_sources_.erase(pid); });
  trace::Registry& tr = host_.cluster().sim().trace();
  c_out_ = &tr.counter("mig.out.completed", self_);
  c_in_ = &tr.counter("mig.in.completed", self_);
  c_failed_ = &tr.counter("mig.out.failed", self_);
  c_evictions_ = &tr.counter("mig.eviction.completed", self_);
  c_cor_pages_ = &tr.counter("mig.cor_page.served", self_);
  c_cor_kills_ = &tr.counter("mig.cor.killed_source_crash", self_);
  h_total_ms_ = &tr.histogram("mig.migration.total_ms",
                              trace::default_latency_bounds_ms(), self_);
  h_freeze_ms_ = &tr.histogram("mig.migration.freeze_ms",
                               trace::default_latency_bounds_ms(), self_);
}

void MigrationManager::note_success(const Outgoing& og) {
  const MigrationRecord& rec = og.rec;
  h_total_ms_->record(rec.total_time().ms());
  h_freeze_ms_->record(rec.freeze_time().ms());

  trace::Registry& tr = host_.cluster().sim().trace();
  if (!tr.tracing()) return;
  const auto pid = static_cast<std::int64_t>(rec.pid);
  // The pipeline is continuation-passing, so the lifecycle spans are emitted
  // retroactively from the record's timestamps — the thesis's freeze-time
  // breakdown (init / vm / streams / resume) falls straight out of the trace.
  // The root span reuses the id reserved at migrate() time, so the live
  // spans (RPCs, VM flush, demand paging) recorded during the pipeline are
  // already its descendants.
  std::uint64_t trace_id = og.ctx.trace_id;
  if (trace_id == 0) trace_id = tr.new_trace().trace_id;
  const trace::SpanId root = tr.span_at(
      "mig",
      rec.exec_time
          ? std::string("migrate exec-time")
          : std::string("migrate ") + strategy_name(rec.strategy),
      rec.from, pid, rec.started, rec.resumed_at,
      {{"to", std::to_string(rec.to)},
       {"pages_moved", std::to_string(rec.pages_moved)},
       {"pages_flushed", std::to_string(rec.pages_flushed)},
       {"precopy_rounds", std::to_string(rec.precopy_rounds)},
       {"streams", std::to_string(rec.streams_moved)}},
      trace::Context{trace_id, 0}, og.root_span);
  const trace::Context child{trace_id, root};
  tr.span_at("mig", "init handshake", rec.from, pid, rec.started,
             rec.init_done_at, {}, child);
  tr.span_at("mig", std::string("vm ") + strategy_name(rec.strategy),
             rec.from, pid, rec.init_done_at, rec.vm_done_at, {}, child);
  tr.span_at("mig", "streams re-attribute", rec.from, pid, rec.vm_done_at,
             rec.streams_done_at, {}, child);
  tr.span_at("mig", "transfer+resume", rec.from, pid, rec.streams_done_at,
             rec.resumed_at, {}, child);
  // Overlay spanning several pipeline stages: tagged with the trace but
  // deliberately parentless so tree analyses do not double-count it.
  tr.span_at("mig", "frozen", rec.from, pid, rec.frozen_at, rec.resumed_at,
             {}, trace::Context{trace_id, 0});
}

void MigrationManager::register_services() {
  host_.rpc().register_service(
      ServiceId::kMigration,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_rpc(src, req, std::move(r));
      });
  xfer_.register_services();
}

const MigrationRecord& MigrationManager::last_record() const {
  SPRITE_CHECK_MSG(!records_.empty(), "no migrations recorded");
  return records_.back();
}

void MigrationManager::notify_stage(Pid pid, MigStage s) {
  host_.cluster().sim().trace().flight_note(
      "mig.stage", mig_stage_name(s), self_, static_cast<std::int64_t>(pid));
  if (stage_observers_.empty()) return;
  // Copy: an observer may crash hosts, which mutates observer lists and
  // clears outgoing_ reentrantly. Call sites revalidate afterwards.
  auto obs = stage_observers_;
  for (auto& fn : obs) fn(pid, s);
}

// ---------------------------------------------------------------------------
// Outgoing
// ---------------------------------------------------------------------------

void MigrationManager::migrate(const PcbPtr& pcb, HostId target,
                               std::function<void(Status)> cb) {
  if (target == self_ || target == sim::kInvalidHost)
    return cb(Status(Err::kInval, "bad migration target"));
  if (pcb->space && pcb->space->shared_writable)
    return cb(Status(Err::kNotMigratable, "shared writable memory"));
  for (const auto& [t, og] : outgoing_) {
    if (og.pcb->pid == pcb->pid)
      return cb(Status(Err::kBusy, "migration already in progress"));
  }

  const std::uint64_t token = next_token_++;
  Outgoing og;
  og.pcb = pcb;
  og.target = target;
  og.cb = std::move(cb);
  og.resume_handled_by_caller =
      pcb->migrate_syscall_pending || pcb->program == nullptr;
  og.rec.pid = pcb->pid;
  og.rec.from = self_;
  og.rec.to = target;
  og.rec.strategy = strategy_;
  og.rec.exec_time = pcb->program == nullptr;
  og.rec.started = host_.cluster().sim().now();
  og.rec.frozen_at = og.rec.started;

  trace::Registry& tr = host_.cluster().sim().trace();
  tr.flight_note("mig.start", strategy_name(strategy_), self_,
                 static_cast<std::int64_t>(pcb->pid), target);
  if (tr.tracing()) {
    // One trace per migration, rooted at a span emitted retroactively on
    // completion. Making the context ambient for the kInit call below puts
    // the whole continuation-passing pipeline — and, via the wire-carried
    // contexts, the target/home/file-server side — into this trace.
    og.root_span = tr.reserve_span();
    og.ctx = trace::Context{tr.new_trace().trace_id, og.root_span};
  }
  const trace::Context mig_ctx = og.ctx;
  outgoing_.emplace(token, std::move(og));

  auto body = std::make_shared<InitReq>();
  body->version = version_;
  body->pid = pcb->pid;
  trace::ScopedContext scope(tr, mig_ctx);
  host_.rpc().call(target, ServiceId::kMigration,
                   static_cast<int>(MigOp::kInit), body,
                   [this, token](util::Result<Reply> r) {
                     auto it = outgoing_.find(token);
                     if (it == outgoing_.end()) return;
                     if (!r.is_ok())
                       return fail(token, r.status());
                     if (!r->status.is_ok())
                       return fail(token, r->status);
                     auto rep = rpc::body_cast<InitRep>(r->body);
                     SPRITE_CHECK(rep != nullptr);
                     if (!rep->accepted)
                       return fail(token,
                                   Status(Err::kVersionSkew,
                                          "kernel migration versions differ"));
                     it->second.rec.init_done_at =
                         host_.cluster().sim().now();
                     notify_stage(it->second.rec.pid, MigStage::kInit);
                     after_init(token);  // revalidates the token
                   });
}

namespace {

// A migration in progress can race the process's own exit (it keeps running
// until frozen). Every pipeline stage revalidates before touching state.
bool still_alive(const PcbPtr& pcb) {
  return pcb->state != proc::ProcState::kZombie &&
         pcb->state != proc::ProcState::kDead;
}

}  // namespace

void MigrationManager::after_init(std::uint64_t token) {
  auto it = outgoing_.find(token);
  if (it == outgoing_.end()) return;
  Outgoing& og = it->second;
  if (!still_alive(og.pcb) || !host_.procs().find(og.pcb->pid))
    return fail(token, Status(Err::kSrch, "process exited before transfer"));

  // Any migration with an address space runs its VM phase — freeze
  // placement included, since pre-copy freezes only at convergence —
  // through the xfer engine.
  if (og.pcb->space) {
    start_engine_transfer(token);
    return;
  }
  // Exec-time migration: nothing to move; freeze and go straight to the
  // streams phase.
  host_.procs().freeze(og.pcb, [this, token] {
    auto it = outgoing_.find(token);
    if (it == outgoing_.end()) return;
    it->second.rec.frozen_at = host_.cluster().sim().now();
    notify_stage(it->second.rec.pid, MigStage::kFreeze);
    if (outgoing_.find(token) == outgoing_.end()) return;
    auto body = std::make_shared<TransferReq>();
    body->pcb_bytes = host_.cluster().costs().mig_pcb_bytes;
    body->has_space = false;
    start_streams_phase(token, std::move(body));
  });
}

void MigrationManager::start_engine_transfer(std::uint64_t token) {
  auto it = outgoing_.find(token);
  if (it == outgoing_.end()) return;
  Outgoing& og = it->second;
  og.via_engine = true;

  xfer::Engine::Params p;
  p.strategy = strategy_;
  p.pid = og.pcb->pid;
  p.space = og.pcb->space;
  p.target = og.target;
  p.ctx = og.ctx;
  p.freeze = [this, token](std::function<void()> cont) {
    auto it = outgoing_.find(token);
    if (it == outgoing_.end()) return;
    Outgoing& og = it->second;
    if (!still_alive(og.pcb) || !og.pcb->space)
      return fail(token, Status(Err::kSrch, "process exited before freeze"));
    host_.procs().freeze(og.pcb, [this, token, cont = std::move(cont)] {
      auto it = outgoing_.find(token);
      if (it == outgoing_.end()) return;
      it->second.rec.frozen_at = host_.cluster().sim().now();
      notify_stage(it->second.rec.pid, MigStage::kFreeze);
      if (outgoing_.find(token) == outgoing_.end()) return;
      cont();
    });
  };
  p.alive = [this, token] {
    auto it = outgoing_.find(token);
    if (it == outgoing_.end()) return false;
    return still_alive(it->second.pcb) &&
           host_.procs().find(it->second.pcb->pid) != nullptr;
  };
  p.on_round = [this, token](int, std::int64_t) {
    auto it = outgoing_.find(token);
    if (it == outgoing_.end()) return;
    notify_stage(it->second.rec.pid, MigStage::kXferRound);
  };

  xfer_.transfer(
      std::move(p), [this, token](util::Result<xfer::Engine::Result> r) {
        auto it = outgoing_.find(token);
        if (it == outgoing_.end()) return;
        if (!r.is_ok()) return fail(token, r.status());
        Outgoing& og = it->second;
        xfer::Engine::Result& res = *r;
        og.rec.pages_moved = res.pages_moved;
        og.rec.pages_flushed = res.pages_flushed;
        og.rec.precopy_rounds = res.rounds;
        og.rec.pages_deduped = res.pages_deduped;
        og.rec.bytes_on_wire = res.bytes_on_wire;
        og.rec.round_pages = std::move(res.round_pages);

        auto body = std::make_shared<TransferReq>();
        body->pcb_bytes = host_.cluster().costs().mig_pcb_bytes;
        body->has_space = true;
        body->space = std::move(res.desc);
        body->cor_source_resident = res.cor_source_resident;
        body->postcopy_push = res.postcopy_push;
        if (res.cor_source_resident) {
          // The source keeps the image to serve pulls (and, for post-copy,
          // to feed the push daemon) — the residual dependency.
          vm::SpacePtr space = og.pcb->space;
          residual_[space->asid()] = space;
          residual_owner_[space->asid()] = og.target;
        }
        start_streams_phase(token, std::move(body));
      });
}

void MigrationManager::start_streams_phase(std::uint64_t token,
                                           std::shared_ptr<TransferReq> body) {
  auto it = outgoing_.find(token);
  if (it == outgoing_.end()) return;
  it->second.rec.vm_done_at = host_.cluster().sim().now();
  notify_stage(it->second.rec.pid, MigStage::kVmTransfer);
  it = outgoing_.find(token);  // an observer may have crashed hosts
  if (it == outgoing_.end()) return;
  PcbPtr pcb = it->second.pcb;
  // Remote-UNIX comparator: park the descriptor table at home instead of
  // exporting the streams; the process's file calls will be forwarded.
  if (file_call_mode_ == FileCallMode::kForwardHome) {
    if (pcb->home == self_ && !pcb->forward_file_calls && !pcb->fds.empty()) {
      host_.procs().park_streams_at_home(pcb);
      pcb->forward_file_calls = true;
    }
    if (pcb->home != self_) pcb->forward_file_calls = true;
  }
  std::vector<std::pair<int, fs::StreamPtr>> fds(pcb->fds.begin(),
                                                 pcb->fds.end());
  util::async_loop([this, token, fds = std::move(fds), body](std::size_t i,
                                                             auto next) {
    auto it = outgoing_.find(token);
    if (i >= fds.size()) {
      if (it != outgoing_.end()) {
        it->second.rec.streams_moved = static_cast<std::int64_t>(fds.size());
        it->second.rec.streams_done_at = host_.cluster().sim().now();
        notify_stage(it->second.rec.pid, MigStage::kStreams);
      }
      send_transfer(token, body);  // revalidates the token
      return;
    }
    if (it == outgoing_.end()) return;
    const auto [fd, stream] = fds[i];
    const bool shared = stream->local_refs > 1;
    const HostId target = it->second.target;
    // Deencapsulating and reencapsulating a stream costs kernel CPU on top
    // of the I/O-server RPC (the per-file component of experiment E1).
    host_.cpu().submit(
        sim::JobClass::kKernel, host_.cluster().costs().mig_stream_cpu,
        [this, token, fd = fd, stream = stream, shared, target, body, next] {
          if (outgoing_.find(token) == outgoing_.end()) return;
          host_.fs().export_stream(
              stream, target, shared,
              [this, token, fd, stream, shared, body,
               next](util::Result<fs::ExportedStream> r) {
                if (!r.is_ok()) return fail(token, r.status());
                if (shared) --stream->local_refs;
                body->streams.emplace_back(fd, std::move(*r));
                next();
              });
        });
  });
}

void MigrationManager::send_transfer(std::uint64_t token,
                                     std::shared_ptr<TransferReq> body) {
  auto it = outgoing_.find(token);
  if (it == outgoing_.end()) return;
  Outgoing& og = it->second;
  PcbPtr pcb = og.pcb;

  body->pid = pcb->pid;
  body->ppid = pcb->ppid;
  body->home = pcb->home;
  body->exe_path = pcb->exe_path;
  body->args = pcb->args;
  body->view = pcb->view;
  body->spawned_at = pcb->spawned_at;
  body->remaining_compute = pcb->remaining_compute;
  body->pause_remaining = pcb->pause_remaining;
  body->blocked_in_wait = pcb->blocked_in_wait;
  body->kill_pending = pcb->kill_pending;
  body->kill_sig = pcb->kill_sig;
  body->next_fd = pcb->next_fd;
  body->incarnation = pcb->incarnation;
  body->forward_file_calls = pcb->forward_file_calls;
  if (pcb->program != nullptr) {
    auto box = std::make_shared<ProgramBox>();
    box->program = std::move(pcb->program);
    body->box = std::move(box);
  }
  og.body = body;

  // Encapsulation consumes source CPU, then the state crosses the wire.
  host_.cpu().submit(
      JobClass::kKernel, host_.cluster().costs().mig_encapsulate_cpu,
      [this, token, body] {
        auto it = outgoing_.find(token);
        if (it == outgoing_.end()) return;
        host_.rpc().call(
            it->second.target, ServiceId::kMigration,
            static_cast<int>(MigOp::kTransfer), body,
            [this, token, body](util::Result<Reply> r) {
              auto it = outgoing_.find(token);
              if (it == outgoing_.end()) return;
              if (!r.is_ok() || !r->status.is_ok()) {
                // Reclaim the program image before thawing locally.
                if (body->box && body->box->program)
                  it->second.pcb->program = std::move(body->box->program);
                const Status why = r.is_ok() ? r->status : r.status();
                if (why.err() == Err::kStale) {
                  // The home granted the pid to a newer incarnation (a
                  // checkpoint restart won the race) while this copy was
                  // frozen in flight. Thawing it would fork the process:
                  // reap it instead — exactly one incarnation survives.
                  Outgoing og = std::move(it->second);
                  outgoing_.erase(it);
                  xfer_.cancel(og.pcb->pid);
                  c_failed_->inc();
                  host_.cluster().sim().trace().flight_note(
                      "mig.out", "stale_reaped", self_,
                      static_cast<std::int64_t>(og.pcb->pid));
                  host_.procs().reap_stale_incarnation(og.pcb->pid);
                  og.cb(why);
                  return;
                }
                return fail(token, why);
              }
              Outgoing og = std::move(it->second);
              outgoing_.erase(it);
              og.rec.resumed_at = host_.cluster().sim().now();
              host_.procs().remove(og.pcb->pid);
              c_out_->inc();
              records_.push_back(og.rec);
              note_success(og);
              if (og.via_engine)
                xfer_.record_downtime_ms(og.rec.freeze_time().ms());
              // Post-copy: the target is running; start draining the
              // residual image with background pushes.
              if (body->postcopy_push && og.pcb->space)
                xfer_.begin_push(og.pcb->space->asid());
              notify_stage(og.rec.pid, MigStage::kResume);
              // An observer may have crashed this very host; the completion
              // callback belonged to the now-dead kernel.
              if (!host_.up()) return;
              og.cb(Status::ok());
            });
      });
}

void MigrationManager::fail(std::uint64_t token, Status why) {
  auto it = outgoing_.find(token);
  if (it == outgoing_.end()) return;
  Outgoing og = std::move(it->second);
  outgoing_.erase(it);
  xfer_.cancel(og.pcb->pid);
  c_failed_->inc();
  host_.cluster().sim().trace().flight_note(
      "mig.fail", "aborted", self_, static_cast<std::int64_t>(og.pcb->pid),
      og.target);
  if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing()) {
    tr.instant("mig", "migrate failed", self_,
               static_cast<std::int64_t>(og.pcb->pid),
               {{"to", std::to_string(og.target)},
                {"why", why.to_string()}});
    // Close out the reserved root span so the trace of a failed migration
    // still has its operation root (live child spans reference it).
    if (og.root_span != 0)
      tr.span_at("mig", "migrate (failed)", self_,
                 static_cast<std::int64_t>(og.pcb->pid), og.rec.started,
                 host_.cluster().sim().now(), {{"why", why.to_string()}},
                 trace::Context{og.ctx.trace_id, 0}, og.root_span);
  }

  // Tell the target to drop any pending slot. If the target is dead the
  // RPC layer fails this quickly (a down peer gets one doubtful attempt);
  // the result is ignored either way.
  {
    auto abort = std::make_shared<AbortReq>();
    abort->pid = og.pcb->pid;
    host_.rpc().call(og.target, ServiceId::kMigration,
                     static_cast<int>(MigOp::kAbort), abort,
                     [](util::Result<Reply>) {});
  }

  PcbPtr pcb = og.pcb;
  // The program image may have moved into the in-flight transfer body (a
  // peer crash can abort us between encapsulation and the RPC reply); a
  // thawed process must never run without it.
  if (pcb->program == nullptr && og.body && og.body->box &&
      og.body->box->program) {
    pcb->program = std::move(og.body->box->program);
  }
  if (pcb->program == nullptr && og.body && og.body->box) {
    // The image went into the transfer body and never came back: the target
    // consumed it and the failure we saw was a timeout or a down verdict,
    // not a definitive rejection (a rejecting target restores the image).
    // Exactly one incarnation may run, and it is the target's now — drop
    // the frozen local copy. If the target really died with it, the home
    // machine's monitor reaps the process through the home record.
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("mig", "image departed", self_,
                 static_cast<std::int64_t>(pcb->pid),
                 {{"to", std::to_string(og.target)}});
    if (pcb->space) {
      residual_.erase(pcb->space->asid());
      residual_owner_.erase(pcb->space->asid());
    }
    host_.procs().remove(pcb->pid);
    og.cb(why);
    return;
  }
  const bool was_frozen = pcb->state == proc::ProcState::kFrozen;
  auto finish = [this, pcb, was_frozen,
                 caller_resumes = og.resume_handled_by_caller,
                 cb = std::move(og.cb), why] {
    if (was_frozen) {
      if (caller_resumes) {
        // The kernel-call layer completes the interrupted call.
        pcb->state = proc::ProcState::kRunnable;
      } else {
        host_.procs().install_and_resume(pcb);
      }
    }
    // If it was never frozen it simply kept running.
    cb(why);
  };

  // Restore the address space if the strategy already detached it.
  if (pcb->space) {
    residual_.erase(pcb->space->asid());
    residual_owner_.erase(pcb->space->asid());
    if (!pcb->space->segment(vm::Segment::kCode).backing &&
        pcb->space->segment(vm::Segment::kCode).pages > 0) {
      // Streams were released; re-adopt our own descriptor.
      vm::SpaceDescriptor desc = host_.vm().describe(pcb->space);
      host_.vm().adopt_space(desc,
                             [pcb, finish](util::Result<vm::SpacePtr> r) {
                               if (r.is_ok()) pcb->space = *r;
                               finish();
                             });
      return;
    }
  }
  finish();
}

void MigrationManager::evict_all_foreign(std::function<void(int)> cb) {
  auto foreign = host_.procs().foreign_processes();
  if (foreign.empty()) {
    host_.cluster().sim().after(Time::zero(),
                                [cb = std::move(cb)] { cb(0); });
    return;
  }
  struct Progress {
    int pending = 0;
    int evicted = 0;
  };
  auto prog = std::make_shared<Progress>();
  prog->pending = static_cast<int>(foreign.size());
  auto shared_cb = std::make_shared<std::function<void(int)>>(std::move(cb));
  for (const auto& pcb : foreign) {
    auto done = [this, prog, shared_cb](Status s) {
      // On failure the process was thawed and resumed in place (fail());
      // the owner keeps suffering but the process survives.
      if (s.is_ok()) {
        ++prog->evicted;
        c_evictions_->inc();
      }
      if (--prog->pending == 0) (*shared_cb)(prog->evicted);
    };
    // Checkpoint fast path (opt-in): commit an incremental image at
    // local-write cost and hand the process to its home by reference
    // instead of shipping the whole address space. Any failure falls back
    // to an ordinary migration home.
    if (host_.ckpt().evict_via_checkpoint()) {
      host_.ckpt().checkpoint_and_depart(
          pcb, [this, pcb, done](Status s) {
            if (s.is_ok()) return done(s);
            migrate(pcb, pcb->home, done);
          });
      continue;
    }
    migrate(pcb, pcb->home, done);
  }
}

// ---------------------------------------------------------------------------
// Crash support
// ---------------------------------------------------------------------------

void MigrationManager::crash_reset() {
  outgoing_.clear();  // no callbacks: their closures died with the kernel
  pending_in_.clear();
  residual_.clear();
  residual_owner_.clear();
  cor_sources_.clear();
  xfer_.crash_reset();
}

void MigrationManager::note_process_reaped(Pid pid) {
  xfer_.cancel(pid);
  std::vector<std::uint64_t> doomed;
  for (const auto& [token, og] : outgoing_)
    if (og.pcb->pid == pid) doomed.push_back(token);
  for (const auto token : doomed) {
    auto it = outgoing_.find(token);
    if (it == outgoing_.end()) continue;
    Outgoing og = std::move(it->second);
    outgoing_.erase(it);
    c_failed_->inc();
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("mig", "migrate aborted: process reaped", self_,
                 static_cast<std::int64_t>(pid),
                 {{"to", std::to_string(og.target)}});
    {
      auto abort = std::make_shared<AbortReq>();
      abort->pid = pid;
      host_.rpc().call(og.target, ServiceId::kMigration,
                       static_cast<int>(MigOp::kAbort), abort,
                       [](util::Result<Reply>) {});
    }
    og.cb(Status(Err::kNoEnt, "process died during migration"));
  }
}

void MigrationManager::peer_crashed(HostId peer) {
  // Engine sessions serving or fed by the dead host die first, so their
  // in-flight continuations become no-ops.
  xfer_.peer_crashed(peer);

  // Outgoing migrations targeting the dead host: roll back and thaw now
  // instead of waiting out the RPC retry limit.
  std::vector<std::uint64_t> doomed;
  for (const auto& [token, og] : outgoing_)
    if (og.target == peer) doomed.push_back(token);
  for (const auto token : doomed)
    fail(token, Status(Err::kTimedOut, "migration target crashed"));

  // Half-accepted incoming transfers from the dead source never complete.
  for (auto it = pending_in_.begin(); it != pending_in_.end();)
    it = it->second == peer ? pending_in_.erase(it) : std::next(it);

  // Residual copy-on-reference images serving the dead host are
  // unreachable; free them.
  for (auto it = residual_owner_.begin(); it != residual_owner_.end();) {
    if (it->second != peer) {
      ++it;
      continue;
    }
    residual_.erase(it->first);
    it = residual_owner_.erase(it);
  }

  // Processes here that pull pages from the dead source can never fault
  // another page in: kill them (the residual-dependency hazard that made
  // Sprite prefer flushing over copy-on-reference).
  std::vector<Pid> stranded;
  for (const auto& [pid, src] : cor_sources_)
    if (src == peer) stranded.push_back(pid);
  for (const Pid pid : stranded) {
    cor_sources_.erase(pid);
    if (!host_.procs().find(pid)) continue;
    c_cor_kills_->inc();
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("mig", "killed: cor source crashed", self_,
                 static_cast<std::int64_t>(pid));
    host_.procs().deliver_signal(pid, 9);
  }
}

void MigrationManager::collect_peer_interest(
    std::vector<sim::HostId>& out) const {
  for (const auto& [token, og] : outgoing_) out.push_back(og.target);
  for (const auto& [pid, src] : pending_in_) out.push_back(src);
  for (const auto& [asid, owner] : residual_owner_) out.push_back(owner);
  for (const auto& [pid, src] : cor_sources_) out.push_back(src);
  xfer_.collect_peer_interest(out);
}

void MigrationManager::fetch_remote_chunks(HostId source, std::int64_t asid,
                                           vm::Segment seg,
                                           std::int64_t first,
                                           std::int64_t count,
                                           vm::VmManager::StatusCb cb) {
  if (count <= 0) return cb(Status::ok());
  const std::int64_t chunk = std::min<std::int64_t>(count, 16);
  auto body = std::make_shared<FetchPagesReq>();
  body->asid = asid;
  body->seg = seg;
  body->first = first;
  body->count = chunk;
  host_.rpc().call(
      source, ServiceId::kMigration, static_cast<int>(MigOp::kFetchPages),
      body,
      [this, source, asid, seg, first, count, chunk,
       cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (!r.is_ok()) return cb(r.status());
        if (!r->status.is_ok()) return cb(r->status);
        fetch_remote_chunks(source, asid, seg, first + chunk, count - chunk,
                            std::move(cb));
      });
}

// ---------------------------------------------------------------------------
// Incoming
// ---------------------------------------------------------------------------

void MigrationManager::handle_rpc(HostId src, const Request& req,
                                  std::function<void(Reply)> respond) {
  switch (static_cast<MigOp>(req.op)) {
    case MigOp::kInit: {
      auto body = rpc::body_cast<InitReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<InitRep>();
      rep->version = version_;
      rep->accepted = body->version == version_;
      if (rep->accepted) pending_in_[body->pid] = src;
      respond(Reply{Status::ok(), rep});
      return;
    }
    case MigOp::kPageData: {
      // The payload's wire time is the cost; nothing to store.
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case MigOp::kTransfer: {
      auto body = rpc::body_cast<TransferReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      handle_transfer(src, *body, std::move(respond));
      return;
    }
    case MigOp::kFetchPages: {
      auto body = rpc::body_cast<FetchPagesReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto it = residual_.find(body->asid);
      if (it == residual_.end()) {
        respond(Reply{Status(Err::kNoEnt, "no residual image"), nullptr});
        return;
      }
      c_cor_pages_->inc(body->count);
      // A post-copy push daemon serving this image must not re-send pages
      // the target just pulled.
      xfer_.note_pull_served(body->asid, body->seg, body->first, body->count);
      if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
        tr.instant("mig", "cor pages served", self_, -1,
                   {{"count", std::to_string(body->count)},
                    {"to", std::to_string(src)}});
      auto rep = std::make_shared<FetchPagesRep>();
      rep->bytes = body->count * host_.cluster().costs().page_size;
      respond(Reply{Status::ok(), rep});
      return;
    }
    case MigOp::kAbort: {
      auto body = rpc::body_cast<AbortReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      pending_in_.erase(body->pid);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad migration op"), nullptr});
}

void MigrationManager::handle_transfer(HostId src, const TransferReq& req,
                                       std::function<void(Reply)> respond) {
  auto pit = pending_in_.find(req.pid);
  if (pit == pending_in_.end() || pit->second != src) {
    respond(Reply{Status(Err::kInval, "transfer without init"), nullptr});
    return;
  }
  pending_in_.erase(pit);

  auto pcb = std::make_shared<Pcb>();
  pcb->pid = req.pid;
  pcb->ppid = req.ppid;
  pcb->home = req.home;
  pcb->current = self_;
  pcb->exe_path = req.exe_path;
  pcb->args = req.args;
  pcb->view = req.view;
  pcb->spawned_at = req.spawned_at;
  pcb->remaining_compute = req.remaining_compute;
  pcb->pause_remaining = req.pause_remaining;
  pcb->blocked_in_wait = req.blocked_in_wait;
  pcb->kill_pending = req.kill_pending;
  pcb->kill_sig = req.kill_sig;
  pcb->next_fd = req.next_fd;
  pcb->incarnation = req.incarnation;
  pcb->forward_file_calls = req.forward_file_calls;
  if (req.box) pcb->program = std::move(req.box->program);

  for (const auto& [fd, exported] : req.streams)
    pcb->fds[fd] = host_.fs().import_stream(exported);

  const HostId source = src;
  auto respond_sp =
      std::make_shared<std::function<void(Reply)>>(std::move(respond));

  // Installation failed after streams were already imported: release them
  // (balancing the server-side attribution this host just gained) and reply
  // with the error, so the source rolls back and thaws promptly instead of
  // waiting out the RPC timeout. The half-built PCB dies here.
  auto reject = [this, pcb, respond_sp, box = req.box](Status why) {
    // The transfer body is shared with the source (the simulated wire does
    // not serialize); put the program image back so the source's rollback
    // can thaw the process. A definitive rejection means this host never
    // ran it.
    if (box && pcb->program) box->program = std::move(pcb->program);
    std::vector<fs::StreamPtr> to_close;
    for (auto& [fd, s] : pcb->fds)
      if (--s->local_refs == 0) to_close.push_back(s);
    pcb->fds.clear();
    for (auto& s : to_close) host_.fs().close(s, [](Status) {});
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("mig", "transfer rejected", self_,
                 static_cast<std::int64_t>(pcb->pid),
                 {{"why", why.to_string()}});
    (*respond_sp)(Reply{why, nullptr});
  };

  auto finish_install = [this, pcb, respond_sp, box = req.box]() mutable {
    // Update the home machine before the process can run (wait-notifies and
    // signals must find the new location).
    auto upd = std::make_shared<proc::UpdateLocationReq>();
    upd->pid = pcb->pid;
    upd->host = self_;
    upd->incarnation = pcb->incarnation;
    host_.rpc().call(
        pcb->home, ServiceId::kProc,
        static_cast<int>(proc::ProcOp::kUpdateLocation), upd,
        [this, pcb, respond_sp, box](util::Result<Reply> ur) mutable {
          // A kStale refusal means a newer incarnation claimed the pid (a
          // checkpoint restart raced this migration and won): this copy
          // must not run. Dismantle it and report the refusal — the source
          // then reaps its frozen copy too. Transport failures fall
          // through: location repair on first contact handles those, as
          // before.
          if (ur.is_ok() && ur->status.err() == Err::kStale) {
            if (box && pcb->program) box->program = std::move(pcb->program);
            cor_sources_.erase(pcb->pid);
            std::vector<fs::StreamPtr> to_close;
            for (auto& [fd, s] : pcb->fds)
              if (--s->local_refs == 0) to_close.push_back(s);
            pcb->fds.clear();
            for (auto& s : to_close) host_.fs().close(s, [](Status) {});
            if (pcb->space) {
              host_.vm().destroy_space(pcb->space, [](Status) {});
              pcb->space = nullptr;
            }
            host_.cluster().sim().trace().flight_note(
                "mig.in", "stale_refused", self_,
                static_cast<std::int64_t>(pcb->pid));
            if (trace::Registry& tr = host_.cluster().sim().trace();
                tr.tracing())
              tr.instant("mig", "transfer refused: stale incarnation", self_,
                         static_cast<std::int64_t>(pcb->pid));
            (*respond_sp)(Reply{ur->status, nullptr});
            return;
          }
          c_in_->inc();
          host_.cluster().sim().trace().flight_note(
              "mig.in", "resumed", self_,
              static_cast<std::int64_t>(pcb->pid), pcb->home);
          if (trace::Registry& tr = host_.cluster().sim().trace();
              tr.tracing())
            tr.instant("mig", "migrated in", self_,
                       static_cast<std::int64_t>(pcb->pid),
                       {{"home", std::to_string(pcb->home)}});
          host_.procs().install_and_resume(pcb);
          (*respond_sp)(Reply{Status::ok(), nullptr});
        });
  };

  // De-encapsulation consumes target CPU.
  host_.cpu().submit(
      JobClass::kKernel, host_.cluster().costs().mig_deencapsulate_cpu,
      [this, pcb, req, source, reject,
       finish_install = std::move(finish_install)]() mutable {
        if (req.has_space) {
          host_.vm().adopt_space(
              req.space,
              [this, pcb, req, source, reject,
               finish_install = std::move(finish_install)](
                  util::Result<vm::SpacePtr> r) mutable {
                if (!r.is_ok()) return reject(r.status());
                pcb->space = *r;
                if (req.cor_source_resident) {
                  // Faults on previously-resident pages pull from the
                  // source, at most 16 pages (64 KB) per RPC — larger
                  // replies would monopolize the wire and outlive the RPC
                  // retransmission timeout.
                  const std::int64_t asid = (*r)->asid();
                  const bool postcopy = req.postcopy_push;
                  host_.vm().set_remote_pager(
                      *r, [this, source, asid, postcopy](
                              vm::Segment seg, std::int64_t first,
                              std::int64_t count,
                              vm::VmManager::StatusCb cb) {
                        fetch_remote_chunks(
                            source, asid, seg, first, count,
                            [this, asid, postcopy,
                             cb = std::move(cb)](Status s) {
                              cb(s);  // marks the pages resident
                              // The last residual page can arrive by fault
                              // rather than push; re-check the drain.
                              if (postcopy && s.is_ok())
                                xfer_.note_remote_drain(asid);
                            });
                      });
                  cor_sources_[pcb->pid] = source;
                  if (postcopy)
                    xfer_.register_incoming(asid, pcb->pid, source, *r);
                }
                finish_install();
              });
          return;
        }

        // Exec-time migration: rebuild the image from the executable.
        const proc::ProgramImage* image =
            host_.cluster().find_program(pcb->exe_path);
        if (image == nullptr)
          return reject(Status(Err::kNoEnt, pcb->exe_path));
        host_.cpu().submit(
            JobClass::kKernel, host_.cluster().costs().exec_cpu,
            [this, pcb, image, reject,
             finish_install = std::move(finish_install)]() mutable {
              host_.vm().create_space(
                  pcb->exe_path, image->code_pages, image->heap_pages,
                  image->stack_pages,
                  [this, pcb, image, reject,
                   finish_install = std::move(finish_install)](
                      util::Result<vm::SpacePtr> r) mutable {
                    if (!r.is_ok()) return reject(r.status());
                    pcb->space = *r;
                    if (!pcb->program) pcb->program = image->factory(pcb->args);
                    pcb->view.clear_result();
                    finish_install();
                  });
            });
      });
}

}  // namespace sprite::mig
