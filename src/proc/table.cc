#include "proc/table.h"

#include <algorithm>

#include "kern/cluster.h"
#include "util/assert.h"
#include "util/log.h"

namespace sprite::proc {

using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::JobClass;
using sim::Time;
using util::Err;
using util::Status;

const char* proc_state_name(ProcState s) {
  switch (s) {
    case ProcState::kRunnable: return "runnable";
    case ProcState::kBlocked: return "blocked";
    case ProcState::kFrozen: return "frozen";
    case ProcState::kZombie: return "zombie";
    case ProcState::kDead: return "dead";
  }
  return "?";
}

ProcTable::ProcTable(kern::Host& host) : host_(host), self_(host.id()) {
  trace::Registry& tr = host_.cluster().sim().trace();
  c_spawns_ = &tr.counter("proc.process.spawned", self_);
  c_forks_ = &tr.counter("proc.process.forked", self_);
  c_execs_ = &tr.counter("proc.process.execed", self_);
  c_exits_ = &tr.counter("proc.process.exited", self_);
  c_syscalls_ = &tr.counter("proc.syscall.entered", self_);
  c_forwarded_ = &tr.counter("proc.syscall.forwarded_home", self_);
  c_peer_kills_ = &tr.counter("proc.process.killed_home_crash", self_);
  c_foreign_cpu_us_ = &tr.counter("proc.cpu.foreign_us", self_);
}

void ProcTable::register_services() {
  host_.rpc().register_service(
      ServiceId::kProc,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_proc_rpc(src, req, std::move(r));
      });
}

// ---------------------------------------------------------------------------
// Creation / lookup
// ---------------------------------------------------------------------------

void ProcTable::spawn(const std::string& exe_path,
                      std::vector<std::string> args, SpawnCb cb) {
  const ProgramImage* image = host_.cluster().find_program(exe_path);
  if (image == nullptr) return cb({Err::kNoEnt, "no such program"});

  const Pid pid = make_pid(self_, next_seq_++);
  HomeRecord rec;
  rec.pid = pid;
  rec.current = self_;
  home_records_.emplace(pid, std::move(rec));

  auto pcb = std::make_shared<Pcb>();
  pcb->pid = pid;
  pcb->ppid = kInvalidPid;
  pcb->home = self_;
  pcb->current = self_;
  pcb->exe_path = exe_path;
  pcb->args = std::move(args);
  pcb->spawned_at = host_.cluster().sim().now();
  pcb->view.pid = pid;

  host_.vm().create_space(
      exe_path, image->code_pages, image->heap_pages, image->stack_pages,
      [this, pcb, image, cb = std::move(cb)](util::Result<vm::SpacePtr> r) {
        if (!r.is_ok()) {
          home_records_.erase(pcb->pid);
          return cb(r.status());
        }
        pcb->space = *r;
        pcb->program = image->factory(pcb->args);
        procs_[pcb->pid] = pcb;
        c_spawns_->inc();
        if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
          tr.instant("proc", "spawn", self_,
                     static_cast<std::int64_t>(pcb->pid),
                     {{"exe", pcb->exe_path}});
        continue_process(pcb);
        cb(pcb->pid);
      });
}

void ProcTable::notify_on_exit(Pid pid, std::function<void(int)> cb) {
  auto it = home_records_.find(pid);
  SPRITE_CHECK_MSG(it != home_records_.end(),
                   "notify_on_exit must run on the pid's home host");
  if (!it->second.alive) {
    const int status = it->second.exit_status;
    host_.cluster().sim().after(Time::zero(),
                                [cb = std::move(cb), status] { cb(status); });
    return;
  }
  it->second.observers.push_back(std::move(cb));
}

PcbPtr ProcTable::find(Pid pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second;
}

std::vector<PcbPtr> ProcTable::local_processes() const {
  std::vector<PcbPtr> out;
  for (const auto& [pid, p] : procs_) out.push_back(p);
  return out;
}

std::vector<PcbPtr> ProcTable::foreign_processes() const {
  std::vector<PcbPtr> out;
  for (const auto& [pid, p] : procs_)
    if (p->foreign()) out.push_back(p);
  return out;
}

bool ProcTable::home_record_alive(Pid pid) const {
  auto it = home_records_.find(pid);
  return it != home_records_.end() && it->second.alive;
}

sim::HostId ProcTable::home_record_location(Pid pid) const {
  auto it = home_records_.find(pid);
  return it == home_records_.end() ? sim::kInvalidHost : it->second.current;
}

void ProcTable::set_home_record_location(Pid pid, HostId where) {
  auto it = home_records_.find(pid);
  if (it != home_records_.end()) it->second.current = where;
}

std::int64_t ProcTable::home_record_incarnation(Pid pid) const {
  auto it = home_records_.find(pid);
  return it == home_records_.end() ? 0 : it->second.incarnation;
}

util::Result<std::int64_t> ProcTable::bump_incarnation(Pid pid) {
  auto it = home_records_.find(pid);
  if (it == home_records_.end() || !it->second.alive)
    return {Err::kSrch, "no live home record to reincarnate"};
  return ++it->second.incarnation;
}

bool ProcTable::owns(const PcbPtr& pcb) const {
  auto it = procs_.find(pcb->pid);
  return it != procs_.end() && it->second == pcb && pcb->current == self_;
}

// ---------------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------------

void ProcTable::resume(const PcbPtr& pcb) { continue_process(pcb); }

void ProcTable::continue_process(const PcbPtr& pcb) {
  if (!owns(pcb)) return;
  if (pcb->state == ProcState::kDead || pcb->state == ProcState::kZombie)
    return;

  // Migration freeze takes priority: the process is at a safe point now.
  if (pcb->freeze_waiter) {
    pcb->state = ProcState::kFrozen;
    auto waiter = std::move(pcb->freeze_waiter);
    pcb->freeze_waiter = nullptr;
    waiter();
    return;
  }
  if (pcb->kill_pending) {
    do_exit(pcb, 128 + pcb->kill_sig);
    return;
  }

  pcb->state = ProcState::kRunnable;
  if (pcb->program == nullptr) {
    LOG_ERROR("proc", "host%d pid=%lu exe=%s home=%d current=%d",
               static_cast<int>(self_), static_cast<unsigned long>(pcb->pid),
               pcb->exe_path.c_str(), static_cast<int>(pcb->home),
               static_cast<int>(pcb->current));
  }
  SPRITE_CHECK_MSG(pcb->program != nullptr, "runnable process has no image");
  Action action = pcb->program->next(pcb->view);
  pcb->view.clear_result();
  dispatch(pcb, std::move(action));
}

void ProcTable::finish_action(const PcbPtr& pcb) {
  if (!owns(pcb)) return;
  continue_process(pcb);
}

void ProcTable::syscall_enter(const PcbPtr& pcb, std::function<void()> fn) {
  c_syscalls_->inc();
  pcb->state = ProcState::kBlocked;
  host_.cpu().submit(JobClass::kKernel, host_.cluster().costs().syscall_cpu,
                     std::move(fn));
}

void ProcTable::dispatch(const PcbPtr& pcb, Action action) {
  const Pid pid = pcb->pid;
  std::visit(
      [&](auto&& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, Compute>) {
          pcb->remaining_compute = a.cpu;
          pcb->cpu_job = host_.cpu().submit(
              JobClass::kUser, a.cpu, [this, pid, burst = a.cpu] {
                auto p = find(pid);
                if (!p) return;
                p->cpu_job = sim::kInvalidCpuJob;
                p->remaining_compute = Time::zero();
                p->cpu_used += burst;
                if (p->foreign()) c_foreign_cpu_us_->inc(burst.us());
                finish_action(p);
              });
        } else if constexpr (std::is_same_v<T, Touch>) {
          pcb->state = ProcState::kBlocked;
          if (!pcb->space) {
            pcb->view.status = Status(Err::kInval, "no address space");
            finish_action(pcb);
            return;
          }
          host_.vm().touch(pcb->space, a.seg, a.first, a.count, a.write,
                           [this, pid](Status s) {
                             auto p = find(pid);
                             if (!p) return;
                             p->view.status = s;
                             finish_action(p);
                           });
        } else if constexpr (std::is_same_v<T, Pause>) {
          pcb->state = ProcState::kBlocked;
          pcb->paused = true;
          pcb->pause_deadline = host_.cluster().sim().now() + a.duration;
          pcb->pause_remaining = a.duration;
          pcb->pause_event = host_.cluster().sim().after(
              a.duration, "proc_pause", [this, pid] {
                auto p = find(pid);
                if (!p) return;
                p->paused = false;
                p->pause_remaining = Time::zero();
                finish_action(p);
              });
        } else if constexpr (std::is_same_v<T, SysOpen>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kOpen;
            req->path = a.path;
            req->flags = a.flags;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_open(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysClose>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kClose;
            req->fd = a.fd;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_close(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysRead>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kRead;
            req->fd = a.fd;
            req->len = a.len;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_read(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysWrite>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kWrite;
            req->fd = a.fd;
            req->data = a.data;
            req->len = a.len;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_write(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysSeek>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kSeek;
            req->fd = a.fd;
            req->offset = a.offset;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_seek(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysFsync>) {
          if (pcb->forward_file_calls && pcb->foreign()) {
            auto req = std::make_shared<FileCallReq>();
            req->op = FileCallOp::kFsync;
            req->fd = a.fd;
            syscall_enter(pcb, [this, pcb, req] { forward_file_call(pcb, req); });
            return;
          }
          syscall_enter(pcb, [this, pcb, a] { do_fsync(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysDup>) {
          syscall_enter(pcb, [this, pcb, a] { do_dup(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysFtruncate>) {
          syscall_enter(pcb, [this, pcb, a] { do_ftruncate(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysUnlink>) {
          syscall_enter(pcb, [this, pcb, a] { do_unlink(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysMkdir>) {
          syscall_enter(pcb, [this, pcb, a] { do_mkdir(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysStat>) {
          syscall_enter(pcb, [this, pcb, a] { do_stat(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysPdevCall>) {
          syscall_enter(pcb, [this, pcb, a] { do_pdev_call(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysFork>) {
          syscall_enter(pcb, [this, pcb] { do_fork(pcb); });
        } else if constexpr (std::is_same_v<T, SysPipe>) {
          syscall_enter(pcb, [this, pcb] { do_pipe(pcb); });
        } else if constexpr (std::is_same_v<T, SysExec>) {
          syscall_enter(pcb, [this, pcb, a] { do_exec(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysExit>) {
          syscall_enter(pcb, [this, pcb, a] { do_exit(pcb, a.status); });
        } else if constexpr (std::is_same_v<T, SysWait>) {
          syscall_enter(pcb, [this, pcb] { do_wait(pcb); });
        } else if constexpr (std::is_same_v<T, SysGetPid>) {
          syscall_enter(pcb, [this, pcb] {
            pcb->view.rv = static_cast<std::int64_t>(pcb->pid);
            finish_action(pcb);
          });
        } else if constexpr (std::is_same_v<T, SysGetPPid>) {
          syscall_enter(pcb, [this, pcb] {
            pcb->view.rv = static_cast<std::int64_t>(pcb->ppid);
            finish_action(pcb);
          });
        } else if constexpr (std::is_same_v<T, SysGetTime>) {
          syscall_enter(pcb, [this, pcb] {
            pcb->view.rv = host_.cluster().sim().now().us();
            finish_action(pcb);
          });
        } else if constexpr (std::is_same_v<T, SysGetHostName>) {
          syscall_enter(pcb, [this, pcb] { do_get_host_name(pcb); });
        } else if constexpr (std::is_same_v<T, SysKill>) {
          syscall_enter(pcb, [this, pcb, a] { do_kill(pcb, a); });
        } else if constexpr (std::is_same_v<T, SysMigrateSelf>) {
          syscall_enter(pcb, [this, pcb, a] { do_migrate_self(pcb, a); });
        } else {
          SPRITE_UNREACHABLE("unhandled action type");
        }
      },
      action);
}

// ---------------------------------------------------------------------------
// File kernel calls (transferred-state handling)
// ---------------------------------------------------------------------------

void ProcTable::do_open(const PcbPtr& pcb, const SysOpen& a) {
  const Pid pid = pcb->pid;
  host_.fs().open(a.path, a.flags,
                  [this, pid](util::Result<fs::StreamPtr> r) {
                    auto p = find(pid);
                    if (!p) {
                      // Process vanished mid-open: release the stream.
                      if (r.is_ok()) host_.fs().close(*r, [](Status) {});
                      return;
                    }
                    if (!r.is_ok()) {
                      p->view.status = r.status();
                    } else {
                      const int fd = p->next_fd++;
                      p->fds[fd] = *r;
                      p->view.rv = fd;
                    }
                    finish_action(p);
                  });
}

void ProcTable::do_close(const PcbPtr& pcb, const SysClose& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "close");
    return finish_action(pcb);
  }
  fs::StreamPtr s = it->second;
  pcb->fds.erase(it);
  if (--s->local_refs > 0) {
    // Another descriptor on this host still references the stream.
    return finish_action(pcb);
  }
  const Pid pid = pcb->pid;
  host_.fs().close(s, [this, pid](Status st) {
    auto p = find(pid);
    if (!p) return;
    p->view.status = st;
    finish_action(p);
  });
}

void ProcTable::do_read(const PcbPtr& pcb, const SysRead& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "read");
    return finish_action(pcb);
  }
  const Pid pid = pcb->pid;
  host_.fs().read(it->second, a.len, [this, pid](util::Result<fs::Bytes> r) {
    auto p = find(pid);
    if (!p) return;
    if (!r.is_ok()) {
      p->view.status = r.status();
    } else {
      p->view.rv = static_cast<std::int64_t>(r->size());
      p->view.data = std::move(*r);
    }
    finish_action(p);
  });
}

void ProcTable::do_write(const PcbPtr& pcb, const SysWrite& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "write");
    return finish_action(pcb);
  }
  fs::Bytes data = a.data;
  if (data.empty() && a.len > 0)
    data.assign(static_cast<std::size_t>(a.len), 0);
  const Pid pid = pcb->pid;
  host_.fs().write(it->second, std::move(data),
                   [this, pid](util::Result<std::int64_t> r) {
                     auto p = find(pid);
                     if (!p) return;
                     if (!r.is_ok()) {
                       p->view.status = r.status();
                     } else {
                       p->view.rv = *r;
                     }
                     finish_action(p);
                   });
}

void ProcTable::do_seek(const PcbPtr& pcb, const SysSeek& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "seek");
  } else {
    pcb->view.status = host_.fs().seek(it->second, a.offset);
    pcb->view.rv = a.offset;
  }
  finish_action(pcb);
}

void ProcTable::do_fsync(const PcbPtr& pcb, const SysFsync& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "fsync");
    return finish_action(pcb);
  }
  const Pid pid = pcb->pid;
  host_.fs().fsync(it->second, [this, pid](Status st) {
    auto p = find(pid);
    if (!p) return;
    p->view.status = st;
    finish_action(p);
  });
}

void ProcTable::do_dup(const PcbPtr& pcb, const SysDup& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "dup");
    return finish_action(pcb);
  }
  const int nfd = pcb->next_fd++;
  pcb->fds[nfd] = it->second;
  ++it->second->local_refs;  // same Stream, same access position
  pcb->view.rv = nfd;
  finish_action(pcb);
}

void ProcTable::do_ftruncate(const PcbPtr& pcb, const SysFtruncate& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "ftruncate");
    return finish_action(pcb);
  }
  const Pid pid = pcb->pid;
  host_.fs().ftruncate(it->second, a.size, [this, pid](Status st) {
    auto p = find(pid);
    if (!p) return;
    p->view.status = st;
    finish_action(p);
  });
}

void ProcTable::do_unlink(const PcbPtr& pcb, const SysUnlink& a) {
  const Pid pid = pcb->pid;
  host_.fs().unlink(a.path, [this, pid](Status st) {
    auto p = find(pid);
    if (!p) return;
    p->view.status = st;
    finish_action(p);
  });
}

void ProcTable::do_mkdir(const PcbPtr& pcb, const SysMkdir& a) {
  const Pid pid = pcb->pid;
  host_.fs().mkdir(a.path, [this, pid](Status st) {
    auto p = find(pid);
    if (!p) return;
    p->view.status = st;
    finish_action(p);
  });
}

void ProcTable::do_stat(const PcbPtr& pcb, const SysStat& a) {
  const Pid pid = pcb->pid;
  host_.fs().stat(a.path, [this, pid](util::Result<fs::StatResult> r) {
    auto p = find(pid);
    if (!p) return;
    if (!r.is_ok()) {
      p->view.status = r.status();
    } else {
      p->view.rv = r->size;
    }
    finish_action(p);
  });
}

void ProcTable::do_pdev_call(const PcbPtr& pcb, const SysPdevCall& a) {
  auto it = pcb->fds.find(a.fd);
  if (it == pcb->fds.end()) {
    pcb->view.status = Status(Err::kBadF, "pdev_call");
    return finish_action(pcb);
  }
  const Pid pid = pcb->pid;
  host_.fs().pdev_call(it->second, a.request,
                       [this, pid](util::Result<fs::Bytes> r) {
                         auto p = find(pid);
                         if (!p) return;
                         if (!r.is_ok()) {
                           p->view.status = r.status();
                         } else {
                           p->view.data = std::move(*r);
                           p->view.rv =
                               static_cast<std::int64_t>(p->view.data.size());
                         }
                         finish_action(p);
                       });
}

// ---------------------------------------------------------------------------
// Process-family kernel calls
// ---------------------------------------------------------------------------

void ProcTable::do_fork(const PcbPtr& pcb) {
  if (pcb->home != self_) c_forwarded_->inc();
  auto body = std::make_shared<ForkChildReq>();
  body->parent = pcb->pid;
  body->child_host = self_;
  const Pid parent_pid = pcb->pid;
  host_.rpc().call(
      pcb->home, ServiceId::kProc, static_cast<int>(ProcOp::kForkChild), body,
      [this, parent_pid](util::Result<Reply> r) {
        auto parent = find(parent_pid);
        if (!parent) return;
        if (!r.is_ok() || !r->status.is_ok()) {
          parent->view.status =
              r.is_ok() ? r->status : r.status();
          return finish_action(parent);
        }
        auto rep = rpc::body_cast<ForkChildRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        const Pid child_pid = rep->child;

        auto child = std::make_shared<Pcb>();
        child->pid = child_pid;
        child->ppid = parent->pid;
        child->spawned_at = host_.cluster().sim().now();
        child->home = parent->home;  // children are born to the same home
        child->current = self_;
        child->exe_path = parent->exe_path;
        child->args = parent->args;
        child->program = parent->program->clone();
        child->view = parent->view;
        child->view.clear_result();
        child->view.pid = child_pid;
        child->view.ppid = parent->pid;
        child->view.is_child = true;
        child->next_fd = parent->next_fd;
        for (const auto& [fd, s] : parent->fds) {
          child->fds[fd] = s;
          ++s->local_refs;  // descriptor shared on this host
        }

        // The child gets its own address space sized like the parent's.
        // (Content copying is not modelled: fork+exec dominates in Sprite,
        // and the fork CPU charge covers kernel work. See DESIGN.md.)
        const auto& cs = parent->space;
        host_.cpu().submit(
            JobClass::kKernel, host_.cluster().costs().fork_cpu,
            [this, parent_pid, child, code = cs->segment(vm::Segment::kCode).pages,
             heap = cs->segment(vm::Segment::kHeap).pages,
             stack = cs->segment(vm::Segment::kStack).pages] {
              host_.vm().create_space(
                  child->exe_path, code, heap, stack,
                  [this, parent_pid, child](util::Result<vm::SpacePtr> r) {
                    auto parent = find(parent_pid);
                    if (!r.is_ok()) {
                      if (parent) {
                        parent->view.status = r.status();
                        finish_action(parent);
                      }
                      return;
                    }
                    child->space = *r;
                    procs_[child->pid] = child;
                    c_forks_->inc();
                    if (parent) {
                      parent->view.rv =
                          static_cast<std::int64_t>(child->pid);
                      finish_action(parent);
                    }
                    continue_process(child);
                  });
            });
      });
}

void ProcTable::do_pipe(const PcbPtr& pcb) {
  const Pid pid = pcb->pid;
  host_.fs().create_pipe(
      [this, pid](util::Result<std::pair<fs::StreamPtr, fs::StreamPtr>> r) {
        auto p = find(pid);
        if (!p) return;
        if (!r.is_ok()) {
          p->view.status = r.status();
          return finish_action(p);
        }
        const int rfd = p->next_fd++;
        const int wfd = p->next_fd++;
        p->fds[rfd] = r->first;
        p->fds[wfd] = r->second;
        p->view.rv = rfd;
        p->view.aux = wfd;
        finish_action(p);
      });
}

void ProcTable::do_exec(const PcbPtr& pcb, const SysExec& a) {
  const ProgramImage* image = host_.cluster().find_program(a.path);
  if (image == nullptr) {
    pcb->view.status = Status(Err::kNoEnt, a.path);
    return finish_action(pcb);
  }

  // Exec-time migration: the new image is created on the target host, so no
  // virtual memory transfers at all — the cheap case pmake exploits.
  if (pcb->migrate_on_exec && pcb->migrate_target != sim::kInvalidHost &&
      pcb->migrate_target != self_ && migrator_ != nullptr) {
    const HostId target = pcb->migrate_target;
    pcb->migrate_on_exec = false;
    pcb->migrate_target = sim::kInvalidHost;
    pcb->exe_path = a.path;
    pcb->args = a.args;
    vm::SpacePtr old_space = std::move(pcb->space);
    pcb->space = nullptr;
    pcb->program = nullptr;  // rebuilt from the image on the target
    pcb->view.clear_result();
    pcb->migrate_syscall_pending = true;
    const Pid pid = pcb->pid;
    auto start_migration = [this, pid, target] {
      auto p = find(pid);
      if (!p) return;
      migrator_->migrate(p, target, [this, pid](Status s) {
        if (s.is_ok()) return;  // now running on the target
        // Migration failed: fall back to executing locally.
        auto p = find(pid);
        if (!p) return;
        p->migrate_syscall_pending = false;
        const ProgramImage* image = host_.cluster().find_program(p->exe_path);
        SPRITE_CHECK(image != nullptr);
        host_.vm().create_space(
            p->exe_path, image->code_pages, image->heap_pages,
            image->stack_pages, [this, pid](util::Result<vm::SpacePtr> r) {
              auto p = find(pid);
              if (!p || !r.is_ok()) return;
              const ProgramImage* image =
                  host_.cluster().find_program(p->exe_path);
              p->space = *r;
              p->program = image->factory(p->args);
              p->state = ProcState::kRunnable;
              c_execs_->inc();
              continue_process(p);
            });
      });
    };
    if (old_space) {
      host_.vm().destroy_space(std::move(old_space),
                               [start_migration](Status) { start_migration(); });
    } else {
      start_migration();
    }
    return;
  }

  // Plain local exec.
  const Pid pid = pcb->pid;
  pcb->exe_path = a.path;
  pcb->args = a.args;
  vm::SpacePtr old_space = std::move(pcb->space);
  pcb->space = nullptr;
  auto build = [this, pid, image] {
    auto p = find(pid);
    if (!p) return;
    host_.cpu().submit(
        JobClass::kKernel, host_.cluster().costs().exec_cpu, [this, pid, image] {
          auto p = find(pid);
          if (!p) return;
          host_.vm().create_space(
              p->exe_path, image->code_pages, image->heap_pages,
              image->stack_pages,
              [this, pid, image](util::Result<vm::SpacePtr> r) {
                auto p = find(pid);
                if (!p) return;
                if (!r.is_ok()) {
                  p->view.status = r.status();
                  return finish_action(p);
                }
                p->space = *r;
                p->program = image->factory(p->args);
                p->view.clear_result();
                c_execs_->inc();
                continue_process(p);
              });
        });
  };
  if (old_space) {
    host_.vm().destroy_space(std::move(old_space), [build](Status) { build(); });
  } else {
    build();
  }
}

void ProcTable::do_exit(const PcbPtr& pcb, int status) {
  if (pcb->state == ProcState::kZombie || pcb->state == ProcState::kDead)
    return;
  pcb->state = ProcState::kZombie;
  pcb->kill_pending = false;
  c_exits_->inc();
  if (pcb->home != self_) c_forwarded_->inc();
  if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
    tr.instant("proc", "exit", self_, static_cast<std::int64_t>(pcb->pid),
               {{"status", std::to_string(status)}});

  // Release descriptors (server refs drop when the last local ref closes).
  std::vector<fs::StreamPtr> to_close;
  for (auto& [fd, s] : pcb->fds) {
    if (--s->local_refs == 0) to_close.push_back(s);
  }
  pcb->fds.clear();
  for (auto& s : to_close) host_.fs().close(s, [](Status) {});

  const Pid pid = pcb->pid;
  auto finish_exit = [this, pid, status] {
    auto it = procs_.find(pid);
    PcbPtr p = it == procs_.end() ? nullptr : it->second;
    if (p) {
      p->state = ProcState::kDead;
      procs_.erase(it);
    }
    const HostId home = pid_home(pid);
    if (home == self_) {
      home_exit(pid, status);
    } else {
      auto body = std::make_shared<ExitNotifyReq>();
      body->pid = pid;
      body->status = status;
      host_.rpc().call(home, ServiceId::kProc,
                       static_cast<int>(ProcOp::kExitNotify), body,
                       [](util::Result<Reply>) {});
    }
  };

  if (pcb->space) {
    vm::SpacePtr space = std::move(pcb->space);
    pcb->space = nullptr;
    host_.vm().destroy_space(std::move(space),
                             [finish_exit](Status) { finish_exit(); });
  } else {
    finish_exit();
  }
}

void ProcTable::do_wait(const PcbPtr& pcb) {
  const Pid pid = pcb->pid;
  auto apply = [this, pid](const WaitRep& rep) {
    auto p = find(pid);
    if (!p) return;
    if (rep.found) {
      p->view.rv = static_cast<std::int64_t>(rep.child);
      p->view.aux = rep.status;
      finish_action(p);
    } else if (rep.no_children) {
      p->view.status = Status(Err::kChild, "no children");
      finish_action(p);
    } else {
      p->blocked_in_wait = true;
      p->state = ProcState::kBlocked;
      // Parked until a WaitNotify arrives (possibly on another host if the
      // process migrates while waiting).
    }
  };

  if (pcb->home == self_) {
    apply(home_wait(pcb->pid, self_));
    return;
  }
  c_forwarded_->inc();
  auto body = std::make_shared<WaitReq>();
  body->parent = pcb->pid;
  body->waiter_host = self_;
  host_.rpc().call(pcb->home, ServiceId::kProc,
                   static_cast<int>(ProcOp::kWait), body,
                   [this, pid, apply](util::Result<Reply> r) {
                     auto p = find(pid);
                     if (!p) return;
                     if (!r.is_ok() || !r->status.is_ok()) {
                       p->view.status = r.is_ok() ? r->status : r.status();
                       return finish_action(p);
                     }
                     auto rep = rpc::body_cast<WaitRep>(r->body);
                     SPRITE_CHECK(rep != nullptr);
                     apply(*rep);
                   });
}

void ProcTable::do_kill(const PcbPtr& pcb, const SysKill& a) {
  const HostId target_home = pid_home(a.pid);
  if (target_home != self_) c_forwarded_->inc();
  auto body = std::make_shared<SignalReq>();
  body->pid = a.pid;
  body->sig = a.sig;
  const Pid pid = pcb->pid;
  host_.rpc().call(target_home, ServiceId::kProc,
                   static_cast<int>(ProcOp::kSignal), body,
                   [this, pid](util::Result<Reply> r) {
                     auto p = find(pid);
                     if (!p) return;
                     p->view.status = r.is_ok() ? r->status : r.status();
                     finish_action(p);
                   });
}

void ProcTable::do_get_host_name(const PcbPtr& pcb) {
  if (pcb->home == self_) {
    pcb->view.text = host_.name();
    return finish_action(pcb);
  }
  // Forwarded home: the process must appear to run on its home machine.
  c_forwarded_->inc();
  const Pid pid = pcb->pid;
  host_.rpc().call(pcb->home, ServiceId::kProc,
                   static_cast<int>(ProcOp::kGetHostName), nullptr,
                   [this, pid](util::Result<Reply> r) {
                     auto p = find(pid);
                     if (!p) return;
                     if (!r.is_ok() || !r->status.is_ok()) {
                       p->view.status = r.is_ok() ? r->status : r.status();
                     } else {
                       auto rep = rpc::body_cast<HostNameRep>(r->body);
                       SPRITE_CHECK(rep != nullptr);
                       p->view.text = rep->name;
                     }
                     finish_action(p);
                   });
}

void ProcTable::do_migrate_self(const PcbPtr& pcb, const SysMigrateSelf& a) {
  // Per the dispatch table, the migrate call is forwarded home first: the
  // home machine validates the process and records intent.
  if (pcb->home != self_) c_forwarded_->inc();
  auto body = std::make_shared<MigrateRequestReq>();
  body->pid = pcb->pid;
  body->target = a.target;
  const Pid pid = pcb->pid;
  host_.rpc().call(
      pcb->home, ServiceId::kProc, static_cast<int>(ProcOp::kMigrateRequest),
      body, [this, pid, a](util::Result<Reply> r) {
        auto p = find(pid);
        if (!p) return;
        if (!r.is_ok() || !r->status.is_ok()) {
          p->view.status = r.is_ok() ? r->status : r.status();
          return finish_action(p);
        }
        if (a.at_exec) {
          // Deferred: the coming exec builds the image on the target.
          p->migrate_on_exec = true;
          p->migrate_target = a.target;
          return finish_action(p);
        }
        if (migrator_ == nullptr) {
          p->view.status = Status(Err::kNotSupported, "no migration module");
          return finish_action(p);
        }
        // Immediate migration: this kernel call completes by resuming the
        // process on the target host.
        p->migrate_syscall_pending = true;
        migrator_->migrate(p, a.target, [this, pid](Status s) {
          if (s.is_ok()) return;
          auto p = find(pid);
          if (!p) return;
          p->migrate_syscall_pending = false;
          p->view.status = s;  // the program sees the failure and continues
          p->state = ProcState::kRunnable;
          finish_action(p);
        });
      });
}

// ---------------------------------------------------------------------------
// Migration hooks
// ---------------------------------------------------------------------------

void ProcTable::freeze(const PcbPtr& pcb, std::function<void()> cb) {
  SPRITE_CHECK(owns(pcb));
  if (pcb->state == ProcState::kFrozen) {
    cb();
    return;
  }
  // A process inside the migrate-self kernel call is by definition at a safe
  // point: the call completes on the target.
  if (pcb->migrate_syscall_pending) {
    pcb->migrate_syscall_pending = false;
    pcb->state = ProcState::kFrozen;
    cb();
    return;
  }
  // Computing: preempt and carry the unserved burst. The served fraction
  // was burned HERE — credit it now, or it would vanish from cpu_used (the
  // resumed job on the target only accounts the remainder).
  if (pcb->cpu_job != sim::kInvalidCpuJob) {
    const Time unserved = host_.cpu().cancel(pcb->cpu_job);
    const Time served = pcb->remaining_compute - unserved;
    if (served > Time::zero()) {
      pcb->cpu_used += served;
      if (pcb->foreign()) c_foreign_cpu_us_->inc(served.us());
    }
    pcb->remaining_compute = unserved;
    pcb->cpu_job = sim::kInvalidCpuJob;
    pcb->state = ProcState::kFrozen;
    cb();
    return;
  }
  // Sleeping: cancel the timer and carry the remaining sleep.
  if (pcb->paused) {
    pcb->pause_event.cancel();
    pcb->paused = false;
    const Time now = host_.cluster().sim().now();
    pcb->pause_remaining = pcb->pause_deadline > now
                               ? pcb->pause_deadline - now
                               : Time::zero();
    pcb->state = ProcState::kFrozen;
    cb();
    return;
  }
  // Parked in wait(): safe to freeze; the WaitNotify will chase the process
  // to its new host via the home record.
  if (pcb->blocked_in_wait) {
    pcb->state = ProcState::kFrozen;
    cb();
    return;
  }
  // Mid-kernel-call: freeze at the next action boundary.
  pcb->freeze_waiter = std::move(cb);
}

void ProcTable::remove(Pid pid) {
  procs_.erase(pid);
  if (restarter_) restarter_->note_departed(pid);
}

void ProcTable::home_crash_exit(Pid pid) { home_exit(pid, kHostCrashExitStatus); }

void ProcTable::install_and_resume(const PcbPtr& pcb) {
  pcb->current = self_;
  procs_[pcb->pid] = pcb;
  // Forwarding comparator: back home, the parked descriptor table is
  // reattached and file calls run directly again.
  if (pcb->forward_file_calls && pcb->home == self_)
    restore_parked_streams(pcb);
  if (pcb->blocked_in_wait) {
    pcb->state = ProcState::kBlocked;
    return;  // resumed by WaitNotify
  }
  if (pcb->pause_remaining > Time::zero()) {
    const Pid pid = pcb->pid;
    pcb->state = ProcState::kBlocked;
    pcb->paused = true;
    pcb->pause_deadline =
        host_.cluster().sim().now() + pcb->pause_remaining;
    pcb->pause_event = host_.cluster().sim().after(
        pcb->pause_remaining, "proc_pause", [this, pid] {
          auto p = find(pid);
          if (!p) return;
          p->paused = false;
          p->pause_remaining = Time::zero();
          finish_action(p);
        });
    return;
  }
  if (pcb->remaining_compute > Time::zero()) {
    const Pid pid = pcb->pid;
    pcb->state = ProcState::kRunnable;
    pcb->cpu_job = host_.cpu().submit(
        JobClass::kUser, pcb->remaining_compute,
        [this, pid, burst = pcb->remaining_compute] {
          auto p = find(pid);
          if (!p) return;
          p->cpu_job = sim::kInvalidCpuJob;
          p->remaining_compute = Time::zero();
          p->cpu_used += burst;
          if (p->foreign()) c_foreign_cpu_us_->inc(burst.us());
          finish_action(p);
        });
    return;
  }
  pcb->state = ProcState::kRunnable;
  continue_process(pcb);
}

// ---------------------------------------------------------------------------
// Crash support
// ---------------------------------------------------------------------------

void ProcTable::crash_reset() {
  for (auto& [pid, p] : procs_) {
    if (p->paused) p->pause_event.cancel();
    p->freeze_waiter = nullptr;
    p->cpu_job = sim::kInvalidCpuJob;  // the CPU queues are wiped separately
    p->state = ProcState::kDead;
    p->fds.clear();  // stream state dies with the host's FS client
    p->space = nullptr;
  }
  procs_.clear();
  // Home records die too. Foreign processes born here that run elsewhere
  // are reaped by their current host's peer_crashed; waiters for them lived
  // in this kernel and are gone with it.
  home_records_.clear();
  // next_seq_ is deliberately kept: pids allocated after the reboot must
  // not collide with pids that may still be referenced by survivors.
}

void ProcTable::peer_crashed(HostId peer) {
  // Foreign processes whose home machine died: nobody is left that knows
  // their pid, parent, or waiters — reap them silently.
  std::vector<PcbPtr> orphans;
  for (auto& [pid, p] : procs_)
    if (p->home == peer) orphans.push_back(p);
  for (auto& p : orphans) reap_on_peer_crash(p);

  // Home records of processes that were executing on the dead host: they
  // died with it. The checkpoint layer gets first claim — a restart from a
  // checkpoint image keeps the record alive under a new incarnation.
  // Otherwise home_exit unblocks waiters and fires exit observers with the
  // crash status.
  std::vector<Pid> died;
  for (auto& [pid, rec] : home_records_)
    if (rec.alive && rec.current == peer) died.push_back(pid);
  for (Pid pid : died) {
    if (restarter_ && restarter_->try_restart(pid, peer)) continue;
    home_exit(pid, kHostCrashExitStatus);
  }
}

void ProcTable::collect_peer_interest(std::vector<sim::HostId>& out) const {
  for (const auto& [pid, p] : procs_)
    if (p->home != self_) out.push_back(p->home);
  for (const auto& [pid, rec] : home_records_)
    if (rec.alive && rec.current != self_) out.push_back(rec.current);
}

void ProcTable::reap_stale_incarnation(Pid pid) {
  auto p = find(pid);
  if (!p) return;
  if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
    tr.instant("proc", "killed: stale incarnation", self_,
               static_cast<std::int64_t>(pid));
  // Same teardown as losing the home machine: release local resources and
  // do NOT notify the home — its record already belongs to the restarted
  // incarnation.
  reap_on_peer_crash(p);
}

void ProcTable::reap_on_peer_crash(const PcbPtr& pcb) {
  if (pcb->state == ProcState::kDead) return;
  // An outgoing migration of this process must abort before the PCB's space
  // and descriptors are torn down underneath its pipeline.
  if (migrator_) migrator_->note_process_reaped(pcb->pid);
  if (pcb->paused) {
    pcb->pause_event.cancel();
    pcb->paused = false;
  }
  if (pcb->cpu_job != sim::kInvalidCpuJob) {
    host_.cpu().cancel(pcb->cpu_job);
    pcb->cpu_job = sim::kInvalidCpuJob;
  }
  pcb->freeze_waiter = nullptr;
  pcb->blocked_in_wait = false;
  pcb->state = ProcState::kDead;
  c_peer_kills_->inc();
  if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
    tr.instant("proc", "killed: home crashed", self_,
               static_cast<std::int64_t>(pcb->pid));
  // Release descriptors: streams on surviving servers are closed properly so
  // their refcounts stay balanced; closes against the dead server fail
  // harmlessly after the RPC layer gives up.
  std::vector<fs::StreamPtr> to_close;
  for (auto& [fd, s] : pcb->fds)
    if (--s->local_refs == 0) to_close.push_back(s);
  pcb->fds.clear();
  for (auto& s : to_close) host_.fs().close(s, [](Status) {});
  if (pcb->space) {
    vm::SpacePtr space = std::move(pcb->space);
    host_.vm().destroy_space(std::move(space), [](Status) {});
  }
  procs_.erase(pcb->pid);
}

// ---------------------------------------------------------------------------
// Home-record operations
// ---------------------------------------------------------------------------

void ProcTable::forward_file_call(const PcbPtr& pcb,
                                  std::shared_ptr<FileCallReq> req) {
  c_forwarded_->inc();
  req->pid = pcb->pid;
  const Pid pid = pcb->pid;
  host_.rpc().call(
      pcb->home, ServiceId::kProc, static_cast<int>(ProcOp::kFileCall), req,
      [this, pid](util::Result<Reply> r) {
        auto p = find(pid);
        if (!p) return;
        if (!r.is_ok() || !r->status.is_ok()) {
          p->view.status = r.is_ok() ? r->status : r.status();
          return finish_action(p);
        }
        // Success replies without a body (close, fsync) carry no result.
        auto rep = rpc::body_cast<FileCallRep>(r->body);
        if (rep != nullptr) {
          p->view.rv = rep->rv;
          p->view.data = rep->data;
        }
        finish_action(p);
      });
}

void ProcTable::home_file_call(const FileCallReq& req,
                               std::function<void(Reply)> respond) {
  auto it = home_records_.find(req.pid);
  if (it == home_records_.end() || !it->second.alive)
    return respond(Reply{Status(Err::kSrch, "file call for dead pid"),
                         nullptr});
  HomeRecord& rec = it->second;
  const Pid pid = req.pid;

  auto reply_rv = [respond](std::int64_t rv) {
    auto rep = std::make_shared<FileCallRep>();
    rep->rv = rv;
    respond(Reply{Status::ok(), rep});
  };

  switch (req.op) {
    case FileCallOp::kOpen: {
      host_.fs().open(req.path, req.flags,
                      [this, pid, respond = std::move(respond)](
                          util::Result<fs::StreamPtr> r) {
                        if (!r.is_ok())
                          return respond(Reply{r.status(), nullptr});
                        auto it = home_records_.find(pid);
                        if (it == home_records_.end()) {
                          host_.fs().close(*r, [](Status) {});
                          return respond(
                              Reply{Status(Err::kSrch, "pid gone"), nullptr});
                        }
                        const int fd = it->second.stub_next_fd++;
                        it->second.resident_streams[fd] = *r;
                        auto rep = std::make_shared<FileCallRep>();
                        rep->rv = fd;
                        respond(Reply{Status::ok(), rep});
                      });
      return;
    }
    case FileCallOp::kClose: {
      auto sit = rec.resident_streams.find(req.fd);
      if (sit == rec.resident_streams.end())
        return respond(Reply{Status(Err::kBadF, "fwd close"), nullptr});
      fs::StreamPtr s = sit->second;
      rec.resident_streams.erase(sit);
      if (--s->local_refs > 0) return reply_rv(0);
      host_.fs().close(s, [respond = std::move(respond)](Status st) {
        respond(Reply{st, nullptr});
      });
      return;
    }
    case FileCallOp::kRead: {
      auto sit = rec.resident_streams.find(req.fd);
      if (sit == rec.resident_streams.end())
        return respond(Reply{Status(Err::kBadF, "fwd read"), nullptr});
      host_.fs().read(sit->second, req.len,
                      [respond = std::move(respond)](
                          util::Result<fs::Bytes> r) {
                        if (!r.is_ok())
                          return respond(Reply{r.status(), nullptr});
                        auto rep = std::make_shared<FileCallRep>();
                        rep->rv = static_cast<std::int64_t>(r->size());
                        rep->data = std::move(*r);
                        respond(Reply{Status::ok(), rep});
                      });
      return;
    }
    case FileCallOp::kWrite: {
      auto sit = rec.resident_streams.find(req.fd);
      if (sit == rec.resident_streams.end())
        return respond(Reply{Status(Err::kBadF, "fwd write"), nullptr});
      fs::Bytes data = req.data;
      if (data.empty() && req.len > 0)
        data.assign(static_cast<std::size_t>(req.len), 0);
      host_.fs().write(sit->second, std::move(data),
                       [reply_rv, respond](util::Result<std::int64_t> r) {
                         if (!r.is_ok())
                           return respond(Reply{r.status(), nullptr});
                         reply_rv(*r);
                       });
      return;
    }
    case FileCallOp::kSeek: {
      auto sit = rec.resident_streams.find(req.fd);
      if (sit == rec.resident_streams.end())
        return respond(Reply{Status(Err::kBadF, "fwd seek"), nullptr});
      const Status st = host_.fs().seek(sit->second, req.offset);
      if (!st.is_ok()) return respond(Reply{st, nullptr});
      return reply_rv(req.offset);
    }
    case FileCallOp::kFsync: {
      auto sit = rec.resident_streams.find(req.fd);
      if (sit == rec.resident_streams.end())
        return respond(Reply{Status(Err::kBadF, "fwd fsync"), nullptr});
      host_.fs().fsync(sit->second,
                       [respond = std::move(respond)](Status st) {
                         respond(Reply{st, nullptr});
                       });
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad file call"), nullptr});
}

void ProcTable::park_streams_at_home(const PcbPtr& pcb) {
  SPRITE_CHECK_MSG(pcb->home == self_, "parking requires the home host");
  auto it = home_records_.find(pcb->pid);
  SPRITE_CHECK(it != home_records_.end());
  it->second.resident_streams = std::move(pcb->fds);
  pcb->fds.clear();
  it->second.stub_next_fd = pcb->next_fd;
}

void ProcTable::restore_parked_streams(const PcbPtr& pcb) {
  SPRITE_CHECK_MSG(pcb->home == self_, "restore requires the home host");
  auto it = home_records_.find(pcb->pid);
  if (it == home_records_.end()) return;
  pcb->fds = std::move(it->second.resident_streams);
  it->second.resident_streams.clear();
  pcb->next_fd = std::max(pcb->next_fd, it->second.stub_next_fd);
  pcb->forward_file_calls = false;
}

Pid ProcTable::home_fork_child(Pid parent, HostId child_host) {
  const Pid child = make_pid(self_, next_seq_++);
  HomeRecord rec;
  rec.pid = child;
  rec.parent = parent;
  rec.current = child_host;
  home_records_.emplace(child, std::move(rec));
  auto pit = home_records_.find(parent);
  if (pit != home_records_.end()) pit->second.children.push_back(child);
  return child;
}

void ProcTable::home_exit(Pid pid, int status) {
  auto it = home_records_.find(pid);
  if (it == home_records_.end()) return;
  HomeRecord& rec = it->second;
  if (!rec.alive) return;
  rec.alive = false;
  rec.current = sim::kInvalidHost;
  rec.exit_status = status;
  // The checkpoint layer drops any chain it kept for this pid.
  if (restarter_) restarter_->note_home_exit(pid);
  // Release any streams parked here by the forwarding comparator.
  for (auto& [fd, s] : rec.resident_streams) {
    if (--s->local_refs == 0) host_.fs().close(s, [](Status) {});
  }
  rec.resident_streams.clear();
  auto observers = std::move(rec.observers);
  rec.observers.clear();
  for (auto& obs : observers) obs(status);

  // Orphan the children (their eventual exits produce no zombies).
  for (Pid c : rec.children) {
    auto cit = home_records_.find(c);
    if (cit != home_records_.end()) cit->second.parent = kInvalidPid;
  }
  rec.children.clear();

  // Tell the parent.
  const Pid parent = rec.parent;
  if (parent == kInvalidPid) return;
  auto pit = home_records_.find(parent);
  if (pit == home_records_.end() || !pit->second.alive) return;
  HomeRecord& prec = pit->second;
  prec.children.erase(
      std::remove(prec.children.begin(), prec.children.end(), pid),
      prec.children.end());
  if (prec.waiter_registered) {
    prec.waiter_registered = false;
    auto body = std::make_shared<WaitNotifyReq>();
    body->parent = parent;
    body->child = pid;
    body->status = status;
    // Deliver to wherever the parent currently runs.
    host_.rpc().call(prec.current, ServiceId::kProc,
                     static_cast<int>(ProcOp::kWaitNotify), body,
                     [](util::Result<Reply>) {});
  } else {
    prec.zombies.emplace_back(pid, status);
  }
}

WaitRep ProcTable::home_wait(Pid parent, HostId waiter_host) {
  WaitRep rep;
  auto it = home_records_.find(parent);
  if (it == home_records_.end()) {
    rep.no_children = true;
    return rep;
  }
  HomeRecord& rec = it->second;
  if (!rec.zombies.empty()) {
    rep.found = true;
    rep.child = rec.zombies.front().first;
    rep.status = rec.zombies.front().second;
    rec.zombies.pop_front();
    return rep;
  }
  if (rec.children.empty()) {
    rep.no_children = true;
    return rep;
  }
  rec.waiter_registered = true;
  rec.waiter_host = waiter_host;
  return rep;
}

util::Status ProcTable::home_signal(Pid pid, int sig) {
  auto it = home_records_.find(pid);
  if (it == home_records_.end() || !it->second.alive)
    return Status(Err::kSrch, "no such process");
  const HostId where = it->second.current;
  if (where == self_) {
    deliver_signal(pid, sig);
    return Status::ok();
  }
  auto body = std::make_shared<SignalReq>();
  body->pid = pid;
  body->sig = sig;
  host_.rpc().call(where, ServiceId::kProc,
                   static_cast<int>(ProcOp::kSignalDeliver), body,
                   [](util::Result<Reply>) {});
  return Status::ok();
}

void ProcTable::deliver_signal(Pid pid, int sig) {
  auto p = find(pid);
  if (!p) {
    // The process moved between routing and delivery; re-route via home.
    const HostId home = pid_home(pid);
    if (home == self_) return;  // record said here but it is gone: drop
    auto body = std::make_shared<SignalReq>();
    body->pid = pid;
    body->sig = sig;
    host_.rpc().call(home, ServiceId::kProc,
                     static_cast<int>(ProcOp::kSignal), body,
                     [](util::Result<Reply>) {});
    return;
  }
  p->kill_pending = true;
  p->kill_sig = sig;
  if (p->state == ProcState::kFrozen) return;  // handled after migration
  if (p->blocked_in_wait) {
    p->blocked_in_wait = false;
    do_exit(p, 128 + sig);
    return;
  }
  if (p->paused) {
    p->pause_event.cancel();
    p->paused = false;
    do_exit(p, 128 + sig);
    return;
  }
  if (p->cpu_job != sim::kInvalidCpuJob) {
    host_.cpu().cancel(p->cpu_job);
    p->cpu_job = sim::kInvalidCpuJob;
    do_exit(p, 128 + sig);
    return;
  }
  // Mid-kernel-call: the dispatcher's kill_pending check fires at the
  // action boundary.
}

void ProcTable::deliver_wait_notify(Pid parent, Pid child, int status) {
  auto p = find(parent);
  if (!p || !p->blocked_in_wait) return;
  p->blocked_in_wait = false;
  p->view.rv = static_cast<std::int64_t>(child);
  p->view.aux = status;
  finish_action(p);
}

void ProcTable::handle_proc_rpc(HostId, const Request& req,
                                std::function<void(Reply)> respond) {
  switch (static_cast<ProcOp>(req.op)) {
    case ProcOp::kForkChild: {
      auto body = rpc::body_cast<ForkChildReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<ForkChildRep>();
      rep->child = home_fork_child(body->parent, body->child_host);
      respond(Reply{Status::ok(), rep});
      return;
    }
    case ProcOp::kExitNotify: {
      auto body = rpc::body_cast<ExitNotifyReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      home_exit(body->pid, body->status);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case ProcOp::kWait: {
      auto body = rpc::body_cast<WaitReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto rep = std::make_shared<WaitRep>(
          home_wait(body->parent, body->waiter_host));
      respond(Reply{Status::ok(), rep});
      return;
    }
    case ProcOp::kWaitNotify: {
      auto body = rpc::body_cast<WaitNotifyReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      deliver_wait_notify(body->parent, body->child, body->status);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case ProcOp::kSignal: {
      auto body = rpc::body_cast<SignalReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      respond(Reply{home_signal(body->pid, body->sig), nullptr});
      return;
    }
    case ProcOp::kSignalDeliver: {
      auto body = rpc::body_cast<SignalReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      deliver_signal(body->pid, body->sig);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case ProcOp::kUpdateLocation: {
      auto body = rpc::body_cast<UpdateLocationReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      // Exactly-one-incarnation guard: a copy carrying an older epoch than
      // the home record lost a race with a checkpoint restart. Refusing the
      // update makes the stale copy kill itself instead of installing.
      if (body->incarnation < home_record_incarnation(body->pid)) {
        respond(Reply{Status(Err::kStale, "superseded incarnation"), nullptr});
        return;
      }
      set_home_record_location(body->pid, body->host);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case ProcOp::kGetHostName: {
      auto rep = std::make_shared<HostNameRep>();
      rep->name = host_.name();
      respond(Reply{Status::ok(), rep});
      return;
    }
    case ProcOp::kFileCall: {
      auto body = rpc::body_cast<FileCallReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      home_file_call(*body, std::move(respond));
      return;
    }
    case ProcOp::kMigrateRequest: {
      auto body = rpc::body_cast<MigrateRequestReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      auto it = home_records_.find(body->pid);
      if (it == home_records_.end() || !it->second.alive) {
        respond(Reply{Status(Err::kSrch, "migrate request"), nullptr});
      } else {
        respond(Reply{Status::ok(), nullptr});
      }
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad proc op"), nullptr});
}

}  // namespace sprite::proc
