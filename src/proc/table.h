// ProcTable: one host's process management.
//
// Owns the PCBs of processes currently executing on this host (including
// foreign, i.e. migrated-in, processes) and the *home records* of processes
// whose home is this host wherever they currently execute. Home records are
// the state that gives Sprite its transparency: process-family operations
// (fork pid allocation, wait, exit, signal routing) always consult the home
// machine, so a process's pid, parent, and children look the same no matter
// where it runs.
//
// The kernel-call dispatcher implements the Appendix-A table in
// proc/syscalls.h: transferred-state calls run here against migrated state,
// forward-home calls turn into kProc RPCs, and home-involved calls do their
// home bookkeeping as a side effect.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "proc/pcb.h"
#include "proc/program.h"
#include "proc/syscalls.h"
#include "proc/wire.h"
#include "rpc/rpc.h"
#include "util/status.h"

namespace sprite::kern {
class Host;
}

namespace sprite::proc {

// Exit status reported for processes that died because a host crashed
// (128 + SIGKILL, the convention a kill -9 would produce).
inline constexpr int kHostCrashExitStatus = 137;

// Interface the checkpoint module implements (same decoupling pattern as
// MigratorIface): lets the home machine's process table offer a dead
// process to the checkpoint layer before declaring it lost.
class RestarterIface {
 public:
  virtual ~RestarterIface() = default;
  // A home record's process was executing on `dead_host` when the monitor
  // declared it down. Return true to take ownership: a checkpoint restart
  // is under way and the record must stay alive; false falls back to the
  // crash-exit path (kHostCrashExitStatus).
  virtual bool try_restart(Pid pid, sim::HostId dead_host) = 0;
  // The home record was retired (normal exit, kill, or crash-exit): any
  // checkpoint chain for the pid is garbage from now on.
  virtual void note_home_exit(Pid /*pid*/) {}
  // The PCB left this host (migrated away or departed): local chain
  // knowledge is stale — the next hosting kernel re-reads the image head.
  virtual void note_departed(Pid /*pid*/) {}
};

// Interface the migration module implements; keeps proc/ decoupled from
// migration/ (which depends on proc/).
class MigratorIface {
 public:
  virtual ~MigratorIface() = default;
  // Moves `pcb` (resident on this host, already eligible) to `target`.
  virtual void migrate(const PcbPtr& pcb, sim::HostId target,
                       std::function<void(util::Status)> cb) = 0;
  // The process table destroyed `pid` outside the migration protocol (its
  // home machine crashed): any outgoing migration of it must abort without
  // touching the now-dead PCB.
  virtual void note_process_reaped(Pid /*pid*/) {}
};

class ProcTable {
 public:
  using SpawnCb = std::function<void(util::Result<Pid>)>;

  explicit ProcTable(kern::Host& host);

  // Registers the kProc RPC service.
  void register_services();

  // The migration module installs itself here (may stay null in tests that
  // exercise proc/ alone; migrate-self then fails kNotSupported).
  void set_migrator(MigratorIface* m) { migrator_ = m; }
  // The checkpoint module installs itself here (optional; without it a dead
  // host's processes are simply declared exited).
  void set_restarter(RestarterIface* r) { restarter_ = r; }

  // ---- Process creation and observation ----
  // Starts a fresh process on this host (its home). The executable must be
  // registered with the Cluster and exist in the file system.
  void spawn(const std::string& exe_path, std::vector<std::string> args,
             SpawnCb cb);

  // Fires `cb(exit_status)` when `pid` exits. Must be called on the pid's
  // home host. Fires immediately if already exited.
  void notify_on_exit(Pid pid, std::function<void(int)> cb);

  // ---- Introspection ----
  PcbPtr find(Pid pid) const;
  std::vector<PcbPtr> local_processes() const;
  std::vector<PcbPtr> foreign_processes() const;  // migrated-in
  bool home_record_alive(Pid pid) const;
  sim::HostId home_record_location(Pid pid) const;
  std::int64_t home_record_incarnation(Pid pid) const;

  // ---- Hooks for the migration module ----
  // Suspends the process at its next safe point (immediately if computing —
  // the remaining burst is carried — or when the in-flight kernel call
  // completes). cb fires once the process is frozen.
  void freeze(const PcbPtr& pcb, std::function<void()> cb);
  // Removes a (frozen) pcb from this host after its state has been shipped.
  void remove(Pid pid);
  // Installs a migrated-in pcb and resumes it. The pcb must have its
  // program/space/fds already reconstructed; `current` is set here.
  void install_and_resume(const PcbPtr& pcb);
  // Updates the home record's location field (local form; the RPC form is
  // ProcOp::kUpdateLocation).
  void set_home_record_location(Pid pid, sim::HostId where);

  // ---- Hooks for the checkpoint module (this host as home machine) ----
  // Advances the home record's incarnation epoch and returns the new value.
  // Called before a checkpoint restart: only a copy carrying the new epoch
  // may claim the process's location from now on (older ones get kStale).
  util::Result<std::int64_t> bump_incarnation(Pid pid);
  // Destroys a local PCB that the home has superseded with a restarted
  // incarnation (detected after a partition heals). Local resources are
  // released; the home is NOT notified — its record already moved on.
  void reap_stale_incarnation(Pid pid);
  // Retires a home record with the crash exit status (checkpoint recovery
  // gave up on a restart: the process is as dead as if never checkpointed).
  void home_crash_exit(Pid pid);

  // Continues a process after externally-managed state changes (used by the
  // migration module after exec-time image construction).
  void resume(const PcbPtr& pcb);

  // ---- Crash support ----
  // This host crashed: every PCB and home record dies with it. No RPCs are
  // issued (the host is off the network); pending sleep timers are cancelled
  // so they cannot fire into the rebooted kernel. Exit observers registered
  // on home records are dropped, not fired — their closures belonged to the
  // dead kernel.
  void crash_reset();
  // A peer crashed. Foreign processes whose home machine died are reaped
  // silently (nobody is left that knows their pid); home records of
  // processes that were executing on the dead host are marked exited with
  // kHostCrashExitStatus, which unblocks waiters and fires exit observers.
  void peer_crashed(sim::HostId peer);
  // Peers whose death this host must detect (host-monitor interest): the
  // home machines of foreign processes running here, and the hosts where
  // processes homed here currently execute.
  void collect_peer_interest(std::vector<sim::HostId>& out) const;

  // Delivers a signal to a process resident on this host (re-routed via the
  // home machine if it moved). Public so the migration module can kill
  // processes whose copy-on-reference page source crashed.
  void deliver_signal(Pid pid, int sig);

  // ---- Remote-UNIX comparator (thesis §4.3.1 design alternative) ----
  // Moves the process's descriptor table into its home record so that file
  // kernel calls issued remotely are forwarded here instead of running
  // against transferred state. Must be called on the home host.
  void park_streams_at_home(const PcbPtr& pcb);
  // Inverse, when the process returns home: direct access resumes.
  void restore_parked_streams(const PcbPtr& pcb);

 private:
  struct HomeRecord {
    Pid pid = kInvalidPid;
    Pid parent = kInvalidPid;
    sim::HostId current = sim::kInvalidHost;
    bool alive = true;
    int exit_status = 0;
    // Incarnation epoch (see Pcb::incarnation); the home's copy is the
    // authority, bumped by checkpoint restarts.
    std::int64_t incarnation = 0;
    std::vector<Pid> children;                   // live children
    std::deque<std::pair<Pid, int>> zombies;     // exited, unreaped
    bool waiter_registered = false;
    sim::HostId waiter_host = sim::kInvalidHost;
    std::vector<std::function<void(int)>> observers;
    // Remote-UNIX comparator: streams kept at home while the process runs
    // remotely with file-call forwarding.
    std::map<int, fs::StreamPtr> resident_streams;
    int stub_next_fd = 3;
  };

  // ---- Dispatch loop ----
  void continue_process(const PcbPtr& pcb);
  void dispatch(const PcbPtr& pcb, Action action);
  // Charges local kernel-call overhead then runs `fn`.
  void syscall_enter(const PcbPtr& pcb, std::function<void()> fn);
  // Marks the action result applied and schedules the next dispatch.
  void finish_action(const PcbPtr& pcb);
  bool owns(const PcbPtr& pcb) const;

  // ---- Individual kernel calls ----
  void do_open(const PcbPtr& pcb, const SysOpen& a);
  void do_close(const PcbPtr& pcb, const SysClose& a);
  void do_read(const PcbPtr& pcb, const SysRead& a);
  void do_write(const PcbPtr& pcb, const SysWrite& a);
  void do_seek(const PcbPtr& pcb, const SysSeek& a);
  void do_fsync(const PcbPtr& pcb, const SysFsync& a);
  void do_dup(const PcbPtr& pcb, const SysDup& a);
  void do_ftruncate(const PcbPtr& pcb, const SysFtruncate& a);
  void do_unlink(const PcbPtr& pcb, const SysUnlink& a);
  void do_mkdir(const PcbPtr& pcb, const SysMkdir& a);
  void do_stat(const PcbPtr& pcb, const SysStat& a);
  void do_pdev_call(const PcbPtr& pcb, const SysPdevCall& a);
  void do_fork(const PcbPtr& pcb);
  void do_pipe(const PcbPtr& pcb);
  void do_exec(const PcbPtr& pcb, const SysExec& a);
  void do_exit(const PcbPtr& pcb, int status);
  void do_wait(const PcbPtr& pcb);
  void do_kill(const PcbPtr& pcb, const SysKill& a);
  void do_get_host_name(const PcbPtr& pcb);
  void do_migrate_self(const PcbPtr& pcb, const SysMigrateSelf& a);

  // ---- Home-record operations (this host as home machine) ----
  void handle_proc_rpc(sim::HostId src, const rpc::Request& req,
                       std::function<void(rpc::Reply)> respond);
  // Forwarded-file-call plumbing (Remote-UNIX comparator).
  void forward_file_call(const PcbPtr& pcb, std::shared_ptr<FileCallReq> req);
  void home_file_call(const FileCallReq& req,
                      std::function<void(rpc::Reply)> respond);
  Pid home_fork_child(Pid parent, sim::HostId child_host);
  void home_exit(Pid pid, int status);
  WaitRep home_wait(Pid parent, sim::HostId waiter_host);
  util::Status home_signal(Pid pid, int sig);
  // Delivery on the current host.
  void deliver_wait_notify(Pid parent, Pid child, int status);
  // Destroys a foreign PCB whose home machine crashed: no exit notification
  // is sent (the home is gone), but local resources are released.
  void reap_on_peer_crash(const PcbPtr& pcb);

  kern::Host& host_;
  sim::HostId self_;
  std::map<Pid, PcbPtr> procs_;
  std::map<Pid, HomeRecord> home_records_;
  std::uint32_t next_seq_ = 1;
  MigratorIface* migrator_ = nullptr;
  RestarterIface* restarter_ = nullptr;

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_spawns_;
  trace::Counter* c_forks_;
  trace::Counter* c_execs_;
  trace::Counter* c_exits_;
  trace::Counter* c_syscalls_;
  trace::Counter* c_forwarded_;
  // Foreign processes killed because their home machine crashed — distinct
  // from owner-return evictions (mig.eviction.completed), which move the
  // process home alive.
  trace::Counter* c_peer_kills_;
  // CPU time this host delivered to foreign (migrated-in) processes — the
  // numerator of the paper's "utilization recovered by migration". Credited
  // where the cycles were actually burned, including the served fraction of
  // a burst preempted by a further migration.
  trace::Counter* c_foreign_cpu_us_;
};

}  // namespace sprite::proc
