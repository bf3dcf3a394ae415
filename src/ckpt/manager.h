// CkptManager: per-kernel checkpoint/restart (the src/ckpt/ subsystem).
//
// Migration moves a *live* process between kernels; checkpointing makes the
// process's state *durable* so it survives the kernel it runs on. A capture
// freezes the process at a safe point (the same safe points migration
// uses), flushes its open files' dirty cached blocks (output-commit: bytes
// the program believes written must not die with this host's cache), and
// writes a versioned image to the shared file system:
//
//   - a full base captures every heap/stack page that differs from
//     zero-fill; subsequent *incremental* captures write only the pages
//     dirtied since the previous capture, using the VM's checkpoint-dirty
//     plane (vm::SegmentState::ckpt_dirty), and chain back to the base;
//   - after Costs::ckpt_chain_max increments the next capture forces a
//     fresh base and compacts (unlinks) the superseded chain;
//   - the head-file rewrite is the commit point (see ckpt/image.h), so a
//     crash mid-capture never loses the previous committed chain.
//
// Restart rebuilds the process on *any* host: the PCB is reconstructed
// under the home machine's pid authority, streams are reopened by recorded
// pathname (the same helper staleness recovery uses), and captured pages
// are staged from the image into fresh swap backing so the process
// demand-pages them exactly as after a migration-by-flush. The restored
// copy runs under a fresh *incarnation epoch* granted by the home
// (ProcTable::bump_incarnation); any older copy that reappears — a
// late-thawing migration, a partitioned survivor — fails kStale when it
// tries to claim the process's location, and is reaped. This is the
// "exactly one incarnation" invariant.
//
// Two policies drive captures and restarts:
//   - the per-host autocheckpoint daemon captures eligible processes every
//     ckpt_auto_interval, or sooner once ckpt_dirty_threshold_pages have
//     been dirtied;
//   - home-node crash recovery: when a host's monitor declares a peer down,
//     the home's process table offers each lost process to this module
//     (proc::RestarterIface) before declaring it exited; registered
//     checkpoints are restarted on a surviving host instead.
// Additionally the eviction fast path (checkpoint_and_depart) lets a
// returning workstation owner get rid of foreign processes at local-write
// cost: commit an (incremental) image, hand the process to its home by
// reference, and drop the frozen copy.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckpt/image.h"
#include "fs/client.h"
#include "proc/pcb.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "sim/costs.h"
#include "sim/simulator.h"
#include "util/status.h"
#include "vm/vm.h"

namespace sprite::kern {
class Host;
}

namespace sprite::ckpt {

// Capture/restart progress points, observable by fault-injection tests
// (same pattern as mig::MigStage): crash the host between any two of these
// and the chain must still restore.
enum class CkptStage : int {
  kFrozen = 0,      // process suspended at a safe point
  kFlushed,         // open files' dirty cached blocks committed
  kPagesWritten,    // pages.<seq> image written
  kMetaWritten,     // meta.<seq> written (not yet committed)
  kCommitted,       // head rewritten: this capture is now the restart point
  kCompacted,       // superseded chain unlinked
  kRegistered,      // home machine recorded the image (fires on the home)
  kRestartRead,     // restart: head + chain metas read back
  kRestartStaged,   // restart: pages staged into fresh swap backing
  kRestartResumed,  // restart: location claimed, process running again
};
const char* ckpt_stage_name(CkptStage s);

class CkptManager : public proc::RestarterIface {
 public:
  using StatusCb = std::function<void(util::Status)>;
  using StageObserver = std::function<void(proc::Pid, CkptStage)>;

  explicit CkptManager(kern::Host& host);

  // Registers the kCkpt RPC service.
  void register_services();

  // ---- Capture (process resident on this host) ----
  // Why a process cannot be checkpointed, or kOk: needs a checkpointable
  // program, transferred (not forwarded) file state, no copy-on-reference
  // residue, and every stream recoverable by path.
  util::Status eligible(const proc::Pcb& pcb) const;
  // Freezes, captures (incremental when a chain exists, full base
  // otherwise), commits, registers with the home, and thaws. cb(kOk) fires
  // once the head commit is durable; registration and compaction complete
  // asynchronously after it.
  void checkpoint(const proc::PcbPtr& pcb, StatusCb cb);

  // ---- Restart (this host rebuilds the process) ----
  // Rebuilds `pid` from its latest committed image under `incarnation`
  // (granted by the home's bump_incarnation) and resumes it here. Used by
  // the kRestart RPC handler, by home-local recovery, and by tests.
  void restore(proc::Pid pid, std::int64_t incarnation, StatusCb cb);

  // ---- Eviction fast path (this host wants a foreign process gone) ----
  // Capture keeping the process frozen, ask the home to restart it
  // elsewhere from the image, and drop the local copy. On failure the
  // process is thawed and cb gets the error (caller falls back to
  // migration).
  void checkpoint_and_depart(const proc::PcbPtr& pcb, StatusCb cb);
  // Opt-in: when set, MigrationManager::evict_all_foreign tries this path
  // before a full migration home. Off by default.
  void set_evict_via_checkpoint(bool on) { evict_via_ckpt_ = on; }
  bool evict_via_checkpoint() const { return evict_via_ckpt_; }

  // ---- Autocheckpoint daemon (per-host policy) ----
  // Off by default; when enabled, every eligible resident process is
  // captured once `interval` has passed since its last capture, or sooner
  // once `dirty_threshold` pages accumulate in the checkpoint-dirty plane.
  void enable_autocheckpoint(bool on);
  void set_auto_policy(sim::Time interval, std::int64_t dirty_threshold);

  // ---- Home-node crash recovery policy ----
  // On by default (inert until a checkpoint is registered): a down verdict
  // for a host running a checkpointed process homed here triggers a restart
  // on a surviving host instead of the crash-exit path.
  void set_recovery(bool on) { recovery_enabled_ = on; }
  // Pins the host recovery restarts onto (tests want determinism);
  // kInvalidHost restores the default policy (lowest up workstation, else
  // this host).
  void set_restart_target(sim::HostId h) { restart_target_ = h; }

  // proc::RestarterIface (called by this host's process table).
  bool try_restart(proc::Pid pid, sim::HostId dead_host) override;
  void note_home_exit(proc::Pid pid) override;
  void note_departed(proc::Pid pid) override;

  // ---- Introspection (tests, benches) ----
  bool home_has_checkpoint(proc::Pid pid) const {
    return home_table_.count(pid) != 0;
  }
  // Committed captures currently chained for a process hosted here (0 when
  // unknown; the first capture after a migration re-reads the head).
  std::int64_t chain_length(proc::Pid pid) const;
  std::int64_t last_seq(proc::Pid pid) const;
  std::size_t active_ops() const {
    return active_captures_.size() + active_restores_.size();
  }

  void add_stage_observer(StageObserver fn) {
    stage_observers_.push_back(std::move(fn));
  }

  // ---- Crash / boot support ----
  void crash_reset();
  void boot();
  void collect_peer_interest(std::vector<sim::HostId>& out) const;

 private:
  // One in-flight capture. Closures hold the token and revalidate through
  // captures_ so a crash (which clears the map) turns them into no-ops.
  struct Capture {
    proc::PcbPtr pcb;
    StatusCb cb;
    bool keep_frozen = false;
    bool full = false;
    std::int64_t seq = 0;
    // Highest seq known used when the chain list itself is unreadable
    // (collision avoidance only; nothing to compact).
    std::int64_t seq_floor = 0;
    std::vector<std::int64_t> chain;      // chain including this capture
    std::vector<std::int64_t> compacted;  // seqs to unlink after commit
    CkptMeta meta;
    sim::Time t0;
    trace::SpanId span = 0;
  };
  // One restore stage op: `count` pages into `seg` at `dest_first`, read
  // from capture `seq`'s pages file starting at capture-order index
  // `src_first`.
  struct StageOp {
    vm::Segment seg = vm::Segment::kHeap;
    std::int64_t dest_first = 0;
    std::int64_t count = 0;
    std::int64_t seq = 0;
    std::int64_t src_first = 0;
  };
  // One in-flight restore.
  struct Restore {
    proc::Pid pid = proc::kInvalidPid;
    std::int64_t incarnation = 0;
    StatusCb cb;
    // Committed-head candidates from the two head slots, newest first. The
    // restore tries head_cands[cand_i]; an unreadable chain meta advances
    // cand_i (falling back to the previous committed image) instead of
    // failing outright.
    std::vector<std::int64_t> head_cands;
    std::size_t cand_i = 0;
    std::int64_t head_seq = 0;
    std::map<std::int64_t, CkptMeta> metas;  // chain seq -> meta
    std::vector<std::int64_t> to_read;       // chain metas still unread
    std::size_t read_i = 0;
    proc::PcbPtr pcb;
    vm::SpacePtr space;
    std::vector<StageOp> ops;
    std::size_t op_i = 0;
    std::map<std::int64_t, fs::StreamPtr> imgs;  // open pages files by seq
    std::size_t stream_i = 0;
    std::int64_t staged_pages = 0;
    sim::Time t0;
    trace::SpanId span = 0;
  };
  // Chain knowledge for a process hosted here. Rebuilt from the head file
  // when missing (fresh arrival after a migration).
  struct Chain {
    std::vector<std::int64_t> seqs;
    sim::Time last_capture;
  };
  // Home-side restart table: pids homed here with a registered image.
  struct HomeCkpt {
    std::int64_t last_seq = 0;
    sim::HostId last_host = sim::kInvalidHost;
    bool restarting = false;
  };

  // Capture pipeline (one method per stage; each revalidates its token).
  void capture_begin(const proc::PcbPtr& pcb, bool keep_frozen, StatusCb cb);
  void capture_flush(std::uint64_t token);
  void capture_load_chain(std::uint64_t token);
  void capture_plan(std::uint64_t token);
  void capture_write_pages(std::uint64_t token);
  void capture_write_meta(std::uint64_t token);
  void capture_commit(std::uint64_t token);
  void capture_fail(std::uint64_t token, util::Status st);
  void compact(proc::Pid pid, std::vector<std::int64_t> seqs);
  void cleanup_chain(proc::Pid pid);
  CkptMeta build_meta(const proc::Pcb& pcb, std::int64_t seq,
                      std::vector<std::int64_t> chain, bool full) const;

  // Restore pipeline.
  void restore_try_candidate(std::uint64_t token);
  void restore_chain_unreadable(std::uint64_t token, util::Status st);
  void restore_read_chain(std::uint64_t token);
  void restore_build(std::uint64_t token);
  void restore_stage_pages(std::uint64_t token);
  void restore_stage_step(std::uint64_t token);
  void restore_streams(std::uint64_t token);
  void restore_claim(std::uint64_t token);
  void restore_finish(std::uint64_t token);
  void restore_fail(std::uint64_t token, util::Status st);

  // Home-side recovery.
  void initiate_restart(proc::Pid pid, sim::HostId dead_host);
  sim::HostId pick_restart_target(sim::HostId exclude) const;
  void restart_done(proc::Pid pid, sim::HostId target, util::Status st);

  // Shared FS helpers (whole-file, cache-bypassing).
  void write_image_file(const std::string& path, fs::Bytes data,
                        StatusCb cb);
  void write_image_zeros(const std::string& path, std::int64_t nbytes,
                         StatusCb cb);
  using BytesCb = std::function<void(util::Result<fs::Bytes>)>;
  void read_image_file(const std::string& path, BytesCb cb);
  // Reads both head slots and yields the committed-seq candidates that
  // verified, newest first (empty: no readable head — no image, or both
  // slots torn). A slot that is missing, truncated, or checksum-corrupt is
  // simply excluded; it never aborts the caller.
  void read_head_seqs(proc::Pid pid,
                      std::function<void(std::vector<std::int64_t>)> cb);

  void handle_rpc(sim::HostId src, const rpc::Request& req,
                  std::function<void(rpc::Reply)> respond);
  void autockpt_tick();
  void arm_autockpt();
  void notify_stage(proc::Pid pid, CkptStage stage);
  proc::ProcTable& procs() const;
  vm::VmManager& vm() const;
  fs::FsClient& fs() const;

  kern::Host& host_;
  sim::HostId self_;
  bool evict_via_ckpt_ = false;
  bool recovery_enabled_ = true;
  bool auto_enabled_ = false;
  sim::Time auto_interval_;
  std::int64_t auto_dirty_threshold_ = 0;
  sim::HostId restart_target_ = sim::kInvalidHost;

  std::uint64_t next_token_ = 1;
  std::uint64_t gen_ = 1;  // bumped by crash_reset; stale timers check it
  std::map<std::uint64_t, Capture> captures_;
  std::map<std::uint64_t, Restore> restores_;
  std::set<proc::Pid> active_captures_;
  std::set<proc::Pid> active_restores_;
  std::map<proc::Pid, Chain> chains_;
  std::map<proc::Pid, sim::Time> auto_first_seen_;
  std::map<proc::Pid, HomeCkpt> home_table_;
  // Restarted pids -> the host the superseded copy was running on; healed
  // partitions get a kKillStale so at most one incarnation survives.
  std::map<proc::Pid, sim::HostId> restarted_from_;
  bool auto_ticking_ = false;
  sim::EventHandle auto_tick_ev_;
  std::vector<StageObserver> stage_observers_;

  trace::Counter* c_captures_;
  trace::Counter* c_capture_failed_;
  trace::Counter* c_full_;
  trace::Counter* c_incr_;
  trace::Counter* c_declined_;
  trace::Counter* c_pages_captured_;
  trace::Counter* c_restarts_;
  trace::Counter* c_restart_failed_;
  trace::Counter* c_restore_fell_back_;
  trace::Counter* c_pages_restored_;
  trace::Counter* c_compactions_;
  trace::Counter* c_auto_;
  trace::Counter* c_departs_;
  trace::Counter* c_stale_reaped_;
  trace::Counter* c_registers_;
  trace::LatencyHistogram* h_capture_ms_;
  trace::LatencyHistogram* h_restart_ms_;
};

}  // namespace sprite::ckpt
