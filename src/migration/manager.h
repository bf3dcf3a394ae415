// MigrationManager: the thesis's core contribution — transparent process
// migration.
//
// A migration moves a process between hosts while preserving its pid, its
// open streams (re-attributed at the I/O servers, with shadow streams for
// shared offsets), its virtual memory (by one of four transfer strategies),
// and its process-family relationships (the home machine is updated and
// keeps answering for the process).
//
// Strategies (thesis §4.2.1, experiment E2):
//   kSpriteFlush — flush dirty pages to the shared file server; the target
//                  demand-pages from backing store. Sprite's choice: small
//                  freeze time, no source residual dependency, exploits the
//                  existing network FS.
//   kWholeCopy   — Charlotte/LOCUS: send the entire resident image while the
//                  process is frozen. Long freeze, no residuals.
//   kPreCopy     — V System: copy pages while the process keeps running,
//                  re-sending what it re-dirties; freeze only for the final
//                  dirty set. Small freeze, but total work can exceed one
//                  image transfer.
//   kCopyOnRef   — Accent: ship only the page tables; the target pulls pages
//                  from the source on first reference, leaving a residual
//                  dependency for the process's lifetime.
//
// Three modern strategies extend the comparison (src/xfer/, experiment E19):
//   kIterPreCopy — multi-round pre-copy with convergence control (round cap,
//                  page floor, downtime target) off a round-scoped dirty
//                  plane.
//   kPostCopy    — copy-on-reference plus a background push daemon on the
//                  source that drains the residual dependency proactively.
//   kContentAddr — content-addressed transfer: pages the target has seen
//                  recently (program text, the zero page) move as short
//                  references instead of full pages.
//
// The VM phase of every strategy is executed by the per-host xfer::Engine;
// this manager runs the protocol around it (handshake, streams, PCB
// encapsulation, rollback) and keeps the four legacy strategies' observable
// behaviour unchanged.
//
// Exec-time migration (pmake's workhorse) transfers no memory at all: the
// process image is rebuilt from the executable on the target.
//
// Migration version numbers guard against kernels whose encapsulation
// formats drifted apart (§4.x "migration fragility").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "migration/wire.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "util/status.h"
#include "xfer/engine.h"

namespace sprite::kern {
class Host;
}

namespace sprite::mig {

// The strategy enum and its names live with the transfer engine.
using xfer::strategy_from_name;
using xfer::strategy_name;
using xfer::VmStrategy;

// How a migrated process's file kernel calls are handled (thesis §4.3.1):
//   kTransferStreams — Sprite: streams move with the process and file calls
//                      run at the current host (the default).
//   kForwardHome     — Remote-UNIX-style comparator: streams stay on the
//                      home machine and every file call is shipped back.
enum class FileCallMode : int {
  kTransferStreams = 0,
  kForwardHome,
};

// Per-migration measurements, for tests and the benchmark harness.
struct MigrationRecord {
  proc::Pid pid = proc::kInvalidPid;
  sim::HostId from = sim::kInvalidHost;
  sim::HostId to = sim::kInvalidHost;
  VmStrategy strategy = VmStrategy::kSpriteFlush;
  bool exec_time = false;
  sim::Time started;
  sim::Time init_done_at;    // target accepted the handshake
  sim::Time frozen_at;       // when the process stopped executing
  sim::Time vm_done_at;      // VM strategy finished (flush/copy/tables)
  sim::Time streams_done_at; // open streams re-attributed
  sim::Time resumed_at;      // when it was runnable on the target
  std::int64_t pages_moved = 0;     // via network (whole/pre-copy)
  std::int64_t pages_flushed = 0;   // via the file server (Sprite flush)
  std::int64_t precopy_rounds = 0;
  std::int64_t streams_moved = 0;
  std::int64_t pages_deduped = 0;   // sent as content references (E19)
  std::int64_t bytes_on_wire = 0;   // engine page/map/ref payload bytes
  std::vector<std::int64_t> round_pages;  // per-round send sizes (+ final)

  sim::Time total_time() const { return resumed_at - started; }
  sim::Time freeze_time() const { return resumed_at - frozen_at; }
};

// The points in the outgoing migration protocol where a crash can strand
// state; fault-injection tests hook add_stage_observer to crash hosts at
// each of them and assert both ends converge.
enum class MigStage : int {
  kInit,        // target accepted the version handshake
  kFreeze,      // process stopped executing on the source
  kVmTransfer,  // VM strategy finished (flush/copy/tables shipped)
  kStreams,     // open streams re-attributed at their I/O servers
  kResume,      // process installed and runnable on the target
  kXferRound,   // one pre-copy round's payload landed (process still running)
};
const char* mig_stage_name(MigStage s);

class MigrationManager : public proc::MigratorIface {
 public:
  explicit MigrationManager(kern::Host& host);

  void register_services();

  // The encapsulation-format version this kernel speaks. Kernels refuse to
  // exchange processes across versions.
  int version() const { return version_; }
  void set_version(int v) { version_ = v; }

  VmStrategy strategy() const { return strategy_; }
  void set_strategy(VmStrategy s) { strategy_ = s; }

  FileCallMode file_call_mode() const { return file_call_mode_; }
  void set_file_call_mode(FileCallMode m) { file_call_mode_ = m; }

  // The per-host live transfer engine executing every strategy's VM phase
  // (tests hook its observers; benches read its metrics).
  xfer::Engine& xfer() { return xfer_; }

  // proc::MigratorIface. Moves a process currently on this host. The
  // callback reports failure (process still here, thawed) or success (the
  // process now runs on `target`).
  void migrate(const proc::PcbPtr& pcb, sim::HostId target,
               std::function<void(util::Status)> cb) override;

  // proc::MigratorIface: the process died underneath an outgoing migration
  // (home-machine crash). Aborts the transfer — tells the target to drop
  // its slot — without thawing or restoring the destroyed PCB.
  void note_process_reaped(proc::Pid pid) override;

  // Evicts every foreign process back to its home machine (the owner
  // returned). cb receives the number evicted once all transfers finish.
  void evict_all_foreign(std::function<void(int)> cb);

  // ---- Stage observation (fault-injection hooks) ----
  // Fired on the source host as each outgoing migration passes a protocol
  // stage. Observers may crash hosts; every pipeline continuation
  // revalidates its token afterwards, so a crash at any stage is safe.
  using StageObserver = std::function<void(proc::Pid, MigStage)>;
  void add_stage_observer(StageObserver fn) {
    stage_observers_.push_back(std::move(fn));
  }

  // ---- Crash support ----
  // Migrations this host is currently a party to (outgoing + accepted-in);
  // used by the starvation diagnosis dump.
  std::size_t active_migrations() const {
    return outgoing_.size() + pending_in_.size();
  }
  // This host crashed: every migration in flight, residual
  // copy-on-reference image, and half-accepted incoming transfer is
  // dropped. No callbacks fire — their closures belonged to the dead
  // kernel.
  void crash_reset();
  // A peer crashed: outgoing migrations targeting it roll back and thaw
  // immediately (instead of waiting out the RPC retry limit), incoming
  // slots it initiated are dropped, residual images serving it are freed,
  // and local processes that depend on it for copy-on-reference pages are
  // killed (the residual-dependency cost the thesis warns about).
  void peer_crashed(sim::HostId peer);
  // Peers whose death this host must detect (host-monitor interest):
  // migration counterparts, copy-on-reference sources, residual owners.
  void collect_peer_interest(std::vector<sim::HostId>& out) const;

  // ---- Introspection ----
  const std::vector<MigrationRecord>& records() const { return records_; }
  const MigrationRecord& last_record() const;
  // Residual dependencies currently held for copy-on-reference sources.
  std::size_t residual_spaces() const { return residual_.size(); }

 private:
  struct Outgoing {
    proc::PcbPtr pcb;
    sim::HostId target = sim::kInvalidHost;
    std::function<void(util::Status)> cb;
    MigrationRecord rec;
    // True when the migration was initiated from inside a kernel call
    // (migrate-self or exec-time): on failure the process-table layer
    // completes the call; we only thaw the state. Otherwise (eviction,
    // direct kernel-initiated migration) a frozen process is resumed here.
    bool resume_handled_by_caller = false;
    // The VM phase ran through the xfer engine (any migration with an
    // address space); its downtime feeds the engine's histogram.
    bool via_engine = false;
    // Retained while the kTransfer RPC is in flight: the program image moves
    // into the request body, and fail() must be able to reclaim it no matter
    // which path (RPC error, peer crash) aborts the migration.
    std::shared_ptr<TransferReq> body;
    // Causal trace of this migration: a trace id + reserved root span,
    // ambient for the whole pipeline so every RPC/VM/stream span (on any
    // host) lands in one tree. The root span itself is emitted retroactively
    // by note_success()/fail() under the reserved id.
    trace::Context ctx;
    trace::SpanId root_span = 0;
  };

  void handle_rpc(sim::HostId src, const rpc::Request& req,
                  std::function<void(rpc::Reply)> respond);
  void handle_transfer(sim::HostId src, const TransferReq& req,
                       std::function<void(rpc::Reply)> respond);

  // Outgoing pipeline. The VM phase (freeze placement included) belongs to
  // the xfer engine; the manager resumes at start_streams_phase with the
  // engine's result folded into the transfer body.
  void after_init(std::uint64_t token);
  void start_engine_transfer(std::uint64_t token);
  void start_streams_phase(std::uint64_t token,
                           std::shared_ptr<TransferReq> body);
  void send_transfer(std::uint64_t token,
                     std::shared_ptr<TransferReq> body);
  void fail(std::uint64_t token, util::Status why);
  // Copy-on-reference pulls, bounded to 16 pages per RPC.
  void fetch_remote_chunks(sim::HostId source, std::int64_t asid,
                           vm::Segment seg, std::int64_t first,
                           std::int64_t count, vm::VmManager::StatusCb cb);

  kern::Host& host_;
  sim::HostId self_;
  xfer::Engine xfer_;
  int version_ = 1;
  VmStrategy strategy_ = VmStrategy::kSpriteFlush;
  FileCallMode file_call_mode_ = FileCallMode::kTransferStreams;

  std::map<std::uint64_t, Outgoing> outgoing_;
  std::uint64_t next_token_ = 1;

  // Target side: pids with an accepted kInit pending a kTransfer.
  std::map<proc::Pid, sim::HostId> pending_in_;

  // Copy-on-reference source images, by asid, and which host each one
  // serves (so a target crash can free the now-unreachable image).
  std::map<std::int64_t, vm::SpacePtr> residual_;
  std::map<std::int64_t, sim::HostId> residual_owner_;

  // Local processes whose pages pull from a remote source (target side of
  // kCopyOnRef): pid -> source host. A source crash kills them.
  std::map<proc::Pid, sim::HostId> cor_sources_;

  // Fires the stage observers; tolerates observers that crash hosts (and
  // thereby clear outgoing_) reentrantly.
  void notify_stage(proc::Pid pid, MigStage s);
  std::vector<StageObserver> stage_observers_;

  // Emits the freeze/vm/streams/resume span breakdown and feeds the latency
  // histograms once a migration completes.
  void note_success(const Outgoing& og);

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_out_;
  trace::Counter* c_in_;
  trace::Counter* c_failed_;
  trace::Counter* c_evictions_;
  trace::Counter* c_cor_pages_;
  trace::Counter* c_cor_kills_;
  trace::LatencyHistogram* h_total_ms_;
  trace::LatencyHistogram* h_freeze_ms_;
  std::vector<MigrationRecord> records_;
};

}  // namespace sprite::mig
