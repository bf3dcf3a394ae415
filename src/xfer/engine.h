// The live page-transfer engine: one strategy-pluggable machine that moves
// an address space between hosts during migration. migration::Manager owns
// one Engine per host and delegates the whole VM phase to it; the paper's
// four legacy strategies are thin adapters over the same machinery, and
// three modern strategies extend it:
//
//   kIterPreCopy — multi-round pre-copy off the round-scoped vm::DirtyPlane
//                  ::kXfer plane: each round re-sends only pages dirtied
//                  during the previous round, until the dirty set stops
//                  shrinking, a round cap hits, or the remaining set fits
//                  the downtime target at the medium's bandwidth.
//   kPostCopy    — freeze immediately, ship page tables copy-on-reference
//                  style, then a background push daemon on the source
//                  drains the residual dependency without waiting for
//                  faults (pull-served pages are skipped).
//   kContentAddr — tag pages with synthetic content ids (zero-fill pages,
//                  executable text keyed by (backing_path, page index)),
//                  exchange id maps with the target's recently-seen cache,
//                  and send a short reference instead of a full page when
//                  the target can source the bytes locally.
//
// Failure semantics: the manager cancels the engine session on every
// migration-abort path; every async continuation in here revalidates its
// session (and the caller-supplied alive() hook) first, so a crash observer
// firing mid-round unwinds cleanly. Push sessions die with peer_crashed /
// crash_reset; an undrained target-side residual keeps the existing
// cor_sources_ kill semantics in the manager.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "proc/pcb.h"
#include "rpc/rpc.h"
#include "util/status.h"
#include "vm/vm.h"
#include "xfer/content.h"
#include "xfer/wire.h"

namespace sprite::kern {
class Host;
}

namespace sprite::xfer {

// The VM-transfer strategy of a migration; mig::MigrationManager selects
// one per host and hands it to the engine unchanged.
enum class VmStrategy : int {
  kSpriteFlush = 0,  // Sprite: flush dirty pages, target demand-pages
  kWholeCopy,        // Charlotte/LOCUS: whole resident image while frozen
  kPreCopy,          // V System: fixed-tuning rounds (adapter over iterative)
  kCopyOnRef,        // Accent: tables only, pull on reference
  kIterPreCopy,      // multi-round pre-copy with convergence control
  kPostCopy,         // copy-on-reference + background push
  kContentAddr,      // content-id dedup against the target's cache
};
// "sprite-flush", "whole-copy", ... — the --vm-strategy spellings.
const char* strategy_name(VmStrategy s);
// Inverse of strategy_name, for bench/test flags. Returns false on an
// unknown name.
bool strategy_from_name(const std::string& name, VmStrategy* out);

// Convergence control for the pre-copy family. Rounds stop (freeze + final
// set) when pages <= stop_pages, pages no longer shrink, round hits
// max_rounds, or the set crosses the wire within downtime_target (zero:
// no bandwidth-derived bound).
struct PrecopyTuning {
  int max_rounds = 4;
  std::int64_t stop_pages = 32;
  sim::Time downtime_target = sim::Time::zero();
};

class Engine {
 public:
  // What the VM phase produced; the manager folds this into the transfer
  // request and the migration record.
  struct Result {
    vm::SpaceDescriptor desc;
    bool cor_source_resident = false;  // source retains + serves the image
    bool postcopy_push = false;        // source additionally pushes residuals
    std::int64_t pages_moved = 0;
    std::int64_t pages_flushed = 0;
    std::int64_t rounds = 0;          // pre-copy rounds before the freeze
    std::int64_t pages_deduped = 0;   // sent as references, not bytes
    std::int64_t bytes_on_wire = 0;   // all engine payloads, headers included
    std::vector<std::int64_t> round_pages;  // per-round send sizes (+ final)
  };
  using DoneFn = std::function<void(util::Result<Result>)>;

  struct Params {
    VmStrategy strategy = VmStrategy::kSpriteFlush;
    proc::Pid pid = proc::kInvalidPid;
    vm::SpacePtr space;
    sim::HostId target = sim::kInvalidHost;
    trace::Context ctx;  // the migration's trace, made ambient per call
    // Freezes the process and calls the continuation (the manager records
    // frozen_at and fires its kFreeze stage observers in here). The engine
    // revalidates its session after the hook returns — observers may crash
    // hosts reentrantly.
    std::function<void(std::function<void()>)> freeze;
    // True while the process may still be migrated (not exited/reaped).
    std::function<bool()> alive;
    // Fired after each non-final pre-copy round's payload lands (the
    // manager surfaces it as MigStage::kXferRound). May be null.
    std::function<void(int round, std::int64_t pages)> on_round;
  };

  explicit Engine(kern::Host& host);

  void register_services();

  // Runs the VM phase of an outgoing migration for `p.space`. Calls `done`
  // exactly once unless the session is cancelled (manager abort / crash)
  // first. Synchronous dispatch: legacy strategies replay the exact event
  // sequence the manager used to produce inline.
  void transfer(Params p, DoneFn done);

  // Drops the outgoing session (and any not-yet-started push session) for
  // `pid`. Safe when none exists. In-flight continuations become no-ops.
  void cancel(proc::Pid pid);

  // ---- Post-copy: source side ----
  // The transfer RPC succeeded; start the background push daemon for the
  // residual image (created at freeze time by the kPostCopy path).
  void begin_push(std::int64_t asid);
  // The manager served a copy-on-reference pull for these pages; the push
  // daemon must not send them again.
  void note_pull_served(std::int64_t asid, vm::Segment seg,
                        std::int64_t first, std::int64_t count);

  // ---- Post-copy: target side ----
  // An incoming postcopy_push transfer installed `space`; pushes from
  // `source` apply to it until the remote set drains.
  void register_incoming(std::int64_t asid, proc::Pid pid,
                         sim::HostId source, const vm::SpacePtr& space);
  // A pull completed on the target; re-check whether the remote set drained
  // (the last residual page may arrive by fault rather than push).
  void note_remote_drain(std::int64_t asid);

  // Residual-drain hooks (set by the manager): source side frees
  // residual_/residual_owner_; target side erases the cor_sources_ entry so
  // a later source crash no longer kills the process.
  void set_source_drained_hook(std::function<void(std::int64_t asid)> fn) {
    source_drained_ = std::move(fn);
  }
  void set_target_drained_hook(std::function<void(proc::Pid pid)> fn) {
    target_drained_ = std::move(fn);
  }

  // ---- Observation (fault-injection hooks) ----
  // kPushSent fires on the source after each background push lands —
  // pushes outlive the migration pipeline, so stage observers cannot see
  // them; crash-matrix tests hook here instead.
  enum class Event : int { kPushSent = 0, kSourceDrained, kTargetDrained };
  using Observer = std::function<void(std::int64_t asid, Event)>;
  void add_observer(Observer fn) { observers_.push_back(std::move(fn)); }

  // ---- Crash support ----
  void crash_reset();
  void peer_crashed(sim::HostId peer);
  void collect_peer_interest(std::vector<sim::HostId>& out) const;

  // Completed-migration downtime, recorded by the manager (it owns the
  // freeze/resume timestamps).
  void record_downtime_ms(double ms);

  std::size_t active_pushes() const { return push_.size(); }
  std::size_t active_incoming() const { return in_.size(); }
  ContentCache& content_cache() { return cache_; }

 private:
  struct Session {
    Params p;
    DoneFn done;
    Result res;
    PrecopyTuning tune;
    int round = 0;
    std::int64_t prev_dirty = 0;
  };
  // Source-side background push of one residual image.
  struct Push {
    proc::Pid pid = proc::kInvalidPid;
    sim::HostId target = sim::kInvalidHost;
    vm::SpacePtr space;
    trace::Context ctx;
    // Pages still owed to the target, per segment (resident set at freeze).
    std::array<std::vector<bool>, 3> owed;
    std::int64_t left = 0;
    bool started = false;
    sim::Time started_at;
  };
  // Target side of a postcopy_push space.
  struct Incoming {
    proc::Pid pid = proc::kInvalidPid;
    sim::HostId source = sim::kInvalidHost;
    vm::SpacePtr space;
  };

  // Strategy bodies. All take the session's pid and revalidate.
  void run_frozen(proc::Pid pid);    // flush/whole/cor/postcopy/content
  void precopy_round(proc::Pid pid);
  void finish_precopy(proc::Pid pid);
  void content_transfer(proc::Pid pid);
  void content_map_round(proc::Pid pid,
                         std::shared_ptr<std::vector<std::uint64_t>> ids,
                         std::size_t next);
  // Describe + release + done for strategies whose source copy is clean.
  void describe_release_done(proc::Pid pid);
  void finish_ok(proc::Pid pid);
  void finish_error(proc::Pid pid, util::Status why);

  // Sends `pages` of payload in 16-page batches, then `then`. Accounts
  // bytes/counters against the session. round -1 marks the final set.
  void send_batches(proc::Pid pid, std::int64_t pages, int round,
                    std::function<void()> then);

  void push_tick(std::int64_t asid);
  void finish_push_drained(std::int64_t asid);
  void finish_target_drained(std::int64_t asid);
  void notify(std::int64_t asid, Event e);

  void handle_rpc(sim::HostId src, const rpc::Request& req,
                  std::function<void(rpc::Reply)> respond);

  PrecopyTuning tuning_for(VmStrategy s) const;

  kern::Host& host_;
  sim::HostId self_;

  std::map<proc::Pid, Session> out_;
  std::map<std::int64_t, Push> push_;   // by asid
  std::map<std::int64_t, Incoming> in_;  // by asid
  ContentCache cache_;
  std::vector<Observer> observers_;
  std::function<void(std::int64_t)> source_drained_;
  std::function<void(proc::Pid)> target_drained_;

  // xfer.* metrics (trace/trace.h).
  trace::Counter* c_rounds_;
  trace::Counter* c_pages_sent_;
  trace::Counter* c_pages_resent_;
  trace::Counter* c_pages_deduped_;
  trace::Counter* c_refs_sent_;
  trace::Counter* c_pages_pushed_;
  trace::Counter* c_push_redundant_;
  trace::Counter* c_bytes_sent_;
  trace::Counter* c_drained_;
  trace::LatencyHistogram* h_downtime_ms_;
  trace::LatencyHistogram* h_round_pages_;
  trace::LatencyHistogram* h_drain_ms_;
};

}  // namespace sprite::xfer
