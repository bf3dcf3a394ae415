// Calibration constants for the simulated Sprite cluster.
//
// These are the only places where "hardware speed" enters the simulation;
// every experiment's *shape* is produced by the mechanisms, while the scale
// comes from constants calibrated against the numbers the thesis and the
// companion journal paper [DO91] report for DECstation 3100 workstations on
// a 10 Mbit/s Ethernet:
//
//   - small kernel-to-kernel RPC round trip        ~1.6 ms
//   - exec-time migration of a null process        ~76 ms
//   - per open file transferred at migration       ~9.4 ms
//   - flushing dirty VM/file data through the FS   ~480 ms per megabyte
//   - select + release an idle host via migd       ~56 ms
//
// All constants can be overridden per experiment (e.g. to model a faster
// network for ablations).
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace sprite::sim {

struct Costs {
  // ---- Network (shared-medium Ethernet model) ----
  // Propagation + interrupt handling per message.
  Time net_latency = Time::usec(200);
  // Effective payload bandwidth of the shared medium. The raw 10 Mbit/s
  // Ethernet moves ~1.25 MB/s; kernel networking on a DS3100 sustained
  // somewhat more than half of that on the bulk path, and the thesis's
  // 480 ms/MB flush figure folds in per-block FS overheads which we model
  // separately, so the medium itself is calibrated at 3.1 MB/s.
  double net_bytes_per_sec = 3.1e6;
  // Fixed wire+driver bytes per message (headers, trailers).
  std::int64_t net_msg_overhead_bytes = 64;

  // ---- RPC ----
  // CPU consumed on each side per RPC message (marshalling, dispatch).
  Time rpc_cpu_per_msg = Time::usec(300);
  // Initial retransmission timeout and retry limit. Subsequent
  // retransmission intervals use decorrelated jitter — uniform in
  // [rpc_timeout, 3 * previous] capped at rpc_backoff_cap — so a cluster of
  // clients hammering a silent server desynchronises instead of
  // retransmitting in lockstep.
  Time rpc_timeout = Time::msec(500);
  int rpc_max_retries = 4;
  Time rpc_backoff_cap = Time::sec(4);
  // At-most-once dedup cache capacity per server (completed slots are
  // evicted LRU beyond this; in-progress slots are never evicted).
  std::int64_t rpc_dedup_cap = 4096;

  // ---- Failure detection (src/recov/monitor.h) ----
  // Period of the monitor tick: watched peers not heard from within one
  // interval are sent a low-cost echo.
  Time recov_echo_interval = Time::sec(2);
  // A suspect peer still silent this long after suspicion began is declared
  // down.
  Time recov_down_after = Time::sec(6);

  // ---- File system ----
  std::int64_t block_size = 4096;
  // Server CPU per pathname component during lookup (directory search,
  // block touches). Sprite had no client name caching, so EVERY open pays
  // this on the server — Nelson measured name lookups as the dominant
  // server load and estimated client caching would halve it. This constant
  // drives the pmake saturation in experiment E3.
  Time fs_lookup_cpu_per_component = Time::msec(4.0);
  // Server CPU per open/close beyond lookup.
  Time fs_open_cpu = Time::usec(500);
  // Server CPU per block read/write request it serves.
  Time fs_block_cpu = Time::usec(150);
  // Disk access for a block missing from the server cache.
  Time fs_disk_access = Time::msec(15);
  // Client cache writeback delay (dirty blocks are flushed this long after
  // being written, as in Sprite's 30-second delayed writes).
  Time fs_writeback_delay = Time::sec(30);
  // Server block cache capacity, in blocks (per server).
  std::int64_t fs_server_cache_blocks = 16384;   // 64 MB
  // Client block cache capacity, in blocks (per workstation).
  std::int64_t fs_client_cache_blocks = 4096;    // 16 MB
  // Primary→backup replication: bounded in-memory log of mutation records a
  // primary retains for seq-gap catch-up after a backup reboot; a backup
  // further behind than this resyncs with a full snapshot instead.
  std::int64_t fs_repl_log_capacity = 4096;
  // Server CPU to apply one replicated mutation record at the backup.
  Time fs_repl_apply_cpu = Time::usec(80);
  // Background scrubber: walk period (zero = scrubber disabled, the
  // default — integrity verification stays off the hot path unless a run
  // opts in) and how many blocks one pass verifies.
  Time fs_scrub_interval = Time::zero();
  std::int64_t fs_scrub_blocks_per_pass = 256;
  // Pipe buffer capacity at the server (4.3BSD used 4 KB; Sprite's
  // pseudo-device buffers were larger).
  std::int64_t pipe_capacity = 16 * 1024;

  // ---- Virtual memory ----
  std::int64_t page_size = 4096;
  // CPU to service a page fault excluding the transfer itself.
  Time vm_fault_cpu = Time::usec(400);

  // ---- Process management ----
  Time quantum = Time::msec(100);         // user-process timeslice
  Time fork_cpu = Time::msec(2);          // PCB + table setup
  Time exec_cpu = Time::msec(8);          // image setup, argument copying
  Time syscall_cpu = Time::usec(50);      // local kernel-call overhead
  Time load_sample_period = Time::sec(1); // load-average sampling
  double load_decay_per_sample = 0.92;    // ~1-minute EWMA at 1 Hz

  // ---- Migration ----
  // CPU to encapsulate / deencapsulate the process control block and
  // machine-dependent state on each side.
  Time mig_encapsulate_cpu = Time::msec(18);
  Time mig_deencapsulate_cpu = Time::msec(16);
  // Per-stream CPU beyond the I/O-server RPCs (matches the 9.4 ms/file
  // figure once the RPC is added).
  Time mig_stream_cpu = Time::msec(7);
  // Process-table update on the home machine when a process arrives/leaves.
  Time mig_host_update_cpu = Time::msec(3);
  // Wire size of an encapsulated PCB (registers, ids, signal state, ...).
  std::int64_t mig_pcb_bytes = 4096;
  std::int64_t mig_per_stream_bytes = 256;

  // ---- Live transfer engine (src/xfer/) ----
  // Iterative pre-copy convergence control: hard round cap, absolute page
  // floor, and a downtime target — freeze once the remaining dirty set can
  // cross the wire within the target at the medium's bandwidth.
  int xfer_max_rounds = 8;
  std::int64_t xfer_stop_pages = 8;
  Time xfer_downtime_target = Time::msec(40);
  // Post-copy: background push cadence and batch size (pages per push RPC).
  Time xfer_push_interval = Time::msec(20);
  std::int64_t xfer_push_pages = 16;
  // Content-addressed transfer: recently-seen cache entries per host, the
  // wire size of one "have-it" reference (content id + locator), and how
  // many ids one map-exchange RPC carries.
  std::int64_t xfer_content_cache_entries = 65536;
  std::int64_t xfer_ref_bytes = 16;
  std::int64_t xfer_map_batch_pages = 128;

  // ---- Checkpoint/restart (src/ckpt/) ----
  // CPU to serialize / deserialize the PCB record and page maps on capture
  // and restart (sibling of the migration encapsulation costs).
  Time ckpt_capture_cpu = Time::msec(18);
  Time ckpt_restore_cpu = Time::msec(16);
  // Autocheckpoint policy defaults: scan period, capture when this much
  // time passed since the last capture or this many pages were dirtied.
  Time ckpt_auto_interval = Time::sec(30);
  std::int64_t ckpt_dirty_threshold_pages = 256;
  // Incremental checkpoints chained to one full base; after this many
  // increments the next capture writes a fresh base and compacts the old
  // chain away.
  int ckpt_chain_max = 4;

  // ---- Load sharing ----
  // migd's CPU per request it serves (queue management, fairness checks,
  // logging). Calibrated with pdev_wakeup so one migd transaction lands
  // near 28 ms and select+release near the thesis's 56 ms.
  Time migd_request_cpu = Time::msec(8);
  // Pseudo-device wakeup latency: time from request arrival to the
  // user-level daemon running (scheduling + context switch).
  Time pdev_wakeup = Time::msec(18);
  // A host is idle when it has seen no user input for this long and its
  // load average is below the threshold.
  Time idle_input_threshold = Time::sec(30);
  double idle_load_threshold = 0.30;
  // Period between a host's availability updates to the selection facility.
  Time ls_update_period = Time::sec(5);
  // MOSIX-style probabilistic exchange: send own vector to this many random
  // hosts each period, and age out entries older than this.
  int ls_gossip_fanout = 2;
  Time ls_gossip_period = Time::sec(1);
  Time ls_entry_max_age = Time::sec(10);
  // Multicast responders wait uniform [0, this] before answering, so the
  // requester is not flooded by simultaneous replies.
  Time ls_multicast_backoff = Time::msec(20);

  // Derived helpers -------------------------------------------------------

  Time wire_time(std::int64_t payload_bytes) const {
    const double bytes =
        static_cast<double>(payload_bytes + net_msg_overhead_bytes);
    return Time::sec(bytes / net_bytes_per_sec);
  }

  std::int64_t pages_to_bytes(std::int64_t pages) const {
    return pages * page_size;
  }
};

// A reasonable default cluster calibration (see header comment).
inline const Costs& default_costs() {
  static const Costs c{};
  return c;
}

}  // namespace sprite::sim
