// Sprite file server: namespace, block storage, and cache consistency.
//
// The server is the authority for
//   * name lookup (every pathname component costs server CPU — Sprite has no
//     client name caching, which is exactly why parallel pmake saturates the
//     server in experiment E3),
//   * cache consistency [NWO88]: it tracks which hosts have each file open
//     in which modes, recalls dirty blocks from the last writer when another
//     host opens the file (sequential write sharing), and disables client
//     caching entirely under concurrent write sharing,
//   * shared stream access positions: when process migration causes a
//     stream's offset to be shared across hosts, the server manages the
//     offset ("shadow streams", [Wel90]),
//   * stream migration: moving a client host's open attribution when a
//     process migrates (the per-file cost in experiment E1).
//
// Block data is stored sparsely per inode and is authoritative ("disk").
// A block cache of configurable capacity determines whether an access pays
// the disk latency; contents are always served correctly.
//
// Replication (optional): a server may be one half of a primary/backup pair
// owning a namespace partition. The primary applies every durable mutation
// locally, then replicates it to the backup synchronously before replying to
// the client; a bounded in-memory log supports seq-gap catch-up after a
// backup reboot, with a full-snapshot fallback. A backup promotes itself on
// its HostMonitor's down verdict for the primary (in-protocol evidence only);
// epochs reconcile roles when a crashed replica returns. Memory-only state
// (open attributions, sharing, shadow offsets, pipes) is not replicated — it
// dies with the primary and is rebuilt by client reopens, exactly as after a
// single-server reboot.
//
// Integrity: every stored block carries a block_checksum (fs/types.h: a
// four-lane word-at-a-time sum that detects any change confined to one 8-byte
// word, so every single-bit flip), computed when its bytes are made and
// verified once per version (fs/blocks.h) before any read serves it — a
// mismatch surfaces Err::kCorrupt, never silent wrong data. Snapshots carry
// each block's sum and taint, so a resynced replica inherits corruption as
// corruption instead of blessing it.
// Each write is first recorded in a one-record redo journal that (like the
// blocks) survives a crash; a torn crash can only interrupt the newest
// write, so boot replays that record whole or, if the crash tore the record
// too, discards it, and the torn on-disk remnant is caught by the
// checksums. A write is either fully present or fully absent. An optional
// background scrubber walks the block space in bounded passes and repairs
// corrupt blocks from the replica peer (verifying fetched bytes against the
// local checksum before installing them); without a peer the corruption
// stays visible as kCorrupt.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fs/blocks.h"
#include "fs/types.h"
#include "fs/wire.h"
#include "rpc/rpc.h"
#include "sim/costs.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace sprite::fs {

class FsServer {
 public:
  FsServer(sim::Simulator& sim, sim::Cpu& cpu, rpc::RpcNode& rpc,
           const sim::Costs& costs);

  // Registers kFsName, kFsIo, and kFsRepl handlers on this host's RpcNode.
  void register_services();

  sim::HostId host() const { return rpc_.host(); }

  // ---- Replication (primary/backup per namespace partition) ----
  enum class Role { kPrimary, kBackup };
  // Wires this server into a replica pair for `partition`. `peer` is the
  // other replica (never this host). The configured-primary flag breaks
  // epoch ties during reconciliation.
  void configure_replication(int partition, Role role, sim::HostId peer);
  bool replicated() const { return peer_ != sim::kInvalidHost; }
  Role role() const { return role_; }
  bool is_primary() const { return role_ == Role::kPrimary; }
  sim::HostId repl_peer() const { return peer_; }
  std::int64_t partition_epoch() const { return partition_epoch_; }
  // Reboot hook (kern::Host::boot): reconcile role/epoch with the peer and
  // catch up. Until the peer answers, the server treats itself as a backup
  // so a stale pre-crash primary cannot serve divergent data.
  void boot();
  // The replica peer, for the host monitor's interest set (a backup must
  // observe its primary's death to promote).
  std::vector<sim::HostId> collect_peer_interest() const;

  // ---- Direct namespace setup (experiment builders; no simulated cost) ----
  util::Status mkdir_p(const std::string& path);
  // Creates a regular file of `logical_size` bytes (contents read as zeros).
  util::Result<FileId> create_file(const std::string& path,
                                   std::int64_t logical_size = 0);
  util::Result<FileId> create_pdev(const std::string& path,
                                   sim::HostId owner_host, int tag);
  // Creates an anonymous pipe whose two ends are attributed to `creator`
  // (one reader, one writer). Reaped when the last end closes.
  FileId create_pipe_inode(sim::HostId creator);
  // Direct inspection helpers for tests.
  util::Result<StatResult> stat_path(const std::string& path) const;
  util::Result<Bytes> read_direct(FileId id, std::int64_t offset,
                                  std::int64_t len) const;
  bool is_cacheable(FileId id) const;
  std::int64_t group_offset(FileId id, std::int64_t group) const;

  // ---- Crash / recovery ----
  // Boot generation: stamped into every OpenResult and checked against the
  // `gen` carried by I/O requests. A mismatch (stream opened before the
  // server's last crash) yields Err::kStale, driving the client's
  // reopen-recovery path.
  std::int64_t generation() const { return boot_generation_; }
  // Crash: disk state (namespace + blocks) survives; everything the server
  // only held in memory is lost — open attributions, sharing state, shadow
  // offsets, pipe buffers, the block cache — and the generation moves.
  void crash_reset();
  // A client host died: drop its open attributions and sharing influence,
  // wake pipes it was a party to, reap what only it kept alive.
  void peer_crashed(sim::HostId h);

  // ---- Integrity: checksums, journal, scrubber, fault injection ----
  // Storage-fault injection (FaultPlan storage hooks). `draw` is the plan's
  // deterministic random value; it picks the victim block / tear shape.
  void inject_bit_flip(std::uint64_t draw);
  void set_disk_full(bool full) { disk_full_ = full; }
  bool disk_full() const { return disk_full_; }
  // Tear the most recent write run: a prefix of its blocks survives, the
  // rest is garbage. Called immediately before the paired crash hook; a
  // no-op while down, before the first write after a boot, or once the
  // written file is gone.
  void tear_last_write(std::uint64_t draw);
  // Starts the periodic scrub walk (costs.fs_scrub_interval must be > 0).
  void enable_scrub();
  // One full verification pass over every stored block right now (tests);
  // returns the number of corrupt blocks found this pass.
  std::int64_t scrub_all_now();

 private:
  struct HostUse {
    int readers = 0;
    int writers = 0;
    bool any() const { return readers > 0 || writers > 0; }
  };

  struct Inode {
    Inode(Ino i, FileType t, std::int64_t block_size)
        : ino(i), type(t), data(block_size) {}

    Ino ino = kInvalidIno;
    FileType type = FileType::kRegular;
    std::map<std::string, Ino> children;  // directories
    std::int64_t version = 0;
    // Authoritative data: the length and sparse blocks, each with its
    // checksum and taint. A block that is not intact fails reads with
    // kCorrupt until the scrubber or a read repairs it from the replica.
    FileBlocks data;
    bool unlinked = false;

    // Consistency state.
    std::map<sim::HostId, HostUse> users;
    bool write_shared = false;            // caching disabled while true
    sim::HostId last_writer = sim::kInvalidHost;

    // Server-managed shared access positions: stream group -> offset.
    std::map<std::int64_t, std::int64_t> group_offsets;

    // Pseudo-device registration.
    sim::HostId pdev_host = sim::kInvalidHost;
    int pdev_tag = 0;

    // Pipe state: the buffer lives here; hosts whose read/write parked are
    // woken with a kPipeReady callback on any state change.
    Bytes pipe_buffer;
    std::vector<sim::HostId> pipe_waiters;
  };

  using Respond = std::function<void(rpc::Reply)>;

  // RPC dispatch.
  void handle_name(sim::HostId src, const rpc::Request& req, Respond respond);
  void handle_io(sim::HostId src, const rpc::Request& req, Respond respond);
  void handle_repl(sim::HostId src, const rpc::Request& req, Respond respond);

  // Individual operations (invoked after the CPU cost has been charged).
  void do_open(sim::HostId src, const OpenReq& req, bool hint_ok,
               Respond respond);
  void finish_open(sim::HostId src, const OpenReq& req, Ino ino, bool created,
                   Respond respond);
  void do_close(sim::HostId src, const CloseReq& req, Respond respond);
  void do_read(sim::HostId src, const ReadReq& req, Respond respond);
  void do_write(sim::HostId src, const WriteReq& req, Respond respond);
  void do_group_io(sim::HostId src, IoOp op, const GroupIoReq& req,
                   Respond respond);
  void do_migrate_stream(const MigrateStreamReq& req, Respond respond);
  void do_pipe_read(sim::HostId src, const PipeIoReq& req, Respond respond);
  void do_pipe_write(sim::HostId src, const PipeIoReq& req, Respond respond);
  // Wakes every host parked on this pipe.
  void notify_pipe_waiters(Inode& node);

  // Namespace helpers.
  util::Result<Ino> lookup(const std::string& path) const;
  util::Result<Ino> create_at(const std::string& path, FileType type);
  Inode& inode(Ino i);
  Inode* find_inode(Ino i);
  const Inode* find_inode(Ino i) const;
  // The inode behind a client's handle, or nullptr after replying kStale:
  // "<op>: pre-crash stream" for a handle from another replica or an
  // earlier boot, "<op>" when the file (or, with `pipe`, the pipe) is gone.
  Inode* handle_inode(const FileId& id, std::int64_t gen, const char* op,
                      Respond& respond, bool pipe = false);
  void maybe_reap(Ino i);

  // Creates inode `ino` (which must be free) and returns it.
  Inode& add_inode(Ino ino, FileType type);

  // Journals `data`, stores it at `offset` and grows the file to cover it.
  std::int64_t pwrite(Inode& node, std::int64_t offset, const Bytes& data);
  // The one path for client data (kWrite and group writes): replies
  // kNoSpace on a full disk, else stores `data` at `offset`, counts it,
  // replicates it and sends `make_reply(written)` once the backup has it.
  template <class MakeReply>
  void write_through(Inode& node, std::int64_t offset, const Bytes& data,
                     Respond respond, MakeReply make_reply);

  // ---- Integrity helpers ----
  // The redo journal's one record: the newest write. It lives on "disk"
  // (it survives crash_reset) until the boot after it has recovered it.
  struct PendingWrite {
    enum class State {
      kNone,       // no write since the last boot's recovery
      kApplied,    // the blocks hold the whole write
      kUnapplied,  // a torn crash interrupted the apply: replay at boot
      kTorn,       // the crash tore the record too: discard at boot
    };
    State state = State::kNone;
    Ino ino = kInvalidIno;
    std::int64_t offset = 0;
    Bytes data;  // reused from write to write
  };
  void journal_recover();  // boot: replay or discard the pending write
  void scrub_tick();
  // Fetch `blk` of `ino` from the replica peer and install it if it matches
  // the local checksum (or the block is tainted). No-ops while a repair for
  // the same block is already in flight.
  void repair_block(Ino ino, std::int64_t blk);
  void do_repl_fetch_block(const ReplFetchBlockReq& req, Respond respond);

  // Consistency helpers.
  // Re-derives write_shared from current users; returns callbacks to send.
  void update_sharing(Inode& node, std::vector<sim::HostId>* to_disable);
  // Counts server-cache misses for the touched block range and updates LRU.
  int cache_misses(Ino ino, std::int64_t offset, std::int64_t len);

  // Charges `cpu` then runs `fn` (+ `disk_blocks` of disk latency after CPU).
  void charge(sim::Time cpu, int disk_blocks, std::function<void()> fn);

  // Replication helpers.
  // A handle is stale when it was minted by another replica (failover moved
  // the partition) or predates this server's last crash.
  bool stale_handle(const FileId& id, std::int64_t gen) const {
    return id.server != host() || gen != boot_generation_;
  }
  // Appends `recs` to the log and pushes them to the backup; runs `done`
  // once the backup acked (or the op was recorded as unreplicated).
  void replicate(std::vector<ReplRecord> recs, std::function<void()> done);
  // Fire-and-forget replication of a pseudo-device (re-)registration.
  void replicate_pdev(const std::string& path, Ino ino, sim::HostId owner_host,
                      int tag);
  void append_log(ReplRecord rec);
  void apply_record(const ReplRecord& rec);  // backup-side ordered apply
  void do_repl_apply(const ReplApplyReq& req, Respond respond);
  void do_repl_hello(sim::HostId src, const ReplHelloReq& req,
                     Respond respond);
  void do_repl_fetch(const ReplFetchReq& req, Respond respond);
  void promote(const char* why);
  void demote(std::int64_t new_epoch, const char* why);
  // Backup: pull missing records (or a snapshot when `want_snapshot` or the
  // primary's log no longer covers the gap).
  void start_catchup(bool want_snapshot);
  void install_snapshot(const ReplFetchRep& rep);
  std::vector<InodeImage> snapshot_inodes() const;
  // Creates `path` as `type` with an explicit primary-assigned ino, creating
  // missing parents; used only when applying replicated records.
  Ino create_with_ino(const std::string& path, FileType type, Ino ino);

  sim::Simulator& sim_;
  sim::Cpu& cpu_;
  rpc::RpcNode& rpc_;
  const sim::Costs& costs_;

  std::map<Ino, Inode> inodes_;
  Ino root_ = kInvalidIno;
  Ino next_ino_ = 1;
  std::int64_t boot_generation_ = 0;  // bumped by crash_reset()

  // Replication state. Role, epoch, and sequence high-water marks live in
  // the superblock ("disk"): they survive crash_reset. The log itself is
  // memory — after a crash it is empty and catch-up falls back to snapshots.
  int partition_ = 0;
  Role role_ = Role::kPrimary;
  bool configured_primary_ = true;  // epoch tie-break at reconciliation
  sim::HostId peer_ = sim::kInvalidHost;
  bool peer_down_ = false;   // monitor verdict or failed repl call
  std::int64_t partition_epoch_ = 1;
  std::int64_t next_seq_ = 1;      // primary: next record sequence number
  std::int64_t last_applied_ = 0;  // backup: applied high-water mark
  std::int64_t log_start_seq_ = 1;
  std::deque<ReplRecord> log_;
  std::int64_t unreplicated_ = 0;  // records the backup has not acked
  bool syncing_ = false;           // backup catch-up fetch in flight

  // Integrity state. The pending write is "disk": it survives crash_reset
  // and is recovered at boot. disk_full_ is an environmental condition
  // injected by a FaultPlan window. The scrub cursor round-robins over
  // (ino, block).
  PendingWrite pending_;
  bool disk_full_ = false;
  bool down_ = false;          // between crash_reset() and boot()
  bool scrub_enabled_ = false;
  Ino scrub_ino_ = 0;
  std::int64_t scrub_blk_ = -1;
  std::set<std::pair<Ino, std::int64_t>> repairing_;

  // Server block cache (timing only): LRU over (ino, block).
  std::list<std::pair<Ino, std::int64_t>> lru_;
  std::unordered_map<std::pair<Ino, std::int64_t>,
                     std::list<std::pair<Ino, std::int64_t>>::iterator,
                     BlockKeyHash>
      cached_;

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_opens_;
  trace::Counter* c_hinted_opens_;
  trace::Counter* c_closes_;
  trace::Counter* c_lookup_components_;
  trace::Counter* c_reads_;
  trace::Counter* c_writes_;
  trace::Counter* c_bytes_read_;
  trace::Counter* c_bytes_written_;
  trace::Counter* c_recalls_;
  trace::Counter* c_cache_disables_;
  trace::Counter* c_disk_accesses_;
  trace::Counter* c_stream_migrations_;
  trace::Counter* c_pipe_reads_;
  trace::Counter* c_pipe_writes_;
  trace::Counter* c_pipe_wakeups_;
  trace::Counter* c_repl_applied_;
  trace::Counter* c_repl_solo_;
  trace::Counter* c_repl_catchup_;
  trace::Counter* c_repl_snapshots_;
  trace::Counter* c_repl_divergent_;
  trace::Counter* c_promotions_;
  trace::Counter* c_demotions_;
  trace::Counter* c_rejected_;
  trace::Counter* c_journal_appended_;
  trace::Counter* c_journal_replayed_;
  trace::Counter* c_journal_discarded_;
  trace::Counter* c_scrub_runs_;
  trace::Counter* c_scrub_checked_;
  trace::Counter* c_scrub_found_;
  trace::Counter* c_scrub_repaired_;
  trace::Counter* c_scrub_unrepairable_;
  trace::Counter* c_read_detected_;
  trace::Counter* c_nospace_;
};

}  // namespace sprite::fs
