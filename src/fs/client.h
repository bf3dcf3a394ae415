// Sprite file system client: prefix-table routing, block caching with
// 30-second delayed writes, consistency callbacks, and the stream state that
// process migration moves between hosts.
//
// All operations are asynchronous continuation-passing, because each may take
// simulated time (RPCs, disk, CPU). The process layer wraps these in blocking
// kernel calls.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/types.h"
#include "fs/wire.h"
#include "rpc/rpc.h"
#include "sim/costs.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace sprite::fs {

// An open stream (Sprite's descriptor-level object). Shared within a host:
// fork makes parent and child share the same Stream, hence the same access
// position. When migration splits a stream group across hosts, the offset
// moves to the I/O server ("shadow stream") and `server_offset` becomes true.
struct Stream {
  std::int64_t group = 0;  // globally unique stream-group id
  FileId file;
  FileType type = FileType::kRegular;
  OpenFlags flags;
  std::int64_t offset = 0;     // local access position (!server_offset)
  bool server_offset = false;  // offset lives at the I/O server
  bool cacheable = true;
  std::int64_t size_hint = 0;  // size at open; updated by local writes
  // Pathname the stream was opened by, kept for reopen-recovery after a
  // server crash invalidates the handle (Err::kStale).
  std::string path;
  // Server boot generation at open; carried on every I/O request.
  std::int64_t gen = 0;
  // Pseudo-device plumbing.
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
  // Number of descriptor-table references on this host (fork shares the
  // stream object; the server's open reference is released only when the
  // last local reference closes).
  int local_refs = 1;
};

using StreamPtr = std::shared_ptr<Stream>;

// Everything needed to reconstruct a stream on another host at migration.
struct ExportedStream {
  std::int64_t group = 0;
  FileId file;
  FileType type = FileType::kRegular;
  OpenFlags flags;
  std::int64_t offset = 0;
  bool server_offset = false;
  bool cacheable = true;
  std::int64_t version = 0;
  std::int64_t size = 0;
  std::string path;       // for reopen-recovery on the destination
  std::int64_t gen = 0;   // server boot generation
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
};

class FsClient {
 public:
  using OpenCb = std::function<void(util::Result<StreamPtr>)>;
  using ReadCb = std::function<void(util::Result<Bytes>)>;
  using WriteCb = std::function<void(util::Result<std::int64_t>)>;
  using StatusCb = std::function<void(util::Status)>;
  using StatCb = std::function<void(util::Result<StatResult>)>;
  using ExportCb = std::function<void(util::Result<ExportedStream>)>;
  using PdevCb = std::function<void(util::Result<Bytes>)>;

  FsClient(sim::Simulator& sim, sim::Cpu& cpu, rpc::RpcNode& rpc,
           const sim::Costs& costs);

  // Registers the kFsCallback consistency-callback handler.
  void register_services();

  // ---- Prefix table ----
  // Each prefix maps to an ordered replica list; `route` returns the active
  // replica. With one replica this degenerates to the classic Sprite prefix
  // table. Failover advances the active index (down verdict on the active
  // replica, or a kNotPrimary reply proving it was demoted).
  void add_prefix(const std::string& prefix, sim::HostId server);
  void add_prefix(const std::string& prefix,
                  std::vector<sim::HostId> replicas);
  util::Result<sim::HostId> route(const std::string& path) const;
  // True when the prefix entry covering `path` lists a backup replica —
  // i.e. a down verdict against the active server would promote somewhere
  // dirty data can still land.
  bool path_replicated(const std::string& path) const;

  // ---- Client name caching (the thesis's future-work optimization) ----
  // When enabled, successful opens remember path -> inode and later opens
  // send the inode as a hint, letting the server skip the per-component
  // lookup. Stale hints fall back to a full lookup transparently.
  void enable_name_cache(bool on) { name_cache_enabled_ = on; }
  bool name_cache_enabled() const { return name_cache_enabled_; }
  std::size_t name_cache_size() const { return name_cache_.size(); }

  // ---- Name operations ----
  void open(const std::string& path, OpenFlags flags, OpenCb cb);
  void close(const StreamPtr& s, StatusCb cb);
  void unlink(const std::string& path, StatusCb cb);
  void mkdir(const std::string& path, StatusCb cb);
  void stat(const std::string& path, StatCb cb);

  // ---- I/O ----
  // Reads up to `len` bytes at the stream's access position (short at EOF).
  void read(const StreamPtr& s, std::int64_t len, ReadCb cb);
  // Writes all of `data` at the stream's access position.
  void write(const StreamPtr& s, Bytes data, WriteCb cb);
  // Repositions a local access position (kInval for server-managed offsets).
  util::Status seek(const StreamPtr& s, std::int64_t offset);
  // Flushes this file's dirty blocks to the server.
  void fsync(const StreamPtr& s, StatusCb cb);
  // Truncates the file to `size` bytes (drops affected cached blocks).
  void ftruncate(const StreamPtr& s, std::int64_t size, StatusCb cb);

  // Request/response transaction on a pseudo-device stream (how user-level
  // services such as migd are reached).
  void pdev_call(const StreamPtr& s, Bytes request, PdevCb cb);

  // ---- Pipes ----
  // Creates an anonymous pipe; returns {read end, write end}. The buffer
  // lives at the file server, so either end can migrate freely.
  using PipeCb =
      std::function<void(util::Result<std::pair<StreamPtr, StreamPtr>>)>;
  void create_pipe(PipeCb cb);

  // ---- Reopen-by-path recovery ----
  // Shared by staleness recovery (Err::kStale after a server reboot) and
  // checkpoint restart (src/ckpt/), which rebuilds streams on a host where
  // the original open attribution never existed.

  // Whether a stream's identity (pathname) is enough to rebuild it. Pipes
  // and pdevs are volatile kernel objects, and a shadow (server-managed)
  // offset was memory-only: none can be recovered by path.
  static bool recoverable_by_path(const Stream& s) {
    return s.type == FileType::kRegular && !s.path.empty() && !s.server_offset;
  }

  // Reopens `s` by its recorded pathname with destructive flags stripped and
  // adopts the fresh handle/generation into the existing Stream object. The
  // access position is untouched. Fails kStale when unrecoverable.
  void reopen_by_path(const StreamPtr& s, StatusCb cb);

  // Builds a stream from recorded identity (checkpoint restart): opens
  // `path` with truncate/create stripped and restores the access position.
  void open_recorded(const std::string& path, OpenFlags flags,
                     std::int64_t offset, OpenCb cb);

  // ---- Migration support ----
  // Moves one stream's open attribution to `dst` and packages its state.
  // `shared_on_source` must be true when another process remaining on this
  // host shares the stream's access position: the offset is then promoted to
  // the I/O server before the move. Dirty cached data for the file is always
  // flushed first, so the destination and server see current bytes.
  void export_stream(const StreamPtr& s, sim::HostId dst,
                     bool shared_on_source, ExportCb cb);
  // Reconstructs a stream exported from another host.
  StreamPtr import_stream(const ExportedStream& e);

  // Flush all dirty blocks for one file / for every file (host shutdown,
  // eviction sweeps).
  void flush_file(FileId id, StatusCb cb);
  std::int64_t dirty_bytes(FileId id) const;
  std::int64_t total_dirty_bytes() const;

  // ---- Crash support ----
  // This host crashed: every stream, cached block, and parked retry dies.
  // The prefix table survives (boot-time configuration).
  void crash_reset();
  // A peer crashed. Parked pipe retries against its (now vanished) pipes
  // are re-issued so the callers get an error instead of hanging forever.
  // Prefix entries whose active replica died fail over to the next replica,
  // and dirty cached blocks homed on the dead server are rehomed to the
  // promoted replica (reopened by path, then flushed there).
  void peer_crashed(sim::HostId peer);
  // A peer turned suspect (advisory; often false). Flush this server's dirty
  // blocks now instead of waiting out the 30-second delay: if the suspicion
  // proves true, everything flushed before the crash is already safe.
  void peer_suspected(sim::HostId peer);
  // Peers whose death this host must detect (host-monitor interest): the
  // servers whose pipes hold parked retries here.
  void collect_peer_interest(std::vector<sim::HostId>& out) const;
  // Number of parked pipe retry closures (starvation diagnosis).
  std::size_t parked_pipe_retries() const;

 private:
  struct CacheBlock {
    Bytes data;  // up to block_size bytes
    bool dirty = false;
  };

  struct FileState {
    std::int64_t version = 0;
    bool cacheable = true;
    std::int64_t size = 0;
    int open_streams = 0;
    std::map<std::int64_t, CacheBlock> blocks;
    bool writeback_scheduled = false;
    std::int64_t gen = 0;  // server boot generation, stamped on I/O
    // Pathname from the most recent open: lets dirty blocks be rehomed to a
    // promoted replica after the original server dies.
    std::string path;
    // Consecutive flush failures; past the limit the dirty data is dropped
    // and counted lost instead of retried forever against a dead handle.
    int flush_failures = 0;
    // Set on the first failure of a flush streak (cleared when one lands).
    // With a backup replica the give-up rule is the *time* since this mark,
    // not the strike count: application-level fsync retries can burn any
    // fixed attempt budget long before the down verdict promotes the
    // backup the data could land on.
    bool flush_failing = false;
    sim::Time first_flush_fail;
  };

  // Builds the Stream and client state from a successful open reply.
  void finish_open(const std::string& path, OpenFlags flags,
                   const rpc::MessagePtr& reply_body, OpenCb cb);
  // Reads [offset, offset+len) through the cache; assumes cacheable.
  void cached_read(const StreamPtr& s, std::int64_t offset, std::int64_t len,
                   ReadCb cb);
  // Fetches the aligned block range [first, last] into the cache, then `fn`.
  void fetch_blocks(FileId id, std::int64_t first, std::int64_t last,
                    std::function<void(util::Status)> fn);
  void cached_write(const StreamPtr& s, std::int64_t offset, Bytes data,
                    WriteCb cb);
  // Uncached byte-range I/O in <=16 KB runs (Sprite's RPC transfer limit).
  void remote_read(FileId id, std::int64_t offset, std::int64_t len,
                   ReadCb cb);
  void remote_write(FileId id, std::int64_t offset, Bytes data, WriteCb cb);

  void schedule_writeback(FileId id);
  // Blocking pipe semantics: kWouldBlock replies park a retry closure that
  // the server's kPipeReady callback re-runs.
  void pipe_read(const StreamPtr& s, std::int64_t len, ReadCb cb);
  void pipe_write(const StreamPtr& s, Bytes data, WriteCb cb);
  void handle_callback(const rpc::Request& req,
                       std::function<void(rpc::Reply)> respond);
  FileState& state_for(FileId id);
  std::int64_t gen_for(FileId id) const;
  // Reopen-recovery: a regular stream hit Err::kStale (the server rebooted
  // since the open). Reopens by path, adopts the fresh handle + generation
  // into `s`, and reports success so the caller can retry once. Pipes,
  // pdevs, and shadow-offset streams are unrecoverable.
  void recover_stale(const StreamPtr& s, StatusCb cb);
  // Runs `attempt(k)`; if it fails kStale, recovers the stream by path
  // and retries once. A second failure propagates. Shared by read()/write()
  // so the stale-retry policy lives in one place.
  template <typename T>
  void retry_once_on_stale(
      const StreamPtr& s,
      std::function<void(std::function<void(util::Result<T>)>)> attempt,
      std::function<void(util::Result<T>)> done) {
    attempt([this, s, attempt, done = std::move(done)](
                util::Result<T> r) mutable {
      const util::Err e = r.is_ok() ? util::Err::kOk : r.status().err();
      if (e == util::Err::kStale || e == util::Err::kNotPrimary) {
        // kStale: the server rebooted since this stream was opened.
        // kNotPrimary: the handle points at a replica that was demoted.
        // Either way: reopen by path (the prefix table routes to the
        // current primary) and retry once. A second failure propagates.
        if (e == util::Err::kNotPrimary) flip_route_away(s->file.server);
        recover_stale(s, [attempt = std::move(attempt),
                          done = std::move(done)](util::Status rs) mutable {
          if (!rs.is_ok()) return done(rs);
          attempt(std::move(done));
        });
        return;
      }
      if (e == util::Err::kTimedOut && recoverable_by_path(*s)) {
        // The server stopped answering. The monitor's down verdict (which
        // flips our routes) fires just *after* parked calls are failed, so
        // defer a beat, then check whether a replica took over; if so this
        // is a failover, not an error the caller should see.
        sim_.after(sim::Time::msec(1), [this, s, attempt = std::move(attempt),
                                        r = std::move(r),
                                        done = std::move(done)]() mutable {
          auto rt = route(s->path);
          if (!rt.is_ok() || *rt == s->file.server)
            return done(std::move(r));  // no replica took over: real timeout
          recover_stale(s, [attempt = std::move(attempt),
                            done = std::move(done)](util::Status rs) mutable {
            if (!rs.is_ok()) return done(rs);
            attempt(std::move(done));
          });
        });
        return;
      }
      done(std::move(r));
    });
  }
  std::int64_t new_group_id();
  void touch_lru(FileId id, std::int64_t blk);
  void enforce_capacity();
  void drop_lru_entry(FileId id, std::int64_t blk);
  // One open attempt with no failover handling (the body of open()).
  void open_once(const std::string& path, OpenFlags flags, OpenCb cb);
  // Advance every prefix entry whose active replica is `bad` to the next
  // replica in its list. Starts the failover clock for `bad`.
  void flip_route_away(sim::HostId bad);
  // Move dirty cached blocks from a dead server's FileState to the handle a
  // reopen produced at the promoted replica, and flush them there.
  void rehome_file(FileId old_id, FileId new_id);
  // Failover latency bookkeeping: first successful adoption of a handle
  // away from `dead` closes the clock opened by flip_route_away.
  void note_failover_done(sim::HostId dead);
  // Flush failed: either re-arm the dirty bits for a later rehome/retry or
  // declare the run lost and account it.
  void flush_run_failed(FileId id, std::int64_t first_blk,
                        std::int64_t nblocks, util::Status why);

  sim::Simulator& sim_;
  sim::Cpu& cpu_;
  rpc::RpcNode& rpc_;
  const sim::Costs& costs_;

  struct PrefixEntry {
    std::string prefix;
    std::vector<sim::HostId> replicas;
    std::size_t active = 0;
  };
  std::vector<PrefixEntry> prefixes_;
  // Failover clocks: dead/demoted server -> when its routes flipped away.
  std::map<sim::HostId, sim::Time> failover_started_;
  std::map<FileId, FileState> files_;
  bool name_cache_enabled_ = false;
  std::map<std::string, Ino> name_cache_;
  std::map<FileId, std::vector<std::function<void()>>> pipe_parked_;
  std::int64_t next_group_ = 1;

  // LRU over (file, block) for cache capacity enforcement.
  std::list<std::pair<FileId, std::int64_t>> lru_;
  std::unordered_map<std::pair<FileId, std::int64_t>,
                     std::list<std::pair<FileId, std::int64_t>>::iterator,
                     BlockKeyHash>
      lru_index_;

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_cache_hit_;
  trace::Counter* c_cache_miss_;
  trace::Counter* c_remote_reads_;
  trace::Counter* c_remote_writes_;
  trace::Counter* c_name_hits_;
  trace::Counter* c_name_stale_;
  trace::Counter* c_writeback_bytes_;
  trace::Counter* c_recalls_;
  trace::Counter* c_cache_disables_;
  trace::Counter* c_stale_reopens_;
  trace::Counter* c_dirty_lost_;
  trace::Counter* c_suspect_flush_;
  trace::Counter* c_reroutes_;
  trace::Counter* c_failover_reopens_;
  trace::Counter* c_rehomed_;
  trace::LatencyHistogram* h_failover_ms_;
};

// Maximum bytes moved per FS data RPC (Sprite's fragmented RPC limit).
inline constexpr std::int64_t kMaxTransferUnit = 16 * 1024;

}  // namespace sprite::fs
