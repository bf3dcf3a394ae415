// RPC wire messages for the file system protocol.
//
// Four services:
//   kFsName     (client -> server): open/close/unlink/mkdir/stat/truncate
//   kFsIo       (client -> server): block reads/writes, server-managed stream
//                                   offsets, stream migration
//   kFsCallback (server -> client): cache consistency callbacks (recall dirty
//                                   blocks, disable caching)
//   kFsRepl     (server <-> server): primary/backup replication for a
//                                    namespace partition — ordered mutation
//                                    records, epoch reconciliation after a
//                                    reboot, and seq-gap/snapshot catch-up
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fs/blocks.h"
#include "fs/types.h"
#include "rpc/rpc.h"

namespace sprite::fs {

// ---- kFsName ops ----
enum class NameOp : int {
  kOpen = 1,
  kClose,
  kUnlink,
  kMkdir,
  kStat,
  kRegisterPdev,
  kCreatePipe,
};

struct OpenReq : rpc::Message {
  std::string path;
  OpenFlags flags;
  // Client name-cache hint: when set, the server resolves by inode and
  // skips the per-component pathname lookup (the thesis's future-work
  // optimization; Nelson estimated it would halve server load). The server
  // falls back to a full lookup if the hint is stale.
  Ino hint = kInvalidIno;
  std::int64_t wire_bytes() const override {
    return 24 + static_cast<std::int64_t>(path.size());
  }
};

struct OpenRep : rpc::Message {
  OpenResult result;
  std::int64_t wire_bytes() const override { return 64; }
};

struct CloseReq : rpc::Message {
  FileId id;
  OpenFlags flags;  // the flags the file was opened with
  std::int64_t gen = 0;  // server boot generation from the open
  std::int64_t wire_bytes() const override { return 40; }
};

struct PathReq : rpc::Message {  // unlink / mkdir / stat
  std::string path;
  std::int64_t wire_bytes() const override {
    return 8 + static_cast<std::int64_t>(path.size());
  }
};

struct StatRep : rpc::Message {
  StatResult st;
  std::int64_t wire_bytes() const override { return 48; }
};

struct RegisterPdevReq : rpc::Message {
  std::string path;
  sim::HostId owner_host = sim::kInvalidHost;
  int tag = 0;
  std::int64_t wire_bytes() const override {
    return 16 + static_cast<std::int64_t>(path.size());
  }
};

// ---- kFsIo ops ----
enum class IoOp : int {
  kRead = 1,        // byte-range read (server side handles blocks/disk)
  kWrite,           // byte-range write
  kGroupRead,       // read via server-managed shared access position
  kGroupWrite,      // write via server-managed shared access position
  kShareOffset,     // promote a stream group's offset to server management
  kMigrateStream,   // move a stream's open attribution between client hosts
  kTruncate,
  kPipeRead,        // consume from a pipe buffer (kWouldBlock when empty)
  kPipeWrite,       // append to a pipe buffer (kWouldBlock when full)
};

struct ReadReq : rpc::Message {
  FileId id;
  std::int64_t offset = 0;
  std::int64_t len = 0;
  std::int64_t gen = 0;  // server boot generation from the open
  std::int64_t wire_bytes() const override { return 48; }
};

struct ReadRep : rpc::Message {
  Bytes data;
  std::int64_t wire_bytes() const override {
    return 16 + static_cast<std::int64_t>(data.size());
  }
};

struct WriteReq : rpc::Message {
  FileId id;
  std::int64_t offset = 0;
  Bytes data;
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override {
    return 32 + static_cast<std::int64_t>(data.size());
  }
};

struct WriteRep : rpc::Message {
  std::int64_t written = 0;
  std::int64_t new_size = 0;
  std::int64_t wire_bytes() const override { return 16; }
};

// Shared (server-managed) access positions, keyed by stream group.
struct GroupIoReq : rpc::Message {
  FileId id;
  std::int64_t group = 0;
  std::int64_t len = 0;   // for kGroupRead
  Bytes data;             // for kGroupWrite
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override {
    return 48 + static_cast<std::int64_t>(data.size());
  }
};

struct GroupIoRep : rpc::Message {
  Bytes data;                 // for reads
  std::int64_t written = 0;   // for writes
  std::int64_t new_offset = 0;
  std::int64_t wire_bytes() const override {
    return 24 + static_cast<std::int64_t>(data.size());
  }
};

struct ShareOffsetReq : rpc::Message {
  FileId id;
  std::int64_t group = 0;
  std::int64_t offset = 0;  // current offset, transferred to the server
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override { return 48; }
};

struct MigrateStreamReq : rpc::Message {
  FileId id;
  OpenFlags flags;
  sim::HostId from = sim::kInvalidHost;
  sim::HostId to = sim::kInvalidHost;
  // True when other processes remaining on the source still share this
  // stream (a fork-shared descriptor migrated): the destination gains a
  // reference without the source losing its own.
  bool retain_source = false;
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override { return 56; }
};

struct MigrateStreamRep : rpc::Message {
  // Cacheability of the file as seen from the destination host after the
  // move (migration may create write sharing and disable caching).
  bool cacheable = true;
  std::int64_t version = 0;
  std::int64_t size = 0;
  std::int64_t generation = 0;  // destination stamps its streams with this
  std::int64_t wire_bytes() const override { return 32; }
};

struct TruncateReq : rpc::Message {
  FileId id;
  std::int64_t size = 0;
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override { return 40; }
};

struct CreatePipeRep : rpc::Message {
  FileId id;
  std::int64_t generation = 0;
  std::int64_t wire_bytes() const override { return 32; }
};

struct PipeIoReq : rpc::Message {
  FileId id;
  std::int64_t len = 0;  // read
  Bytes data;            // write
  std::int64_t gen = 0;
  std::int64_t wire_bytes() const override {
    return 40 + static_cast<std::int64_t>(data.size());
  }
};

struct PipeIoRep : rpc::Message {
  Bytes data;               // read results
  std::int64_t written = 0; // write results
  bool eof = false;         // read: no writers remain and buffer drained
  std::int64_t wire_bytes() const override {
    return 24 + static_cast<std::int64_t>(data.size());
  }
};

// ---- kFsRepl ops (server <-> server) ----
enum class ReplOp : int {
  kApply = 1,   // primary -> backup: ordered mutation records
  kHello,       // rebooted replica -> peer: epoch/role reconciliation
  kFetch,       // backup -> primary: catch-up from a sequence number
  kFetchBlock,  // scrubber -> peer: fetch one block to repair corruption
};

// One durable mutation, as applied at the primary. Records are totally
// ordered by a per-partition sequence number; the backup applies them in
// order so both replicas hold byte-identical disk state (namespace, blocks,
// sizes, versions). Memory-only state (pipes, cache attributions, shared
// offsets) is deliberately not replicated — it dies with the primary and is
// rebuilt by client reopens, exactly as after a single-server reboot.
enum class ReplKind : int {
  kCreate = 1,  // regular file created at `path` with primary-assigned `ino`
  kMkdir,       // directory created at `path` with `ino`
  kUnlink,      // `path` removed from the namespace
  kWrite,       // `data` at `offset` into `ino`; resulting size/version carried
  kTruncate,    // `ino` truncated to `size`
  kPdev,        // pseudo-device advertised at `path` (owner host + tag)
};

struct ReplRecord {
  ReplKind kind = ReplKind::kWrite;
  std::string path;        // kCreate/kMkdir/kUnlink/kPdev
  Ino ino = kInvalidIno;   // assigned (creates) or target (write/truncate)
  std::int64_t offset = 0;
  std::int64_t size = 0;   // resulting file size (write) / new size (truncate)
  std::int64_t version = 0;  // inode version at the primary after the op
  Bytes data;
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
  std::int64_t bytes() const {
    return 48 + static_cast<std::int64_t>(path.size() + data.size());
  }
};

struct ReplApplyReq : rpc::Message {
  std::int64_t epoch = 0;      // sender's partition epoch
  std::int64_t first_seq = 0;  // sequence number of records.front()
  std::vector<ReplRecord> records;
  std::int64_t wire_bytes() const override {
    std::int64_t n = 24;
    for (const auto& r : records) n += r.bytes();
    return n;
  }
};

struct ReplApplyRep : rpc::Message {
  std::int64_t epoch = 0;         // receiver's partition epoch
  std::int64_t last_applied = 0;  // receiver's high-water mark after applying
  // Nonzero: the receiver saw a sequence gap and needs records from here
  // (the primary answers with a log suffix or a full snapshot).
  std::int64_t need_from = 0;
  std::int64_t wire_bytes() const override { return 32; }
};

struct ReplHelloReq : rpc::Message {
  std::int64_t epoch = 0;
  bool claims_primary = false;
  std::int64_t last_applied = 0;  // meaningful when the sender is a backup
  std::int64_t wire_bytes() const override { return 32; }
};

struct ReplHelloRep : rpc::Message {
  std::int64_t epoch = 0;
  bool i_am_primary = false;
  std::int64_t next_seq = 0;
  std::int64_t wire_bytes() const override { return 32; }
};

struct ReplFetchReq : rpc::Message {
  std::int64_t from_seq = 0;
  std::int64_t wire_bytes() const override { return 16; }
};

// Scrub repair: fetch one data block of `ino` from the peer replica. Served
// by either role (the requester verifies the bytes against its stored
// checksum before installing them, so a stale peer cannot poison a repair).
struct ReplFetchBlockReq : rpc::Message {
  Ino ino = kInvalidIno;
  std::int64_t blk = 0;
  std::int64_t wire_bytes() const override { return 24; }
};

struct ReplFetchBlockRep : rpc::Message {
  bool found = false;  // peer has the inode and the block
  Bytes data;
  std::int64_t wire_bytes() const override {
    return 16 + static_cast<std::int64_t>(data.size());
  }
};

// Full-state snapshot entry: everything that survives a crash on "disk".
struct InodeImage {
  Ino ino = kInvalidIno;
  FileType type = FileType::kRegular;
  std::int64_t size = 0;
  std::int64_t version = 0;
  std::vector<std::pair<std::string, Ino>> children;  // directories
  // Sparse data blocks with their sums and taint: the importer checks each
  // block on first use, so corruption on the sender stays visible.
  FileBlocks::Records blocks;
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
  std::int64_t bytes() const {
    std::int64_t n = 40;
    for (const auto& [name, ino_] : children) {
      (void)ino_;
      n += 12 + static_cast<std::int64_t>(name.size());
    }
    for (const auto& [blk, b] : blocks) {
      (void)blk;
      n += 12 + static_cast<std::int64_t>(b.bytes.size());
    }
    return n;
  }
};

struct ReplFetchRep : rpc::Message {
  std::int64_t epoch = 0;
  bool snapshot = false;
  // Log-suffix path (snapshot == false):
  std::int64_t first_seq = 0;
  std::vector<ReplRecord> records;
  // Snapshot path (the requested seq fell off the bounded log):
  std::vector<InodeImage> inodes;
  std::int64_t snap_seq = 0;  // receiver's last_applied after installing
  Ino next_ino = kInvalidIno;
  std::int64_t wire_bytes() const override {
    std::int64_t n = 48;
    for (const auto& r : records) n += r.bytes();
    for (const auto& im : inodes) n += im.bytes();
    return n;
  }
};

// ---- kFsCallback ops (server -> client) ----
enum class CallbackOp : int {
  kRecallDirty = 1,  // flush dirty blocks of `id` back to the server
  kDisableCache,     // stop caching `id`; flush dirty blocks first
  kPipeReady,        // a parked pipe operation may be retried
};

struct CallbackReq : rpc::Message {
  FileId id;
  std::int64_t wire_bytes() const override { return 24; }
};

}  // namespace sprite::fs
