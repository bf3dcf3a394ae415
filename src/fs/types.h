// Shared types for the Sprite network file system substrate.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/ids.h"

namespace sprite::fs {

// Inode number, unique per server.
using Ino = std::int64_t;
inline constexpr Ino kInvalidIno = -1;

// Globally unique file identity: (I/O server, inode).
struct FileId {
  sim::HostId server = sim::kInvalidHost;
  Ino ino = kInvalidIno;

  bool valid() const { return server != sim::kInvalidHost; }
  auto operator<=>(const FileId&) const = default;
};

enum class FileType : std::uint8_t {
  kRegular,
  kDirectory,
  kPseudoDevice,
  // An IPC pipe: a kernel buffer resident at the file server. Reader and
  // writer ends are ordinary streams, so migration re-attributes them with
  // the same machinery as files — the buffer itself never moves, and
  // neither endpoint can tell where the other runs.
  kPipe,
};

// Open flags, 4.3BSD-flavoured.
struct OpenFlags {
  bool read = false;
  bool write = false;
  bool create = false;
  bool truncate = false;
  // Bypass the client block cache (used for VM backing files: Sprite's
  // virtual memory pages through the FS but does not pollute the block
  // cache with page traffic).
  bool no_cache = false;

  static OpenFlags read_only() { return {.read = true}; }
  static OpenFlags write_only() { return {.write = true}; }
  static OpenFlags read_write() { return {.read = true, .write = true}; }
  static OpenFlags create_rw() {
    return {.read = true, .write = true, .create = true};
  }
};

using Bytes = std::vector<std::uint8_t>;

// Integrity checksum of a stored file block (fs/blocks.h). Four independent
// lanes absorb the bytes as 8-byte words; each lane step is a bijection of
// the lane state for a fixed word and of the word for a fixed state, so a
// change confined to one word of an equal-length input (in particular any
// single-bit flip) always changes the sum. An xorshift after each multiply
// carries high-bit differences downward, so two flips of bit 63 in
// consecutive words of one lane cannot cancel. The lanes fold together,
// then the tail bytes, then the length. Sums are only
// compared within one process (snapshots hand them between replicas in
// memory); nothing stores them, so the definition is free to change.
std::uint64_t block_checksum(const Bytes& b);

// Appends bytes [boff, boff + n) of `block` to `out`. Bytes past the end of a
// short block read as 0.
void append_block_range(Bytes& out, const Bytes& block, std::int64_t boff,
                        std::int64_t n);

// Hash for the (file, block) keys of the block-LRU indexes.
struct BlockKeyHash {
  static std::size_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t h = (a * 0x9e3779b97f4a7c15ull) ^ b;
    h = (h ^ (h >> 32)) * 0xd6e8feb86659fd93ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
  std::size_t operator()(const std::pair<Ino, std::int64_t>& k) const {
    return mix(static_cast<std::uint64_t>(k.first),
               static_cast<std::uint64_t>(k.second));
  }
  std::size_t operator()(const std::pair<FileId, std::int64_t>& k) const {
    return mix(mix(static_cast<std::uint64_t>(k.first.server),
                   static_cast<std::uint64_t>(k.first.ino)),
               static_cast<std::uint64_t>(k.second));
  }
};

// What the name server returns from a successful open.
struct OpenResult {
  FileId id;
  FileType type = FileType::kRegular;
  std::int64_t size = 0;
  // Incremented each time a client opens the file for writing; clients use
  // it to validate cached blocks across opens.
  std::int64_t version = 0;
  // False when concurrent write sharing forces all clients to bypass their
  // caches for this file.
  bool cacheable = true;
  // For pseudo-devices: host running the user-level server, and its tag.
  sim::HostId pdev_host = sim::kInvalidHost;
  int pdev_tag = 0;
  // Server boot generation at open time. I/O requests carry it back; after
  // a server crash the generation moves and old streams get Err::kStale,
  // forcing the client through reopen-recovery (handles do not survive a
  // server reboot — Sprite's stateful-server recovery model).
  std::int64_t generation = 0;
};

struct StatResult {
  FileId id;
  FileType type = FileType::kRegular;
  std::int64_t size = 0;
  std::int64_t version = 0;
};

// Splits "/a/b/c" into {"a","b","c"}. Empty components are dropped.
std::vector<std::string> split_path(const std::string& path);

// Number of pathname components (lookup cost driver).
int path_components(const std::string& path);

}  // namespace sprite::fs
