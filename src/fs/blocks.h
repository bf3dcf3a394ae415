// The file server's data for one file: its length and every stored block's
// bytes, with the block_checksum computed when those bytes were made and its
// taint, in one record. This module is the only code that reads or writes
// them.
//
// Verification is once per version. Bytes made here (a write, a truncation
// cut, a repair) get their sum from those bytes, so the block is known to
// match it. Bytes changed behind the sum (the fault hooks) or received in a
// snapshot are checked on first use, and the verdict is kept until the bytes
// change again. A block is intact when it is untainted and matches its sum;
// a hole (no record) is intact. Every stored block is non-empty and starts
// before the end of the file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fs/types.h"

namespace sprite::fs {

struct Block {
  Bytes bytes;
  std::uint64_t sum = 0;
  // The bytes include some that could not be verified (a read-modify-write
  // or a truncation cut over a corrupt block): corrupt whatever the sum
  // says, until a repair replaces the block.
  bool tainted = false;
  std::optional<bool> matches;  // bytes against sum; empty until checked
};

class FileBlocks {
 public:
  using Records = std::map<std::int64_t, Block>;

  explicit FileBlocks(std::int64_t block_size) : block_size_(block_size) {}

  std::int64_t size() const { return size_; }
  // Grows the file to at least `size` bytes; the new bytes read as 0.
  void extend(std::int64_t size) { size_ = std::max(size_, size); }

  // Bytes [offset, offset + len), cut at the end of the file. Holes and
  // bytes past a short block's end read as 0.
  Bytes read(std::int64_t offset, std::int64_t len) const;
  // The stored blocks touched by [offset, offset + len), cut at the end of
  // the file, that are not intact.
  std::vector<std::int64_t> corrupt_blocks(std::int64_t offset,
                                           std::int64_t len);
  bool verify(std::int64_t blk);

  // Stores `data` at `offset`, extending the file to cover it. A block
  // overwritten in full is a new version and loses any taint. With
  // `verify_rmw`, a partially overwritten block that is not intact becomes
  // tainted: its surviving bytes are garbage that the new sum would
  // otherwise bless.
  void write(std::int64_t offset, const Bytes& data, bool verify_rmw);
  // Sets the length to `size`, dropping every byte at or past it; the block
  // straddling `size` is cut and stays corrupt if it was.
  void truncate(std::int64_t size);

  // Fault hooks: change bytes and leave the sum stale.
  // Flips one bit of stored block `blk`, at a byte picked by `draw`.
  void flip_bit(std::int64_t blk, std::uint64_t draw);
  // Garbles the stored bytes within [offset, offset + len). A block that
  // was not intact before becomes tainted, so rewriting just that range
  // cannot make it intact again.
  void garble(std::int64_t offset, std::int64_t len);

  // Replaces a block that is not intact with a replica peer's copy. The
  // peer's bytes must match the stored sum, so a stale peer cannot poison
  // the block, unless the block is tainted, whose sum is itself untrusted.
  // Returns whether the copy was installed.
  bool repair(std::int64_t blk, const Bytes& peer);
  // The bytes of `blk` if it is stored and intact, for a repairing peer.
  const Bytes* serve(std::int64_t blk);

  // Snapshot export and import. Imported records are checked on first use.
  const Records& records() const { return blocks_; }
  void import(Records records, std::int64_t size);

 private:
  bool intact(Block& b);
  static void seal(Block& b);

  std::int64_t block_size_;
  std::int64_t size_ = 0;
  Records blocks_;
};

}  // namespace sprite::fs
