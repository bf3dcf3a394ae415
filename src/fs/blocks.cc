#include "fs/blocks.h"

#include <algorithm>

namespace sprite::fs {

Bytes FileBlocks::read(std::int64_t offset, std::int64_t len) const {
  Bytes out;
  const std::int64_t end = std::min(offset + len, size_);
  if (end <= offset) return out;
  out.reserve(static_cast<std::size_t>(end - offset));
  for (std::int64_t pos = offset; pos < end;) {
    const std::int64_t blk = pos / block_size_;
    const std::int64_t boff = pos % block_size_;
    const std::int64_t n = std::min(block_size_ - boff, end - pos);
    auto it = blocks_.find(blk);
    if (it == blocks_.end())
      out.insert(out.end(), static_cast<std::size_t>(n), 0);  // hole
    else
      append_block_range(out, it->second.bytes, boff, n);
    pos += n;
  }
  return out;
}

std::vector<std::int64_t> FileBlocks::corrupt_blocks(std::int64_t offset,
                                                     std::int64_t len) {
  std::vector<std::int64_t> bad;
  const std::int64_t end = std::min(offset + len, size_);
  if (end <= offset) return bad;
  const std::int64_t last = (end - 1) / block_size_;
  for (auto it = blocks_.lower_bound(offset / block_size_);
       it != blocks_.end() && it->first <= last; ++it)
    if (!intact(it->second)) bad.push_back(it->first);
  return bad;
}

bool FileBlocks::verify(std::int64_t blk) {
  auto it = blocks_.find(blk);
  return it == blocks_.end() || intact(it->second);
}

void FileBlocks::write(std::int64_t offset, const Bytes& data,
                       bool verify_rmw) {
  const std::int64_t end = offset + static_cast<std::int64_t>(data.size());
  for (std::int64_t pos = offset; pos < end;) {
    const std::int64_t blk = pos / block_size_;
    const std::int64_t boff = pos % block_size_;
    const std::int64_t n = std::min(block_size_ - boff, end - pos);
    Block& b = blocks_[blk];
    // Partial overwrite: some of the block's existing bytes survive.
    const bool partial =
        boff > 0 || n < static_cast<std::int64_t>(b.bytes.size());
    if (!partial)
      b.tainted = false;  // nothing of the old version survives
    else if (verify_rmw && !b.bytes.empty() && !intact(b))
      b.tainted = true;
    if (static_cast<std::int64_t>(b.bytes.size()) < boff + n)
      b.bytes.resize(static_cast<std::size_t>(boff + n), 0);
    std::copy_n(data.begin() + (pos - offset), n, b.bytes.begin() + boff);
    seal(b);
    pos += n;
  }
  extend(end);
}

void FileBlocks::truncate(std::int64_t size) {
  size_ = size;
  const std::int64_t keep = (size + block_size_ - 1) / block_size_;
  blocks_.erase(blocks_.lower_bound(keep), blocks_.end());
  // Cut the straddling block's tail as a new version, so that a later write
  // past `size` reads zeros there instead of the old bytes.
  const auto tail = static_cast<std::size_t>(size % block_size_);
  auto it = blocks_.find(keep - 1);
  if (tail == 0 || it == blocks_.end() || it->second.bytes.size() <= tail)
    return;
  Block& b = it->second;
  if (!intact(b)) b.tainted = true;
  b.bytes.resize(tail);
  seal(b);
}

void FileBlocks::flip_bit(std::int64_t blk, std::uint64_t draw) {
  Block& b = blocks_.at(blk);
  b.bytes[draw % b.bytes.size()] ^= 0x40;
  b.matches.reset();
}

void FileBlocks::garble(std::int64_t offset, std::int64_t len) {
  const std::int64_t end = offset + len;
  for (auto it = blocks_.lower_bound(offset / block_size_);
       it != blocks_.end() && it->first * block_size_ < end; ++it) {
    Block& b = it->second;
    // Damage already there is not the tear's: a replay that rewrites only
    // the garbled range must not bless it with a fresh sum.
    if (!intact(b)) b.tainted = true;
    const std::int64_t base = it->first * block_size_;
    const std::int64_t to =
        std::min(end - base, static_cast<std::int64_t>(b.bytes.size()));
    for (std::int64_t i = std::max(offset - base, std::int64_t{0}); i < to;
         ++i)
      b.bytes[static_cast<std::size_t>(i)] ^= 0xA5;
    b.matches.reset();
  }
}

bool FileBlocks::repair(std::int64_t blk, const Bytes& peer) {
  Block& b = blocks_.at(blk);
  const std::uint64_t sum = block_checksum(peer);
  if (!b.tainted && sum != b.sum) return false;
  b = Block{peer, sum, false, true};
  return true;
}

const Bytes* FileBlocks::serve(std::int64_t blk) {
  auto it = blocks_.find(blk);
  if (it == blocks_.end() || !intact(it->second)) return nullptr;
  return &it->second.bytes;
}

void FileBlocks::import(Records records, std::int64_t size) {
  for (auto& [blk, b] : records) b.matches.reset();
  blocks_ = std::move(records);
  size_ = size;
}

bool FileBlocks::intact(Block& b) {
  if (b.tainted) return false;
  if (!b.matches) b.matches = block_checksum(b.bytes) == b.sum;
  return *b.matches;
}

void FileBlocks::seal(Block& b) {
  b.sum = block_checksum(b.bytes);
  b.matches = true;
}

}  // namespace sprite::fs
