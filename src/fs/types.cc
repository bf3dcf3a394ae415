#include "fs/types.h"

#include <algorithm>
#include <cstring>

namespace sprite::fs {

namespace {

constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;  // odd: invertible

// One absorb step: bijective in `lane` for a fixed `word` and in `word` for
// a fixed `lane` (xor, multiply by an odd constant and xorshift are all
// invertible).
inline std::uint64_t absorb(std::uint64_t lane, std::uint64_t word) {
  lane = (lane ^ word) * kMul;
  return lane ^ (lane >> 29);
}

inline std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint64_t block_checksum(const Bytes& b) {
  const std::uint8_t* p = b.data();
  const std::size_t n = b.size();
  std::uint64_t lane[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                           0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    for (int k = 0; k < 4; ++k)
      lane[k] = absorb(lane[k], load_word(p + i + 8 * k));
  // Whole words past the last full stripe feed the lanes in order.
  for (int k = 0; i + 8 <= n; i += 8, ++k)
    lane[k] = absorb(lane[k], load_word(p + i));
  std::uint64_t h = lane[0];
  for (int k = 1; k < 4; ++k) h = absorb(h, lane[k]);
  std::uint64_t tail = 0;
  if (i < n) std::memcpy(&tail, p + i, n - i);
  h = absorb(h, tail);
  return absorb(h, static_cast<std::uint64_t>(n));
}

void append_block_range(Bytes& out, const Bytes& block, std::int64_t boff,
                        std::int64_t n) {
  const std::int64_t have = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(block.size()) - boff, 0, n);
  if (have > 0) {
    const auto first = block.begin() + static_cast<std::ptrdiff_t>(boff);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(have));
  }
  out.insert(out.end(), static_cast<std::size_t>(n - have), 0);
}

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

int path_components(const std::string& path) {
  return static_cast<int>(split_path(path).size());
}

}  // namespace sprite::fs
