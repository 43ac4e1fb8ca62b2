// FNV-1a 64, the one byte hash behind every checksum and content key: the
// trailers of persisted traces and cache artifacts (yardstick/persist), wire
// frames and WAL records (netio/frame, service/wal), and the incremental
// layer's content keys (yardstick/delta's ContentHasher).
#pragma once

#include <cstddef>
#include <cstdint>

namespace yardstick::ys {

inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// FNV-1a 64 over `size` bytes at `data`, continuing from `seed`: the offset
/// basis starts a hash, a previous result streams more bytes into it.
[[nodiscard]] inline uint64_t fnv1a64(const void* data, size_t size,
                                      uint64_t seed = kFnv1aOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace yardstick::ys
