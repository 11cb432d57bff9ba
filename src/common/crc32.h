// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for corruption
// detection. The template store's file format frames its payload with
// this checksum so a torn write or flipped bit is *detected* at load time
// instead of yielding a matchable-but-wrong template (DESIGN.md §12), and
// MatrixCache re-checks every cached matrix with it on every hit. The
// value is fixed by the definition; the fastest compiled kernel tier
// computes it (crc32_kernels.h, DESIGN.md §20).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mandipass::common {

/// One-shot CRC-32 of `size` bytes. crc32(nullptr, 0) == 0.
std::uint32_t crc32(const void* data, std::size_t size);

/// Incremental form: feed the previous return value back in as `seed`.
/// crc32_update(crc32_update(0, a), b) == crc32(a + b).
std::uint32_t crc32_update(std::uint32_t seed, const void* data, std::size_t size);

inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace mandipass::common
