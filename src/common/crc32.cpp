// mandilint: allow-file(expects-guard) -- total over any byte span; a
// null pointer is only reachable with size 0, which the loops never
// dereference.
#include "common/crc32.h"

#include <array>

#include "common/crc32_kernels.h"

namespace mandipass::common {

namespace detail {
namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is
// the classic byte-at-a-time table; row k advances a byte through k
// further zero bytes, so one 8-byte step is eight independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0U ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = t[k - 1][n];
      t[k][n] = t[0][prev & 0xFFU] ^ (prev >> 8U);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8U |
         static_cast<std::uint32_t>(p[2]) << 16U | static_cast<std::uint32_t>(p[3]) << 24U;
}

std::uint32_t update_generic(std::uint32_t c, const unsigned char* p, std::size_t n) {
  const auto& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8U) & 0xFFU] ^ t[5][(lo >> 16U) & 0xFFU] ^
        t[4][lo >> 24U] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8U) & 0xFFU] ^
        t[1][(hi >> 16U) & 0xFFU] ^ t[0][hi >> 24U];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8U);
  }
  return c;
}

constexpr Crc32Kernel kGeneric{"generic", update_generic};

}  // namespace

const Crc32Kernel* crc32_generic() { return &kGeneric; }

const Crc32Kernel* crc32_active() {
  static const Crc32Kernel* const active =
      crc32_pclmul() != nullptr ? crc32_pclmul() : crc32_generic();
  return active;
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t seed, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  return detail::crc32_active()->update(seed ^ 0xFFFFFFFFU, bytes, size) ^ 0xFFFFFFFFU;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_update(0, data, size);
}

}  // namespace mandipass::common
