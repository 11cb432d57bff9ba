// Internal CRC-32 kernel interface shared by the generic tier
// (crc32.cpp), the carry-less-multiply tier (crc32_pclmul.cpp) and the
// tests that hold every compiled tier to the byte-at-a-time definition.
//
// A tier folds `size` bytes into the raw CRC register: the value between
// crc32_update's pre- and post-inversion. Every tier computes the same
// remainder modulo the same polynomial, so they are bit-identical for
// every input (DESIGN.md §20). crc32_update dispatches to the first
// compiled tier in preference order: pclmul, then generic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mandipass::common::detail {

struct Crc32Kernel {
  const char* name;
  std::uint32_t (*update)(std::uint32_t state, const unsigned char* data, std::size_t size);
};

/// Slice-by-8 tables with a byte-at-a-time tail; always available.
const Crc32Kernel* crc32_generic();
/// PCLMULQDQ fold-by-4 tier; nullptr when not compiled in (no PCLMUL or
/// SSE4.1 on the target, or MANDIPASS_FORCE_GENERIC_KERNELS).
const Crc32Kernel* crc32_pclmul();
/// The tier crc32_update dispatches to.
const Crc32Kernel* crc32_active();

}  // namespace mandipass::common::detail
