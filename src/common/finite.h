// Finiteness tests that survive -ffast-math.
//
// The numeric kernels (core, auth, nn, ml) build with -ffast-math, whose
// -ffinite-math-only lets the compiler assume no NaN or Inf exists — it
// folds std::isfinite(x) to true and deletes the guard entirely. The
// robustness layer (DESIGN.md §12) exists precisely because real sensor
// streams DO carry NaN/Inf, so its gates must not rely on floating-point
// classification the optimiser is allowed to erase. These helpers inspect
// the IEEE-754 exponent bits directly through std::bit_cast: integer
// compares, immune to any math flag.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace mandipass::common {

/// True iff `v` is neither NaN nor ±Inf. Unlike std::isfinite, this holds
/// under -ffinite-math-only.
inline bool is_finite(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return ((bits >> 52) & 0x7FFU) != 0x7FFU;
}

inline bool is_finite(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  return ((bits >> 23) & 0xFFU) != 0xFFU;
}

/// True iff every value is finite. The loop has no early exit, so the
/// compiler vectorizes it; callers find the offending index with
/// is_finite only after this has failed.
inline bool all_finite(std::span<const double> xs) {
  constexpr std::uint64_t kExponent = 0x7FFULL << 52;
  std::uint64_t bad = 0;
  for (const double v : xs) {
    bad |= static_cast<std::uint64_t>((std::bit_cast<std::uint64_t>(v) & kExponent) == kExponent);
  }
  return bad == 0;
}

}  // namespace mandipass::common
