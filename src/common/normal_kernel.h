// Vectorizable Box-Muller block kernel behind Rng::fill_normal
// (DESIGN.md §19, "Exact batched Gaussian draws").
//
// The kernel evaluates sqrt(-2 log u1) * {cos, sin}(2*pi*u2) for a block
// of uniform pairs with restricted-domain log and sincos approximations
// whose relative error is bounded by the constants below, then rounds
// each deviate y = mean + stddev * z to float only where an interval of
// relative half-width kExactGuard around y rounds to a single float. That
// interval contains the exact glibc value, so every accepted float is the
// one Rng::normal would have produced; every other pair is flagged for
// the caller to recompute with the exact scalar expression. The result is
// bit-identical to the scalar loop whatever the compiler does to this TU.
//
// Internal to the common module: Rng::fill_normal is the public entry
// point. The free functions are exposed for the accuracy sweep in
// tests/common/test_rng.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mandipass::detail {

/// Relative-error bound of fast_log against the exact log of its double
/// argument, over the whole of (0, 1).
inline constexpr double kFastLogRelError = 0x1p-50;

/// Relative-error bound of fast_sincos against the exact sin and cos of
/// its double argument on [0, 2*pi), wherever the reduced angle
/// |x - k*pi/2| is at least kMinReducedAngle. Closer to a zero of sin or
/// cos the reduction's absolute error dominates, so box_muller_block
/// sends those lanes to the exact path instead.
inline constexpr double kFastSinCosRelError = 0x1p-50;
inline constexpr double kMinReducedAngle = 0x1p-24;

/// Half-width of the rounding guard, relative to |mean| + stddev * |z|
/// (eta in DESIGN.md §19). It exceeds the kernels' error plus glibc's
/// 1-ulp error by a factor of ~2^9, so the fast and exact values always
/// lie inside one guard interval.
inline constexpr double kExactGuard = 0x1p-40;

/// out[i] ~= log(x[i]) for x[i] in (0, 1). Spans must be equally sized.
void fast_log(std::span<const double> x, std::span<double> out);

/// sin_out[i] ~= sin(x[i]), cos_out[i] ~= cos(x[i]) for x[i] in [0, 2*pi).
void fast_sincos(std::span<const double> x, std::span<double> sin_out,
                 std::span<double> cos_out);

/// Box-Muller over n uniform pairs, u1[p] in (0, 1) and u2[p] in [0, 1):
/// out[2p] and out[2p + 1] receive float(mean + stddev * z) for the
/// cosine and sine deviates of pair p, and exact[p] is set to 1 where
/// those floats are not proven equal to the exact scalar expression's
/// (the caller must recompute that pair), else 0. Returns the number of
/// flagged pairs.
std::size_t box_muller_block(const double* u1, const double* u2, std::size_t n, double mean,
                             double stddev, float* out, std::uint8_t* exact);

}  // namespace mandipass::detail
