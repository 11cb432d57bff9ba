// mandilint: kernel-tu
//
// Block Box-Muller kernel (DESIGN.md §19). Plain branch-free C++ loops
// that GCC vectorizes at -O3 -march=native; the error analysis below is
// what makes the output independent of how (or whether) they vectorize.
#include "common/normal_kernel.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace mandipass::detail {
namespace {

// Must be the same double Rng::normal multiplies u2 by: the scalar
// expression 2.0 * pi * u2 folds its constant product exactly (a
// power-of-two scaling), so both paths take sin/cos of one argument.
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// ln 2 split so that k * kLn2Hi is exact for |k| <= 2^20 (kLn2Hi has 32
// significant bits) and kLn2Hi + kLn2Lo = ln 2 to ~2^-86.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// pi/2 split the same way (kPio2Hi has 33 significant bits), so
// x - k * kPio2Hi is exact for the quadrant counts k <= 4 seen here.
constexpr double kPio2Hi = 0x1.921fb544p+0;
constexpr double kPio2Lo = 0x1.0b4611a626331p-34;

// Adding 1.5 * 2^52 rounds a double in [0, 2^51) to the nearest integer
// and leaves that integer in the low mantissa bits.
constexpr double kRoundMagic = 0x1.8p52;

// Bit pattern of sqrt(1/2): subtracting it centres the mantissa range of
// the log reduction on 1 ([sqrt(1/2), sqrt(2))).
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
constexpr std::uint64_t kExponentMask = 0xfff0000000000000ULL;

// log on (0, 1) for normal doubles: x = 2^k * m with m in [sqrt(1/2),
// sqrt(2)), log m = 2 atanh(s) with s = (m - 1) / (m + 1), |s| < 0.1716,
// as the atanh series to s^21 (truncation < 2^-62 relative). f = m - 1
// is exact, s carries ~1.5 ulp, the series ~1 ulp more, and the k*ln2
// recombination never cancels by more than one bit (|log m| <= ln2 / 2),
// so the relative error stays below 2^-50 — including as x -> 1, where
// k = 0 and the result is 2s(1 + ...) with no reduction error at all.
inline double log_unit(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t tmp = bits - kSqrtHalfBits;
  const auto k = static_cast<double>(std::bit_cast<std::int64_t>(tmp) >> 52);
  const double m = std::bit_cast<double>(bits - (tmp & kExponentMask));
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double t = s * s;
  double p = 1.0 / 21.0;
  p = p * t + 1.0 / 19.0;
  p = p * t + 1.0 / 17.0;
  p = p * t + 1.0 / 15.0;
  p = p * t + 1.0 / 13.0;
  p = p * t + 1.0 / 11.0;
  p = p * t + 1.0 / 9.0;
  p = p * t + 1.0 / 7.0;
  p = p * t + 1.0 / 5.0;
  p = p * t + 1.0 / 3.0;
  const double two_s = 2.0 * s;
  const double log_m = two_s + two_s * (t * p);
  return k * kLn2Hi + (k * kLn2Lo + log_m);
}

struct SinCos {
  double sin;
  double cos;
  double reduced;  ///< x - k*pi/2, in [-pi/4, pi/4] up to rounding
};

// sin and cos on [0, 2*pi): two-part Cody-Waite reduction by pi/2 (the
// reduced angle's absolute error is < 2^-83, so its relative error is
// < 2^-59 once |r| >= kMinReducedAngle), then Taylor polynomials to
// r^17 / r^18 (truncation < 2^-62 on |r| <= pi/4), then the quadrant
// swap. Each polynomial rounds a few ulp: relative error < 2^-50.
inline SinCos sincos_2pi(double x) {
  const double kd = x * (2.0 / std::numbers::pi) + kRoundMagic;
  const std::uint64_t q = std::bit_cast<std::uint64_t>(kd) & 3U;
  const double k = kd - kRoundMagic;
  const double r = (x - k * kPio2Hi) - k * kPio2Lo;
  const double z = r * r;

  double ps = -1.0 / 355687428096000.0;  // -1/17!
  ps = ps * z + 1.0 / 1307674368000.0;   // 1/15!
  ps = ps * z - 1.0 / 6227020800.0;      // -1/13!
  ps = ps * z + 1.0 / 39916800.0;        // 1/11!
  ps = ps * z - 1.0 / 362880.0;          // -1/9!
  ps = ps * z + 1.0 / 5040.0;            // 1/7!
  ps = ps * z - 1.0 / 120.0;             // -1/5!
  ps = ps * z + 1.0 / 6.0;               // 1/3!
  const double sin_r = r - (r * z) * ps;

  double pc = 1.0 / 6402373705728000.0;  // 1/18!
  pc = pc * z - 1.0 / 20922789888000.0;  // -1/16!
  pc = pc * z + 1.0 / 87178291200.0;     // 1/14!
  pc = pc * z - 1.0 / 479001600.0;       // -1/12!
  pc = pc * z + 1.0 / 3628800.0;         // 1/10!
  pc = pc * z - 1.0 / 40320.0;           // -1/8!
  pc = pc * z + 1.0 / 720.0;             // 1/6!
  pc = pc * z - 1.0 / 24.0;              // -1/4!
  pc = pc * z + 0.5;                     // 1/2!
  const double cos_r = 1.0 - z * pc;

  // Quadrant q: sin x = (s, c, -s, -c)[q], cos x = (c, -s, -c, s)[q].
  const bool odd = (q & 1U) != 0;
  const double sv = odd ? cos_r : sin_r;
  const double cv = odd ? sin_r : cos_r;
  return {(q & 2U) != 0 ? -sv : sv, ((q + 1U) & 2U) != 0 ? -cv : cv, r};
}

// Rounds y to float when every double within `radius` of it rounds to
// the same float (compared bitwise, so -0.0f and +0.0f differ and NaN
// never passes); returns false otherwise.
inline bool round_guarded(double y, double radius, float& out) {
  const auto lo = static_cast<float>(y - radius);
  const auto hi = static_cast<float>(y + radius);
  out = lo;
  return std::bit_cast<std::uint32_t>(lo) == std::bit_cast<std::uint32_t>(hi) && lo == lo;
}

}  // namespace

void fast_log(std::span<const double> x, std::span<double> out) {
  MANDIPASS_EXPECTS(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = log_unit(x[i]);
  }
}

void fast_sincos(std::span<const double> x, std::span<double> sin_out,
                 std::span<double> cos_out) {
  MANDIPASS_EXPECTS(x.size() == sin_out.size() && x.size() == cos_out.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const SinCos sc = sincos_2pi(x[i]);
    sin_out[i] = sc.sin;
    cos_out[i] = sc.cos;
  }
}

// Why an accepted float is exact. Let z* be the true Box-Muller deviate of
// (u1, u2) and A = |mean| + stddev * |z*|. The exact path (glibc log, sin,
// cos: < 1 ulp each; sqrt, *, +: correctly rounded) and this kernel
// (kFastLogRelError, kFastSinCosRelError, the same correctly rounded
// operations) each land within ~2^-49 * A of mean + stddev * z*, so they
// differ by < 2^-48 * A, far inside the guard radius kExactGuard * A
// (2^-40 * A; the fast |z| in place of |z*| and the rounding of y +/-
// radius cost well under a percent of it). Rounding to float is
// monotone, so when both interval ends round to one float, the exact
// value — which lies between them — rounds to it too.
std::size_t box_muller_block(const double* u1, const double* u2, std::size_t n, double mean,
                             double stddev, float* out, std::uint8_t* exact) {
  std::size_t flagged = 0;
  const double abs_mean = std::abs(mean);
  for (std::size_t p = 0; p < n; ++p) {
    const double mag = std::sqrt(-2.0 * log_unit(u1[p]));
    const SinCos sc = sincos_2pi(kTwoPi * u2[p]);
    const double zc = mag * sc.cos;
    const double zs = mag * sc.sin;
    float fc = 0.0F;
    float fs = 0.0F;
    const bool ok_c =
        round_guarded(mean + stddev * zc, kExactGuard * (abs_mean + stddev * std::abs(zc)), fc);
    const bool ok_s =
        round_guarded(mean + stddev * zs, kExactGuard * (abs_mean + stddev * std::abs(zs)), fs);
    const bool ok = ok_c && ok_s && std::abs(sc.reduced) >= kMinReducedAngle;
    out[2 * p] = fc;
    out[2 * p + 1] = fs;
    exact[p] = ok ? 0 : 1;
    flagged += ok ? 0 : 1;
  }
  return flagged;
}

}  // namespace mandipass::detail
