// PCLMULQDQ CRC-32 tier: folds 64-byte blocks four 128-bit lanes at a
// time with carry-less multiplies, folds the lanes and any further
// 16-byte blocks into one, then reduces 128 -> 64 -> 32 bits with a
// Barrett step (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel, 2009). CRC is linear
// over GF(2), so every fold is an exact rewrite of the same remainder;
// the output is bit-identical to the generic tier (DESIGN.md §20).
// mandilint: allow-file(expects-guard) -- pure kernel TU: total over any
// byte span; inputs under 64 bytes never reach the fold.
#include "common/crc32_kernels.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && !defined(MANDIPASS_FORCE_GENERIC_KERNELS)

#include <immintrin.h>

namespace mandipass::common::detail {
namespace {

// The fold constants are x^e mod P for P = 0x104C11DB7, bit-reflected
// into the CRC's LSB-first order as 33-bit operands: the carry-less
// product of reflected n- and m-bit operands is the reflected
// (n+m-1)-bit product. A 96-bit product fills the low 96 bits of a lane,
// which in this layout is the product times x^32, hence the -32 in each
// exponent. Derived here and checked against the paper's table.
constexpr std::uint64_t kPoly = 0x104C11DB7ULL;

constexpr std::uint64_t reflect(std::uint64_t v, unsigned bits) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r |= ((v >> i) & 1U) << (bits - 1U - i);
  }
  return r;
}

constexpr std::uint64_t fold_constant(unsigned e) {
  std::uint64_t r = 1;  // x^0
  for (unsigned i = 0; i < e; ++i) {
    r <<= 1U;
    if ((r >> 32U) != 0U) {
      r ^= kPoly;
    }
  }
  return reflect(r, 32) << 1U;
}

// Barrett quotient mu = floor(x^64 / P), by long division of x^64.
constexpr std::uint64_t barrett_mu() {
  std::uint64_t q = 0;
  std::uint64_t r = 0;
  for (int i = 64; i >= 0; --i) {
    r = (r << 1U) | (i == 64 ? 1U : 0U);
    if ((r >> 32U) != 0U) {
      r ^= kPoly;
      q |= std::uint64_t{1} << static_cast<unsigned>(i);
    }
  }
  return q;
}

constexpr std::uint64_t kK1 = fold_constant(4 * 128 + 32);  // fold by 4 x 128 bits
constexpr std::uint64_t kK2 = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kK3 = fold_constant(128 + 32);  // fold by 128 bits
constexpr std::uint64_t kK4 = fold_constant(128 - 32);
constexpr std::uint64_t kK5 = fold_constant(64);  // 96 -> 64 bits
constexpr std::uint64_t kPolyR = reflect(kPoly, 33);
constexpr std::uint64_t kMuR = reflect(barrett_mu(), 33);
static_assert(kK1 == 0x154442BD4ULL && kK2 == 0x1C6E41596ULL);
static_assert(kK3 == 0x1751997D0ULL && kK4 == 0x0CCAA009EULL);
static_assert(kK5 == 0x163CD6124ULL);
static_assert(kPolyR == 0x1DB710641ULL && kMuR == 0x1F7011641ULL);

__m128i constant_pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

__m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds lane `acc` onto lane `next`, the distance k encodes further on:
// acc's low (earlier) half times k.lo, its high half times k.hi.
__m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Raw CRC register after `n` bytes; n >= 64 and a multiple of 16.
std::uint32_t fold_blocks(std::uint32_t state, const unsigned char* p, std::size_t n) {
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = constant_pair(kK1, kK2);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  const __m128i k3k4 = constant_pair(kK3, kK4);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = fold(x0, k3k4, load(p));
  }

  // 128 -> 96 bits: the low half times x^(128-32) onto the high half.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 96 -> 64 bits: the low 32 bits times x^64.
  const __m128i k5 = constant_pair(kK5, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));

  // Barrett: q = (low 32 bits * mu) mod x^32, remainder = x0 ^ q * P.
  const __m128i poly = constant_pair(kPolyR, kMuR);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

std::uint32_t update_pclmul(std::uint32_t state, const unsigned char* p, std::size_t n) {
  if (n >= 64) {
    const std::size_t body = n & ~std::size_t{15};
    state = fold_blocks(state, p, body);
    p += body;
    n -= body;
  }
  return crc32_generic()->update(state, p, n);
}

constexpr Crc32Kernel kPclmul{"pclmul", update_pclmul};

}  // namespace

const Crc32Kernel* crc32_pclmul() { return &kPclmul; }

}  // namespace mandipass::common::detail

#else  // !PCLMUL || !SSE4.1 || MANDIPASS_FORCE_GENERIC_KERNELS

namespace mandipass::common::detail {

const Crc32Kernel* crc32_pclmul() { return nullptr; }

}  // namespace mandipass::common::detail

#endif
