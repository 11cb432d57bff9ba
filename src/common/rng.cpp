#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/normal_kernel.h"

namespace mandipass {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256++ step on `s`. fill_normal runs it on a local copy of
// the state so the serial draw chain stays in registers.
inline std::uint64_t xoshiro_next(std::uint64_t (&s)[4]) {
  const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// 53 high bits -> double in [0, 1).
inline double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// The exact Box-Muller pair and its affine map: normal() and
// fill_normal()'s exact fallback both go through these, so the two paths
// evaluate one expression under one set of compile flags.
struct NormalPair {
  double cos_dev;
  double sin_dev;
};

NormalPair box_muller(double u1, double u2) {
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return {mag * std::cos(2.0 * std::numbers::pi * u2),
          mag * std::sin(2.0 * std::numbers::pi * u2)};
}

double affine(double mean, double stddev, double z) {
  return mean + stddev * z;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) {
    w = splitmix64(s);
  }
}

Rng::result_type Rng::operator()() {
  return xoshiro_next(state_);
}

double Rng::uniform() {
  return unit_double((*this)());
}

double Rng::uniform(double lo, double hi) {
  MANDIPASS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MANDIPASS_EXPECTS(n > 0);
  // Lemire's rejection-free-ish multiply-shift with rejection for exactness.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const NormalPair z = box_muller(u1, u2);
  spare_ = z.sin_dev;
  has_spare_ = true;
  return z.cos_dev;
}

double Rng::normal(double mean, double stddev) {
  MANDIPASS_EXPECTS(stddev >= 0.0);
  return affine(mean, stddev, normal());
}

std::size_t Rng::fill_normal(std::span<float> out, double mean, double stddev) {
  if (out.empty()) {
    return 0;
  }
  MANDIPASS_EXPECTS(stddev >= 0.0);
  std::size_t i = 0;
  if (has_spare_) {
    out[i++] = static_cast<float>(normal(mean, stddev));
  }
  // Pairs per kernel call: big enough to amortise the call and keep the
  // vector loop busy, small enough that the uniforms stay in L1.
  constexpr std::size_t kBlock = 256;
  double u1[kBlock];
  double u2[kBlock];
  std::uint8_t exact[kBlock];
  std::size_t fallbacks = 0;
  while (out.size() - i >= 2) {
    const std::size_t n = std::min(kBlock, (out.size() - i) / 2);
    // The draws are serial (each xoshiro step depends on the last) and
    // consume the stream exactly as normal() would, rejection included.
    std::uint64_t s[4] = {state_[0], state_[1], state_[2], state_[3]};
    for (std::size_t p = 0; p < n; ++p) {
      do {
        u1[p] = unit_double(xoshiro_next(s));
      } while (u1[p] <= 0.0);
      u2[p] = unit_double(xoshiro_next(s));
    }
    std::copy(s, s + 4, state_);
    float* dst = out.data() + i;
    if (detail::box_muller_block(u1, u2, n, mean, stddev, dst, exact) != 0) {
      for (std::size_t p = 0; p < n; ++p) {
        if (exact[p] != 0) {
          const NormalPair z = box_muller(u1[p], u2[p]);
          dst[2 * p] = static_cast<float>(affine(mean, stddev, z.cos_dev));
          dst[2 * p + 1] = static_cast<float>(affine(mean, stddev, z.sin_dev));
          ++fallbacks;
        }
      }
    }
    i += 2 * n;
  }
  if (i < out.size()) {
    // An odd tail: the scalar draw leaves the exact sine deviate pending.
    out[i] = static_cast<float>(normal(mean, stddev));
  }
  return fallbacks;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) {
  MANDIPASS_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::fork() {
  // Mixing two raw outputs through splitmix keeps child streams decorrelated
  // from the parent's subsequent draws.
  std::uint64_t s = (*this)() ^ rotl((*this)(), 29);
  return Rng(splitmix64(s));
}

}  // namespace mandipass
