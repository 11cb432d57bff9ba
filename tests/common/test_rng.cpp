#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/normal_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace mandipass {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum2 += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++counts[k];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIndexOneAlwaysZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_index(1), 0u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto p = rng.permutation(100);
  ASSERT_EQ(p.size(), 100u);
  std::vector<bool> seen(100, false);
  for (std::size_t v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, PermutationEmpty) {
  Rng rng(43);
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.fork();
  // Child's outputs should differ from the parent's subsequent outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic) {
  Rng a(53);
  Rng b(53);
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca(), cb());
  }
}

TEST(Rng, PreconditionViolations) {
  Rng rng(59);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
}

// ---------------------------------------------------------------------------
// fill_normal: bit-exact against the scalar normal() loop (DESIGN.md §19).

// The contract fill_normal must reproduce.
std::vector<float> scalar_fill(Rng& rng, std::size_t count, double mean, double stddev) {
  std::vector<float> out(count);
  for (float& v : out) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return out;
}

// Runs fill_normal and the scalar loop from one seed, entered with or
// without a pending spare deviate, and checks every output bit plus the
// generator state afterwards. Returns fill_normal's fallback count.
std::size_t expect_fill_matches_scalar(std::uint64_t seed, std::size_t count, double mean,
                                       double stddev, bool pending_spare) {
  Rng fast(seed);
  Rng slow(seed);
  if (pending_spare) {
    EXPECT_EQ(fast.normal(), slow.normal());  // leaves the sine deviate pending
  }
  std::vector<float> got(count);
  const std::size_t fallbacks = fast.fill_normal(got, mean, stddev);
  const std::vector<float> want = scalar_fill(slow, count, mean, stddev);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    mismatches += std::bit_cast<std::uint32_t>(got[i]) != std::bit_cast<std::uint32_t>(want[i]);
  }
  const auto where = ::testing::Message() << "seed " << seed << ", count " << count << ", N("
                                          << mean << ", " << stddev << "), spare "
                                          << pending_spare;
  EXPECT_EQ(mismatches, 0U) << where;
  // Same state afterwards: the spare (or its absence), then the stream.
  EXPECT_EQ(fast.normal(), slow.normal()) << where;
  EXPECT_EQ(fast.uniform(), slow.uniform()) << where;
  return fallbacks;
}

TEST(RngFillNormal, MatchesScalarLoopBitForBit) {
  struct Params {
    double mean;
    double stddev;
  };
  const Params small[] = {{0.0, 1.0}, {0.0, 1.0 / std::sqrt(64.0)}, {0.0, 1.0 / std::sqrt(63.0)},
                          {10.0, 2.0}, {-0.5, 0.01}};
  const std::size_t small_counts[] = {0, 1, 2, 3, 17, 63 * 63, 64 * 64};
  std::size_t fallbacks = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (const bool spare : {false, true}) {
      for (const std::size_t count : small_counts) {
        for (const Params& p : small) {
          fallbacks += expect_fill_matches_scalar(seed, count, p.mean, p.stddev, spare);
        }
      }
      // The paper-shape Gaussian transform: 512 x 512 at N(0, 1/512).
      fallbacks +=
          expect_fill_matches_scalar(seed, 512 * 512, 0.0, 1.0 / std::sqrt(512.0), spare);
    }
  }
  // ~1 pair in 2e4 lands near a float rounding boundary; over ~15M pairs
  // the exact fallback must have run.
  EXPECT_GT(fallbacks, 0U);
}

TEST(RngFillNormal, NonFiniteScaleTakesExactPathEverywhere) {
  // stddev = inf makes every guard interval NaN-ended, so every pair is
  // recomputed by the exact path — and still matches the scalar loop.
  const std::size_t count = 1001;
  EXPECT_EQ(expect_fill_matches_scalar(5, count, 0.0, INFINITY, false), count / 2);
  EXPECT_EQ(expect_fill_matches_scalar(5, count, 0.0, INFINITY, true), (count - 1) / 2);
}

TEST(RngFillNormal, NegativeStddevThrowsWithoutDrawing) {
  Rng rng(61);
  Rng ref(61);
  std::vector<float> buf(8);
  EXPECT_THROW(rng.fill_normal(buf, 0.0, -1.0), PreconditionError);
  EXPECT_EQ(rng.fill_normal(std::span<float>{}, 0.0, 1.0), 0U);
  EXPECT_EQ(rng(), ref());
}

TEST(NormalKernel, FlagsPairsWithAReducedAngleNearAnAxis) {
  // u2 = k/4 puts 2*pi*u2 within a few ulp of k*pi/2, where sin or cos is
  // near zero and the fast kernel's relative bound does not hold.
  std::vector<double> u1;
  std::vector<double> u2;
  for (int k = 0; k < 4; ++k) {
    for (int j = 0; j < 64; ++j) {
      u1.push_back(0.25 + 0.01 * j);
      u2.push_back(k / 4.0 + j * 0x1p-53);
    }
  }
  std::vector<float> out(2 * u1.size());
  std::vector<std::uint8_t> exact(u1.size());
  EXPECT_EQ(detail::box_muller_block(u1.data(), u2.data(), u1.size(), 0.0, 1.0, out.data(),
                                     exact.data()),
            u1.size());
  EXPECT_TRUE(std::all_of(exact.begin(), exact.end(), [](std::uint8_t e) { return e == 1; }));
}

// Relative error of `got` against a long-double reference.
long double rel_error(double got, long double want) {
  return std::fabs(static_cast<long double>(got) - want) / std::fabs(want);
}

TEST(NormalKernel, FastLogWithinDocumentedBound) {
  std::vector<double> xs;
  // Every binade boundary and its neighbours, down to the smallest
  // uniform() > 0 (2^-53).
  for (int e = 1; e <= 53; ++e) {
    const double p = std::ldexp(1.0, -e);
    xs.push_back(p);
    xs.push_back(std::nextafter(p, 1.0));
    if (e < 53) {
      xs.push_back(std::nextafter(p, 0.0));
    }
    xs.push_back(1.0 - p);  // u1 -> 1 geometrically
  }
  // u1 -> 1 at uniform()'s resolution: 1 - j * 2^-53.
  for (int j = 1; j <= 4096; ++j) {
    xs.push_back(1.0 - j * 0x1p-53);
  }
  // The reduction's split point sqrt(1/2), both sides.
  double lo = std::sqrt(0.5);
  double hi = lo;
  for (int j = 0; j < 1024; ++j) {
    xs.push_back(lo);
    xs.push_back(hi);
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, 1.0);
  }
  // Dense: uniform in (0, 1) and log-uniform over (2^-53, 1).
  Rng rng(71);
  for (int i = 0; i < (1 << 19); ++i) {
    const double u = rng.uniform();
    if (u > 0.0) {
      xs.push_back(u);
    }
    xs.push_back(std::exp2(-53.0 * rng.uniform()));
  }
  std::vector<double> got(xs.size());
  detail::fast_log(xs, got);
  long double worst = 0.0L;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const long double err = rel_error(got[i], std::log(static_cast<long double>(xs[i])));
    if (err > worst) {
      worst = err;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, static_cast<long double>(detail::kFastLogRelError))
      << "worst at x = " << worst_x;
}

TEST(NormalKernel, FastSinCosWithinDocumentedBoundAwayFromAxes) {
  constexpr long double kPio2 = std::numbers::pi_v<long double> / 2;
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  std::vector<double> xs;
  // Approaches to every axis k*pi/2 in [0, 2*pi), from both sides, at
  // offsets 2^-1 .. 2^-23 and at the reduced-angle threshold itself.
  for (int k = 0; k <= 4; ++k) {
    const double axis = static_cast<double>(k * kPio2);
    for (int m = 1; m <= 23; ++m) {
      xs.push_back(axis + std::ldexp(1.0, -m));
      xs.push_back(axis - std::ldexp(1.0, -m));
    }
    for (int j = 0; j < 256; ++j) {
      const double off = detail::kMinReducedAngle * (1.0 + j / 64.0);
      xs.push_back(axis + off);
      xs.push_back(axis - off);
    }
  }
  xs.push_back(std::nextafter(kTwoPi, 0.0));
  // Dense: the Box-Muller argument 2*pi*u2 itself.
  Rng rng(73);
  for (int i = 0; i < (1 << 20); ++i) {
    xs.push_back(kTwoPi * rng.uniform());
  }
  // Keep [0, 2*pi) and drop the lanes box_muller_block sends to the
  // exact path (|x - k*pi/2| < kMinReducedAngle).
  std::erase_if(xs, [&](double x) {
    const long double q = std::nearbyint(static_cast<long double>(x) / kPio2);
    return x < 0.0 || x >= kTwoPi ||
           std::fabs(static_cast<long double>(x) - q * kPio2) <
               static_cast<long double>(detail::kMinReducedAngle);
  });
  std::vector<double> s(xs.size());
  std::vector<double> c(xs.size());
  detail::fast_sincos(xs, s, c);
  long double worst = 0.0L;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto x = static_cast<long double>(xs[i]);
    const long double err = std::max(rel_error(s[i], std::sin(x)), rel_error(c[i], std::cos(x)));
    if (err > worst) {
      worst = err;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, static_cast<long double>(detail::kFastSinCosRelError))
      << "worst at x = " << worst_x;
}

}  // namespace
}  // namespace mandipass
