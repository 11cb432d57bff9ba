#include "auth/gaussian_matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "auth/cosine.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "nn/inference_plan.h"

namespace mandipass::auth {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.uniform(0.0, 1.0));  // sigmoid-range, like MandiblePrints
  }
  return v;
}

TEST(GaussianMatrix, DeterministicForSeed) {
  const GaussianMatrix a(7, 64);
  const GaussianMatrix b(7, 64);
  const auto x = random_vec(64, 1);
  const auto ya = a.transform(x);
  const auto yb = b.transform(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(GaussianMatrix, DifferentSeedsDiffer) {
  const GaussianMatrix a(7, 64);
  const GaussianMatrix b(8, 64);
  const auto x = random_vec(64, 1);
  EXPECT_GT(cosine_distance(a.transform(x), b.transform(x)), 0.3);
}

TEST(GaussianMatrix, SameMatrixPreservesSimilarStructure) {
  // The core cancelable-template property: distances under the SAME matrix
  // track the original distances (random projection ~ isometry on average).
  const GaussianMatrix g(42, 128);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto x = random_vec(128, 100 + trial);
    auto y = x;
    // y = small perturbation of x (a genuine user's fresh probe).
    for (auto& v : y) {
      v += static_cast<float>(rng.normal(0.0, 0.02));
    }
    const double before = cosine_distance(x, y);
    const double after = cosine_distance(g.transform(x), g.transform(y));
    EXPECT_LT(std::abs(after - before), 0.12);
  }
}

TEST(GaussianMatrix, DifferentMatricesDecorrelate) {
  // The re-key property: the SAME print under two different matrices must
  // look like strangers (this is what defeats replay).
  Rng rng(3);
  double mean_distance = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const GaussianMatrix g1(1000 + t, 128);
    const GaussianMatrix g2(2000 + t, 128);
    const auto x = random_vec(128, 300 + t);
    mean_distance += cosine_distance(g1.transform(x), g2.transform(x));
  }
  mean_distance /= trials;
  // Random projections of positive vectors are near-orthogonal on average.
  EXPECT_GT(mean_distance, 0.7);
}

TEST(GaussianMatrix, TransformIsLinear) {
  const GaussianMatrix g(9, 32);
  const auto x = random_vec(32, 4);
  auto x2 = x;
  for (auto& v : x2) {
    v *= 2.0f;
  }
  const auto y = g.transform(x);
  const auto y2 = g.transform(x2);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y2[i], 2.0f * y[i], 1e-3f);
  }
}

TEST(GaussianMatrix, OutputDimensionMatches) {
  const GaussianMatrix g(5, 16);
  EXPECT_EQ(g.transform(random_vec(16, 5)).size(), 16u);
  EXPECT_EQ(g.dim(), 16u);
  EXPECT_EQ(g.seed(), 5u);
}

TEST(GaussianMatrix, PinnedRealization) {
  // CRC32 of the packed matrix for fixed (seed, dim), recorded from the
  // scalar-draw constructor (one Rng::normal per entry, then
  // pack_columns). Any change to the Gaussian stream, its rounding or the
  // packing moves these — and with them every sealed template.
  EXPECT_EQ(GaussianMatrix(7, 64).checksum(), 0xc28dfe7dU);
  EXPECT_EQ(GaussianMatrix(42, 512).checksum(), 0x72b279d1U);
  EXPECT_EQ(GaussianMatrix(1, 63).checksum(), 0x3bd29742U);
}

TEST(GaussianMatrix, MatchesScalarReferenceElementByElement) {
  // Reference: the entry-by-entry scalar draw the constructor replaced,
  // packed with pack_columns. transform() must agree bit for bit.
  for (const std::size_t dim : {1U, 2U, 15U, 16U, 17U, 63U, 64U, 200U}) {
    for (const std::uint64_t seed : {3U, 77U, 1234567U}) {
      Rng rng(seed);
      std::vector<float> g(dim * dim);
      const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
      for (auto& v : g) {
        v = static_cast<float>(rng.normal(0.0, sigma));
      }
      nn::PackedGemm ref;
      ref.pack_columns(g.data(), nullptr, dim, dim);
      const GaussianMatrix m(seed, dim);
      const std::vector<float>& w = ref.packed_weights();
      EXPECT_EQ(m.checksum(), common::crc32(w.data(), w.size() * sizeof(float)));
      const auto x = random_vec(dim, seed + 1);
      std::vector<float> want(dim);
      ref.run(x.data(), want.data(), 1, nn::Epilogue::None);
      const std::vector<float> got = m.transform(x);
      ASSERT_EQ(got.size(), dim);
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[j]), std::bit_cast<std::uint32_t>(want[j]))
            << "dim " << dim << ", seed " << seed << ", output " << j;
      }
    }
  }
}

TEST(GaussianMatrix, TemplateBytes) {
  EXPECT_EQ(GaussianMatrix::template_bytes(512), 2048u);  // ~the paper's 1.8 KB claim
}

TEST(GaussianMatrix, WrongInputSizeThrows) {
  const GaussianMatrix g(5, 16);
  EXPECT_THROW(g.transform(random_vec(8, 1)), PreconditionError);
}

TEST(GaussianMatrix, ZeroDimThrows) {
  EXPECT_THROW(GaussianMatrix(1, 0), PreconditionError);
}

}  // namespace
}  // namespace mandipass::auth
