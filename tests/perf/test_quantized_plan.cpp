// Cross-tier equivalence suite for the int8 compiled inference plan
// (DESIGN.md §18). The contract under test:
//
//   * every SIMD kernel tier compiled into this binary (VNNI, AVX2,
//     NEON) produces accumulators bit-identical to the generic int32
//     reference tier, at shapes that stress the padding paths: cols not
//     a multiple of the 4-tap group, rows not a multiple of the
//     16-channel block;
//   * QuantizedExtractor::extract/extract_batch are bit-identical to
//     each other and across batch sizes 1/7/128 and thread counts
//     1/2/8 (per-vector activation quantization makes each sample
//     independent of the batch split);
//   * the plan's embeddings stay within the documented max-abs drift
//     bound of the float-activation scalar reference path;
//   * a zero-scale weight row and an all-zero input vector both
//     short-circuit to y = bias exactly;
//   * worker arenas stop growing after one warm-up pass;
//   * requantize() recompiles the plan from the new snapshot;
//   * the int8 output bits of a fixed extractor and batch are pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/extractor.h"
#include "core/quantized_extractor.h"
#include "core/trainer.h"
#include "nn/inference_plan.h"
#include "nn/quantize.h"
#include "nn/tensor.h"

namespace mandipass::core {
namespace {

// The documented plan-vs-scalar-reference bound: activation
// quantization is 7-bit, so post-sigmoid embeddings drift well under
// this (bench_quantized measures the actual value each run).
constexpr float kDriftTol = 5e-2f;

GradientArray random_gradient_array(Rng& rng, std::size_t half) {
  GradientArray g;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    g.positive[a].resize(half);
    g.negative[a].resize(half);
    for (std::size_t i = 0; i < half; ++i) {
      g.positive[a][i] = rng.uniform(0.0, 0.5);
      g.negative[a][i] = rng.uniform(-0.5, 0.0);
    }
  }
  return g;
}

std::vector<GradientArray> random_batch(std::size_t count, std::size_t half,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GradientArray> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(random_gradient_array(rng, half));
  }
  return out;
}

bool bitwise_equal(const std::vector<std::vector<float>>& a,
                   const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

ExtractorConfig small_config() {
  ExtractorConfig cfg;
  cfg.half_length = 30;
  cfg.embedding_dim = 32;
  cfg.channels = {4, 6, 8};
  return cfg;
}

void train_briefly(BiometricExtractor& ex, std::uint64_t seed) {
  LabeledGradientSet data;
  Rng rng(seed);
  for (std::uint32_t person = 0; person < 4; ++person) {
    for (std::size_t s = 0; s < 12; ++s) {
      data.arrays.push_back(random_gradient_array(rng, ex.config().half_length));
      data.labels.push_back(person);
    }
  }
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  ExtractorTrainer trainer(ex, tc);
  trainer.train(data);
}

/// A packed gemm over a random weight matrix plus a matching random
/// input batch, for driving run()/run_tier() directly.
struct GemmCase {
  nn::PackedQuantizedGemm gemm;
  std::vector<float> x;  ///< x_count vectors of `cols` floats each
  std::vector<float> bias;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t x_count = 0;
};

GemmCase make_case(std::size_t rows, std::size_t cols, std::size_t x_count,
                   std::uint64_t seed) {
  Rng rng(seed);
  GemmCase c;
  c.rows = rows;
  c.cols = cols;
  c.x_count = x_count;
  nn::Tensor w({rows, cols});
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  c.bias.resize(rows);
  for (auto& b : c.bias) {
    b = static_cast<float>(rng.normal(0.0, 0.2));
  }
  c.gemm.pack_rows(nn::quantize_rows(w), c.bias.data());
  c.x.resize(x_count * cols);
  for (auto& v : c.x) {
    v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return c;
}

class QuantizedPlanEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { common::ThreadPool::set_global_threads(1); }
};

TEST_F(QuantizedPlanEquivalence, AllTiersMatchGenericBitExactlyAtOddShapes) {
  // Rows off the 16-channel block and cols off the 4-tap group / SIMD
  // width exercise every zero-padded tail path.
  const std::size_t row_shapes[] = {1, 7, 15, 16, 17, 33, 64};
  const std::size_t col_shapes[] = {3, 5, 17, 33, 100, 257};
  const nn::Epilogue epilogues[] = {nn::Epilogue::None, nn::Epilogue::Relu,
                                    nn::Epilogue::Sigmoid};
  const auto tiers = nn::quantized_kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  nn::ScratchArena arena;
  arena.assert_owner();
  std::uint64_t seed = 1;
  for (const std::size_t rows : row_shapes) {
    for (const std::size_t cols : col_shapes) {
      // 5 input vectors: one full 4-wide tile plus a remainder column.
      const GemmCase c = make_case(rows, cols, 5, seed++);
      std::vector<float> ref(rows * c.x_count);
      arena.reset();
      ASSERT_TRUE(c.gemm.run_tier("generic", c.x.data(), c.x_count, cols, ref.data(),
                                  c.x_count, nn::Epilogue::None, arena));
      for (const nn::Epilogue ep : epilogues) {
        std::vector<float> via_run(rows * c.x_count);
        arena.reset();
        c.gemm.run(c.x.data(), c.x_count, cols, via_run.data(), c.x_count, ep, arena);
        for (const char* tier : tiers) {
          std::vector<float> got(rows * c.x_count, -42.0f);
          arena.reset();
          ASSERT_TRUE(c.gemm.run_tier(tier, c.x.data(), c.x_count, cols, got.data(),
                                      c.x_count, ep, arena))
              << tier;
          EXPECT_EQ(std::memcmp(got.data(), via_run.data(),
                                got.size() * sizeof(float)),
                    0)
              << tier << " vs dispatch at " << rows << "x" << cols << " epilogue "
              << static_cast<int>(ep);
        }
        if (ep == nn::Epilogue::None) {
          EXPECT_EQ(std::memcmp(via_run.data(), ref.data(), ref.size() * sizeof(float)),
                    0)
              << "dispatch vs generic at " << rows << "x" << cols;
        }
      }
    }
  }
}

TEST_F(QuantizedPlanEquivalence, UnknownTierIsRejectedWithoutTouchingOutput) {
  const GemmCase c = make_case(16, 36, 2, 99);
  nn::ScratchArena arena;
  arena.assert_owner();
  std::vector<float> y(c.rows * c.x_count, -7.0f);
  EXPECT_FALSE(c.gemm.run_tier("sse42", c.x.data(), c.x_count, c.cols, y.data(),
                               c.x_count, nn::Epilogue::None, arena));
  for (float v : y) {
    EXPECT_EQ(v, -7.0f);
  }
}

TEST_F(QuantizedPlanEquivalence, ActiveTierIsListed) {
  const char* active = nn::active_quantized_kernel();
  ASSERT_NE(active, nullptr);
  bool listed = false;
  for (const char* tier : nn::quantized_kernel_tiers()) {
    listed = listed || std::strcmp(tier, active) == 0;
  }
  EXPECT_TRUE(listed) << active;
#if defined(MANDIPASS_FORCE_GENERIC_KERNELS)
  EXPECT_STREQ(active, "generic");
  EXPECT_EQ(nn::quantized_kernel_tiers().size(), 1u);
#endif
}

TEST_F(QuantizedPlanEquivalence, ZeroScaleRowAndZeroInputPassBiasThrough) {
  // Row 1 of the weight matrix is all zeros -> scale 0 -> y[1] must be
  // exactly bias[1] whatever the input; an all-zero input vector has
  // zero quantization range -> every row must produce exactly bias[r].
  const std::size_t rows = 5, cols = 19;
  nn::Tensor w({rows, cols});
  Rng rng(7);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  for (std::size_t k = 0; k < cols; ++k) {
    w.at2(1, k) = 0.0f;
  }
  std::vector<float> bias = {0.5f, -3.25f, 1.0f, 0.125f, -0.75f};
  nn::PackedQuantizedGemm gemm;
  gemm.pack_rows(nn::quantize_rows(w), bias.data());

  std::vector<float> x(2 * cols, 0.0f);
  for (std::size_t k = 0; k < cols; ++k) {
    x[cols + k] = static_cast<float>(rng.normal(0.0, 100.0));  // huge inputs
  }
  nn::ScratchArena arena;
  arena.assert_owner();
  std::vector<float> y(rows * 2);
  gemm.run(x.data(), 2, cols, y.data(), 2, nn::Epilogue::None, arena);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(y[r * 2 + 0], bias[r]) << "zero input, row " << r;
  }
  EXPECT_EQ(y[1 * 2 + 1], bias[1]) << "zero-scale row, huge input";
}

TEST_F(QuantizedPlanEquivalence, ExtractorBitIdenticalAcrossBatchAndThreads) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 31);
  const QuantizedExtractor qex(ex);
  for (const std::size_t batch_size :
       {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
    const auto batch = random_batch(batch_size, ex.config().half_length, 200 + batch_size);
    common::ThreadPool::set_global_threads(1);
    const auto serial = qex.extract_batch(batch);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      common::ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(bitwise_equal(serial, qex.extract_batch(batch)))
          << "batch " << batch_size << ", " << threads << " threads";
    }
  }
}

TEST_F(QuantizedPlanEquivalence, SingleSampleMatchesBatchedBitExactly) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 32);
  const QuantizedExtractor qex(ex);
  const auto batch = random_batch(7, ex.config().half_length, 210);
  common::ThreadPool::set_global_threads(8);
  const auto batched = qex.extract_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto single = qex.extract(batch[i]);
    ASSERT_EQ(single.size(), batched[i].size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(single[j], batched[i][j]) << "sample " << i << " dim " << j;
    }
  }
}

TEST_F(QuantizedPlanEquivalence, PlanStaysWithinDriftBoundOfScalarReference) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 33);
  const QuantizedExtractor qex(ex);
  Rng rng(220);
  for (int t = 0; t < 8; ++t) {
    const auto g = random_gradient_array(rng, ex.config().half_length);
    const auto planned = qex.extract(g);
    const auto scalar = qex.extract_scalar(g);
    ASSERT_EQ(planned.size(), scalar.size());
    for (std::size_t j = 0; j < planned.size(); ++j) {
      EXPECT_NEAR(planned[j], scalar[j], kDriftTol) << "sample " << t << " dim " << j;
    }
  }
}

TEST_F(QuantizedPlanEquivalence, SteadyStateDoesNotGrowArenas) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 34);
  const QuantizedExtractor qex(ex);
  const auto batch = random_batch(32, ex.config().half_length, 230);
  common::ThreadPool::set_global_threads(1);
  (void)qex.extract(batch[0]);
  (void)qex.extract_batch(batch);  // warm-up: arena blocks get carved
  const std::size_t warm = nn::thread_scratch_arena().capacity_bytes();
  EXPECT_GT(warm, 0u);
  for (int round = 0; round < 5; ++round) {
    (void)qex.extract_batch(batch);
    (void)qex.extract(batch[static_cast<std::size_t>(round)]);
    EXPECT_EQ(nn::thread_scratch_arena().capacity_bytes(), warm) << "round " << round;
  }
}

TEST_F(QuantizedPlanEquivalence, RequantizeRecompilesThePlan) {
  BiometricExtractor ex(small_config());
  train_briefly(ex, 35);
  QuantizedExtractor qex(ex);
  const auto batch = random_batch(3, ex.config().half_length, 240);
  const auto before = qex.extract_batch(batch);
  train_briefly(ex, 36);
  qex.requantize(ex);
  const auto after = qex.extract_batch(batch);
  EXPECT_FALSE(bitwise_equal(before, after)) << "plan survived requantize";
  // A fresh snapshot of the same source must agree bit-for-bit.
  const QuantizedExtractor fresh(ex);
  EXPECT_TRUE(bitwise_equal(after, fresh.extract_batch(batch)));
}

// Pinned int8 bits: CRC32 of the concatenated outputs of extract,
// extract_batch and extract_scalar for one fixed extractor and batch. The
// extractor is the seeded initialisation with every parameter (conv
// weights and biases, BN gamma/beta, trunk) shifted by seeded noise, not a
// trained one: training runs -ffast-math reductions whose bits move with
// the build's code generation (sanitizer instrumentation included). The
// compiled plan is integer inside and -fno-fast-math outside, so its
// outputs match across kernel tiers and sanitizer builds. The pins were
// taken on x86-64 with AVX-512 (-march=native).
TEST_F(QuantizedPlanEquivalence, Int8EmbeddingBitsArePinned) {
  common::ThreadPool::set_global_threads(1);
  BiometricExtractor ex(small_config());
  Rng noise(41);
  for (nn::Param* p : ex.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += static_cast<float>(noise.normal(0.0, 0.05));
    }
  }
  const QuantizedExtractor qex(ex);
  const auto batch = random_batch(11, ex.config().half_length, 250);
  const auto crc_of = [](const std::vector<std::vector<float>>& rows) {
    std::uint32_t crc = 0;
    for (const auto& row : rows) {
      crc = common::crc32_update(crc, row.data(), row.size() * sizeof(float));
    }
    return crc;
  };
  std::vector<std::vector<float>> single;
  std::vector<std::vector<float>> scalar;
  for (const GradientArray& g : batch) {
    single.push_back(qex.extract(g));
    scalar.push_back(qex.extract_scalar(g));
  }
  EXPECT_EQ(crc_of(single), 0x57312f05U);
  EXPECT_EQ(crc_of(qex.extract_batch(batch)), 0x57312f05U);
  // extract_scalar sums through nn::quantized_matvec, a -ffast-math loop
  // that sanitizer builds vectorize differently (1-ulp moves in about
  // half the outputs), so its bits have one pin per build flavour.
#if defined(MANDIPASS_SANITIZED_BUILD)
  constexpr std::uint32_t kScalarCrc = 0x95cdcf34U;
#else
  constexpr std::uint32_t kScalarCrc = 0xd90cfed2U;
#endif
  EXPECT_EQ(crc_of(scalar), kScalarCrc);
}

}  // namespace
}  // namespace mandipass::core
