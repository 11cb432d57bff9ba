#include "nn/inference_plan.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers.h"
#include "nn/sequential.h"

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

namespace mandipass::nn {

namespace {

// Allocation granularity: 16 floats = one cache line, and enough for the
// widest vector unit this kernel targets.
constexpr std::size_t kAlignFloats = 16;
// 128 KiB per block: one block comfortably holds every intermediate of a
// MandiPass-scale branch, so the steady state is a single warm block.
constexpr std::size_t kMinBlockFloats = std::size_t{1} << 15;

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

}  // namespace

void ScratchArena::assert_owner() const {
  const std::thread::id self = std::this_thread::get_id();
  if (owner_ == std::thread::id{}) {
    owner_ = self;  // first toucher adopts the arena
    return;
  }
  MANDIPASS_EXPECTS(owner_ == self);
}

float* ScratchArena::alloc(std::size_t count) {
  assert_owner();
  const std::size_t n = round_up(std::max<std::size_t>(count, 1), kAlignFloats);
  while (active_ < blocks_.size()) {
    Block& blk = blocks_[active_];
    if (blk.data.size() - blk.used >= n) {
      float* p = blk.data.data() + blk.used;
      blk.used += n;
      return p;
    }
    ++active_;  // too fragmented; later allocs retry from this block
  }
  blocks_.emplace_back();
  Block& blk = blocks_.back();
  blk.data.resize(std::max(n, kMinBlockFloats));
  blk.used = n;
  return blk.data.data();
}

void ScratchArena::reset() {
  assert_owner();
  for (Block& blk : blocks_) {
    blk.used = 0;
  }
  active_ = 0;
}

std::size_t ScratchArena::capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const Block& blk : blocks_) {
    total += blk.data.size() * sizeof(float);
  }
  return total;
}

ScratchArena& thread_scratch_arena() {
  thread_local ScratchArena arena;
  return arena;
}

void PackedGemm::pack_rows(const float* w, const float* bias, std::size_t rows,
                           std::size_t cols) {
  MANDIPASS_EXPECTS(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  const std::size_t blocks = (rows + kOcBlock - 1) / kOcBlock;
  weights_.assign(blocks * cols * kOcBlock, 0.0f);
  bias_.assign(blocks * kOcBlock, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t blk = r / kOcBlock;
    const std::size_t j = r % kOcBlock;
    for (std::size_t k = 0; k < cols; ++k) {
      weights_[(blk * cols + k) * kOcBlock + j] = w[r * cols + k];
    }
    if (bias != nullptr) {
      bias_[r] = bias[r];
    }
  }
}

void PackedGemm::pack_columns(const float* w, const float* bias, std::size_t rows,
                              std::size_t cols) {
  reset_columns(rows, cols);
  for (std::size_t k = 0; k < cols; ++k) {
    pack_column(k, w + k * rows);
  }
  if (bias != nullptr) {
    std::copy(bias, bias + rows, bias_.begin());
  }
}

void PackedGemm::reset_columns(std::size_t rows, std::size_t cols) {
  MANDIPASS_EXPECTS(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  const std::size_t blocks = (rows + kOcBlock - 1) / kOcBlock;
  weights_.assign(blocks * cols * kOcBlock, 0.0f);
  bias_.assign(blocks * kOcBlock, 0.0f);
}

void PackedGemm::pack_column(std::size_t k, const float* wk) {
  MANDIPASS_EXPECTS(k < cols_);
  for (std::size_t r0 = 0; r0 < rows_; r0 += kOcBlock) {
    const std::size_t n = std::min(kOcBlock, rows_ - r0);
    float* dst = weights_.data() + ((r0 / kOcBlock) * cols_ + k) * kOcBlock;
    std::copy(wk + r0, wk + r0 + n, dst);
  }
}

namespace {

inline float apply_epilogue(float v, Epilogue e) {
  switch (e) {
    case Epilogue::Relu:
      return v > 0.0f ? v : 0.0f;
    case Epilogue::Sigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::None:
      break;
  }
  return v;
}

// One block of kOcBlock output rows against a tile of P input vectors
// (P = kXTile for full tiles, 1 for the remainder). The P * kOcBlock
// accumulators live in registers across the whole k loop; each iteration
// loads one packed weight vector and reuses it for all P broadcasts, so
// the kernel is FMA-bound instead of load-bound. Per output element the
// accumulation is the same ascending-k order as the reference dot
// product, for every P — results never depend on the tiling.
// The kernels are written with explicit intrinsics because compilers
// offered the generic form tend to vectorize across the P input vectors
// (4-wide, one weight broadcast per FMA) instead of across the kOcBlock
// channels — an order of magnitude off.
#if defined(__AVX512F__)
template <std::size_t P>
inline void block_tile(const float* wb, const float* xt, std::size_t x_stride,
                       std::size_t cols, const float* bias, float* acc_out) {
  static_assert(PackedGemm::kOcBlock == 16, "AVX-512 kernel assumes 16-wide blocks");
  __m512 acc[P];
  for (std::size_t p = 0; p < P; ++p) {
    acc[p] = _mm512_loadu_ps(bias);
  }
  for (std::size_t k = 0; k < cols; ++k) {
    const __m512 wv = _mm512_loadu_ps(wb + k * 16);
    for (std::size_t p = 0; p < P; ++p) {
      acc[p] = _mm512_fmadd_ps(wv, _mm512_set1_ps(xt[p * x_stride + k]), acc[p]);
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm512_storeu_ps(acc_out + p * 16, acc[p]);
  }
}
#elif defined(__AVX2__) && defined(__FMA__)
template <std::size_t P>
inline void block_tile(const float* wb, const float* xt, std::size_t x_stride,
                       std::size_t cols, const float* bias, float* acc_out) {
  static_assert(PackedGemm::kOcBlock == 16, "AVX2 kernel assumes 16-wide blocks");
  __m256 lo[P];
  __m256 hi[P];
  for (std::size_t p = 0; p < P; ++p) {
    lo[p] = _mm256_loadu_ps(bias);
    hi[p] = _mm256_loadu_ps(bias + 8);
  }
  for (std::size_t k = 0; k < cols; ++k) {
    const __m256 wlo = _mm256_loadu_ps(wb + k * 16);
    const __m256 whi = _mm256_loadu_ps(wb + k * 16 + 8);
    for (std::size_t p = 0; p < P; ++p) {
      const __m256 xk = _mm256_set1_ps(xt[p * x_stride + k]);
      lo[p] = _mm256_fmadd_ps(wlo, xk, lo[p]);
      hi[p] = _mm256_fmadd_ps(whi, xk, hi[p]);
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm256_storeu_ps(acc_out + p * 16, lo[p]);
    _mm256_storeu_ps(acc_out + p * 16 + 8, hi[p]);
  }
}
#else
template <std::size_t P>
inline void block_tile(const float* wb, const float* xt, std::size_t x_stride,
                       std::size_t cols, const float* bias, float* acc_out) {
  constexpr std::size_t kB = PackedGemm::kOcBlock;
  float acc[P][kB];
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t j = 0; j < kB; ++j) {
      acc[p][j] = bias[j];
    }
  }
  for (std::size_t k = 0; k < cols; ++k) {
    const float* wv = wb + k * kB;
    for (std::size_t p = 0; p < P; ++p) {
      const float xk = xt[p * x_stride + k];
      for (std::size_t j = 0; j < kB; ++j) {
        acc[p][j] += wv[j] * xk;
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t j = 0; j < kB; ++j) {
      acc_out[p * kB + j] = acc[p][j];
    }
  }
}
#endif

// Shared driver for run() / run_xmajor(): identical tiling and identical
// per-element arithmetic (block_tile accumulates in ascending k for every
// tile shape), so the two output layouts hold bit-identical values — only
// the store addressing below differs. kXMajor=false writes row-major
// y[r * y_stride + xi] (conv stages); kXMajor=true writes per-input
// contiguous y[xi * y_stride + r] (coalesced verification batches).
template <bool kXMajor>
inline void run_packed(const float* weights, const float* bias, std::size_t rows,
                       std::size_t cols, const float* x, std::size_t x_count,
                       std::size_t x_stride, float* y, std::size_t y_stride,
                       Epilogue epilogue) {
  constexpr std::size_t kOcBlock = PackedGemm::kOcBlock;
  constexpr std::size_t kXTile = PackedGemm::kXTile;
  const std::size_t blocks = (rows + kOcBlock - 1) / kOcBlock;
  float acc[kXTile * kOcBlock];
  const auto store = [&](std::size_t blk, std::size_t xi, std::size_t tile) {
    const std::size_t base = blk * kOcBlock;
    const std::size_t lim = std::min(kOcBlock, rows - base);
    for (std::size_t j = 0; j < lim; ++j) {
      for (std::size_t p = 0; p < tile; ++p) {
        const float v = apply_epilogue(acc[p * kOcBlock + j], epilogue);
        if constexpr (kXMajor) {
          y[(xi + p) * y_stride + base + j] = v;
        } else {
          y[(base + j) * y_stride + xi + p] = v;
        }
      }
    }
  };
  std::size_t xi = 0;
  for (; xi + kXTile <= x_count; xi += kXTile) {
    const float* xt = x + xi * x_stride;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      block_tile<kXTile>(weights + blk * cols * kOcBlock, xt, x_stride, cols,
                         bias + blk * kOcBlock, acc);
      store(blk, xi, kXTile);
    }
  }
  for (; xi < x_count; ++xi) {
    const float* xt = x + xi * x_stride;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      block_tile<1>(weights + blk * cols * kOcBlock, xt, x_stride, cols,
                    bias + blk * kOcBlock, acc);
      store(blk, xi, 1);
    }
  }
}

}  // namespace

void PackedGemm::run(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
                     std::size_t y_stride, Epilogue epilogue) const {
  run_packed<false>(weights_.data(), bias_.data(), rows_, cols_, x, x_count, x_stride, y,
                    y_stride, epilogue);
}

void PackedGemm::run_xmajor(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
                            std::size_t y_stride, Epilogue epilogue) const {
  run_packed<true>(weights_.data(), bias_.data(), rows_, cols_, x, x_count, x_stride, y,
                   y_stride, epilogue);
}

FoldedConv fold_conv_bn(Conv2d& conv, BatchNorm2d& bn) {
  // Fold BN into the conv: y = gamma * (conv(x) - mean) / sqrt(var+eps)
  // + beta  ==  conv'(x) with w' = w * s, b' = (b - mean) * s + beta,
  // s = gamma / sqrt(var + eps). Folded in double, matching the
  // reference eval path's double inv_std (batchnorm.cpp).
  const Conv2dConfig& cc = conv.config();
  const std::size_t out_channels = cc.out_channels;
  const std::size_t taps = cc.in_channels * cc.kernel_h * cc.kernel_w;
  FoldedConv folded{Tensor({out_channels, taps}), std::vector<float>(out_channels)};
  const std::vector<Param*> cp = conv.params();
  const std::vector<Param*> bp = bn.params();
  const Tensor& wt = cp[0]->value;
  const Tensor& bt = cp[1]->value;
  const Tensor& gamma = bp[0]->value;
  const Tensor& beta = bp[1]->value;
  const Tensor& mean = bn.running_mean();
  const Tensor& var = bn.running_var();
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    const double scale = static_cast<double>(gamma[oc]) /
                         std::sqrt(static_cast<double>(var[oc]) + bn.eps());
    for (std::size_t k = 0; k < taps; ++k) {
      folded.weights[oc * taps + k] =
          static_cast<float>(static_cast<double>(wt[oc * taps + k]) * scale);
    }
    folded.bias[oc] = static_cast<float>(
        (static_cast<double>(bt[oc]) - static_cast<double>(mean[oc])) * scale +
        static_cast<double>(beta[oc]));
  }
  return folded;
}

InferencePlan InferencePlan::compile(Sequential& branch, std::size_t h_in, std::size_t w_in) {
  InferencePlan plan;
  const std::size_t count = branch.layer_count();
  std::size_t h = h_in;
  std::size_t w = w_in;
  std::size_t i = 0;
  while (i + 2 < count) {
    auto* conv = dynamic_cast<Conv2d*>(&branch.layer(i));
    auto* bn = dynamic_cast<BatchNorm2d*>(&branch.layer(i + 1));
    auto* relu = dynamic_cast<ReLU*>(&branch.layer(i + 2));
    if (conv == nullptr || bn == nullptr || relu == nullptr) {
      break;
    }
    const Conv2dConfig& cc = conv->config();
    const std::size_t h_out = Conv2d::out_extent(h, cc.kernel_h, cc.stride_h, cc.pad_h);
    const std::size_t w_out = Conv2d::out_extent(w, cc.kernel_w, cc.stride_w, cc.pad_w);
    Stage stage;
    stage.out_channels = cc.out_channels;
    stage.taps = cc.in_channels * cc.kernel_h * cc.kernel_w;
    stage.positions = h_out * w_out;
    stage.patch_index = Conv2d::make_patch_index(cc, h, w);

    const FoldedConv folded = fold_conv_bn(*conv, *bn);
    stage.gemm.pack_rows(folded.weights.data(), folded.bias.data(), cc.out_channels,
                         stage.taps);
    h = h_out;
    w = w_out;
    plan.stages_.push_back(std::move(stage));
    i += 3;
  }
  // Whatever follows the triples must be at most one Flatten, which is a
  // no-op on the plan's already-flat (C, H, W) features.
  const bool tail_ok =
      i == count || (i + 1 == count && dynamic_cast<Flatten*>(&branch.layer(i)) != nullptr);
  if (plan.stages_.empty() || !tail_ok) {
    throw ShapeError(
        "InferencePlan::compile expects [Conv2d, BatchNorm2d, ReLU] triples + optional Flatten");
  }
  return plan;
}

std::size_t InferencePlan::feature_count() const noexcept {
  if (stages_.empty()) {
    return 0;
  }
  const Stage& s = stages_.back();
  return s.out_channels * s.positions;
}

void InferencePlan::run(const float* plane, float* out, ScratchArena& arena) const {
  MANDIPASS_EXPECTS(!stages_.empty());
  const float* cur = plane;
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const Stage& s = stages_[si];
    // Gather: one im2col row per output position. Every cell is written
    // (padding taps as 0), so the arena storage needs no pre-zeroing.
    const std::size_t cells = s.positions * s.taps;
    float* patches = arena.alloc(cells);
    const std::ptrdiff_t* idx = s.patch_index.data();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::ptrdiff_t src = idx[cell];
      patches[cell] = src >= 0 ? cur[src] : 0.0f;
    }
    // Fused conv+BN+ReLU GEMM over all patch rows at once (so the kernel
    // gets full x-tiles). Writing with stride `positions` lands the
    // output directly in (C, H, W) order, which for the final stage is
    // exactly the Flatten layout.
    float* next = si + 1 == stages_.size() ? out : arena.alloc(s.out_channels * s.positions);
    s.gemm.run(patches, s.positions, s.taps, next, s.positions, Epilogue::Relu);
    cur = next;
  }
}

}  // namespace mandipass::nn
