// Compiled inference plan: fused Conv+BN+ReLU stages, a packed
// register-blocked GEMM kernel, and an allocation-free scratch arena
// (DESIGN.md §13).
//
// The training stack (Conv2d / BatchNorm2d / ReLU as separate layers,
// one freshly allocated Tensor per layer output) is the *reference*
// implementation: auditable, differentiable, and bit-stable. Inference
// never needs that generality — the branch topology is frozen, BatchNorm
// runs off its running statistics, and nothing is kept for a backward
// pass. An InferencePlan is compiled once from a trained branch:
//
//   * each BatchNorm2d's affine is folded into the preceding Conv2d's
//     weights and bias (w' = w * gamma/sqrt(var+eps),
//     b' = (b - mean) * gamma/sqrt(var+eps) + beta), and the ReLU becomes
//     a GEMM epilogue — one pass per conv block instead of three;
//   * the folded weights are pre-packed taps-major in blocks of
//     kOcBlock output channels and multiplied against a tile of kXTile
//     patch rows at a time, so each packed weight load is reused across
//     the tile while all accumulators stay in registers (an explicit
//     AVX2 kernel covers machines without AVX-512);
//   * every intermediate (im2col patches, activations) lives in a
//     ScratchArena that is reset — not freed — between samples, so the
//     steady state performs zero heap allocations.
//
// Numerics: within one output element the accumulation order over taps
// is the same ascending order the reference GEMM uses; the only drift
// versus the reference path is the BN folding itself (and FMA
// contraction), bounded in practice well under the documented 1e-5
// max-abs embedding tolerance. Each sample is computed independently and
// serially, so results are bit-identical for any thread count and for
// single- vs batched extraction.
// The quantized variant (DESIGN.md §18) compiles the same frozen branch
// into an int8 plan: the BN fold happens identically (shared
// fold_conv_bn), then each folded weight matrix is quantized per-row to
// int8 and pre-packed in 16-channel blocks of 4-tap groups for the
// integer dot-product kernels (qgemm_*.cpp: AVX-512 VNNI vpdpbusd, AVX2
// vpmaddubsw+vpmaddwd, NEON vdotq_s32, and a generic contract-defining
// fallback). Activations are quantized per input vector to 7-bit
// unsigned [0, 127] — per *vector*, not per tile, so results are
// independent of batching; 7-bit, so the AVX2 i16 pair-sums cannot
// saturate and every tier's int32 accumulators are exact and
// bit-identical. Dequantization and the fused ReLU/Sigmoid epilogue run
// in float in one shared driver (quantized_plan.cpp, -fno-fast-math),
// so full outputs — not just accumulators — match across tiers bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "nn/conv2d.h"
#include "nn/quantize.h"
#include "nn/tensor.h"

namespace mandipass::nn {

class Sequential;
class BatchNorm2d;

/// Bump allocator for per-forward intermediates. alloc() hands out
/// uninitialised float storage from a list of fixed blocks; reset()
/// rewinds every block without releasing memory, so after a warm-up pass
/// with a given allocation pattern no further heap traffic occurs.
/// Pointers stay valid from their alloc() until the next reset() (blocks
/// are never reallocated in place).
///
/// Not thread-safe by design: an arena is a *thread-confined capability*
/// — use one arena per thread (see thread_scratch_arena()). The contract
/// is enforced twice over:
///   * statically, the class is a MANDIPASS_CAPABILITY and the mutating
///     entry points MANDIPASS_REQUIRES(this); callers vouch for
///     confinement with assert_owner(), so a path that passes an arena
///     across threads without re-asserting fails the tsafety build;
///   * dynamically, assert_owner() binds the arena to the first calling
///     thread and MANDIPASS_EXPECTS-fails on any other thread.
/// mandilint's arena-escape rule additionally rejects storing arena
/// pointers in members, returning them, or capturing them in detached
/// lambdas.
class MANDIPASS_CAPABILITY("arena") ScratchArena {
 public:
  /// Binds the arena to the calling thread on first use; precondition
  /// failure if any other thread touches it afterwards. Calling this is
  /// how a scope takes ownership of the capability for the analysis.
  void assert_owner() const MANDIPASS_ASSERT_CAPABILITY(this);

  /// Uninitialised storage for `count` floats (the caller must write
  /// every element it reads back). count == 0 returns a valid pointer.
  float* alloc(std::size_t count) MANDIPASS_REQUIRES(this);

  /// Rewinds every block; capacity is retained. Not noexcept: the owner
  /// check throws on cross-thread misuse.
  void reset() MANDIPASS_REQUIRES(this);

  /// Total reserved storage across blocks, in bytes.
  std::size_t capacity_bytes() const noexcept;

  std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::vector<float> data;
    std::size_t used = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< index of the block alloc() tries first
  /// Owning thread, bound by the first assert_owner()/alloc()/reset().
  /// mutable + default id{}: a freshly constructed arena is unowned and
  /// adoptable by whichever thread touches it first.
  mutable std::thread::id owner_;
};

/// The calling thread's arena, created on first use and reused (reset,
/// never freed) by every compiled-plan forward on that thread.
ScratchArena& thread_scratch_arena();

/// GEMM epilogue applied to each output element before the store.
enum class Epilogue : std::uint8_t { None, Relu, Sigmoid };

/// A (rows x cols) weight matrix pre-packed for the register-blocked
/// kernel: output rows are grouped in blocks of kOcBlock, and within a
/// block the storage is taps-major —
/// packed[(block * cols + k) * kOcBlock + j] = W[block * kOcBlock + j][k]
/// — so the inner loop over k broadcasts x[k] against kOcBlock
/// contiguous weights while the accumulators stay in registers.
///
/// run() multiplies a *batch* of input vectors (e.g. all im2col patch
/// rows of a conv stage) in tiles of kXTile vectors: one packed weight
/// vector load is reused across the tile, which is what lifts the kernel
/// off the 2-loads-per-FMA bound a plain matrix-vector dot sits on.
/// Tail blocks are zero-padded; per-element accumulation order over k is
/// the ascending order of the reference dot product, for every tile
/// shape, so results are independent of how inputs are batched.
class PackedGemm {
 public:
  static constexpr std::size_t kOcBlock = 16;  ///< one AVX-512 lane / two AVX2 lanes
  static constexpr std::size_t kXTile = 4;     ///< input vectors per weight stream

  PackedGemm() = default;

  /// Packs from row-major `w` of shape (rows, cols); `bias` has `rows`
  /// entries or is nullptr for an all-zero bias.
  void pack_rows(const float* w, const float* bias, std::size_t rows, std::size_t cols);

  /// Packs the transpose: `w` is row-major (cols, rows) and logical
  /// W[r][c] = w[c * rows + r]. Used for right-multiplication layouts
  /// such as the Gaussian cancelable transform x' = x * G.
  void pack_columns(const float* w, const float* bias, std::size_t rows, std::size_t cols);

  /// pack_columns() one column at a time: reset_columns() sizes zeroed
  /// storage (zero bias) for a (rows, cols) matrix, then pack_column(k,
  /// wk) sets W[r][k] = wk[r] for all rows() entries of wk. A producer
  /// that generates the transpose row by row (the Gaussian transform)
  /// packs it without materialising the whole input.
  void reset_columns(std::size_t rows, std::size_t cols);
  void pack_column(std::size_t k, const float* wk);

  /// For every input vector xi in [0, x_count) and output row r:
  ///   y[r * y_stride + xi] =
  ///       epilogue(bias[r] + sum_k W[r][k] * x[xi * x_stride + k]).
  /// Each input vector holds cols() floats. For a conv stage, x = the
  /// im2col patch matrix (x_count = positions, x_stride = taps) and
  /// y_stride = positions, which lands the output directly in (C, H, W)
  /// order.
  void run(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
           std::size_t y_stride, Epilogue epilogue) const;

  /// Single-vector convenience: y[r * y_stride] = epilogue(W x + b)[r].
  void run(const float* x, float* y, std::size_t y_stride, Epilogue epilogue) const {
    run(x, 1, cols_, y, y_stride, epilogue);
  }

  /// Like run(), but with the output transposed to x-major layout:
  ///   y[xi * y_stride + r] =
  ///       epilogue(bias[r] + sum_k W[r][k] * x[xi * x_stride + k]),
  /// so each input vector's full result is contiguous. This is the layout
  /// batched verification wants — one coalesced call over many probes,
  /// each probe's transformed vector handed onward as a contiguous span.
  /// The arithmetic is shared with run() (same kernels, same ascending-k
  /// accumulation); only the store indexing differs, so for every (r, xi)
  /// the value is bit-identical to run()'s and to a x_count==1 call.
  void run_xmajor(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
                  std::size_t y_stride, Epilogue epilogue) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

  /// Read-only view of the packed weight buffer (block-major, padded).
  /// This is the authoritative kernel input, so integrity checks (e.g.
  /// MatrixCache's CRC poison detection) checksum exactly these bytes.
  const std::vector<float>& packed_weights() const noexcept { return weights_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> weights_;  ///< block-major, zero-padded tail rows
  std::vector<float> bias_;     ///< padded to a block multiple
};

/// A Conv2d with its following BatchNorm2d folded in: (out_channels,
/// taps) weights and per-channel bias, ready to pack or quantize.
struct FoldedConv {
  Tensor weights;          ///< (out_channels, in_channels * kernel_h * kernel_w)
  std::vector<float> bias;  ///< out_channels
};

/// Folds `bn`'s affine (off its running statistics) into `conv`'s
/// weights and bias, in double: w' = w * s, b' = (b - mean) * s + beta
/// with s = gamma / sqrt(var + eps). Shared by InferencePlan::compile and
/// the int8 snapshot (core::QuantizedExtractor) so both paths fold
/// identically.
FoldedConv fold_conv_bn(Conv2d& conv, BatchNorm2d& bn);

/// A compiled [Conv2d + BatchNorm2d + ReLU] x N (+ Flatten) branch for a
/// fixed input plane geometry. Compile once (after training), run many.
class InferencePlan {
 public:
  InferencePlan() = default;

  /// Compiles `branch` — which must be Conv2d/BatchNorm2d/ReLU triples
  /// optionally followed by a single Flatten — for input planes of shape
  /// (in_channels-of-first-conv, h_in, w_in). Reads running statistics,
  /// so the source must be in its final (trained) state.
  static InferencePlan compile(Sequential& branch, std::size_t h_in, std::size_t w_in);

  /// Runs the branch on one sample: `plane` holds the compiled input
  /// shape (C, H, W) in that order; the flattened features
  /// (feature_count() floats, the same (C, H, W) order nn::Flatten
  /// produces) are written to `out`. All intermediates come from `arena`;
  /// the caller owns reset() and must hold the arena capability
  /// (assert_owner() in scope).
  void run(const float* plane, float* out, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);

  std::size_t feature_count() const noexcept;

 private:
  /// One fused Conv+BN+ReLU stage.
  struct Stage {
    std::size_t out_channels = 0;
    std::size_t taps = 0;       ///< in_channels * kernel_h * kernel_w
    std::size_t positions = 0;  ///< h_out * w_out
    /// Flat source offset per (output position, tap); -1 = padding tap.
    std::vector<std::ptrdiff_t> patch_index;
    PackedGemm gemm;  ///< folded weights, rows = out_channels, cols = taps
  };

  std::vector<Stage> stages_;
};

/// Names of every int8 kernel tier compiled into this binary, in
/// dispatch-preference order; the active tier is first and "generic"
/// (always present) is last. The equivalence suite iterates this list
/// and demands bit-identical outputs from every entry.
std::vector<const char*> quantized_kernel_tiers();

/// The tier PackedQuantizedGemm::run dispatches to.
const char* active_quantized_kernel();

/// An int8 per-row-scaled weight matrix pre-packed for the integer
/// dot-product kernels: output rows in blocks of kOcBlock, columns in
/// groups of kTapGroup taps —
///   packed[blk][(kg * kOcBlock + j) * kTapGroup + t]
///       = Wq[blk * kOcBlock + j][kg * kTapGroup + t]
/// — so one VNNI vpdpbusd (or NEON vdot lane / AVX2 maddubs pair)
/// consumes a whole 4-tap group for 16 channels per step. Tail rows and
/// the tail tap group are zero-padded (0-weight x any activation byte
/// contributes 0, so padding is exact).
///
/// run() quantizes each input vector on the fly to 7-bit unsigned
/// [0, 127] with a per-vector zero point, accumulates exactly in int32,
/// and dequantizes with the precomputed per-row tap sums:
///   y[r] = float(acc - zp * rowsum[r]) * (ascale * scale[r]) + bias[r]
/// A zero-scale weight row or a constant input vector short-circuits to
/// y[r] = bias[r] exactly. All intermediates come from the caller's
/// ScratchArena; the steady state performs zero heap allocations.
class PackedQuantizedGemm {
 public:
  static constexpr std::size_t kOcBlock = 16;  ///< matches PackedGemm
  static constexpr std::size_t kXTile = 4;     ///< input vectors per weight stream
  static constexpr std::size_t kTapGroup = 4;  ///< taps per integer dot step

  PackedQuantizedGemm() = default;

  /// Packs `q` (from quantize_rows) with `bias` of q.rows entries, or
  /// nullptr for an all-zero bias.
  void pack_rows(const QuantizedMatrix& q, const float* bias);

  /// For every input vector xi in [0, x_count) and output row r:
  ///   y[r * y_stride + xi] = epilogue(dequant(Wq x_q)[r] + bias[r]).
  /// Same layout contract as PackedGemm::run. Values are bit-identical
  /// for every kernel tier, thread count, and batch grouping.
  void run(const float* x, std::size_t x_count, std::size_t x_stride, float* y,
           std::size_t y_stride, Epilogue epilogue, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);

  /// run() over vectors already quantized to the packed byte layout
  /// (x_stride = kgroups * kTapGroup bytes, group-padding bytes
  /// written) that share ONE affine (ascale, zero_point). This is the
  /// plan's stage path: a conv stage quantizes its input plane once and
  /// gathers im2col patches as bytes, so padding taps gather the
  /// zero-point byte, which dequantizes to exactly 0. Needs no arena —
  /// the accumulators live on the stack.
  void run_prequantized(const std::uint8_t* qx, std::size_t x_count, float ascale,
                        float zero_point, float* y, std::size_t y_stride,
                        Epilogue epilogue) const;

  /// run() forced onto a specific tier from quantized_kernel_tiers(),
  /// for the cross-tier equivalence suite. Returns false (output
  /// untouched) if `tier` names a tier not compiled into this binary.
  bool run_tier(const char* tier, const float* x, std::size_t x_count,
                std::size_t x_stride, float* y, std::size_t y_stride, Epilogue epilogue,
                ScratchArena& arena) const MANDIPASS_REQUIRES(arena);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t kgroups_ = 0;  ///< ceil(cols / kTapGroup), the packed k extent
  std::vector<std::int8_t> weights_;    ///< block-major, zero-padded
  std::vector<float> scales_;           ///< per row, padded to a block multiple
  std::vector<std::int32_t> row_sums_;  ///< per row: sum_k Wq[r][k], padded
  std::vector<float> bias_;             ///< per row, padded
};

/// One conv layer of a quantized branch: the BN-folded weights
/// (fold_conv_bn), quantized per row. `weights` has rows ==
/// config.out_channels and cols == in_channels * kernel_h * kernel_w;
/// `bias` has out_channels entries.
struct QuantizedConv {
  Conv2dConfig config;
  QuantizedMatrix weights;
  std::vector<float> bias;
};

/// The int8 counterpart of InferencePlan: same fused single-pass
/// geometry (im2col gather into the arena, one GEMM per stage with the
/// ReLU fused as a dequantizing epilogue), but each stage multiplies
/// through a PackedQuantizedGemm.
class QuantizedInferencePlan {
 public:
  QuantizedInferencePlan() = default;

  /// Compiles a branch of already folded + quantized conv layers (each
  /// followed by a ReLU) for input planes of shape
  /// (in_channels-of-first-layer, h_in, w_in).
  static QuantizedInferencePlan compile(std::span<const QuantizedConv> layers,
                                        std::size_t h_in, std::size_t w_in);

  /// Runs the branch on one sample; contract identical to
  /// InferencePlan::run.
  void run(const float* plane, float* out, ScratchArena& arena) const
      MANDIPASS_REQUIRES(arena);

  std::size_t feature_count() const noexcept;

 private:
  struct Stage {
    std::size_t out_channels = 0;
    std::size_t plane_count = 0;  ///< in_channels * h_in * w_in
    std::size_t taps = 0;
    std::size_t positions = 0;
    std::vector<std::ptrdiff_t> patch_index;
    PackedQuantizedGemm gemm;
  };

  std::vector<Stage> stages_;
};

}  // namespace mandipass::nn
