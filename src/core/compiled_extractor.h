// Compiled inference path for the biometric extractor (DESIGN.md §13, §18).
//
// PlanExtractor is the one serving driver of the compiled two-branch CNN,
// parameterised over its branch plan and trunk GEMM. It owns three packed
// artifacts — one branch plan per direction (Conv+BN+ReLU triples folded
// and fused, weights pre-packed) and the trunk Linear with the Sigmoid
// fused as its epilogue — and runs extract()/extract_batch() end-to-end
// with every intermediate in a per-thread ScratchArena: zero heap
// allocations in the steady state, no Tensor plumbing, and input planes
// packed straight from the GradientArray slices.
//
// It has two instantiations:
//   * CompiledExtractor — float plans (nn::InferencePlan, nn::PackedGemm),
//     built from a trained BiometricExtractor;
//   * Int8PlanExtractor — int8 plans (nn::QuantizedInferencePlan,
//     nn::PackedQuantizedGemm), built and held by QuantizedExtractor.
//
// A compiled path is a snapshot of the source's weights; it does not
// track later training. BiometricExtractor owns the float invalidation
// (recompile after train-mode forward, backward or load) so callers of
// extract/extract_batch never observe a stale plan; QuantizedExtractor
// recompiles on requantize().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/signal_array.h"
#include "nn/inference_plan.h"

namespace mandipass::core {

class BiometricExtractor;

template <class BranchPlan, class TrunkGemm>
class PlanExtractor {
 public:
  /// The packed artifacts of one extractor. Both branches must emit the
  /// same feature count and the trunk must take their concatenation.
  struct Plans {
    BranchPlan positive;
    BranchPlan negative;
    TrunkGemm trunk;  ///< trunk Linear; Sigmoid fused as epilogue
  };

  PlanExtractor(std::size_t axes, std::size_t half_length, Plans plans);

  /// Embeds one gradient array. Bit-identical to extract_batch of the
  /// same sample (the batch path runs the same per-sample branch plans
  /// and a tile-size-invariant trunk).
  std::vector<float> extract(const GradientArray& array) const;

  /// Embeds every array; row i is the MandiblePrint of arrays[i]. Fans
  /// out in tiles of kSampleTile samples over the global thread pool with
  /// one ScratchArena per worker; the trunk GEMM streams its packed
  /// weights once per tile. Each output element is computed by exactly
  /// one thread in a tile-size-invariant order (the int8 trunk quantizes
  /// activations per input vector), so the result is bit-identical for
  /// any thread count and batch split.
  std::vector<std::vector<float>> extract_batch(std::span<const GradientArray> arrays) const;

  /// Samples per trunk-GEMM tile in extract_batch (bounds arena usage;
  /// has no effect on results).
  static constexpr std::size_t kSampleTile = 8;

  std::size_t axes() const noexcept { return axes_; }
  std::size_t half_length() const noexcept { return half_; }
  std::size_t embedding_dim() const noexcept { return plans_.trunk.rows(); }
  /// Floats per branch input plane: axes * half_length.
  std::size_t plane_count() const noexcept { return axes_ * half_; }

 private:
  /// Runs both branches on `count` samples' packed planes from `arrays`
  /// into `concat` (count rows of 2 * feature_count floats), then the
  /// trunk into `out` with row stride `count`. `arena` must be held by the
  /// caller (arena.assert_owner()).
  void embed_tile(const GradientArray* arrays, std::size_t count, float* out,
                  nn::ScratchArena& arena) const MANDIPASS_REQUIRES(arena);

  std::size_t axes_ = 0;
  std::size_t half_ = 0;
  Plans plans_;
};

using Int8PlanExtractor = PlanExtractor<nn::QuantizedInferencePlan, nn::PackedQuantizedGemm>;

/// The float instantiation, folded and packed from a BiometricExtractor.
class CompiledExtractor : public PlanExtractor<nn::InferencePlan, nn::PackedGemm> {
 public:
  /// Folds and packs `source` (both branches + trunk) in its current
  /// state. The source is only read; it can keep training afterwards.
  explicit CompiledExtractor(BiometricExtractor& source);
};

}  // namespace mandipass::core
