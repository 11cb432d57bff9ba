// Int8 deployment build of the biometric extractor.
//
// Converts a trained BiometricExtractor into a weight-only int8 model
// with BatchNorm folded into the convolutions — the standard recipe for
// MCU-class targets like the earbud the paper deploys on. Cuts the
// Section VII-E model storage ~4x while the produced MandiblePrints stay
// within float rounding of the original (the quantization bench
// measures the exact embedding drift and its EER impact).
//
// Serving goes through the compiled int8 plan (DESIGN.md §18), run by
// the same PlanExtractor driver as the float CompiledExtractor: the
// quantized weights are pre-packed for the integer dot-product kernels
// (nn::PackedQuantizedGemm — VNNI / AVX2 / NEON / generic tiers),
// activations are quantized per input vector on the fly, and ReLU /
// Sigmoid run as dequantizing epilogues with every intermediate in a
// per-thread ScratchArena. The plan is compiled in the constructor and
// again by requantize(), which re-snapshots a (re)trained source.
// extract_scalar() keeps the original float-activation scalar walk as
// the reference the plan is validated against.
#pragma once

#include <span>
#include <vector>

#include "core/compiled_extractor.h"
#include "core/extractor.h"
#include "nn/inference_plan.h"
#include "nn/quantize.h"

namespace mandipass::core {

class QuantizedExtractor {
 public:
  /// Snapshot-quantises a trained extractor and compiles its int8 plan.
  /// BatchNorm running statistics are folded into the conv weights first
  /// (nn::fold_conv_bn, as in the float plan), so the float reference for
  /// accuracy comparisons is `source` in evaluation mode.
  explicit QuantizedExtractor(BiometricExtractor& source);

  /// Embeds one gradient array through the compiled int8 plan — same
  /// contract as BiometricExtractor::extract. Bit-identical to
  /// extract_batch of the same sample and across kernel tiers.
  std::vector<float> extract(const GradientArray& array) const {
    return plan_.extract(array);
  }

  /// Embeds every array; row i is the MandiblePrint of arrays[i], through
  /// the same tiled PlanExtractor::extract_batch as the float path.
  /// Per-vector activation quantization makes each element independent
  /// of the batch split, so results are bit-identical to extract() for
  /// any thread count.
  std::vector<std::vector<float>> extract_batch(std::span<const GradientArray> arrays) const {
    return plan_.extract_batch(arrays);
  }

  /// The pre-plan reference path: float activations, scalar
  /// nn::quantized_matvec per im2col patch. Kept as the baseline the
  /// plan's speedup and drift are measured against (bench_quantized).
  std::vector<float> extract_scalar(const GradientArray& array) const;

  /// Re-snapshots `source` at its current weights (fold + quantize) and
  /// recompiles the plan. A quantized model is a deployment snapshot,
  /// not a live view — callers refresh explicitly after further
  /// training, mirroring the float path's recompile-on-train. Not safe
  /// to call concurrently with extract().
  void requantize(BiometricExtractor& source);

  /// Total int8 model footprint in bytes (weights + scales + biases).
  std::size_t storage_bytes() const;

  /// Samples per trunk-GEMM tile in extract_batch (bounds arena usage;
  /// has no effect on results).
  static constexpr std::size_t kSampleTile = Int8PlanExtractor::kSampleTile;

  const ExtractorConfig& config() const { return config_; }

 private:
  /// The folded + quantized weights: what extract_scalar() walks and the
  /// int8 plan is compiled from.
  struct Snapshot {
    std::vector<nn::QuantizedConv> positive;
    std::vector<nn::QuantizedConv> negative;
    nn::QuantizedMatrix fc_weights;
    std::vector<float> fc_bias;
  };

  static Snapshot snapshot(BiometricExtractor& source);
  static Int8PlanExtractor compile(const ExtractorConfig& config, const Snapshot& snap);
  /// Runs one branch on a (channels=1, H=axes, W=half) plane; returns the
  /// flattened feature vector. Scalar reference path.
  static std::vector<float> run_branch(const std::vector<nn::QuantizedConv>& branch,
                                       std::vector<float> plane, std::size_t h,
                                       std::size_t w);

  ExtractorConfig config_;
  Snapshot snap_;
  Int8PlanExtractor plan_;
};

}  // namespace mandipass::core
