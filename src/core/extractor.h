// The biometric extractor of Fig. 8: a two-branch CNN.
//
//   positive-direction gradients (1, K, n/2) -> [Conv3x3/s(1,2) + BN + ReLU] x3 --+
//                                                                                 +-- concat
//   negative-direction gradients (1, K, n/2) -> [Conv3x3/s(1,2) + BN + ReLU] x3 --+
//     -> Flatten -> Linear -> Sigmoid -> MandiblePrint (embedding_dim)
//     -> [training only] Linear head -> person-ID logits
//
// K is the number of involved axes (6 by default; Fig. 11(a) sweeps it)
// and embedding_dim the MandiblePrint length (512 by default; Fig. 11(c)
// sweeps it). Channel widths are configurable; the defaults are sized for
// single-core CPU training while keeping the paper's topology.
#pragma once

#include <array>
#include <iosfwd>
#include <memory>

#include "core/signal_array.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace mandipass::core {

class CompiledExtractor;

struct ExtractorConfig {
  std::size_t axes = imu::kAxisCount;  ///< K: involved axes (paper order)
  std::size_t half_length = kDefaultSegmentLength / 2;  ///< n/2 gradients
  std::size_t embedding_dim = 512;     ///< MandiblePrint length
  std::array<std::size_t, 3> channels = {16, 32, 48};
  std::uint64_t seed = 0x4D503235;     ///< weight-init seed
};

class BiometricExtractor {
 public:
  explicit BiometricExtractor(const ExtractorConfig& config);
  ~BiometricExtractor();  // out-of-line: CompiledExtractor is incomplete here

  /// Adds the training-time classification head projecting the
  /// MandiblePrint onto `classes` person IDs.
  void attach_head(std::size_t classes);

  /// Embeds a batch: branch tensors (N, 1, K, n/2) -> (N, embedding_dim).
  nn::Tensor embed(const BranchTensors& input, bool train);

  /// Embeds and classifies (head required): returns (N, classes) logits.
  nn::Tensor forward_logits(const BranchTensors& input, bool train);

  /// Backward from dL/dlogits through head, sigmoid, FC and both branches.
  void backward(const nn::Tensor& grad_logits);

  /// All trainable parameters (head included when attached).
  std::vector<nn::Param*> params();

  /// Convenience: embeds one gradient array via the compiled inference
  /// plan (core/compiled_extractor.h).
  std::vector<float> extract(const GradientArray& array);

  /// Batch inference: embeds every array through the compiled plan
  /// (fused Conv+BN+ReLU, packed GEMM, per-thread scratch arena). Row i
  /// is the MandiblePrint of arrays[i]. Samples fan out over the global
  /// thread pool, each computed serially by one thread, so the result is
  /// bit-identical for any thread count (DESIGN.md §9, §13).
  std::vector<std::vector<float>> extract_batch(const std::vector<GradientArray>& arrays);

  /// Parameter count / storage accounting (Section VII-E).
  std::size_t parameter_count();
  std::size_t storage_bytes();

  /// Learned-state (de)serialisation; the config must match.
  void save(std::ostream& os);
  void load(std::istream& is);

  const ExtractorConfig& config() const { return config_; }
  bool has_head() const { return head_ != nullptr; }

  /// Internal structure accessors for the int8 deployment converter
  /// (core/quantized_extractor.h): the two conv branches and the
  /// Linear->Sigmoid trunk.
  nn::Sequential& branch_positive() { return *branch_pos_; }
  nn::Sequential& branch_negative() { return *branch_neg_; }
  nn::Sequential& trunk() { return *trunk_; }
  std::size_t branch_flat_features() const { return branch_flat_; }

 private:
  ExtractorConfig config_;
  std::size_t branch_flat_ = 0;  ///< flattened features per branch
  std::unique_ptr<nn::Sequential> branch_pos_;
  std::unique_ptr<nn::Sequential> branch_neg_;
  std::unique_ptr<nn::Sequential> trunk_;  ///< Linear -> Sigmoid
  std::unique_ptr<nn::Linear> head_;
  std::unique_ptr<CompiledExtractor> compiled_;  ///< null = stale/not built

  /// The packed, BN-folded plan for the current weights: compiled lazily
  /// on first use, invalidated by train-mode forwards, backward() and
  /// load(). The layer-by-layer embed() stays as the training/reference
  /// path the plan is validated against (≤1e-5 max-abs, tests/perf).
  CompiledExtractor& compiled();

  static std::unique_ptr<nn::Sequential> make_branch(const ExtractorConfig& config, Rng& rng,
                                                     std::size_t* flat_out);
};

}  // namespace mandipass::core
