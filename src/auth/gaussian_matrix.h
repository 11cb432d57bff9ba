// Cancelable-template transform (Section VI): x' = x * G with G a square
// Gaussian random matrix derived from a per-user secret seed.
//
// Security properties exercised by bench_security:
//   * same G:      cos-distance(xG, yG) tracks cos-distance(x, y), so
//                  legitimate verification is unaffected;
//   * different G: the transformed vectors decorrelate, so a stolen
//                  template replayed after the user re-keys is rejected;
//   * G is not recoverable from x' alone (underdetermined system), and
//     re-keying is just drawing a fresh seed.
//
// Concurrency: a GaussianMatrix is immutable after construction (the
// packed kernel is built in the ctor; transform() is const and touches
// no mutable state), so const instances are freely shared across threads
// — MatrixCache hands out shared_ptr<const GaussianMatrix> and only its
// map and recency list are lock-guarded (MANDIPASS_GUARDED_BY(mutex_) in
// auth/matrix_cache.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/inference_plan.h"

namespace mandipass::auth {

class GaussianMatrix {
 public:
  /// Builds the dim x dim matrix with i.i.d. N(0, 1/dim) entries from
  /// `seed`. Two instances with equal (seed, dim) are identical.
  GaussianMatrix(std::uint64_t seed, std::size_t dim);

  /// x' = x * G. Precondition: x.size() == dim().
  ///
  /// Runs on the packed register-blocked kernel (nn::PackedGemm) with G
  /// packed column-major at construction, so out[j] keeps the reference
  /// ascending-i accumulation order while the matrix is streamed once in
  /// blocks of nn::PackedGemm::kOcBlock outputs.
  std::vector<float> transform(std::span<const float> x) const;

  /// Coalesced transform of `count` probes sharing this matrix: `xs`
  /// holds count x dim() floats (probe i at xs[i * dim()]), and probe i's
  /// transformed vector lands contiguously at out[i * dim()]. One call
  /// streams the packed matrix once per kXTile probes instead of once per
  /// probe (the sharded router's same-seed fast path). Per-element
  /// accumulation order matches transform() for every count, so each
  /// output vector is bit-identical to a lone transform() of its probe.
  /// Precondition: count > 0 and both spans sized count * dim().
  void transform_batch(std::span<const float> xs, std::size_t count,
                       std::span<float> out) const;

  std::size_t dim() const { return dim_; }
  std::uint64_t seed() const { return seed_; }

  /// CRC32 of the packed kernel bytes — the buffer transform() actually
  /// reads. MatrixCache records this at insert and re-verifies on lookup
  /// to detect in-memory poisoning of a shared cached matrix.
  std::uint32_t checksum() const;

  /// Storage footprint of a transformed template in bytes (Section VII-E
  /// reports ~1.8 KB for a float 512-vector minus bookkeeping).
  static std::size_t template_bytes(std::size_t dim) { return dim * sizeof(float); }

 private:
  std::uint64_t seed_;
  std::size_t dim_;
  nn::PackedGemm gemm_;  ///< G packed column-major (out[j] = sum_i x[i] G[i][j])
};

}  // namespace mandipass::auth
