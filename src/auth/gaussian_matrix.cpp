#include "auth/gaussian_matrix.h"

#include <cmath>
#include <span>

#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"

namespace mandipass::auth {

GaussianMatrix::GaussianMatrix(std::uint64_t seed, std::size_t dim) : seed_(seed), dim_(dim) {
  MANDIPASS_EXPECTS(dim > 0);
  Rng rng(seed);
  const double sigma = 1.0 / std::sqrt(static_cast<double>(dim));
  // G[i][j] is drawn row-major (i = input index). x' = x * G: output j
  // contracts column j of G, so G's row i is the kernel's column i, and
  // each row of draws is packed as it is produced. Same footprint as
  // storing G raw, better locality: the kernel streams the matrix once
  // per transform with 8 outputs resident in registers instead of
  // re-walking out[] for every input i.
  gemm_.reset_columns(dim, dim);
  std::vector<float> row(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    rng.fill_normal(row, 0.0, sigma);
    gemm_.pack_column(i, row.data());
  }
}

std::vector<float> GaussianMatrix::transform(std::span<const float> x) const {
  MANDIPASS_EXPECTS(x.size() == dim_);
  std::vector<float> out(dim_);
  gemm_.run(x.data(), out.data(), 1, nn::Epilogue::None);
  return out;
}

void GaussianMatrix::transform_batch(std::span<const float> xs, std::size_t count,
                                     std::span<float> out) const {
  MANDIPASS_EXPECTS(count > 0 && xs.size() == count * dim_ && out.size() == count * dim_);
  // x-major store: probe i's transformed vector is contiguous at
  // out[i * dim], ready to hand to cosine_distance as a span.
  gemm_.run_xmajor(xs.data(), count, dim_, out.data(), dim_, nn::Epilogue::None);
}

std::uint32_t GaussianMatrix::checksum() const {
  const std::vector<float>& w = gemm_.packed_weights();
  return common::crc32(w.data(), w.size() * sizeof(float));
}

}  // namespace mandipass::auth
