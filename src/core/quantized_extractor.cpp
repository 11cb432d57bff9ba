#include "core/quantized_extractor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/obs.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace mandipass::core {
namespace {

/// Folds and quantizes a [Conv2d, BatchNorm2d, ReLU] x N (+ Flatten)
/// branch (make_branch()'s layout), one nn::QuantizedConv per triple.
std::vector<nn::QuantizedConv> fold_and_quantize(nn::Sequential& branch) {
  std::vector<nn::QuantizedConv> layers;
  for (std::size_t i = 0; i + 2 < branch.layer_count(); i += 3) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&branch.layer(i));
    auto* bn = dynamic_cast<nn::BatchNorm2d*>(&branch.layer(i + 1));
    if (conv == nullptr || bn == nullptr) {
      throw ShapeError(  // mandilint: allow(no-throw-in-datapath) -- deploy-time model conversion
          "unexpected branch structure during quantisation");
    }
    nn::FoldedConv folded = nn::fold_conv_bn(*conv, *bn);
    layers.push_back({conv->config(), nn::quantize_rows(folded.weights), std::move(folded.bias)});
  }
  return layers;
}

}  // namespace

QuantizedExtractor::Snapshot QuantizedExtractor::snapshot(BiometricExtractor& source) {
  auto* fc = dynamic_cast<nn::Linear*>(&source.trunk().layer(0));
  if (fc == nullptr) {
    throw ShapeError(  // mandilint: allow(no-throw-in-datapath) -- deploy-time model conversion
        "unexpected trunk structure during quantisation");
  }
  const nn::Tensor& b = fc->params()[1]->value;
  return {fold_and_quantize(source.branch_positive()),
          fold_and_quantize(source.branch_negative()),
          nn::quantize_rows(fc->params()[0]->value),
          std::vector<float>(b.data(), b.data() + b.size())};
}

Int8PlanExtractor QuantizedExtractor::compile(const ExtractorConfig& config,
                                              const Snapshot& snap) {
  MANDIPASS_OBS_TRACE(trace_compile, "nn.qplan.compile_us");
  Int8PlanExtractor::Plans plans;
  plans.positive =
      nn::QuantizedInferencePlan::compile(snap.positive, config.axes, config.half_length);
  plans.negative =
      nn::QuantizedInferencePlan::compile(snap.negative, config.axes, config.half_length);
  plans.trunk.pack_rows(snap.fc_weights, snap.fc_bias.data());
  MANDIPASS_EXPECTS(plans.trunk.rows() == config.embedding_dim);
  return Int8PlanExtractor(config.axes, config.half_length, std::move(plans));
}

QuantizedExtractor::QuantizedExtractor(BiometricExtractor& source)
    : config_(source.config()), snap_(snapshot(source)), plan_(compile(config_, snap_)) {}

void QuantizedExtractor::requantize(BiometricExtractor& source) {
  MANDIPASS_EXPECTS(source.config().axes == config_.axes &&
                    source.config().half_length == config_.half_length &&
                    source.config().embedding_dim == config_.embedding_dim);
  snap_ = snapshot(source);
  plan_ = compile(config_, snap_);
}

std::vector<float> QuantizedExtractor::run_branch(const std::vector<nn::QuantizedConv>& branch,
                                                  std::vector<float> plane, std::size_t h,
                                                  std::size_t w) {
  for (const nn::QuantizedConv& layer : branch) {
    const nn::Conv2dConfig& cc = layer.config;
    const std::size_t h_out = nn::Conv2d::out_extent(h, cc.kernel_h, cc.stride_h, cc.pad_h);
    const std::size_t w_out = nn::Conv2d::out_extent(w, cc.kernel_w, cc.stride_w, cc.pad_w);
    const std::size_t positions = h_out * w_out;
    const std::size_t taps = cc.in_channels * cc.kernel_h * cc.kernel_w;
    MANDIPASS_EXPECTS(plane.size() == cc.in_channels * h * w);
    // Flat source offset per (output position, tap); -1 = zero padding.
    const std::vector<std::ptrdiff_t> index = nn::Conv2d::make_patch_index(cc, h, w);
    std::vector<float> out(cc.out_channels * positions);
    std::vector<float> patch(taps);
    std::vector<float> y(cc.out_channels);
    for (std::size_t pos = 0; pos < positions; ++pos) {
      for (std::size_t t = 0; t < taps; ++t) {
        const std::ptrdiff_t src = index[pos * taps + t];
        patch[t] = src >= 0 ? plane[static_cast<std::size_t>(src)] : 0.0f;
      }
      nn::quantized_matvec(layer.weights, patch.data(), layer.bias.data(), y.data());
      for (std::size_t oc = 0; oc < cc.out_channels; ++oc) {
        out[oc * positions + pos] = std::max(0.0f, y[oc]);  // folded BN + ReLU
      }
    }
    plane = std::move(out);
    h = h_out;
    w = w_out;
  }
  return plane;  // already flattened in (c, h, w) order, matching nn::Flatten
}

std::vector<float> QuantizedExtractor::extract_scalar(const GradientArray& array) const {
  MANDIPASS_EXPECTS(array.half_length() == config_.half_length);
  const std::size_t h = config_.axes;
  const std::size_t w = config_.half_length;
  std::vector<float> pos_plane(h * w);
  std::vector<float> neg_plane(h * w);
  for (std::size_t a = 0; a < h; ++a) {
    for (std::size_t i = 0; i < w; ++i) {
      pos_plane[a * w + i] = static_cast<float>(array.positive[a][i]);
      neg_plane[a * w + i] = static_cast<float>(array.negative[a][i]);
    }
  }
  const auto fp = run_branch(snap_.positive, std::move(pos_plane), h, w);
  const auto fn = run_branch(snap_.negative, std::move(neg_plane), h, w);
  std::vector<float> concat;
  concat.reserve(fp.size() + fn.size());
  concat.insert(concat.end(), fp.begin(), fp.end());
  concat.insert(concat.end(), fn.begin(), fn.end());
  MANDIPASS_EXPECTS(concat.size() == snap_.fc_weights.cols);

  std::vector<float> embedding(config_.embedding_dim);
  nn::quantized_matvec(snap_.fc_weights, concat.data(), snap_.fc_bias.data(), embedding.data());
  for (auto& v : embedding) {
    v = 1.0f / (1.0f + std::exp(-v));
  }
  return embedding;
}

std::size_t QuantizedExtractor::storage_bytes() const {
  std::size_t bytes = snap_.fc_weights.storage_bytes() + snap_.fc_bias.size() * sizeof(float);
  for (const auto* branch : {&snap_.positive, &snap_.negative}) {
    for (const nn::QuantizedConv& layer : *branch) {
      bytes += layer.weights.storage_bytes() + layer.bias.size() * sizeof(float);
    }
  }
  return bytes;
}

}  // namespace mandipass::core
