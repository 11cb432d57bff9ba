#include "core/extractor.h"

#include <algorithm>

#include "common/error.h"
#include "common/obs.h"
#include "common/thread_pool.h"
#include "core/compiled_extractor.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers.h"
#include "nn/serialize.h"

namespace mandipass::core {

std::unique_ptr<nn::Sequential> BiometricExtractor::make_branch(const ExtractorConfig& config,
                                                                Rng& rng,
                                                                std::size_t* flat_out) {
  auto branch = std::make_unique<nn::Sequential>();
  std::size_t in_c = 1;
  std::size_t w = config.half_length;
  for (std::size_t conv_i = 0; conv_i < config.channels.size(); ++conv_i) {
    nn::Conv2dConfig cc;
    cc.in_channels = in_c;
    cc.out_channels = config.channels[conv_i];
    cc.kernel_h = 3;
    cc.kernel_w = 3;
    cc.stride_h = 1;  // the paper's 1x2 stride: 1 across axes,
    cc.stride_w = 2;  // 2 across time
    cc.pad_h = 1;
    cc.pad_w = 1;
    branch->add(std::make_unique<nn::Conv2d>(cc, rng));
    branch->add(std::make_unique<nn::BatchNorm2d>(cc.out_channels));
    branch->add(std::make_unique<nn::ReLU>());
    w = nn::Conv2d::out_extent(w, cc.kernel_w, cc.stride_w, cc.pad_w);
    in_c = cc.out_channels;
  }
  branch->add(std::make_unique<nn::Flatten>());
  *flat_out = in_c * config.axes * w;
  return branch;
}

BiometricExtractor::BiometricExtractor(const ExtractorConfig& config) : config_(config) {
  MANDIPASS_EXPECTS(config.axes >= 1 && config.axes <= imu::kAxisCount);
  MANDIPASS_EXPECTS(config.half_length >= 4);
  MANDIPASS_EXPECTS(config.embedding_dim >= 1);
  Rng rng(config.seed);
  branch_pos_ = make_branch(config_, rng, &branch_flat_);
  std::size_t flat_neg = 0;
  branch_neg_ = make_branch(config_, rng, &flat_neg);
  MANDIPASS_EXPECTS(flat_neg == branch_flat_);

  trunk_ = std::make_unique<nn::Sequential>();
  trunk_->add(std::make_unique<nn::Linear>(2 * branch_flat_, config_.embedding_dim, rng));
  trunk_->add(std::make_unique<nn::Sigmoid>());
}

BiometricExtractor::~BiometricExtractor() = default;

CompiledExtractor& BiometricExtractor::compiled() {
  if (compiled_ == nullptr) {
    compiled_ = std::make_unique<CompiledExtractor>(*this);
  }
  return *compiled_;
}

void BiometricExtractor::attach_head(std::size_t classes) {
  MANDIPASS_EXPECTS(classes >= 2);
  Rng rng(config_.seed ^ 0x9E3779B97F4A7C15ULL);
  head_ = std::make_unique<nn::Linear>(config_.embedding_dim, classes, rng);
}

nn::Tensor BiometricExtractor::embed(const BranchTensors& input, bool train) {
  MANDIPASS_OBS_TRACE_SAMPLED(trace_embed, "core.extractor.embed_us", 4);
  if (train) {
    compiled_.reset();  // weights are about to change (backward + optimizer)
  }
  if (input.positive.rank() != 4 || input.positive.dim(2) != config_.axes ||
      input.positive.dim(3) != config_.half_length) {
    // Caller programming error (shape contract), not a data-dependent reject.
    throw ShapeError(  // mandilint: allow(no-throw-in-datapath) -- shape contract violation
        "BiometricExtractor::embed expects (N, 1, axes, half_length)");
  }
  MANDIPASS_OBS_COUNT_N("core.extractor.samples", input.positive.dim(0));
  nn::Tensor::check_same_shape(input.positive, input.negative, "BiometricExtractor::embed");
  const nn::Tensor fp = branch_pos_->forward(input.positive, train);
  const nn::Tensor fn = branch_neg_->forward(input.negative, train);
  const std::size_t n = fp.dim(0);
  nn::Tensor concat({n, 2 * branch_flat_});
  const auto splice = [&](std::size_t b_lo, std::size_t b_hi) {
    for (std::size_t b = b_lo; b < b_hi; ++b) {
      for (std::size_t i = 0; i < branch_flat_; ++i) {
        concat.at2(b, i) = fp.at2(b, i);
        concat.at2(b, branch_flat_ + i) = fn.at2(b, i);
      }
    }
  };
  if (train) {
    splice(0, n);
  } else {
    common::parallel_for(0, n, 1, splice);
  }
  return trunk_->forward(concat, train);
}

nn::Tensor BiometricExtractor::forward_logits(const BranchTensors& input, bool train) {
  MANDIPASS_EXPECTS(head_ != nullptr);
  const nn::Tensor embedding = embed(input, train);
  return head_->forward(embedding, train);
}

void BiometricExtractor::backward(const nn::Tensor& grad_logits) {
  MANDIPASS_EXPECTS(head_ != nullptr);
  compiled_.reset();
  const nn::Tensor g_embed = head_->backward(grad_logits);
  const nn::Tensor g_concat = trunk_->backward(g_embed);
  const std::size_t n = g_concat.dim(0);
  nn::Tensor gp({n, branch_flat_});
  nn::Tensor gn({n, branch_flat_});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < branch_flat_; ++i) {
      gp.at2(b, i) = g_concat.at2(b, i);
      gn.at2(b, i) = g_concat.at2(b, branch_flat_ + i);
    }
  }
  branch_pos_->backward(gp);
  branch_neg_->backward(gn);
}

std::vector<nn::Param*> BiometricExtractor::params() {
  std::vector<nn::Param*> all = branch_pos_->params();
  for (nn::Param* p : branch_neg_->params()) {
    all.push_back(p);
  }
  for (nn::Param* p : trunk_->params()) {
    all.push_back(p);
  }
  if (head_ != nullptr) {
    for (nn::Param* p : head_->params()) {
      all.push_back(p);
    }
  }
  return all;
}

std::vector<float> BiometricExtractor::extract(const GradientArray& array) {
  std::vector<float> out = compiled().extract(array);
  MANDIPASS_OBS_COUNT("core.extractor.samples");
  return out;
}

std::vector<std::vector<float>> BiometricExtractor::extract_batch(
    const std::vector<GradientArray>& arrays) {
  if (arrays.empty()) {
    return {};
  }
  const CompiledExtractor& plan = compiled();
  MANDIPASS_OBS_TRACE_SAMPLED(trace_batch, "core.extractor.embed_us", 4);
  std::vector<std::vector<float>> out = plan.extract_batch(arrays);
  MANDIPASS_OBS_COUNT_N("core.extractor.samples", arrays.size());
  return out;
}

std::size_t BiometricExtractor::parameter_count() {
  std::size_t n = 0;
  for (nn::Param* p : params()) {
    n += p->value.size();
  }
  return n;
}

std::size_t BiometricExtractor::storage_bytes() {
  return parameter_count() * sizeof(float);
}

void BiometricExtractor::save(std::ostream& os) {
  nn::write_tag(os, "MANDIPASS-EXTRACTOR-V1");
  nn::write_u64(os, config_.axes);
  nn::write_u64(os, config_.half_length);
  nn::write_u64(os, config_.embedding_dim);
  branch_pos_->save_state(os);
  branch_neg_->save_state(os);
  trunk_->save_state(os);
  nn::write_u64(os, head_ != nullptr ? head_->out_features() : 0);
  if (head_ != nullptr) {
    head_->save_state(os);
  }
}

void BiometricExtractor::load(std::istream& is) {
  nn::expect_tag(is, "MANDIPASS-EXTRACTOR-V1");
  if (nn::read_u64(is) != config_.axes || nn::read_u64(is) != config_.half_length ||
      nn::read_u64(is) != config_.embedding_dim) {
    throw SerializationError(  // mandilint: allow(no-throw-in-datapath) -- model (de)serialisation keeps the legacy throwing contract
        "extractor config mismatch");
  }
  compiled_.reset();  // new weights arriving; recompile lazily
  branch_pos_->load_state(is);
  branch_neg_->load_state(is);
  trunk_->load_state(is);
  const std::uint64_t head_classes = nn::read_u64(is);
  if (head_classes > 0) {
    attach_head(head_classes);
    head_->load_state(is);
  } else {
    head_.reset();
  }
}

}  // namespace mandipass::core
