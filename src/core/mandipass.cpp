#include "core/mandipass.h"

#include "common/error.h"

namespace mandipass::core {

/// One wearer per earbud: the cache holds the matrix of the last key
/// used, so repeat verifies by the same user are checked hits.
constexpr std::size_t kFacadeCacheEntries = 1;

MandiPass::MandiPass(std::shared_ptr<BiometricExtractor> extractor, MandiPassConfig config)
    : extractor_(std::move(extractor)),
      prep_(config.prep),
      cache_(std::make_shared<auth::MatrixCache>(auth::MatrixCacheConfig{kFacadeCacheEntries})),
      engine_(config.threshold, cache_),
      key_rng_(config.key_seed) {
  MANDIPASS_EXPECTS(extractor_ != nullptr);
}

common::Result<std::vector<float>> MandiPass::try_extract_print(
    const imu::RawRecording& recording) {
  auto array = prep_.try_process(recording);
  if (!array.ok()) {
    return array.error();
  }
  return extractor_->extract(build_gradient_array(array.value()));
}

common::Result<std::size_t> MandiPass::try_enroll(const std::string& user,
                                                  std::span<const imu::RawRecording> recordings) {
  if (user.empty() || recordings.empty()) {
    return common::make_error(common::ErrorCode::InvalidInput,
                              "enrolment needs a user id and at least one recording");
  }
  std::vector<float> mean_print;
  std::size_t usable = 0;
  common::Error last_reject{common::ErrorCode::InvalidInput, "no recordings"};
  for (const auto& rec : recordings) {
    auto print = try_extract_print(rec);
    if (!print.ok()) {
      last_reject = print.error();
      continue;  // graceful degradation: skip unusable captures
    }
    if (mean_print.empty()) {
      mean_print.assign(print.value().size(), 0.0f);
    }
    for (std::size_t i = 0; i < print.value().size(); ++i) {
      mean_print[i] += print.value()[i];
    }
    ++usable;
  }
  if (usable == 0) {
    return common::Error{last_reject.code,
                         "no usable vibration in any enrolment recording (last reject: " +
                             last_reject.message + ")"};
  }
  for (auto& v : mean_print) {
    v /= static_cast<float>(usable);
  }
  seal_template(user, mean_print);
  return usable;
}

void MandiPass::seal_template(const std::string& user, const std::vector<float>& print) {
  const std::uint64_t seed = key_rng_();
  auth::StoredTemplate tmpl;
  tmpl.data = cache_->get(seed, print.size())->transform(print);
  tmpl.matrix_seed = seed;
  tmpl.key_version = 0;
  const auto previous = engine_.lookup(user);
  if (previous.has_value()) {
    tmpl.key_version = previous->key_version + 1;
  }
  engine_.enroll(user, std::move(tmpl));
}

common::Result<auth::Decision> MandiPass::try_verify(const std::string& user,
                                                     const imu::RawRecording& recording) {
  // The template gate's UnknownUser reject, applied before the capture is
  // processed so an unenrolled id costs no extraction.
  if (!engine_.lookup(user).has_value()) {
    return std::move(*auth::reject_template(user, nullptr, 0));
  }
  auto print = try_extract_print(recording);
  if (!print.ok()) {
    return print.error();
  }
  const auth::BatchDecision d = engine_.verify_one(user, print.value());
  if (!d.known) {
    // The engine's gate already counted this reject (make_error), so the
    // error is built directly to keep it at one fault.reject.* count.
    return common::Error{d.reason, "verification rejected for user '" + user +
                                       "': " + std::string(common::error_code_name(d.reason))};
  }
  return d.decision;
}

void MandiPass::rekey(const std::string& user, const imu::RawRecording& recording) {
  MANDIPASS_EXPECTS(engine_.lookup(user).has_value());
  // A one-recording mean is the print itself (0 + x, then / 1, both
  // exact), so the sealed bits are those of the recording's own print.
  auto result = try_enroll(user, {&recording, 1});
  if (!result.ok()) {
    common::raise(result.error());  // mandilint: allow(no-throw-in-datapath) -- rekey keeps its throwing contract for existing callers; try_enroll is the typed path
  }
}

}  // namespace mandipass::core
