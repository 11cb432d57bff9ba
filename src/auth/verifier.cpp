#include "auth/verifier.h"

#include <string>

#include "auth/cosine.h"
#include "common/error.h"
#include "common/finite.h"

namespace mandipass::auth {

Verifier::Verifier(double threshold) : threshold_(threshold) {
  MANDIPASS_EXPECTS(threshold >= 0.0 && threshold <= 2.0);
}

void Verifier::set_threshold(double t) {
  MANDIPASS_EXPECTS(t >= 0.0 && t <= 2.0);
  threshold_ = t;
}

Decision Verifier::verify(std::span<const float> probe, std::span<const float> reference) const {
  Decision d;
  d.distance = cosine_distance(probe, reference);
  d.accepted = d.distance <= threshold_;
  return d;
}

std::optional<common::Error> reject_probe(std::span<const float> probe) {
  using common::ErrorCode;
  if (probe.empty()) {
    return common::make_error(ErrorCode::InvalidInput, "empty probe vector");
  }
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (!common::is_finite(probe[i])) {
      return common::make_error(ErrorCode::NonFiniteSample,
                                "non-finite probe value at index " + std::to_string(i));
    }
  }
  return std::nullopt;
}

std::optional<common::Error> reject_template(const std::string& user,
                                             const StoredTemplate* stored,
                                             std::size_t probe_dim) {
  using common::ErrorCode;
  if (stored == nullptr) {
    return common::make_error(ErrorCode::UnknownUser, "no enrolment for user '" + user + "'");
  }
  if (stored->data.size() != probe_dim) {
    return common::make_error(ErrorCode::DimensionMismatch,
                              "probe dimension " + std::to_string(probe_dim) +
                                  " != template dimension " + std::to_string(stored->data.size()) +
                                  " for user '" + user + "'");
  }
  return std::nullopt;
}

}  // namespace mandipass::auth
