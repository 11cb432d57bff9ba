// Threshold decision plus the request gates every verification path
// shares (Section III's "similarity calculation" module).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "auth/metrics.h"
#include "auth/template_store.h"
#include "common/result.h"

namespace mandipass::auth {

/// Outcome of one verification request.
struct Decision {
  bool accepted = false;
  double distance = 0.0;  ///< cosine distance probe vs template
};

/// Stateless policy: accept iff cosine distance <= threshold.
class Verifier {
 public:
  explicit Verifier(double threshold = kPaperThreshold);

  /// Compares two already-transformed (cancelable) vectors.
  Decision verify(std::span<const float> probe, std::span<const float> reference) const;

  double threshold() const { return threshold_; }
  void set_threshold(double t);

 private:
  double threshold_;
};

/// Request gates (DESIGN.md §12), the one definition every verification
/// path calls: the facade, BatchVerifier's per-request and coalesced
/// paths, and the resilient layer's degraded mode. Each returns the
/// typed reject reason, built through make_error (one fault.reject.<code>
/// per reject), or nullopt — without allocating — when the request
/// passes. Callers keep their own counters and status mapping.
///
/// Probe gate, run before any lock: an empty probe is InvalidInput, a
/// NaN/Inf value is NonFiniteSample.
std::optional<common::Error> reject_probe(std::span<const float> probe);

/// Template gate, run on the snapshot: no template (null) is
/// UnknownUser; a template whose dimension differs from the probe's is
/// DimensionMismatch (the cancelable transform is square, so such a
/// probe can never match and cosine_distance would assert on it).
std::optional<common::Error> reject_template(const std::string& user,
                                             const StoredTemplate* stored,
                                             std::size_t probe_dim);

}  // namespace mandipass::auth
