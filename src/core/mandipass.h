// The MandiPass facade: the public API a device integrator uses.
//
//   MandiPass system(extractor, config);
//   auto sealed = system.try_enroll("alice", raw_recordings);  // registration
//   auto decision = system.try_verify("alice", raw_recording); // verification
//   system.rekey("alice", raw_recording);                      // cancel & renew
//
// Every data-dependent failure comes back as a typed common::Error reject
// reason (DESIGN.md §12); check ok() and route on code().
//
// Internally: Section IV preprocessing -> gradient array -> two-branch CNN
// MandiblePrint, then the service's auth::BatchVerifier: the Gaussian
// cancelable transform from a one-entry auth::MatrixCache (one wearer per
// earbud) -> sealed template (enroll) or cosine-distance threshold
// decision (verify).
#pragma once

#include <memory>
#include <string>

#include "auth/batch_verifier.h"
#include "auth/matrix_cache.h"
#include "common/result.h"
#include "core/dataset_builder.h"
#include "core/extractor.h"
#include "core/preprocessor.h"

namespace mandipass::core {

struct MandiPassConfig {
  PreprocessorConfig prep;
  double threshold = auth::kPaperThreshold;
  /// Seed stream for per-user Gaussian matrices.
  std::uint64_t key_seed = 0xC0FFEE;
};

class MandiPass {
 public:
  /// The extractor must already be trained (by the verification service
  /// provider); MandiPass never trains on end-user data.
  MandiPass(std::shared_ptr<BiometricExtractor> extractor, MandiPassConfig config = {});

  /// Registers a user from one or more recordings; the template is the
  /// mean MandiblePrint, which has less session noise than any single
  /// probe. Recordings without a usable vibration are skipped. Returns
  /// how many were usable; when none are, the error carries the last
  /// capture's reject reason. Re-enrolling overwrites and bumps the key
  /// version. Nothing here throws on malformed input.
  common::Result<std::size_t> try_enroll(const std::string& user,
                                         std::span<const imu::RawRecording> recordings);

  /// Verifies a request: UnknownUser when the id has no enrolment (checked
  /// before the capture is processed), else the capture's or the probe's
  /// reject reason, else the threshold decision.
  common::Result<auth::Decision> try_verify(const std::string& user,
                                            const imu::RawRecording& recording);

  /// Raw MandiblePrint of a recording (before the cancelable transform).
  common::Result<std::vector<float>> try_extract_print(const imu::RawRecording& recording);

  /// Cancels the user's compromised template and re-enrolls from one
  /// recording with a fresh Gaussian matrix (the Section VI replay-attack
  /// response). The user must be enrolled; throws SignalError when the
  /// recording contains no usable vibration.
  void rekey(const std::string& user, const imu::RawRecording& recording);

  /// Removes a user entirely.
  bool revoke(const std::string& user) { return engine_.revoke(user); }

  /// The sealed templates (lookup, size), read-only.
  const auth::BatchVerifier& store() const { return engine_; }
  double threshold() const { return engine_.threshold(); }
  void set_threshold(double t) { engine_.set_threshold(t); }

 private:
  /// Transforms a raw print with a fresh key's Gaussian matrix and seals it.
  void seal_template(const std::string& user, const std::vector<float>& print);

  std::shared_ptr<BiometricExtractor> extractor_;
  Preprocessor prep_;
  std::shared_ptr<auth::MatrixCache> cache_;
  auth::BatchVerifier engine_;  ///< the service's decision path, over cache_
  Rng key_rng_;
};

}  // namespace mandipass::core
