// Failure injection: malformed, saturated, truncated and pathological
// inputs must produce clean SignalError / ShapeError / SerializationError
// outcomes, never UB, silent garbage or crashes.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "auth/gaussian_matrix.h"
#include "common/error.h"
#include "core/mandipass.h"
#include "core/preprocessor.h"
#include "vibration/population.h"
#include "vibration/session.h"

namespace mandipass::core {
namespace {

class FailureInjection : public ::testing::Test {
 protected:
  FailureInjection() : rng_(31337), pop_(55) {
    ExtractorConfig cfg;
    cfg.embedding_dim = 16;
    cfg.channels = {4, 6, 8};
    extractor_ = std::make_shared<BiometricExtractor>(cfg);
  }

  imu::RawRecording good_recording() {
    vibration::SessionRecorder rec(pop_.sample(), rng_);
    return rec.record(vibration::SessionConfig{});
  }

  Rng rng_;
  vibration::PopulationGenerator pop_;
  std::shared_ptr<BiometricExtractor> extractor_;
};

TEST_F(FailureInjection, EmptyRecording) {
  const Preprocessor prep;
  imu::RawRecording empty;
  empty.sample_rate_hz = 350.0;
  EXPECT_THROW(prep.process(empty), SignalError);
}

TEST_F(FailureInjection, AllSaturatedRecording) {
  const Preprocessor prep;
  imu::RawRecording saturated;
  saturated.sample_rate_hz = 350.0;
  for (auto& axis : saturated.axes) {
    axis.assign(300, 32767.0);
  }
  // Constant full-scale: no std-dev, hence no onset.
  EXPECT_THROW(prep.process(saturated), SignalError);
}

TEST_F(FailureInjection, NanContaminatedRecordingDoesNotCrash) {
  const Preprocessor prep;
  auto rec = good_recording();
  rec.axes[0][150] = std::nan("");
  // Either a clean SignalError or a finite-but-degraded array; both are
  // acceptable, crashing or hanging is not.
  try {
    const SignalArray out = prep.process(rec);
    EXPECT_EQ(out.segment_length(), kDefaultSegmentLength);
  } catch (const Error&) {
    SUCCEED();
  }
}

TEST_F(FailureInjection, TruncatedMidVibration) {
  const Preprocessor prep;
  auto rec = good_recording();
  const auto onset = prep.detect_onset(rec);
  ASSERT_TRUE(onset.has_value());
  for (auto& axis : rec.axes) {
    axis.resize(*onset + 30);  // half a segment
  }
  EXPECT_THROW(prep.process(rec), SignalError);
}

TEST_F(FailureInjection, MismatchedGaussianMatrixDims) {
  const auth::GaussianMatrix g(1, 16);
  std::vector<float> wrong(32, 0.5f);
  EXPECT_THROW(g.transform(wrong), PreconditionError);
}

TEST_F(FailureInjection, CorruptedModelStream) {
  BiometricExtractor ex(extractor_->config());
  std::stringstream ss;
  ex.save(ss);
  std::string blob = ss.str();
  blob[blob.size() / 2] ^= 0x5A;  // flip bits mid-stream
  blob.resize(blob.size() - 7);   // and truncate
  std::stringstream corrupted(blob);
  BiometricExtractor fresh(extractor_->config());
  EXPECT_THROW(fresh.load(corrupted), Error);
}

TEST_F(FailureInjection, VerifyWithSilenceReportsTypedCaptureReject) {
  MandiPass mp(extractor_);
  const imu::RawRecording good = good_recording();
  ASSERT_TRUE(mp.try_enroll("alice", {&good, 1}).ok());
  imu::RawRecording silence;
  silence.sample_rate_hz = 350.0;
  for (auto& axis : silence.axes) {
    axis.assign(300, 0.0);
  }
  const auto d = mp.try_verify("alice", silence);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.code(), common::ErrorCode::OnsetNotFound);
}

TEST_F(FailureInjection, GlitchStormStillProcessable) {
  // Every 10th sample replaced by a huge spike: MAD + filtering should
  // still yield a finite normalised array.
  const Preprocessor prep;
  auto rec = good_recording();
  for (auto& axis : rec.axes) {
    for (std::size_t i = 0; i < axis.size(); i += 10) {
      axis[i] = (i % 20 == 0) ? 30000.0 : -30000.0;
    }
  }
  try {
    const SignalArray out = prep.process(rec);
    for (const auto& seg : out.axes) {
      for (double v : seg) {
        EXPECT_TRUE(std::isfinite(v));
      }
    }
  } catch (const SignalError&) {
    SUCCEED();  // rejecting the storm outright is also fine
  }
}

TEST_F(FailureInjection, ZeroSampleRateRejected) {
  const Preprocessor prep;
  auto rec = good_recording();
  rec.sample_rate_hz = 0.0;
  EXPECT_THROW(prep.process(rec), Error);
}

TEST_F(FailureInjection, RaggedAxesRejectedByPack) {
  GradientArray g;
  for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
    g.positive[a].resize(30, 0.1);
    g.negative[a].resize(30, -0.1);
  }
  GradientArray ragged = g;
  ragged.positive[0].resize(10);
  // Ragged first axis changes half_length; packing a mixed batch throws.
  EXPECT_THROW(pack_branches({g, ragged}, 6), PreconditionError);
}

}  // namespace
}  // namespace mandipass::core
