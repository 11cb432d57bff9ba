#include "core/mandipass.h"

#include <gtest/gtest.h>

#include <memory>

#include "auth/cosine.h"
#include "auth/gaussian_matrix.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/obs.h"

namespace mandipass::core {
namespace {

/// Fixture with an UNTRAINED tiny extractor: enough for API-level tests
/// (genuine accept/impostor reject quality is covered by the integration
/// suite with a trained model).
common::Result<std::size_t> enroll(MandiPass& mp, const std::string& user,
                                   const imu::RawRecording& recording) {
  return mp.try_enroll(user, {&recording, 1});
}

imu::RawRecording silent_recording() {
  imu::RawRecording silent;
  silent.sample_rate_hz = 350.0;
  for (auto& axis : silent.axes) {
    axis.assign(300, 0.0);
  }
  return silent;
}

class MandiPassTest : public ::testing::Test {
 protected:
  MandiPassTest() : rng_(11), pop_(2024) {
    ExtractorConfig cfg;
    cfg.embedding_dim = 32;
    cfg.channels = {4, 6, 8};
    extractor_ = std::make_shared<BiometricExtractor>(cfg);
  }

  imu::RawRecording record(const vibration::PersonProfile& person) {
    vibration::SessionRecorder rec(person, rng_);
    return rec.record(vibration::SessionConfig{});
  }

  Rng rng_;
  vibration::PopulationGenerator pop_;
  std::shared_ptr<BiometricExtractor> extractor_;
};

TEST_F(MandiPassTest, EnrollStoresTemplate) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  ASSERT_TRUE(enroll(mp, "alice", record(person)).ok());
  EXPECT_EQ(mp.store().size(), 1u);
  EXPECT_TRUE(mp.store().lookup("alice").has_value());
}

TEST_F(MandiPassTest, VerifyUnknownUserIsTypedUnknownUser) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto d = mp.try_verify("ghost", record(person));
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.code(), common::ErrorCode::UnknownUser);
}

TEST_F(MandiPassTest, TryVerifyChecksEnrolmentBeforeCapture) {
  // The unknown-user check runs first: an unusable capture for an
  // unenrolled id still reports UnknownUser, and only an enrolled id
  // gets as far as the capture's own reject reason.
  MandiPass mp(extractor_);
  const imu::RawRecording silent = silent_recording();
  const auto unknown = mp.try_verify("ghost", silent);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), common::ErrorCode::UnknownUser);

  ASSERT_TRUE(enroll(mp, "alice", record(pop_.sample())).ok());
  const auto known = mp.try_verify("alice", silent);
  ASSERT_FALSE(known.ok());
  EXPECT_NE(known.code(), common::ErrorCode::UnknownUser);
}

TEST_F(MandiPassTest, VerifyKnownUserReturnsDecision) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  ASSERT_TRUE(enroll(mp, "alice", record(person)).ok());
  const auto d = mp.try_verify("alice", record(person));
  ASSERT_TRUE(d.ok());
  EXPECT_GE(d.value().distance, 0.0);
  EXPECT_LE(d.value().distance, 2.0);
}

TEST_F(MandiPassTest, DistanceReplaysFromTheSealedKeyBitForBit) {
  // The facade decides through the service engine (a coalesced tile of
  // one); its distance must be the reference transform's, bit for bit.
  MandiPass mp(extractor_);
  const auto alice = pop_.sample();
  ASSERT_TRUE(enroll(mp, "alice", record(alice)).ok());
  const auto tmpl = mp.store().lookup("alice");
  ASSERT_TRUE(tmpl.has_value());
  for (const auto& person : {alice, pop_.sample()}) {  // genuine, then impostor
    const auto probe = record(person);
    const auto d = mp.try_verify("alice", probe);
    ASSERT_TRUE(d.ok());
    const auto print = mp.try_extract_print(probe);
    ASSERT_TRUE(print.ok());
    const auth::GaussianMatrix g(tmpl->matrix_seed, print.value().size());
    EXPECT_EQ(d.value().distance, auth::cosine_distance(g.transform(print.value()), tmpl->data));
  }
}

TEST_F(MandiPassTest, OneEntryKeyCacheCountsHitsMissesAndEvictions) {
  const auto count = [](const char* name) { return common::obs::counter(name).value(); };
  const auto hits = [&] { return count("auth.batch.matrix_cache_hits"); };
  const auto misses = [&] { return count("auth.batch.matrix_cache_misses"); };
  const auto evicted = [&] { return count("auth.matrix_cache.evicted"); };
  MandiPass mp(extractor_);
  const auto alice = pop_.sample();
  const auto bob = pop_.sample();

  auto h = hits();
  auto m = misses();
  auto e = evicted();
  ASSERT_TRUE(enroll(mp, "alice", record(alice)).ok());
  EXPECT_EQ(hits() - h, 0u);
  EXPECT_EQ(misses() - m, 1u);
  EXPECT_EQ(evicted() - e, 0u);

  h = hits();
  m = misses();
  ASSERT_TRUE(mp.try_verify("alice", record(alice)).ok());
  EXPECT_EQ(hits() - h, 1u);
  EXPECT_EQ(misses() - m, 0u);

  h = hits();
  m = misses();
  e = evicted();
  ASSERT_TRUE(enroll(mp, "bob", record(bob)).ok());
  EXPECT_EQ(hits() - h, 0u);
  EXPECT_EQ(misses() - m, 1u);
  EXPECT_EQ(evicted() - e, 1u);
}

TEST_F(MandiPassTest, RekeyChangesMatrixSeedAndBumpsVersion) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  ASSERT_TRUE(enroll(mp, "alice", record(person)).ok());
  const auto before = mp.store().lookup("alice");
  mp.rekey("alice", record(person));
  const auto after = mp.store().lookup("alice");
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_NE(before->matrix_seed, after->matrix_seed);
  EXPECT_EQ(after->key_version, before->key_version + 1);
  EXPECT_NE(before->data, after->data);
}

TEST_F(MandiPassTest, RekeyUnknownUserThrows) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  EXPECT_THROW(mp.rekey("ghost", record(person)), PreconditionError);
}

TEST_F(MandiPassTest, RevokeRemovesUser) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  ASSERT_TRUE(enroll(mp, "alice", record(person)).ok());
  EXPECT_TRUE(mp.revoke("alice"));
  const auto d = mp.try_verify("alice", record(person));
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.code(), common::ErrorCode::UnknownUser);
}

TEST_F(MandiPassTest, ExtractPrintHasEmbeddingDim) {
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto print = mp.try_extract_print(record(person));
  ASSERT_TRUE(print.ok());
  EXPECT_EQ(print.value().size(), 32u);
}

TEST_F(MandiPassTest, SilentRecordingIsATypedCaptureReject) {
  MandiPass mp(extractor_);
  const auto enrolled = enroll(mp, "alice", silent_recording());
  ASSERT_FALSE(enrolled.ok());
  EXPECT_EQ(enrolled.code(), common::ErrorCode::OnsetNotFound);
  EXPECT_EQ(mp.store().size(), 0u);
}

TEST_F(MandiPassTest, RekeyWithSilentRecordingThrowsSignalError) {
  MandiPass mp(extractor_);
  ASSERT_TRUE(enroll(mp, "alice", record(pop_.sample())).ok());
  const auto before = mp.store().lookup("alice");
  EXPECT_THROW(mp.rekey("alice", silent_recording()), SignalError);
  // A rejected capture leaves the sealed template and its key untouched.
  const auto after = mp.store().lookup("alice");
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_EQ(after->matrix_seed, before->matrix_seed);
  EXPECT_EQ(after->key_version, before->key_version);
}

TEST_F(MandiPassTest, ThresholdAdjustable) {
  MandiPass mp(extractor_);
  mp.set_threshold(0.1);
  EXPECT_DOUBLE_EQ(mp.threshold(), 0.1);
}

TEST_F(MandiPassTest, NullExtractorThrows) {
  EXPECT_THROW(MandiPass(nullptr), PreconditionError);
}

TEST_F(MandiPassTest, TemplatesOfSameUserDifferAcrossEnrollments) {
  // Fresh Gaussian matrix per enrollment: even identical prints seal to
  // different cancelable templates.
  MandiPass mp(extractor_);
  const auto person = pop_.sample();
  const auto rec = record(person);
  ASSERT_TRUE(enroll(mp, "a", rec).ok());
  ASSERT_TRUE(enroll(mp, "b", rec).ok());
  EXPECT_NE(mp.store().lookup("a")->data, mp.store().lookup("b")->data);
}

// Pinned sealed bits: templates sealed from one recording, from the mean
// of three, and by a following rekey. The pins were taken from separate
// single-recording and multi-recording enrolment paths, so a change to the
// enrolment arithmetic or to the order of key draws fails here. Matrix
// seeds depend only on key_seed; the data checksums also depend on the
// float kernels the libraries compile for (-march=native) and were taken
// on x86-64 with AVX-512.
TEST_F(MandiPassTest, SealedTemplateBitsArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::uint32_t crc;
    std::uint32_t key_version;
  };
  const auto check = [](const std::optional<auth::StoredTemplate>& t, const Pin& pin) {
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->matrix_seed, pin.seed);
    EXPECT_EQ(t->key_version, pin.key_version);
    EXPECT_EQ(common::crc32(t->data.data(), t->data.size() * sizeof(float)), pin.crc);
  };
  vibration::SessionRecorder recorder(pop_.sample(), rng_);
  const auto recordings = recorder.record_many(vibration::SessionConfig{}, 3);
  MandiPassConfig config;
  config.key_seed = 0x5EED;
  MandiPass mp(extractor_, config);

  ASSERT_TRUE(enroll(mp, "single", recordings[0]).ok());
  const auto mean = mp.try_enroll("mean", recordings);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean.value(), 3u);
  check(mp.store().lookup("single"), {0x8eb2871b24ae0c00ULL, 0xb0b1def8U, 0});
  check(mp.store().lookup("mean"), {0xfdd2c14d7560f757ULL, 0xc5009adfU, 0});
  mp.rekey("single", recordings[1]);
  check(mp.store().lookup("single"), {0x17460bdf1e7c3333ULL, 0xf5700af7U, 1});
}

}  // namespace
}  // namespace mandipass::core
