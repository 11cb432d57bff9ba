#include "core/calibration.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/mandipass.h"

namespace mandipass::core {
namespace {

ExtractorConfig tiny_config() {
  ExtractorConfig cfg;
  cfg.embedding_dim = 16;
  cfg.channels = {4, 6, 8};
  return cfg;
}

TEST(Calibration, ReturnsValidOperatingPoint) {
  BiometricExtractor ex(tiny_config());  // untrained: structure-only check
  vibration::PopulationGenerator pop(3);
  const auto cohort = pop.sample_population(3);
  CollectionConfig cc;
  cc.arrays_per_person = 6;
  Rng rng(4);
  const auto op = calibrate_threshold(ex, cohort, cc, rng);
  EXPECT_GE(op.threshold, 0.0);
  EXPECT_LE(op.threshold, 2.0);
  EXPECT_GE(op.eer, 0.0);
  EXPECT_LE(op.eer, 1.0);
}

TEST(Calibration, DeterministicGivenSeeds) {
  BiometricExtractor ex(tiny_config());
  vibration::PopulationGenerator pop(5);
  const auto cohort = pop.sample_population(3);
  CollectionConfig cc;
  cc.arrays_per_person = 5;
  Rng rng1(6);
  Rng rng2(6);
  const auto a = calibrate_threshold(ex, cohort, cc, rng1);
  const auto b = calibrate_threshold(ex, cohort, cc, rng2);
  EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
  EXPECT_DOUBLE_EQ(a.eer, b.eer);
}

TEST(Calibration, SinglePersonCohortThrows) {
  BiometricExtractor ex(tiny_config());
  vibration::PopulationGenerator pop(7);
  const auto cohort = pop.sample_population(1);
  CollectionConfig cc;
  cc.arrays_per_person = 4;
  Rng rng(8);
  EXPECT_THROW(calibrate_threshold(ex, cohort, cc, rng), PreconditionError);
}

TEST(MultiEnroll, AveragesUsableRecordings) {
  auto extractor = std::make_shared<BiometricExtractor>(tiny_config());
  MandiPass system(extractor);
  Rng rng(9);
  vibration::PopulationGenerator pop(10);
  vibration::SessionRecorder rec(pop.sample(), rng);
  const auto recordings = rec.record_many(vibration::SessionConfig{}, 4);
  const auto enrolled = system.try_enroll("alice", recordings);
  ASSERT_TRUE(enrolled.ok());
  EXPECT_EQ(enrolled.value(), 4u);
  EXPECT_TRUE(system.store().lookup("alice").has_value());
}

TEST(MultiEnroll, SkipsUnusableKeepsGood) {
  auto extractor = std::make_shared<BiometricExtractor>(tiny_config());
  MandiPass system(extractor);
  Rng rng(11);
  vibration::PopulationGenerator pop(12);
  vibration::SessionRecorder rec(pop.sample(), rng);
  std::vector<imu::RawRecording> recordings = rec.record_many(vibration::SessionConfig{}, 2);
  imu::RawRecording silent;
  silent.sample_rate_hz = 350.0;
  for (auto& axis : silent.axes) {
    axis.assign(300, 0.0);
  }
  recordings.push_back(silent);  // unusable, must be skipped
  const auto enrolled = system.try_enroll("alice", recordings);
  ASSERT_TRUE(enrolled.ok());
  EXPECT_LT(enrolled.value(), recordings.size());  // the silent capture is not counted
  EXPECT_TRUE(system.store().lookup("alice").has_value());
}

TEST(MultiEnroll, AllUnusableIsATypedCaptureReject) {
  auto extractor = std::make_shared<BiometricExtractor>(tiny_config());
  MandiPass system(extractor);
  imu::RawRecording silent;
  silent.sample_rate_hz = 350.0;
  for (auto& axis : silent.axes) {
    axis.assign(300, 0.0);
  }
  const std::vector<imu::RawRecording> recordings{silent, silent};
  const auto enrolled = system.try_enroll("alice", recordings);
  ASSERT_FALSE(enrolled.ok());
  EXPECT_EQ(enrolled.code(), common::ErrorCode::OnsetNotFound);
  EXPECT_FALSE(system.store().lookup("alice").has_value());
}

TEST(MultiEnroll, EmptyListIsInvalidInput) {
  auto extractor = std::make_shared<BiometricExtractor>(tiny_config());
  MandiPass system(extractor);
  const auto enrolled = system.try_enroll("alice", std::span<const imu::RawRecording>{});
  ASSERT_FALSE(enrolled.ok());
  EXPECT_EQ(enrolled.code(), common::ErrorCode::InvalidInput);
}

}  // namespace
}  // namespace mandipass::core
