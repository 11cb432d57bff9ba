#include "auth/verifier.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace mandipass::auth {
namespace {

std::vector<float> random_print(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return v;
}

TEST(Verifier, AcceptsIdentical) {
  const Verifier v(0.5);
  const auto p = random_print(32, 1);
  const auto d = v.verify(p, p);
  EXPECT_TRUE(d.accepted);
  EXPECT_NEAR(d.distance, 0.0, 1e-9);
}

TEST(Verifier, RejectsOrthogonal) {
  const Verifier v(0.5);
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  const auto d = v.verify(a, b);
  EXPECT_FALSE(d.accepted);
  EXPECT_NEAR(d.distance, 1.0, 1e-9);
}

TEST(Verifier, ThresholdBoundaryAccepts) {
  const Verifier v(1.0);
  std::vector<float> a{1.0f, 0.0f};
  std::vector<float> b{0.0f, 1.0f};
  EXPECT_TRUE(v.verify(a, b).accepted);  // accept iff distance <= threshold
}

TEST(Verifier, DefaultIsPaperThreshold) {
  const Verifier v;
  EXPECT_DOUBLE_EQ(v.threshold(), kPaperThreshold);
}

TEST(Verifier, SetThresholdValidated) {
  Verifier v;
  v.set_threshold(0.3);
  EXPECT_DOUBLE_EQ(v.threshold(), 0.3);
  EXPECT_THROW(v.set_threshold(-0.1), PreconditionError);
  EXPECT_THROW(v.set_threshold(2.5), PreconditionError);
  EXPECT_THROW(Verifier(3.0), PreconditionError);
}

TEST(RequestGates, ProbeGateTypesEmptyAndNonFinite) {
  EXPECT_FALSE(reject_probe(random_print(8, 2)).has_value());
  const auto empty = reject_probe({});
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->code, common::ErrorCode::InvalidInput);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    auto probe = random_print(8, 3);
    probe[5] = bad;
    const auto reject = reject_probe(probe);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->code, common::ErrorCode::NonFiniteSample);
  }
}

TEST(RequestGates, TemplateGateTypesUnknownAndDimensionMismatch) {
  StoredTemplate t;
  t.data = random_print(8, 4);
  EXPECT_FALSE(reject_template("alice", &t, 8).has_value());
  const auto unknown = reject_template("ghost", nullptr, 8);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->code, common::ErrorCode::UnknownUser);
  const auto mismatch = reject_template("alice", &t, 7);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(mismatch->code, common::ErrorCode::DimensionMismatch);
}

}  // namespace
}  // namespace mandipass::auth
