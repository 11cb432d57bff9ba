#include "auth/batch_verifier.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "auth/gaussian_matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mandipass::auth {
namespace {

constexpr std::size_t kDim = 32;

std::vector<float> random_print(Rng& rng) {
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

StoredTemplate make_template(std::span<const float> print, std::uint64_t seed,
                             std::uint32_t version) {
  const GaussianMatrix g(seed, print.size());
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = seed;
  tmpl.key_version = version;
  return tmpl;
}

TEST(BatchVerifier, UnknownUserIsNotKnown) {
  BatchVerifier engine;
  Rng rng(1);
  const auto probe = random_print(rng);
  const BatchDecision d = engine.verify_one("nobody", probe);
  EXPECT_FALSE(d.known);
  EXPECT_EQ(d.status, BatchStatus::Unknown);
  EXPECT_EQ(d.reason, common::ErrorCode::UnknownUser);
}

// verify_one runs on thread-pool workers: *every* malformed request must
// come back as a structured decision, never as an exception that
// parallel_for rethrows on the caller and voids the rest of the batch.
TEST(BatchVerifier, EmptyProbeIsInvalidNotThrown) {
  BatchVerifier engine;
  Rng rng(11);
  engine.enroll("alice", make_template(random_print(rng), 3, 0));
  BatchDecision d;
  EXPECT_NO_THROW(d = engine.verify_one("alice", std::span<const float>{}));
  EXPECT_FALSE(d.known);
  EXPECT_EQ(d.status, BatchStatus::Invalid);
  EXPECT_EQ(d.reason, common::ErrorCode::InvalidInput);
}

TEST(BatchVerifier, NonFiniteProbeIsInvalidNotThrown) {
  BatchVerifier engine;
  Rng rng(12);
  const auto print = random_print(rng);
  engine.enroll("alice", make_template(print, 3, 0));
  auto probe = print;
  probe[kDim / 2] = std::numeric_limits<float>::quiet_NaN();
  BatchDecision d;
  EXPECT_NO_THROW(d = engine.verify_one("alice", probe));
  EXPECT_EQ(d.status, BatchStatus::Invalid);
  EXPECT_EQ(d.reason, common::ErrorCode::NonFiniteSample);
}

TEST(BatchVerifier, DimensionMismatchIsInvalidNotThrown) {
  BatchVerifier engine;
  Rng rng(13);
  const auto print = random_print(rng);
  engine.enroll("alice", make_template(print, 3, 0));
  std::vector<float> short_probe(print.begin(), print.begin() + kDim / 2);
  BatchDecision d;
  EXPECT_NO_THROW(d = engine.verify_one("alice", short_probe));
  EXPECT_EQ(d.status, BatchStatus::Invalid);
  EXPECT_EQ(d.reason, common::ErrorCode::DimensionMismatch);
}

TEST(BatchVerifier, MixedBatchWithMalformedRequestsCompletes) {
  BatchVerifier engine;
  Rng rng(14);
  const auto print = random_print(rng);
  engine.enroll("alice", make_template(print, 3, 2));

  std::vector<VerifyRequest> requests;
  requests.push_back({"alice", print});                               // Accepted
  requests.push_back({"mallory", print});                             // Unknown
  requests.push_back({"alice", {}});                                  // Invalid: empty
  std::vector<float> nan_probe = print;
  nan_probe[0] = std::numeric_limits<float>::infinity();
  requests.push_back({"alice", std::move(nan_probe)});                // Invalid: non-finite
  requests.push_back({"alice", {1.0f, 2.0f}});                        // Invalid: wrong dim

  common::ThreadPool pool(4);
  BatchResult result;
  EXPECT_NO_THROW(result = engine.verify_batch(requests, &pool));
  ASSERT_EQ(result.decisions.size(), 5u);
  EXPECT_EQ(result.decisions[0].status, BatchStatus::Accepted);
  EXPECT_EQ(result.decisions[0].key_version, 2u);
  EXPECT_EQ(result.decisions[1].status, BatchStatus::Unknown);
  EXPECT_EQ(result.decisions[2].status, BatchStatus::Invalid);
  EXPECT_EQ(result.decisions[3].status, BatchStatus::Invalid);
  EXPECT_EQ(result.decisions[4].status, BatchStatus::Invalid);
  EXPECT_EQ(result.stats.requests, 5u);
  EXPECT_EQ(result.stats.known, 1u);
  EXPECT_EQ(result.stats.accepted, 1u);
  EXPECT_EQ(result.stats.unknown, 1u);
  EXPECT_EQ(result.stats.invalid, 3u);
}

TEST(BatchVerifier, GenuineAcceptedImpostorRejected) {
  BatchVerifier engine;
  Rng rng(2);
  const auto alice = random_print(rng);
  const auto mallory = random_print(rng);
  engine.enroll("alice", make_template(alice, 77, 1));

  const BatchDecision genuine = engine.verify_one("alice", alice);
  ASSERT_TRUE(genuine.known);
  EXPECT_EQ(genuine.key_version, 1u);
  EXPECT_TRUE(genuine.decision.accepted);
  EXPECT_NEAR(genuine.decision.distance, 0.0, 1e-5);

  const BatchDecision impostor = engine.verify_one("alice", mallory);
  ASSERT_TRUE(impostor.known);
  EXPECT_GT(impostor.decision.distance, genuine.decision.distance);
}

TEST(BatchVerifier, MatchesVerifierVerifyUser) {
  // The concurrent engine must agree bit-for-bit with the serial
  // reference — a Gaussian matrix rebuilt from the seed, then the
  // threshold policy — so the engine's cache must not change the math.
  BatchVerifier engine;
  const Verifier verifier;
  Rng rng(3);
  const auto print = random_print(rng);
  const auto tmpl = make_template(print, 123, 4);
  engine.enroll("u", tmpl);

  auto probe = print;
  probe[0] += 0.25f;
  const BatchDecision d = engine.verify_one("u", probe);
  const GaussianMatrix g(tmpl.matrix_seed, probe.size());
  const Decision reference = verifier.verify(g.transform(probe), tmpl.data);
  ASSERT_TRUE(d.known);
  EXPECT_EQ(d.decision.accepted, reference.accepted);
  EXPECT_EQ(d.decision.distance, reference.distance);
}

TEST(BatchVerifier, RevokeAndRekey) {
  BatchVerifier engine;
  Rng rng(4);
  const auto print = random_print(rng);
  engine.enroll("bob", make_template(print, 10, 1));
  EXPECT_EQ(engine.size(), 1u);

  engine.enroll("bob", make_template(print, 11, 2));  // re-key
  const BatchDecision d = engine.verify_one("bob", print);
  ASSERT_TRUE(d.known);
  EXPECT_EQ(d.key_version, 2u);
  EXPECT_TRUE(d.decision.accepted);

  EXPECT_TRUE(engine.revoke("bob"));
  EXPECT_FALSE(engine.revoke("bob"));
  EXPECT_FALSE(engine.verify_one("bob", print).known);
  EXPECT_EQ(engine.size(), 0u);
}

TEST(BatchVerifier, BatchDecisionsAlignWithRequests) {
  BatchVerifier engine;
  Rng rng(5);
  std::vector<std::vector<float>> prints;
  for (std::size_t u = 0; u < 6; ++u) {
    prints.push_back(random_print(rng));
    engine.enroll("user" + std::to_string(u),
                  make_template(prints.back(), 100 + u, static_cast<std::uint32_t>(u)));
  }

  std::vector<VerifyRequest> requests;
  for (std::size_t u = 0; u < 6; ++u) {
    requests.push_back({"user" + std::to_string(u), prints[u]});
  }
  requests.push_back({"ghost", prints[0]});

  common::ThreadPool pool(4);
  const BatchResult result = engine.verify_batch(requests, &pool);
  ASSERT_EQ(result.decisions.size(), requests.size());
  for (std::size_t u = 0; u < 6; ++u) {
    ASSERT_TRUE(result.decisions[u].known) << u;
    EXPECT_EQ(result.decisions[u].key_version, u);
    EXPECT_TRUE(result.decisions[u].decision.accepted);
  }
  EXPECT_FALSE(result.decisions.back().known);

  EXPECT_EQ(result.stats.requests, 7u);
  EXPECT_EQ(result.stats.known, 6u);
  EXPECT_EQ(result.stats.accepted, 6u);
  EXPECT_EQ(result.stats.unknown, 1u);
}

TEST(BatchVerifier, BatchIsThreadCountInvariant) {
  BatchVerifier engine;
  Rng rng(6);
  std::vector<VerifyRequest> requests;
  for (std::size_t u = 0; u < 24; ++u) {
    const auto print = random_print(rng);
    engine.enroll("user" + std::to_string(u),
                  make_template(print, 500 + u, 1));
    auto probe = print;
    probe[u % kDim] += 0.1f;
    requests.push_back({"user" + std::to_string(u), std::move(probe)});
  }

  common::ThreadPool one(1);
  common::ThreadPool eight(8);
  const BatchResult serial = engine.verify_batch(requests, &one);
  const BatchResult parallel = engine.verify_batch(requests, &eight);
  ASSERT_EQ(serial.decisions.size(), parallel.decisions.size());
  for (std::size_t i = 0; i < serial.decisions.size(); ++i) {
    EXPECT_EQ(serial.decisions[i].known, parallel.decisions[i].known);
    EXPECT_EQ(serial.decisions[i].key_version, parallel.decisions[i].key_version);
    EXPECT_EQ(serial.decisions[i].decision.accepted, parallel.decisions[i].decision.accepted);
    EXPECT_EQ(serial.decisions[i].decision.distance, parallel.decisions[i].decision.distance);
  }
}

TEST(BatchVerifier, SaveLoadRoundTrip) {
  BatchVerifier engine;
  Rng rng(7);
  const auto print = random_print(rng);
  engine.enroll("carol", make_template(print, 9, 3));

  std::stringstream buffer;
  engine.save(buffer);
  BatchVerifier restored;
  restored.load(buffer);
  const BatchDecision d = restored.verify_one("carol", print);
  ASSERT_TRUE(d.known);
  EXPECT_EQ(d.key_version, 3u);
  EXPECT_TRUE(d.decision.accepted);
}

TEST(BatchVerifier, ThresholdIsTunable) {
  BatchVerifier engine(0.5);
  EXPECT_DOUBLE_EQ(engine.threshold(), 0.5);
  engine.set_threshold(0.1);
  EXPECT_DOUBLE_EQ(engine.threshold(), 0.1);
  Rng rng(8);
  const auto print = random_print(rng);
  engine.enroll("dave", make_template(print, 21, 1));
  auto probe = print;
  for (float& x : probe) {
    x = 1.0f - x;  // far-away probe
  }
  const BatchDecision d = engine.verify_one("dave", probe);
  ASSERT_TRUE(d.known);
  EXPECT_FALSE(d.decision.accepted);
}

}  // namespace
}  // namespace mandipass::auth
