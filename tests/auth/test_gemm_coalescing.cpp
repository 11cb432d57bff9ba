// Bit-identity contract of the coalesced Gaussian-transform path
// (DESIGN.md §15): packing many same-matrix probes into one
// nn::PackedGemm tile must produce, for every probe, exactly the floats
// a lone GaussianMatrix::transform() produces — the kernels share the
// ascending-k accumulation order for every tile shape, so batching is
// purely a bandwidth optimisation. Exercised at batch sizes 1 / 3 / 16 /
// 257 (off the kXTile=4 and kOcBlock=16 grids) at dims 48 / 63 / 512,
// and through BatchVerifier::verify_coalesced for mixed-seed request sets.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "common/rng.h"
#include "nn/inference_plan.h"

namespace mandipass::auth {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return v;
}

TEST(GemmCoalescing, RunXMajorIsRunTransposed) {
  // Layout-only contract on PackedGemm itself: run_xmajor(y')[xi][r] must
  // hold bit-for-bit the float run(y)[r][xi] holds, including bias and a
  // non-trivial epilogue, on a deliberately ragged shape (rows and cols
  // off the 16/4 block grids, x_count off the tile grid).
  constexpr std::size_t kRows = 21;
  constexpr std::size_t kCols = 13;
  constexpr std::size_t kCount = 7;
  Rng rng(31);
  const auto w = random_vec(rng, kRows * kCols);
  const auto bias = random_vec(rng, kRows);
  const auto x = random_vec(rng, kCount * kCols);

  nn::PackedGemm gemm;
  gemm.pack_rows(w.data(), bias.data(), kRows, kCols);

  std::vector<float> y_rowmajor(kRows * kCount);
  std::vector<float> y_xmajor(kCount * kRows);
  gemm.run(x.data(), kCount, kCols, y_rowmajor.data(), kCount, nn::Epilogue::Relu);
  gemm.run_xmajor(x.data(), kCount, kCols, y_xmajor.data(), kRows, nn::Epilogue::Relu);

  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t xi = 0; xi < kCount; ++xi) {
      EXPECT_EQ(y_rowmajor[r * kCount + xi], y_xmajor[xi * kRows + r])
          << "r=" << r << " xi=" << xi;
    }
  }
}

TEST(GemmCoalescing, TransformBatchBitIdenticalAtEveryBatchSize) {
  // Dims 48 and 63 sit on and off the 16-output block grid; 512 is the
  // paper's shape, where the facade's verify_one rides a tile of one.
  for (const std::size_t dim : {std::size_t{48}, std::size_t{63}, std::size_t{512}}) {
    const GaussianMatrix g(0xBEEF, dim);
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                    std::size_t{257}}) {
      Rng rng(0x40 + count);
      const auto xs = random_vec(rng, count * dim);
      std::vector<float> out(count * dim);
      g.transform_batch(xs, count, out);
      for (std::size_t i = 0; i < count; ++i) {
        const std::span<const float> probe(xs.data() + i * dim, dim);
        const auto lone = g.transform(probe);
        for (std::size_t j = 0; j < dim; ++j) {
          ASSERT_EQ(out[i * dim + j], lone[j])
              << "dim=" << dim << " count=" << count << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(GemmCoalescing, CoalescedVerifyMatchesPerRequestAcrossMixedSeeds) {
  constexpr std::size_t kDim = 32;
  BatchVerifier engine;
  Rng rng(33);
  std::vector<VerifyRequest> requests;
  // 12 users over 3 shared seeds (coalescable groups of 4) plus one user
  // on a seed of his own (a singleton group).
  for (std::size_t u = 0; u < 12; ++u) {
    std::vector<float> print(kDim);
    for (float& x : print) {
      x = static_cast<float>(rng.uniform());
    }
    const std::uint64_t seed = 600 + u % 3;
    const GaussianMatrix g(seed, kDim);
    StoredTemplate tmpl;
    tmpl.data = g.transform(print);
    tmpl.matrix_seed = seed;
    tmpl.key_version = static_cast<std::uint32_t>(u);
    engine.enroll("user" + std::to_string(u), std::move(tmpl));
    auto probe = print;
    probe[u % kDim] += 0.05f;
    requests.push_back({"user" + std::to_string(u), std::move(probe)});
  }
  {
    std::vector<float> loner(kDim, 0.25f);
    const GaussianMatrix g(999, kDim);
    StoredTemplate tmpl;
    tmpl.data = g.transform(loner);
    tmpl.matrix_seed = 999;
    tmpl.key_version = 12;
    engine.enroll("loner", std::move(tmpl));
    requests.push_back({"loner", std::move(loner)});
  }

  std::vector<std::size_t> indices(requests.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  std::vector<BatchDecision> decisions(requests.size());
  const CoalesceStats cs = engine.verify_coalesced(requests, indices, decisions);
  EXPECT_EQ(cs.groups, 4u);       // 3 shared seeds + the loner
  EXPECT_EQ(cs.coalesced, 12u);   // the three groups of four
  EXPECT_EQ(cs.singletons, 1u);   // the loner

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BatchDecision want = engine.verify_one(requests[i].user, requests[i].raw_probe);
    EXPECT_EQ(decisions[i].known, want.known) << i;
    EXPECT_EQ(decisions[i].status, want.status) << i;
    EXPECT_EQ(decisions[i].key_version, want.key_version) << i;
    EXPECT_EQ(decisions[i].decision.accepted, want.decision.accepted) << i;
    EXPECT_EQ(decisions[i].decision.distance, want.decision.distance) << i;
  }
}

TEST(GemmCoalescing, CoalescedPathIsTotalAndWritesOnlyItsIndices) {
  constexpr std::size_t kDim = 16;
  BatchVerifier engine;
  std::vector<float> print(kDim, 0.5f);
  const GaussianMatrix g(7, kDim);
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = 7;
  tmpl.key_version = 1;
  engine.enroll("alice", std::move(tmpl));

  std::vector<VerifyRequest> requests;
  requests.push_back({"alice", print});            // 0: Accepted
  requests.push_back({"ghost", print});            // 1: Unknown
  requests.push_back({"alice", {}});               // 2: Invalid (empty)
  std::vector<float> nan_probe = print;
  nan_probe[3] = std::numeric_limits<float>::quiet_NaN();
  requests.push_back({"alice", std::move(nan_probe)});  // 3: Invalid (non-finite)
  requests.push_back({"alice", {1.0f, 2.0f}});     // 4: Invalid (wrong dim)
  requests.push_back({"alice", print});            // 5: NOT in indices

  std::vector<BatchDecision> decisions(requests.size());
  decisions[5].key_version = 77;  // sentinel: slot 5 must stay untouched
  const std::vector<std::size_t> indices = {0, 1, 2, 3, 4};
  CoalesceStats cs;
  EXPECT_NO_THROW(cs = engine.verify_coalesced(requests, indices, decisions));
  EXPECT_EQ(cs.groups, 1u);
  EXPECT_EQ(cs.singletons, 1u);

  EXPECT_EQ(decisions[0].status, BatchStatus::Accepted);
  EXPECT_EQ(decisions[1].status, BatchStatus::Unknown);
  EXPECT_EQ(decisions[1].reason, common::ErrorCode::UnknownUser);
  EXPECT_EQ(decisions[2].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[2].reason, common::ErrorCode::InvalidInput);
  EXPECT_EQ(decisions[3].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[3].reason, common::ErrorCode::NonFiniteSample);
  EXPECT_EQ(decisions[4].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[4].reason, common::ErrorCode::DimensionMismatch);
  EXPECT_EQ(decisions[5].key_version, 77u);  // untouched

  // Empty index set: a no-op that touches nothing.
  decisions[0].key_version = 88;
  const CoalesceStats none = engine.verify_coalesced(requests, {}, decisions);
  EXPECT_EQ(none.groups, 0u);
  EXPECT_EQ(decisions[0].key_version, 88u);
}

// Duplicate ids inside one coalesced group: all copies resolve against
// the single snapshot, so their distances are bit-identical and ordered
// by request index (regression companion to the router-level test in
// test_sharded_verifier.cpp).
TEST(GemmCoalescing, DuplicateUsersShareOneSnapshotInOneGroup) {
  constexpr std::size_t kDim = 16;
  BatchVerifier engine;
  std::vector<float> print(kDim, 0.3f);
  const GaussianMatrix g(42, kDim);
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = 42;
  tmpl.key_version = 9;
  engine.enroll("dup", std::move(tmpl));

  std::vector<VerifyRequest> requests;
  for (std::size_t i = 0; i < 11; ++i) {
    requests.push_back({"dup", print});
  }
  std::vector<std::size_t> indices(requests.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  std::vector<BatchDecision> decisions(requests.size());
  const CoalesceStats cs = engine.verify_coalesced(requests, indices, decisions);
  EXPECT_EQ(cs.groups, 1u);
  EXPECT_EQ(cs.coalesced, 11u);
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    ASSERT_TRUE(decisions[i].known) << i;
    EXPECT_EQ(decisions[i].key_version, 9u);
    EXPECT_EQ(decisions[i].decision.distance, decisions[0].decision.distance);
    EXPECT_TRUE(decisions[i].decision.accepted);
  }
}

// Regression (PR 9 satellite): a coalesced group must stay total when
// some members carry invalid embedding dimensions — each bad request
// gets its own typed decision and the valid members of the same seed are
// still served bit-identically, instead of one bad probe aborting the
// whole (seed, dim) group on a transform precondition. Mixes two
// embedding widths on ONE shared seed so the grouping logic has to keep
// them apart per-request.
TEST(GemmCoalescing, MixedValidInvalidDimensionsPropagatePerRequest) {
  constexpr std::uint64_t kSeed = 500;
  BatchVerifier engine;
  const auto enroll = [&](const std::string& user, std::size_t dim, float fill,
                          std::uint32_t version) {
    std::vector<float> print(dim, fill);
    const GaussianMatrix g(kSeed, dim);
    StoredTemplate tmpl;
    tmpl.data = g.transform(print);
    tmpl.matrix_seed = kSeed;
    tmpl.key_version = version;
    engine.enroll(user, std::move(tmpl));
    return print;
  };
  const auto alice_print = enroll("alice", 32, 0.4f, 1);
  const auto bob_print = enroll("bob", 32, -0.2f, 2);
  const auto carol_print = enroll("carol", 16, 0.7f, 3);

  std::vector<VerifyRequest> requests;
  requests.push_back({"alice", alice_print});                    // 0: valid, dim 32
  requests.push_back({"bob", std::vector<float>(16, 0.1f)});     // 1: wrong dim for bob
  requests.push_back({"carol", carol_print});                    // 2: valid, dim 16
  requests.push_back({"alice", {}});                             // 3: empty
  std::vector<float> nan_probe = bob_print;
  nan_probe[5] = std::numeric_limits<float>::quiet_NaN();
  requests.push_back({"bob", std::move(nan_probe)});             // 4: non-finite
  requests.push_back({"bob", bob_print});                        // 5: valid, dim 32

  std::vector<std::size_t> indices(requests.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  std::vector<BatchDecision> decisions(requests.size());
  CoalesceStats cs;
  EXPECT_NO_THROW(cs = engine.verify_coalesced(requests, indices, decisions));
  // Two live tiles: (500, 32) with alice+bob, (500, 16) with carol.
  EXPECT_EQ(cs.groups, 2u);
  EXPECT_EQ(cs.coalesced, 2u);
  EXPECT_EQ(cs.singletons, 1u);

  EXPECT_EQ(decisions[0].status, BatchStatus::Accepted);
  EXPECT_EQ(decisions[1].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[1].reason, common::ErrorCode::DimensionMismatch);
  EXPECT_EQ(decisions[2].status, BatchStatus::Accepted);
  EXPECT_EQ(decisions[3].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[3].reason, common::ErrorCode::InvalidInput);
  EXPECT_EQ(decisions[4].status, BatchStatus::Invalid);
  EXPECT_EQ(decisions[4].reason, common::ErrorCode::NonFiniteSample);
  EXPECT_EQ(decisions[5].status, BatchStatus::Accepted);

  // The valid members are bit-identical to the per-request path — the
  // invalid neighbours changed nothing about their tiles.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    const BatchDecision want = engine.verify_one(requests[i].user, requests[i].raw_probe);
    EXPECT_EQ(decisions[i].key_version, want.key_version) << i;
    EXPECT_EQ(decisions[i].decision.accepted, want.decision.accepted) << i;
    EXPECT_EQ(decisions[i].decision.distance, want.decision.distance) << i;
    EXPECT_FALSE(decisions[i].degraded) << i;
  }
}

// Deadline short-circuit: an already-expired budget turns every indexed
// request into a typed Expired decision without touching locks or GEMM.
TEST(GemmCoalescing, ExpiredDeadlineShortCircuitsBeforeGemm) {
  constexpr std::size_t kDim = 16;
  BatchVerifier engine;
  std::vector<float> print(kDim, 0.5f);
  const GaussianMatrix g(7, kDim);
  StoredTemplate tmpl;
  tmpl.data = g.transform(print);
  tmpl.matrix_seed = 7;
  tmpl.key_version = 1;
  engine.enroll("alice", std::move(tmpl));

  common::VirtualClock clock;
  const auto deadline = common::Deadline::after_us(100, &clock);
  clock.advance_us(101);

  std::vector<VerifyRequest> requests;
  requests.push_back({"alice", print});
  requests.push_back({"ghost", print});
  const std::vector<std::size_t> indices = {0, 1};
  std::vector<BatchDecision> decisions(requests.size());
  const CoalesceStats cs = engine.verify_coalesced(requests, indices, decisions, deadline);
  EXPECT_EQ(cs.groups, 0u);
  for (const BatchDecision& d : decisions) {
    EXPECT_EQ(d.status, BatchStatus::Expired);
    EXPECT_EQ(d.reason, common::ErrorCode::DeadlineExceeded);
    EXPECT_FALSE(d.known);
  }
  // An unlimited (default) deadline serves normally.
  const CoalesceStats healthy = engine.verify_coalesced(requests, indices, decisions);
  EXPECT_EQ(healthy.groups, 1u);
  EXPECT_EQ(decisions[0].status, BatchStatus::Accepted);
  EXPECT_EQ(decisions[1].status, BatchStatus::Unknown);
}

}  // namespace
}  // namespace mandipass::auth
