// Shard-invariance property tests for auth::ShardedVerifier (DESIGN.md
// §15): a sharded service is an optimisation, never a semantic — at 1, 2
// and 8 shards every decision and every distance must be bit-identical
// to a lone BatchVerifier fed the same traffic, for every request mix
// the PR 4 taxonomy can produce (genuine / impostor / unknown / empty /
// non-finite / wrong-dim), across enroll/revoke interleavings, and for
// batches stuffed with duplicate user ids.
#include "auth/sharded_verifier.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "auth/batch_verifier.h"
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

std::string user_name(std::size_t u) { return "user" + std::to_string(u); }

void expect_same_decision(const BatchDecision& a, const BatchDecision& b, std::size_t i) {
  EXPECT_EQ(a.known, b.known) << "request " << i;
  EXPECT_EQ(a.status, b.status) << "request " << i;
  EXPECT_EQ(a.reason, b.reason) << "request " << i;
  EXPECT_EQ(a.key_version, b.key_version) << "request " << i;
  if (a.known && b.known) {
    EXPECT_EQ(a.decision.accepted, b.decision.accepted) << "request " << i;
    // Bit-identical, not approximately equal: the coalesced GEMM keeps
    // the per-element accumulation order of the per-request transform.
    EXPECT_EQ(a.decision.distance, b.decision.distance) << "request " << i;
  }
}

/// One reference BatchVerifier plus sharded engines at 1/2/8 shards,
/// kept in lockstep: every mutation is applied to all four.
struct MirroredEngines {
  BatchVerifier reference;
  ShardedVerifier s1{1};
  ShardedVerifier s2{2};
  ShardedVerifier s8{8};

  void enroll(const std::string& user, const StoredTemplate& tmpl) {
    reference.enroll(user, tmpl);
    s1.enroll(user, tmpl);
    s2.enroll(user, tmpl);
    s8.enroll(user, tmpl);
  }

  void revoke(const std::string& user) {
    reference.revoke(user);
    s1.revoke(user);
    s2.revoke(user);
    s8.revoke(user);
  }

  void expect_invariant(std::span<const VerifyRequest> requests, common::ThreadPool* pool) {
    const BatchResult want = reference.verify_batch(requests, pool);
    for (ShardedVerifier* engine : {&s1, &s2, &s8}) {
      const BatchResult got = engine->verify_batch(requests, pool);
      ASSERT_EQ(got.decisions.size(), want.decisions.size());
      for (std::size_t i = 0; i < want.decisions.size(); ++i) {
        expect_same_decision(got.decisions[i], want.decisions[i], i);
      }
      EXPECT_EQ(got.stats.requests, want.stats.requests);
      EXPECT_EQ(got.stats.known, want.stats.known);
      EXPECT_EQ(got.stats.accepted, want.stats.accepted);
      EXPECT_EQ(got.stats.unknown, want.stats.unknown);
      EXPECT_EQ(got.stats.invalid, want.stats.invalid);
    }
  }
};

TEST(ShardedVerifier, RoutingHashIsStableAcrossRuns) {
  // FNV-1a 64 with the standard offset basis / prime: pinned values, so
  // a platform or refactor that silently changes routing fails here
  // (baselines and cross-process shard maps depend on the function).
  EXPECT_EQ(user_shard_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(user_shard_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(user_shard_hash("user0"), user_shard_hash("user0"));
  EXPECT_NE(user_shard_hash("user0"), user_shard_hash("user1"));

  const ShardedVerifier engine(8);
  std::set<std::size_t> hit;
  for (std::size_t u = 0; u < 100; ++u) {
    const std::size_t s = engine.shard_for(user_name(u));
    ASSERT_LT(s, 8u);
    EXPECT_EQ(s, user_shard_hash(user_name(u)) % 8);
    hit.insert(s);
  }
  // 100 FNV-hashed ids over 8 shards: every shard must see traffic.
  EXPECT_EQ(hit.size(), 8u);
}

TEST(ShardedVerifier, SingleRequestOpsRouteToOwningShard) {
  MirroredEngines engines;
  Rng rng(21);
  const auto print = random_print(rng);
  engines.enroll("alice", make_template(print, 5, 3));

  for (ShardedVerifier* engine : {&engines.s1, &engines.s2, &engines.s8}) {
    EXPECT_EQ(engine->size(), 1u);
    const auto snap = engine->lookup("alice");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->key_version, 3u);
    const BatchDecision d = engine->verify_one("alice", print);
    const BatchDecision want = engines.reference.verify_one("alice", print);
    expect_same_decision(d, want, 0);
    EXPECT_FALSE(engine->verify_one("nobody", print).known);
  }

  engines.revoke("alice");
  for (ShardedVerifier* engine : {&engines.s1, &engines.s2, &engines.s8}) {
    EXPECT_EQ(engine->size(), 0u);
    EXPECT_FALSE(engine->lookup("alice").has_value());
    EXPECT_FALSE(engine->revoke("alice"));
  }
}

TEST(ShardedVerifier, ShardInvariantForEveryRequestKind) {
  MirroredEngines engines;
  Rng rng(22);
  std::vector<std::vector<float>> prints;
  for (std::size_t u = 0; u < 16; ++u) {
    prints.push_back(random_print(rng));
    // Half the users share seed 900 (coalescable groups on each shard),
    // the rest get unique seeds (singleton groups).
    const std::uint64_t seed = (u % 2 == 0) ? 900 : 7000 + u;
    engines.enroll(user_name(u), make_template(prints[u], seed, static_cast<std::uint32_t>(u)));
  }

  std::vector<VerifyRequest> requests;
  for (std::size_t u = 0; u < 16; ++u) {
    requests.push_back({user_name(u), prints[u]});  // genuine
  }
  for (std::size_t u = 0; u < 16; ++u) {
    requests.push_back({user_name(u), prints[(u + 1) % 16]});  // impostor probe
  }
  requests.push_back({"ghost", prints[0]});  // unknown
  requests.push_back({"phantom", prints[1]});
  requests.push_back({user_name(0), {}});  // invalid: empty
  auto nan_probe = prints[2];
  nan_probe[kDim / 2] = std::numeric_limits<float>::quiet_NaN();
  requests.push_back({user_name(2), std::move(nan_probe)});  // invalid: non-finite
  requests.push_back({user_name(3), {1.0f, 2.0f, 3.0f}});    // invalid: wrong dim
  requests.push_back({"ghost", {}});  // unknown id AND empty probe -> Invalid first

  common::ThreadPool pool(4);
  engines.expect_invariant(requests, &pool);
  engines.expect_invariant(requests, nullptr);  // global pool path too
}

TEST(ShardedVerifier, ShardInvariantAcrossEnrollRevokeInterleavings) {
  MirroredEngines engines;
  Rng rng(23);
  std::vector<std::vector<float>> prints;
  for (std::size_t u = 0; u < 12; ++u) {
    prints.push_back(random_print(rng));
  }

  common::ThreadPool pool(3);
  Rng ops(0xC0FFEE);
  for (std::size_t round = 0; round < 8; ++round) {
    // Deterministic churn, applied identically to all four engines.
    for (std::size_t op = 0; op < 6; ++op) {
      const std::size_t u = ops.uniform_index(12);
      if (ops.bernoulli(0.3)) {
        engines.revoke(user_name(u));
      } else {
        const auto version = static_cast<std::uint32_t>(round * 6 + op);
        const std::uint64_t seed = 100 + (ops.bernoulli(0.5) ? 0 : u);
        engines.enroll(user_name(u), make_template(prints[u], seed, version));
      }
    }
    std::vector<VerifyRequest> requests;
    for (std::size_t u = 0; u < 12; ++u) {
      requests.push_back({user_name(u), prints[u]});
      if (u % 3 == 0) {
        requests.push_back({user_name(u), prints[(u + 5) % 12]});
      }
    }
    engines.expect_invariant(requests, &pool);
  }
}

// Regression (ISSUE 7 satellite): a batch that repeats the same user id
// many times lands every copy on one shard. The router must neither
// deadlock (it takes the shard lock once per shard, not per request) nor
// invert decision order (each decision is written at its request's own
// index) — and duplicates must agree with each other, because the whole
// shard batch is decided against one snapshot.
TEST(ShardedVerifier, DuplicateIdBatchesNeitherDeadlockNorReorder) {
  MirroredEngines engines;
  Rng rng(24);
  const auto alice = random_print(rng);
  const auto bob = random_print(rng);
  const auto carol = random_print(rng);
  engines.enroll("alice", make_template(alice, 11, 1));
  engines.enroll("bob", make_template(bob, 11, 2));  // same seed: coalesces with alice
  engines.enroll("carol", make_template(carol, 12, 3));

  // 64 requests, heavy duplication, statuses interleaved so an ordering
  // inversion is detectable: alice-genuine at i%4==0, alice-impostor at
  // i%4==1, bob-genuine at i%4==2, rotating junk at i%4==3.
  std::vector<VerifyRequest> requests;
  for (std::size_t i = 0; i < 64; ++i) {
    switch (i % 4) {
      case 0:
        requests.push_back({"alice", alice});
        break;
      case 1:
        requests.push_back({"alice", bob});
        break;
      case 2:
        requests.push_back({"bob", bob});
        break;
      default:
        if (i % 8 == 3) {
          requests.push_back({"carol", {}});  // invalid duplicate
        } else {
          requests.push_back({"ghost", carol});  // unknown duplicate
        }
        break;
    }
  }

  common::ThreadPool pool(4);
  engines.expect_invariant(requests, &pool);

  // Duplicates of the same (user, probe) inside one batch must be
  // decided identically — one snapshot per shard batch.
  const BatchResult got = engines.s8.verify_batch(requests, &pool);
  for (std::size_t i = 4; i < 64; i += 4) {
    expect_same_decision(got.decisions[i], got.decisions[0], i);
    EXPECT_EQ(got.decisions[i].decision.distance, got.decisions[0].decision.distance);
  }
}

TEST(ShardedVerifier, ThresholdAppliesToEveryShard) {
  ShardedVerifier engine(8, 0.5);
  EXPECT_DOUBLE_EQ(engine.threshold(), 0.5);
  Rng rng(25);
  std::vector<std::string> users;
  for (std::size_t u = 0; u < 16; ++u) {
    const auto print = random_print(rng);
    engine.enroll(user_name(u), make_template(print, 30 + u, 1));
    users.push_back(user_name(u));
  }
  engine.set_threshold(0.0);  // nothing short of an exact match passes
  EXPECT_DOUBLE_EQ(engine.threshold(), 0.0);
  Rng probe_rng(26);
  for (const auto& user : users) {
    const BatchDecision d = engine.verify_one(user, random_print(probe_rng));
    ASSERT_TRUE(d.known);
    EXPECT_FALSE(d.decision.accepted) << user;
  }
}

TEST(ShardedVerifier, EmptyBatchIsWellFormed) {
  ShardedVerifier engine(4);
  const BatchResult result = engine.verify_batch({});
  EXPECT_TRUE(result.decisions.empty());
  EXPECT_EQ(result.stats.requests, 0u);
  EXPECT_EQ(result.stats.known, 0u);
}

TEST(ShardedVerifier, BatchIsThreadCountInvariant) {
  ShardedVerifier engine(8);
  Rng rng(27);
  std::vector<VerifyRequest> requests;
  for (std::size_t u = 0; u < 24; ++u) {
    const auto print = random_print(rng);
    engine.enroll(user_name(u), make_template(print, 500 + u % 3, 1));
    auto probe = print;
    probe[u % kDim] += 0.1f;
    requests.push_back({user_name(u), std::move(probe)});
  }
  common::ThreadPool one(1);
  common::ThreadPool eight(8);
  const BatchResult serial = engine.verify_batch(requests, &one);
  const BatchResult parallel = engine.verify_batch(requests, &eight);
  ASSERT_EQ(serial.decisions.size(), parallel.decisions.size());
  for (std::size_t i = 0; i < serial.decisions.size(); ++i) {
    expect_same_decision(serial.decisions[i], parallel.decisions[i], i);
  }
}

}  // namespace
}  // namespace mandipass::auth
