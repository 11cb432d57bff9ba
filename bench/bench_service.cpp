// Sharded authentication service at population scale (DESIGN.md §15).
//
// Three phases:
//
//   1. Enrollment — synthesizes a simulated population (seeded
//      MandiblePrint embeddings; no model inference is needed to enroll)
//      and seals every user into a reference BatchVerifier plus
//      ShardedVerifier instances at 1 / 2 / 8 shards. Full scale is 1M
//      users; quick mode (MANDIPASS_BENCH_QUICK=1) shrinks to 20k.
//      Users draw their cancelable-transform seed from a small pool of
//      key epochs, the deployment shape that makes cross-user GEMM
//      coalescing meaningful (a per-user seed would defeat any cache).
//
//   2. Deterministic replay — a fixed mixed request tape (genuine /
//      impostor / unknown / invalid / duplicate-id) interleaved with
//      enroll/revoke churn, applied identically to every engine. Exit
//      verdicts assert shard invariance (decisions and distances at
//      1/2/8 shards bit-identical to the reference engine), coalesced ==
//      per-request transform equality, and duplicate-id consistency.
//      Every event count on this tape is deterministic, so the quick
//      run's counters are committed as bench/baselines/
//      bench_service.quick.json and gated cross-machine with
//      bench_compare --skip-latency.
//
//   3. Storm — fixed-op mixed traffic (verify_one singles + coalesced
//      verify_batch bursts + enroll/revoke churn on a disjoint user set)
//      from a fixed number of client threads against each shard count,
//      recording per-request latency into the obs registry
//      (auth.service.sN.request_us) for the p50/p95/p99 SLO table, and
//      checking every storm decision against its precomputed expected
//      distance bit-for-bit.
//
// Usage: bench_service [--threads N] [--json [PATH]] [--users N]
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "auth/sharded_verifier.h"
#include "bench_common.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"

using namespace mandipass;

namespace {

constexpr std::size_t kDim = 64;         ///< embedding width (service config)
constexpr std::size_t kSeedEpochs = 8;   ///< key-epoch pool; users draw seed = epoch(u)
constexpr std::uint64_t kEpochBase = 0x5EED0000;
constexpr std::size_t kVerifyPool = 256;  ///< users addressed by verify traffic
constexpr std::size_t kChurnPool = 256;   ///< users addressed by enroll/revoke churn
constexpr std::size_t kStormThreads = 4;  ///< fixed client threads (machine-invariant)

std::uint64_t epoch_seed(std::size_t user) { return kEpochBase + user % kSeedEpochs; }

std::string user_name(std::size_t u) { return "u" + std::to_string(u); }

/// Deterministic per-user raw MandiblePrint, regenerated on demand so 1M
/// prints never need to be resident at once.
std::vector<float> print_for(std::size_t u) {
  Rng rng(0x9E3779B97F4A7C15ULL ^ (u * 0x2545F4914F6CDD1DULL + 1));
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

struct Engines {
  auth::BatchVerifier reference;
  auth::ShardedVerifier s1{1};
  auth::ShardedVerifier s2{2};
  auth::ShardedVerifier s8{8};

  std::vector<auth::ShardedVerifier*> sharded() { return {&s1, &s2, &s8}; }

  void enroll(const std::string& user, const auth::StoredTemplate& tmpl) {
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
};

bool same_decision(const auth::BatchDecision& a, const auth::BatchDecision& b) {
  return a.known == b.known && a.status == b.status && a.reason == b.reason &&
         a.key_version == b.key_version &&
         (!a.known || (a.decision.accepted == b.decision.accepted &&
                       a.decision.distance == b.decision.distance));
}

// ---- Phase 1: enrollment -------------------------------------------------

/// Seals `users` simulated users into every engine. Templates are built
/// in chunks through the coalesced transform path (one transform_batch
/// per key epoch per chunk), which is both the fast way to mint 1M
/// templates and a continuous exercise of the coalescing kernels.
void enroll_population(Engines& engines, std::size_t users) {
  std::vector<std::unique_ptr<auth::GaussianMatrix>> epochs;
  for (std::size_t e = 0; e < kSeedEpochs; ++e) {
    epochs.push_back(std::make_unique<auth::GaussianMatrix>(kEpochBase + e, kDim));
  }
  constexpr std::size_t kChunk = 4096;
  std::vector<float> xs;
  std::vector<float> transformed;
  std::vector<std::size_t> members;
  for (std::size_t start = 0; start < users; start += kChunk) {
    const std::size_t count = std::min(kChunk, users - start);
    for (std::size_t e = 0; e < kSeedEpochs; ++e) {
      members.clear();
      for (std::size_t i = 0; i < count; ++i) {
        if ((start + i) % kSeedEpochs == e) {
          members.push_back(start + i);
        }
      }
      if (members.empty()) {
        continue;
      }
      xs.resize(members.size() * kDim);
      transformed.resize(members.size() * kDim);
      for (std::size_t m = 0; m < members.size(); ++m) {
        const auto print = print_for(members[m]);
        std::copy(print.begin(), print.end(),
                  xs.begin() + static_cast<std::ptrdiff_t>(m * kDim));
      }
      epochs[e]->transform_batch(xs, members.size(), transformed);
      for (std::size_t m = 0; m < members.size(); ++m) {
        auth::StoredTemplate tmpl;
        tmpl.data.assign(transformed.begin() + static_cast<std::ptrdiff_t>(m * kDim),
                         transformed.begin() + static_cast<std::ptrdiff_t>((m + 1) * kDim));
        tmpl.matrix_seed = kEpochBase + e;
        tmpl.key_version = 1;
        engines.enroll(user_name(members[m]), tmpl);
      }
    }
  }
}

/// Serially touches one user per key epoch on every engine so each
/// engine's MatrixCache materialises all kSeedEpochs matrices exactly
/// once — afterwards every cache access is a hit, keeping the hit/miss
/// counters deterministic under any later concurrency.
void prewarm_matrix_caches(Engines& engines, std::size_t users) {
  for (std::size_t e = 0; e < kSeedEpochs && e < users; ++e) {
    const auto probe = print_for(e);
    const auto name = user_name(e);
    engines.reference.verify_one(name, probe);
    for (auth::ShardedVerifier* engine : engines.sharded()) {
      engine->verify_one(name, probe);
    }
  }
}

// ---- Phase 2: deterministic replay --------------------------------------

struct ReplayOutcome {
  std::size_t mismatches_s1 = 0;
  std::size_t mismatches_s2 = 0;
  std::size_t mismatches_s8 = 0;
  std::size_t duplicate_disagreements = 0;
  std::size_t transform_mismatches = 0;
  std::size_t requests = 0;
};

/// One fixed tape of mixed traffic, replayed bit-identically against the
/// reference engine and each shard count. Verify traffic addresses
/// users [0, kVerifyPool); churn traffic re-keys/revokes users
/// [kVerifyPool, kVerifyPool + kChurnPool) — disjoint, so churn changes
/// no verify decision and the tape's event counts are deterministic.
ReplayOutcome run_replay(Engines& engines, std::size_t users, std::size_t replay_requests) {
  ReplayOutcome out;
  Rng tape(0x7A9E);
  constexpr std::size_t kBatch = 256;
  std::size_t issued = 0;
  std::uint32_t churn_version = 2;
  while (issued < replay_requests) {
    const std::size_t count = std::min(kBatch, replay_requests - issued);
    std::vector<auth::VerifyRequest> requests;
    requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t kind = (issued + i) % 10;
      const std::size_t u = tape.uniform_index(std::min(kVerifyPool, users));
      if (kind < 6) {  // genuine: own probe + mild session noise
        auto probe = print_for(u);
        for (float& x : probe) {
          x += static_cast<float>(tape.normal(0.0, 0.01));
        }
        requests.push_back({user_name(u), std::move(probe)});
      } else if (kind == 6) {  // impostor: someone else's print
        requests.push_back({user_name(u), print_for(u + 1)});
      } else if (kind == 7) {  // unknown id
        requests.push_back({"ghost" + std::to_string(issued + i), print_for(u)});
      } else if (kind == 8) {  // invalid, rotating through the taxonomy
        switch ((issued + i) % 3) {
          case 0:
            requests.push_back({user_name(u), {}});
            break;
          case 1: {
            auto bad = print_for(u);
            bad[kDim / 2] = std::numeric_limits<float>::quiet_NaN();
            requests.push_back({user_name(u), std::move(bad)});
            break;
          }
          default:
            requests.push_back({user_name(u), {1.0f, 2.0f}});
            break;
        }
      } else {  // duplicate of the previous request's user, same probe
        if (requests.empty()) {
          requests.push_back({user_name(u), print_for(u)});
        } else {
          requests.push_back(requests.back());
        }
      }
    }
    const auth::BatchResult want = engines.reference.verify_batch(requests);
    const auth::BatchResult got1 = engines.s1.verify_batch(requests);
    const auth::BatchResult got2 = engines.s2.verify_batch(requests);
    const auth::BatchResult got8 = engines.s8.verify_batch(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      out.mismatches_s1 += same_decision(got1.decisions[i], want.decisions[i]) ? 0 : 1;
      out.mismatches_s2 += same_decision(got2.decisions[i], want.decisions[i]) ? 0 : 1;
      out.mismatches_s8 += same_decision(got8.decisions[i], want.decisions[i]) ? 0 : 1;
      // Duplicate requests inside one batch must agree with their source
      // request on every engine (single snapshot per shard batch).
      if (i > 0 && requests[i].user == requests[i - 1].user &&
          requests[i].raw_probe == requests[i - 1].raw_probe) {
        for (const auth::BatchResult* r : {&got1, &got2, &got8}) {
          if (!same_decision(r->decisions[i], r->decisions[i - 1])) {
            ++out.duplicate_disagreements;
          }
        }
      }
    }
    // Coalescing cross-check on a sample: recompute through the
    // independent per-request path (snapshot + GaussianMatrix::transform
    // + Verifier) and demand bit-equal distances.
    for (std::size_t i = 0; i < requests.size(); i += 37) {
      const auto& d = want.decisions[i];
      if (!d.known) {
        continue;
      }
      const auto snap = engines.s8.lookup(requests[i].user);
      if (!snap.has_value() || snap->key_version != d.key_version) {
        continue;  // churned between batch and check (cannot happen on this tape)
      }
      const auth::GaussianMatrix g(snap->matrix_seed, kDim);
      const double ref_dist = auth::Verifier(engines.reference.threshold())
                                  .verify(g.transform(requests[i].raw_probe), snap->data)
                                  .distance;
      const auto& d8 = got8.decisions[i];
      if (d8.decision.distance != ref_dist) {
        ++out.transform_mismatches;
      }
    }
    issued += count;
    out.requests += requests.size();
    // Inter-batch churn: deterministic re-key / revoke on the disjoint
    // churn pool, applied identically to every engine.
    for (std::size_t op = 0; op < 8; ++op) {
      const std::size_t c = kVerifyPool + tape.uniform_index(std::min(kChurnPool, users));
      if (c >= users) {
        continue;
      }
      if (tape.bernoulli(0.3)) {
        engines.revoke(user_name(c));
      } else {
        const std::uint64_t seed = epoch_seed(c);
        const auth::GaussianMatrix g(seed, kDim);
        auth::StoredTemplate tmpl;
        tmpl.data = g.transform(print_for(c));
        tmpl.matrix_seed = seed;
        tmpl.key_version = churn_version++;
        engines.enroll(user_name(c), tmpl);
      }
    }
  }
  return out;
}

// ---- Phase 3: storm ------------------------------------------------------

auth::BatchDecision timed_verify(const auth::ShardedVerifier& engine, const std::string& user,
                                 std::span<const float> probe) {
  // One obs histogram per shard count (names must be string literals).
  switch (engine.shard_count()) {
    case 1: {
      MANDIPASS_OBS_TRACE(trace, "auth.service.s1.request_us");
      return engine.verify_one(user, probe);
    }
    case 2: {
      MANDIPASS_OBS_TRACE(trace, "auth.service.s2.request_us");
      return engine.verify_one(user, probe);
    }
    default: {
      MANDIPASS_OBS_TRACE(trace, "auth.service.s8.request_us");
      return engine.verify_one(user, probe);
    }
  }
}

struct StormResult {
  double wall_s = 0.0;
  std::size_t verifies = 0;
  std::size_t exact = 0;     ///< decisions matching the precomputed distance
  std::size_t inexact = 0;   ///< torn/wrong decisions (must stay 0)
};

/// Fixed-op mixed storm: kStormThreads client threads, each replaying a
/// deterministic per-thread op tape (singles, coalesced bursts, churn on
/// the disjoint pool). Every verify decision is checked bit-for-bit
/// against the verify pool's precomputed expected distances.
StormResult run_storm(auth::ShardedVerifier& engine, std::size_t users,
                      std::size_t ops_per_thread,
                      const std::vector<double>& expected_distance) {
  using clock = std::chrono::steady_clock;
  const std::size_t pool_users = std::min(kVerifyPool, users);
  std::atomic<std::size_t> verifies{0};
  std::atomic<std::size_t> exact{0};
  std::atomic<std::size_t> inexact{0};

  const auto check = [&](std::size_t u, const auth::BatchDecision& d) {
    verifies.fetch_add(1, std::memory_order_relaxed);
    if (d.known && d.decision.accepted && d.decision.distance == expected_distance[u]) {
      exact.fetch_add(1, std::memory_order_relaxed);
    } else {
      inexact.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto t0 = clock::now();
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kStormThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0x57320 + t);
      std::uint32_t version = 1000 + static_cast<std::uint32_t>(t) * 100000;
      for (std::size_t op = 0; op < ops_per_thread; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.80) {  // single verify
          const std::size_t u = rng.uniform_index(pool_users);
          check(u, timed_verify(engine, user_name(u), print_for(u)));
        } else if (roll < 0.90) {  // coalesced burst of 32
          std::vector<auth::VerifyRequest> requests;
          std::vector<std::size_t> picked;
          for (std::size_t i = 0; i < 32; ++i) {
            const std::size_t u = rng.uniform_index(pool_users);
            picked.push_back(u);
            requests.push_back({user_name(u), print_for(u)});
          }
          const auth::BatchResult result = engine.verify_batch(requests);
          for (std::size_t i = 0; i < picked.size(); ++i) {
            check(picked[i], result.decisions[i]);
          }
        } else if (roll < 0.95) {  // churn: re-key a disjoint user
          const std::size_t c = kVerifyPool + rng.uniform_index(std::min(kChurnPool, users));
          if (c < users) {
            const std::uint64_t seed = epoch_seed(c);
            const auth::GaussianMatrix g(seed, kDim);
            auth::StoredTemplate tmpl;
            tmpl.data = g.transform(print_for(c));
            tmpl.matrix_seed = seed;
            tmpl.key_version = version++;
            engine.enroll(user_name(c), tmpl);
          }
        } else {  // churn: revoke a disjoint user
          const std::size_t c = kVerifyPool + rng.uniform_index(std::min(kChurnPool, users));
          if (c < users) {
            engine.revoke(user_name(c));
          }
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  StormResult r;
  r.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  r.verifies = verifies.load();
  r.exact = exact.load();
  r.inexact = inexact.load();
  return r;
}

common::obs::HistogramSnapshot request_latency(std::size_t shard_count) {
  const std::string name = "auth.service.s" + std::to_string(shard_count) + ".request_us";
  return common::obs::Registry::instance().histogram(name).snapshot(name);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::init_bench(argc, argv);
  const bench::Scale scale = bench::active_scale();
  std::size_t users = scale.quick ? 20'000 : 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = static_cast<std::size_t>(std::stoull(argv[i + 1]));
      ++i;
    }
  }
  const std::size_t replay_requests = scale.quick ? 6'000 : 20'000;
  const std::size_t storm_ops = scale.quick ? 2'000 : 20'000;

  bench::print_banner("sharded authentication service",
                      "reproduction extension: 1M-user enrolment, shard-invariant "
                      "routing with cross-user GEMM coalescing, mixed-traffic "
                      "latency SLOs at 1/2/8 shards");
  std::cout << "users " << users << "  dim " << kDim << "  key epochs " << kSeedEpochs
            << "  pool threads " << threads << "  storm clients " << kStormThreads << "\n";

  using clock = std::chrono::steady_clock;
  Engines engines;

  // Phase 1: enrollment.
  const auto t_enroll = clock::now();
  enroll_population(engines, users);
  const double enroll_s = std::chrono::duration<double>(clock::now() - t_enroll).count();
  const double enroll_rate = users > 0 && enroll_s > 0.0
                                 ? static_cast<double>(users) / enroll_s
                                 : 0.0;
  MANDIPASS_OBS_GAUGE_SET("bench.service.users", static_cast<double>(users));
  MANDIPASS_OBS_GAUGE_SET("bench.service.enroll_per_s", enroll_rate);
  std::cout << "\nenrolled " << users << " users into 4 engines in "
            << fmt(enroll_s, 2) << " s (" << fmt(enroll_rate, 0)
            << " users/s per engine set)\n";

  bool ok = bench::record_verdict(
      "enroll_complete",
      engines.reference.size() == users && engines.s1.size() == users &&
          engines.s2.size() == users && engines.s8.size() == users,
      "all engines report size == enrolled population");
  if (!scale.quick) {
    ok = bench::record_verdict("enrolled_ge_1m_users", users >= 1'000'000,
                               "full-scale run enrolled at least 1M simulated users") &&
         ok;
  }

  prewarm_matrix_caches(engines, users);

  // Phase 2: deterministic replay with shard-invariance verdicts.
  const ReplayOutcome replay = run_replay(engines, users, replay_requests);
  std::cout << "replayed " << replay.requests << " mixed requests against 4 engines\n";
  ok = bench::record_verdict("shard_invariance_s1", replay.mismatches_s1 == 0,
                             "1-shard decisions bit-identical to reference BatchVerifier") &&
       ok;
  ok = bench::record_verdict("shard_invariance_s2", replay.mismatches_s2 == 0,
                             "2-shard decisions bit-identical to reference BatchVerifier") &&
       ok;
  ok = bench::record_verdict("shard_invariance_s8", replay.mismatches_s8 == 0,
                             "8-shard decisions bit-identical to reference BatchVerifier") &&
       ok;
  ok = bench::record_verdict("coalescing_matches_transform", replay.transform_mismatches == 0,
                             "coalesced distances bit-equal independent per-request "
                             "transform recomputation") &&
       ok;
  ok = bench::record_verdict("duplicate_ids_consistent", replay.duplicate_disagreements == 0,
                             "duplicate-id requests in one batch decided identically") &&
       ok;

  // Phase 3: storm per shard count.
  std::cout << "\nmixed-traffic storm (" << kStormThreads << " clients x " << storm_ops
            << " ops, 80% single verify / 10% burst-32 / 10% churn):\n";
  Table table({"shards", "verify/s", "p50 [us]", "p95 [us]", "p99 [us]", "exact"});
  std::size_t inexact_total = 0;
  for (auth::ShardedVerifier* engine : engines.sharded()) {
    // Expected distances of the verify pool: own print as probe, against
    // the epoch-seed template — precomputed once per engine pass (the
    // replay's churn never touches the verify pool, so these are fixed).
    const std::size_t pool_users = std::min(kVerifyPool, users);
    std::vector<double> expected(pool_users, 0.0);
    for (std::size_t u = 0; u < pool_users; ++u) {
      const auto snap = engine->lookup(user_name(u));
      const auth::GaussianMatrix g(snap->matrix_seed, kDim);
      expected[u] = auth::Verifier(engine->threshold())
                        .verify(g.transform(print_for(u)), snap->data)
                        .distance;
    }
    const StormResult storm = run_storm(*engine, users, storm_ops, expected);
    inexact_total += storm.inexact;
    const double vps = storm.wall_s > 0.0
                           ? static_cast<double>(storm.verifies) / storm.wall_s
                           : 0.0;
    const auto h = request_latency(engine->shard_count());
    switch (engine->shard_count()) {
      case 1:
        MANDIPASS_OBS_GAUGE_SET("auth.service.s1.verify_per_s", vps);
        break;
      case 2:
        MANDIPASS_OBS_GAUGE_SET("auth.service.s2.verify_per_s", vps);
        break;
      default:
        MANDIPASS_OBS_GAUGE_SET("auth.service.s8.verify_per_s", vps);
        break;
    }
    table.add_row({std::to_string(engine->shard_count()), fmt(vps, 0), fmt(h.p50_us, 1),
                   fmt(h.p95_us, 1), fmt(h.p99_us, 1),
                   std::to_string(storm.exact) + "/" + std::to_string(storm.verifies)});
  }
  table.print(std::cout);

  ok = bench::record_verdict("storm_decisions_exact", inexact_total == 0,
                             "every storm decision matched its precomputed distance "
                             "bit-for-bit under concurrent churn") &&
       ok;
  // Latency SLO: generous bound, meant to catch order-of-magnitude
  // regressions (a lock convoy, a lost coalescing path), not machine
  // variance — p50 of a ~10us operation has miles of headroom to 10ms.
  const auto h8 = request_latency(8);
  ok = bench::record_verdict("p50_under_slo_s8", h8.count > 0 && h8.p50_us < 10'000.0,
                             "8-shard single-verify p50 under the 10ms SLO") &&
       ok;

  std::cout << "\nshard invariance: "
            << (replay.mismatches_s1 + replay.mismatches_s2 + replay.mismatches_s8 == 0
                    ? "PASS"
                    : "FAIL")
            << "   storm exactness: " << (inexact_total == 0 ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
