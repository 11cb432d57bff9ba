// Overload-resilient serving wrapper around the sharded engine
// (DESIGN.md §17).
//
// ShardedVerifier (PR 7) gives throughput; ResilientVerifier gives
// *containment*. It wraps the 8-shard engine with, per shard:
//
//   * a bounded admission list — each call admits into its own per-shard
//     lists capped at queue_capacity, and a storm sheds the newest
//     arrivals with typed Overloaded decisions instead of queueing
//     unboundedly;
//   * a CircuitBreaker driven by the shard's persistence probes
//     (persist_shard) — while engaged, the shard serves *degraded mode*:
//     verification restricted to matrices already in the shared
//     MatrixCache (peek, never build), every decision carrying the
//     explicit `degraded` bit;
//   * deadline enforcement — expired requests short-circuit to typed
//     Expired decisions at admission, and scripted slow-shard stalls
//     (ServiceFaultInjector) are applied as deadline *skew* before the
//     shard fan-out.
//
// Healthy shards are served through ShardedVerifier::verify_routed, the
// engine's one shard fan-out; this layer has no fan-out of its own.
//
// Request taxonomy after this layer (the §17 table):
//   shed      never entered service (admission list full / degraded cache miss)
//   expired   budget died before its work ran
//   degraded  served exactly, by a breaker-engaged shard, and says so
//   rejected  served, distance beyond threshold (a normal answer)
//
// Determinism rules (the chaos bench gates all counters exactly):
//   * admission is serial in request order — shed counts are a pure
//     function of arrival order and queue capacity;
//   * stalls are deadline skew, not clock advances or sleeps, consumed on
//     the caller thread in shard order — expiry counts are independent
//     of worker scheduling;
//   * stalled and breaker-engaged shards are served on the caller thread
//     and only healthy shards reach the pool — counter totals are
//     identical for any thread count;
//   * breaker state changes only through persistence probes and scripted
//     clocks — the verify path reads state, never mutates it.
//
// Concurrent callers are safe: all per-call state (admission lists,
// decisions, tallies) lives on the caller's stack, and the shared parts —
// shards, MatrixCache, breakers, fault injector — are internally locked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "auth/resilience/backoff.h"
#include "auth/resilience/circuit_breaker.h"
#include "auth/resilience/service_fault_injector.h"
#include "auth/sharded_verifier.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace mandipass::auth::resilience {

struct ResilienceConfig {
  /// Per-shard admission bound of one verify_batch call; arrivals past
  /// it are shed. Must be >= 1.
  std::size_t queue_capacity = 4096;
  /// Per-shard breaker tuning.
  CircuitBreakerConfig breaker{};
  /// Clock for breaker cooldowns (deadlines carry their own clock).
  /// Steady clock when null; must outlive the verifier.
  const common::ClockSource* clock = nullptr;
  /// Retry budget + backoff for persist_shard.
  int persist_retries = 3;
  BackoffPolicy persist_backoff{};
};

class ResilientVerifier {
 public:
  explicit ResilientVerifier(std::size_t shards, ResilienceConfig config = {},
                             double threshold = kPaperThreshold);

  // ---- population management: straight delegation to the engine ----
  void enroll(const std::string& user, StoredTemplate tmpl) { engine_.enroll(user, std::move(tmpl)); }
  bool revoke(const std::string& user) { return engine_.revoke(user); }
  std::size_t size() const { return engine_.size(); }
  std::size_t shard_count() const { return engine_.shard_count(); }
  std::size_t shard_for(std::string_view user) const { return engine_.shard_for(user); }
  double threshold() const { return engine_.threshold(); }
  void set_threshold(double t) { engine_.set_threshold(t); }

  /// The wrapped engine (e.g. for cache prewarming or healthy-path
  /// comparison in tests/benches).
  ShardedVerifier& engine() { return engine_; }
  const ShardedVerifier& engine() const { return engine_; }

  CircuitBreaker& breaker(std::size_t s) { return *breakers_[s]; }
  const CircuitBreaker& breaker(std::size_t s) const { return *breakers_[s]; }

  /// The owned fault injector (chaos scripting surface).
  ServiceFaultInjector& faults() { return faults_; }

  /// Resilient batch verification. Admission is serial in request order
  /// (deadline check, then this call's per-shard list capped at
  /// queue_capacity; rejects become typed Expired / Shed decisions and
  /// count auth.resil.{expired,shed}; admissions count
  /// auth.resil.admitted). Then, on the caller thread in shard order, a
  /// stalled shard (injector skew) expires its whole admitted list and a
  /// breaker-engaged shard serves it in degraded mode; the remaining
  /// lists run through the engine's verify_routed on `pool` under
  /// `deadline`. Decisions of healthy shards are bit-identical to
  /// ShardedVerifier::verify_batch. Safe to call from several threads.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           const common::Deadline& deadline = {},
                           common::ThreadPool* pool = nullptr);

  /// Persists shard `s` to `path` (crash-safe save + retry/backoff) and
  /// feeds the outcome to the shard's breaker. While the breaker is Open
  /// this is rejected up front (typed Overloaded) — except once the
  /// cooldown elapses, when the breaker admits the call as its half-open
  /// probe; a probe success re-closes the breaker.
  common::Result<void> persist_shard(std::size_t s, const std::string& path);

 private:
  /// Degraded-mode single verification on shard `s`: same totality gates
  /// and arithmetic as BatchVerifier::verify_one, but the Gaussian
  /// matrix comes from MatrixCache::peek — never built. A cache miss is
  /// a typed Shed/Overloaded decision ("auth.resil.degraded_miss").
  BatchDecision degraded_one(std::size_t s, const VerifyRequest& request,
                             std::size_t* degraded_served, std::size_t* degraded_missed);

  ResilienceConfig config_;
  ShardedVerifier engine_;
  ServiceFaultInjector faults_;
  /// unique_ptr keeps mutex addresses stable; immutable after
  /// construction.
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace mandipass::auth::resilience
