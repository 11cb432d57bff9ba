#include "auth/resilience/resilient_verifier.h"
// mandilint: allow-file(expects-guard) -- the serving API is total by
// design (DESIGN.md §12/§17): overload, expiry and malformed requests
// become typed decisions, not precondition failures.

#include <utility>

#include "auth/verifier.h"
#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth::resilience {

ResilientVerifier::ResilientVerifier(std::size_t shards, ResilienceConfig config,
                                     double threshold)
    : config_(config), engine_(shards, threshold) {
  MANDIPASS_EXPECTS(config_.queue_capacity >= 1);
  breakers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(config_.breaker, config_.clock));
  }
}

BatchDecision ResilientVerifier::degraded_one(std::size_t s, const VerifyRequest& request,
                                              std::size_t* degraded_served,
                                              std::size_t* degraded_missed) {
  // The shared gates classify malformed requests identically to a
  // healthy shard; only verify_one's auth.batch.* accounting is absent.
  if (const auto reject = reject_probe(request.raw_probe)) {
    return rejected_decision(*reject);
  }
  const BatchVerifier& shard = engine_.shard(s);
  const auto stored = shard.lookup(request.user);
  if (const auto reject =
          reject_template(request.user, stored ? &*stored : nullptr, request.raw_probe.size())) {
    return rejected_decision(*reject);
  }
  // Degraded restriction: serve only matrices the cache already holds.
  // peek never builds (the breaker is open because the shard's
  // dependencies are suspect — constructing fresh state is exactly what
  // we must not do) and a miss is an honest typed shed, not a guess.
  const auto g = engine_.matrix_cache().peek(stored->matrix_seed, request.raw_probe.size());
  if (g == nullptr) {
    ++*degraded_missed;
    return shed_decision("degraded mode: matrix not cached");
  }
  BatchDecision out;
  out.known = true;
  out.key_version = stored->key_version;
  out.degraded = true;
  const auto transformed = g->transform(request.raw_probe);
  const Verifier v(shard.threshold());
  out.decision = v.verify(transformed, stored->data);
  out.status = out.decision.accepted ? BatchStatus::Accepted : BatchStatus::Rejected;
  ++*degraded_served;
  return out;
}

BatchResult ResilientVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                            const common::Deadline& deadline,
                                            common::ThreadPool* pool) {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.resil.batch_us");
  const std::size_t n_shards = engine_.shard_count();

  BatchResult result;
  result.decisions.resize(requests.size());

  // Admission, serial in request order, into this call's own per-shard
  // lists. Determinism rule: shed/expired counts must be a pure function
  // of (arrival order, queue capacity, deadline), so no concurrency is
  // allowed to reorder who meets a full list.
  std::vector<std::vector<std::size_t>> admitted(n_shards);
  std::size_t admitted_count = 0;
  std::size_t shed_count = 0;
  std::size_t expired_count = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (deadline.expired()) {
      result.decisions[i] = expired_decision();
      ++expired_count;
      continue;
    }
    // The list's cap is the admission bound: a full list sheds the newest
    // arrival, so the requests already admitted keep their place.
    std::vector<std::size_t>& list = admitted[engine_.shard_for(requests[i].user)];
    if (list.size() >= config_.queue_capacity) {
      result.decisions[i] = shed_decision("admission queue full");
      ++shed_count;
      continue;
    }
    list.push_back(i);
    ++admitted_count;
  }

  // Faulted shards, on the caller thread in shard order; each empties its
  // list so the engine's fan-out below skips it.
  std::size_t degraded_count = 0;
  std::size_t degraded_miss_count = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    std::vector<std::size_t>& list = admitted[s];
    if (list.empty()) {
      continue;
    }
    // A scripted stall is applied as deadline *skew*: the shard acts as
    // if `stall` microseconds will pass before its work completes. No
    // clock advances and nothing sleeps, so expiry counts do not depend
    // on scheduling.
    const std::int64_t stall = faults_.consume_stall(s);
    if (stall > 0 && deadline.expired_after(stall)) {
      for (const std::size_t i : list) {
        result.decisions[i] = expired_decision();
      }
      expired_count += list.size();
      list.clear();
    } else if (breakers_[s]->engaged()) {
      for (const std::size_t i : list) {
        result.decisions[i] = degraded_one(s, requests[i], &degraded_count, &degraded_miss_count);
      }
      list.clear();
    }
  }

  // Healthy shards: the engine's one shard fan-out, under `deadline`.
  engine_.verify_routed(requests, admitted, result.decisions, deadline, pool);

  MANDIPASS_OBS_COUNT_N("auth.resil.admitted", admitted_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.shed", shed_count + degraded_miss_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.expired", expired_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded", degraded_count);
  MANDIPASS_OBS_COUNT_N("auth.resil.degraded_miss", degraded_miss_count);

  result.stats = tally(result.decisions);
  return result;
}

common::Result<void> ResilientVerifier::persist_shard(std::size_t s, const std::string& path) {
  CircuitBreaker& breaker = *breakers_[s];
  if (!breaker.allow()) {
    MANDIPASS_OBS_COUNT("auth.resil.persist_rejected");
    return common::make_error(common::ErrorCode::Overloaded,
                              "circuit open: persistence suspended for shard");
  }
  const common::Result<void> result =
      engine_.shard(s).save_file(path, config_.persist_retries, config_.persist_backoff);
  if (result.ok()) {
    MANDIPASS_OBS_COUNT("auth.resil.persist_ok");
    breaker.record_success();
  } else {
    MANDIPASS_OBS_COUNT("auth.resil.persist_failed");
    breaker.record_failure();
  }
  return result;
}

}  // namespace mandipass::auth::resilience
