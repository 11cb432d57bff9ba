#include "auth/sharded_verifier.h"

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth {

std::uint64_t user_shard_hash(std::string_view user) {
  // FNV-1a 64: tiny, well-distributed for short id strings, and — unlike
  // std::hash — identical on every platform, which makes shard routing a
  // documented, testable function rather than an implementation detail.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : user) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

ShardedVerifier::ShardedVerifier(std::size_t shards, double threshold)
    : cache_(std::make_shared<MatrixCache>()) {
  MANDIPASS_EXPECTS(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<BatchVerifier>(threshold, cache_));
  }
  MANDIPASS_OBS_GAUGE_SET("auth.shard.shards", shards);
}

void ShardedVerifier::enroll(const std::string& user, StoredTemplate tmpl) {
  shards_[shard_for(user)]->enroll(user, std::move(tmpl));
}

bool ShardedVerifier::revoke(const std::string& user) {
  return shards_[shard_for(user)]->revoke(user);
}

std::optional<StoredTemplate> ShardedVerifier::lookup(const std::string& user) const {
  return shards_[shard_for(user)]->lookup(user);
}

std::size_t ShardedVerifier::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size();
  }
  return total;
}

BatchDecision ShardedVerifier::verify_one(const std::string& user,
                                          std::span<const float> raw_probe) const {
  MANDIPASS_OBS_COUNT("auth.shard.verify_total");
  return shards_[shard_for(user)]->verify_one(user, raw_probe);
}

BatchResult ShardedVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                          common::ThreadPool* pool,
                                          const common::Deadline& deadline) const {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.shard.batch_us");
  // Route: per-shard index lists, in request order. Each index appears in
  // exactly one list, as verify_routed requires.
  std::vector<std::vector<std::size_t>> routed(shards_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    routed[shard_for(requests[i].user)].push_back(i);
  }
  BatchResult result;
  result.decisions.resize(requests.size());
  const CoalesceStats cs = verify_routed(requests, routed, result.decisions, deadline, pool);
  MANDIPASS_OBS_COUNT_N("auth.shard.verify_total", requests.size());
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_groups", cs.groups);
  MANDIPASS_OBS_COUNT_N("auth.shard.coalesced_requests", cs.coalesced);
  MANDIPASS_OBS_COUNT_N("auth.shard.singleton_requests", cs.singletons);
  result.stats = tally(result.decisions);
  return result;
}

CoalesceStats ShardedVerifier::verify_routed(std::span<const VerifyRequest> requests,
                                             std::span<const std::vector<std::size_t>> routed,
                                             std::span<BatchDecision> decisions,
                                             const common::Deadline& deadline,
                                             common::ThreadPool* pool) const {
  MANDIPASS_EXPECTS(routed.size() == shards_.size());
  MANDIPASS_EXPECTS(decisions.size() == requests.size());
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::global();
  // One task per shard (grain 1). A pool lane holds at most one shard
  // lock at a time and the MatrixCache lock is only taken after the
  // shard's snapshot lock is released — no overlapping acquisition order
  // exists, hence no deadlock. The per-shard work is independent of lane
  // assignment, so decisions are identical for any thread count.
  std::vector<CoalesceStats> shard_cs(shards_.size());
  tp.parallel_for(0, shards_.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      shard_cs[s] = shards_[s]->verify_coalesced(requests, routed[s], decisions, deadline);
    }
  });
  // Summed after the join, on the caller thread, so totals are exact and
  // independent of lane interleaving.
  CoalesceStats total;
  for (const CoalesceStats& cs : shard_cs) {
    total.groups += cs.groups;
    total.coalesced += cs.coalesced;
    total.singletons += cs.singletons;
  }
  return total;
}

double ShardedVerifier::threshold() const { return shards_.front()->threshold(); }

void ShardedVerifier::set_threshold(double t) {
  for (const auto& shard : shards_) {
    shard->set_threshold(t);
  }
}

}  // namespace mandipass::auth
