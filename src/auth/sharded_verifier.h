// Sharded authentication service (DESIGN.md §15).
//
// One BatchVerifier is a single TemplateStore behind one shared_mutex —
// correct, but every verification in the process contends on the same
// reader count and every enrolment stalls every reader. ShardedVerifier
// splits the population across N independent BatchVerifier shards keyed
// by a stable hash of the user id, so lock traffic scales with shards:
//
//   * routing: shard_for(user) = FNV-1a 64(user) mod N. The hash is
//     fixed (not std::hash) so a population shards identically on every
//     platform and across runs — tests and baselines depend on it;
//   * writes (enroll / revoke / set_threshold) go to exactly the owning
//     shard and touch no other shard's lock;
//   * verify_batch routes each request to its shard, then verify_routed
//     fans the shards out over the thread pool — the service's one shard
//     fan-out, which the resilience layer also serves through. Within a
//     shard the requests are further grouped by Gaussian-matrix seed and
//     each group runs as one packed-GEMM tile
//     (BatchVerifier::verify_coalesced) — the Gaussian product is the
//     dominant per-verification cost, and same-seed requests share one
//     streaming pass over the packed matrix.
//
// Shard invariance: every decision is produced by the same snapshot +
// transform + cosine pipeline as a lone BatchVerifier, and coalescing
// preserves the per-element accumulation order, so decisions and
// distances are bit-identical for ANY shard count (tested at 1/2/8 in
// tests/auth/test_sharded_verifier.cpp and asserted as a bench_service
// exit verdict).
//
// Lock topology: the shard array and the shared MatrixCache pointer are
// immutable after construction, so this class adds NO lock of its own —
// the only capabilities involved are each shard's internal mutex_ (never
// held two at a time: the router touches one shard per request, and the
// batch fan-out gives each pool lane exclusively its own shard set) and
// the MatrixCache mutex (never held while a shard lock is held: shards
// snapshot templates first, then consult the cache after release).
// Deadlock is therefore impossible by construction — there is no point
// where two locks overlap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/matrix_cache.h"
#include "common/thread_pool.h"

namespace mandipass::auth {

/// Stable 64-bit FNV-1a hash of a user id; the shard routing function.
/// Deliberately not std::hash: routing must agree across platforms,
/// standard libraries and process runs.
std::uint64_t user_shard_hash(std::string_view user);

class ShardedVerifier {
 public:
  /// `shards` BatchVerifier instances (one per core is the intended
  /// sizing) sharing one Gaussian-matrix cache. Precondition: shards >= 1.
  explicit ShardedVerifier(std::size_t shards, double threshold = kPaperThreshold);

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard that owns `user` (stable across runs and platforms).
  std::size_t shard_for(std::string_view user) const {
    return static_cast<std::size_t>(user_shard_hash(user) % shards_.size());
  }

  /// Seals a template on the owning shard. Overwrites any previous one.
  void enroll(const std::string& user, StoredTemplate tmpl);

  /// Removes a user's template from the owning shard; false if absent.
  bool revoke(const std::string& user);

  /// Consistent copy of the user's sealed template from the owning shard.
  std::optional<StoredTemplate> lookup(const std::string& user) const;

  /// Total enrolled users across all shards. Each shard is counted under
  /// its own lock; concurrent writers may move the total between reads.
  std::size_t size() const;

  /// Verifies one request on the owning shard (BatchVerifier::verify_one:
  /// the coalesced body, as a group of one).
  BatchDecision verify_one(const std::string& user, std::span<const float> raw_probe) const;

  /// Routes requests to their shards and serves them through
  /// verify_routed, coalescing same-seed requests within each shard into
  /// single packed-GEMM tiles. decisions[i] always answers requests[i];
  /// duplicate user ids are safe (they land on one shard and are decided
  /// against one snapshot). Counts auth.shard.verify_total and the
  /// auth.shard.coalesced_* / singleton_requests totals.
  ///
  /// `deadline` bounds the batch: each shard checks it on entry and
  /// before each GEMM group (BatchVerifier::verify_coalesced), so an
  /// expired budget turns every request into a typed Expired decision
  /// without a lock or GEMM. The default is unlimited and adds one null
  /// check to the fast path.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           common::ThreadPool* pool = nullptr,
                           const common::Deadline& deadline = {}) const;

  /// The shard fan-out: one pool task per shard (the global pool when
  /// `pool` is null) runs shard s's verify_coalesced on requests[routed[s]]
  /// under `deadline`. Each index must appear in at most one list, so
  /// the shards write disjoint decision slots; slots no list names are
  /// untouched. Returns the summed coalescing stats and counts no
  /// auth.shard.* metric — that is verify_batch's job. Preconditions:
  /// routed.size() == shard_count(), decisions.size() == requests.size().
  CoalesceStats verify_routed(std::span<const VerifyRequest> requests,
                              std::span<const std::vector<std::size_t>> routed,
                              std::span<BatchDecision> decisions,
                              const common::Deadline& deadline,
                              common::ThreadPool* pool = nullptr) const;

  /// Operating threshold (uniform across shards; read from shard 0).
  double threshold() const;

  /// Re-tunes every shard's threshold. Not atomic across shards: a
  /// concurrent batch may see the old value on some shards and the new
  /// on others — callers that need a clean cut quiesce traffic first.
  void set_threshold(double t);

  /// The shared matrix cache (exposed for cache-warm accounting; the
  /// non-const form feeds the resilience layer's degraded-mode peek and
  /// the chaos harness's poison hook).
  const MatrixCache& matrix_cache() const { return *cache_; }
  MatrixCache& matrix_cache() { return *cache_; }

  /// Direct shard access for the resilience layer (per-shard circuit
  /// breakers, degraded serving and persistence probes wrap individual
  /// shards). Precondition: s < shard_count().
  BatchVerifier& shard(std::size_t s) { return *shards_[s]; }
  const BatchVerifier& shard(std::size_t s) const { return *shards_[s]; }

 private:
  /// Shared before the shards so it outlives them on destruction order.
  std::shared_ptr<MatrixCache> cache_;
  /// Immutable after construction (the vector itself; shards internally
  /// locked). unique_ptr keeps BatchVerifier's mutexes address-stable.
  std::vector<std::unique_ptr<BatchVerifier>> shards_;
};

}  // namespace mandipass::auth
