// Process-shared, bounded cache of Gaussian cancelable-transform
// matrices.
//
// A GaussianMatrix is a pure function of (seed, dim) and costs dim^2
// Box-Muller draws plus a kernel re-pack to build — far more than the
// dim^2 mat-vec it then accelerates — so every verification engine wants
// the same seed-keyed cache. Extracted from BatchVerifier (PR 2) so that
// the shards of a ShardedVerifier share one cache instead of N: a seed
// epoch materialises each matrix once per service, not once per shard.
//
// Bounded (PR 9): under seed-rotation churn (mass re-keying, the chaos
// storm) the old unbounded map grew one dim^2 matrix per retired seed
// forever. The cache now holds at most `max_entries` matrices and evicts
// the least-recently-used seed past the cap ("auth.matrix_cache.evicted").
// Out-standing shared_ptrs keep an evicted matrix alive for callers that
// already hold it; only the cache's reference is dropped. A miss on a
// full cache evicts before it builds, so the build can reuse the evicted
// matrix's memory while it is still warm.
//
// Integrity (PR 9): each entry records the CRC32 of its packed kernel
// bytes at insert and re-verifies on every hit. A mismatch means the
// shared in-memory matrix was corrupted after publication (stray write,
// poisoning) — a silent wrong-answer factory for every shard. Detection
// increments "auth.matrix_cache.poison_detected" and the entry is dropped
// and rebuilt from its seed (get) or reported as absent (peek), so the
// cache self-heals instead of serving poisoned transforms.
//
// Concurrency: the LRU list makes every lookup a structural mutation, so
// the shared/exclusive split of the old design is gone — one Mutex guards
// map + recency list. A hit takes it twice, briefly: once to copy the
// entry's shared_ptr and recorded CRC, once to splice and count (or drop
// a poisoned entry, only if the map still holds that same matrix). The
// CRC over the packed buffer runs between the two, unlocked: a published
// matrix is immutable and the copied shared_ptr keeps it alive. A miss
// builds the matrix OUTSIDE the lock (the expensive part) and publishes
// under it; losing a publish race is harmless — both racers built
// identical matrices from the same seed.
// The containers are MANDIPASS_GUARDED_BY(mutex_) and the contract is
// compiler-checked under the tsafety preset (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "auth/gaussian_matrix.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mandipass::auth {

struct MatrixCacheConfig {
  /// Maximum distinct seeds held; the least-recently-used entry past this
  /// is evicted. Generous default: 1024 entries at dim 512 is ~1 GiB of
  /// packed matrices, far above any steady-state seed-epoch working set.
  std::size_t max_entries = 1024;
};

class MatrixCache {
 public:
  explicit MatrixCache(MatrixCacheConfig config = {});

  /// The matrix for (seed, dim), building and caching it on first use.
  /// The returned shared_ptr keeps the matrix alive independently of the
  /// cache, so callers may hold it across cache mutations (including
  /// eviction of this very entry). A seed that re-appears with a
  /// different dim (re-keyed deployment changing embedding width)
  /// replaces the stale entry. A poisoned entry (CRC mismatch) is
  /// dropped and rebuilt as a miss.
  std::shared_ptr<const GaussianMatrix> get(std::uint64_t seed, std::size_t dim)
      MANDIPASS_EXCLUDES(mutex_);

  /// Lookup WITHOUT building on miss — the degraded-mode path: when a
  /// shard's circuit breaker is open the service only serves matrices it
  /// already has. Returns nullptr on miss, dim mismatch, or CRC
  /// mismatch (the poisoned entry is left in place; the next get() drops
  /// and rebuilds it). Does not touch LRU recency and does not count
  /// toward hit/miss — degraded traffic must not perturb the healthy
  /// path's cache statistics or ordering.
  std::shared_ptr<const GaussianMatrix> peek(std::uint64_t seed, std::size_t dim) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Number of distinct seeds currently cached.
  std::size_t size() const MANDIPASS_EXCLUDES(mutex_);

  std::size_t max_entries() const { return config_.max_entries; }

  /// Corrupts the stored CRC of `seed`'s entry so the next lookup takes
  /// the poison-detection path. Test/chaos hook: the matrix itself is
  /// const-shared and cannot be scribbled on safely, but detection only
  /// compares bytes-vs-recorded-CRC, so breaking the recorded side
  /// exercises the identical code path. Returns false if absent.
  bool corrupt_integrity_for_test(std::uint64_t seed) MANDIPASS_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::shared_ptr<const GaussianMatrix> matrix;
    std::uint32_t crc = 0;
    std::list<std::uint64_t>::iterator lru;  ///< position in recency_
  };

  /// The entry for (seed, dim) as copied under the lock; matrix is
  /// nullptr on a miss or a dim mismatch.
  struct Snapshot {
    std::shared_ptr<const GaussianMatrix> matrix;
    std::uint32_t crc = 0;
  };

  Snapshot snapshot(std::uint64_t seed, std::size_t dim) const MANDIPASS_EXCLUDES(mutex_);
  /// Drops least-recently-used entries until at most `limit` remain.
  void evict_above(std::size_t limit) MANDIPASS_REQUIRES(mutex_);

  MatrixCacheConfig config_;
  mutable common::Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> cache_ MANDIPASS_GUARDED_BY(mutex_);
  /// Front = most recently used. std::list so Entry::lru iterators stay
  /// valid across splices; size is slaved to cache_ (bounded by
  /// max_entries via evict_above).
  std::list<std::uint64_t> recency_ MANDIPASS_GUARDED_BY(mutex_);
};

}  // namespace mandipass::auth
