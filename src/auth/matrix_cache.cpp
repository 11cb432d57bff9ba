#include "auth/matrix_cache.h"

#include "common/error.h"
#include "common/obs.h"

namespace mandipass::auth {

using common::MutexLock;

MatrixCache::MatrixCache(MatrixCacheConfig config) : config_(config) {
  MANDIPASS_EXPECTS(config_.max_entries > 0);
}

MatrixCache::Snapshot MatrixCache::snapshot(std::uint64_t seed, std::size_t dim) const {
  MutexLock lock(mutex_);
  const auto it = cache_.find(seed);
  if (it == cache_.end() || it->second.matrix->dim() != dim) {
    return {};
  }
  return {it->second.matrix, it->second.crc};
}

std::shared_ptr<const GaussianMatrix> MatrixCache::get(std::uint64_t seed, std::size_t dim) {
  MANDIPASS_EXPECTS(dim > 0);
  if (const Snapshot hit = snapshot(seed, dim); hit.matrix != nullptr) {
    // The CRC reads only the immutable packed bytes the copied shared_ptr
    // keeps alive, so it runs unlocked. Re-lock to splice or drop the
    // entry only if it still holds this matrix: a racer may have evicted,
    // replaced or already healed it meanwhile.
    const bool intact = hit.matrix->checksum() == hit.crc;
    MutexLock lock(mutex_);
    const auto it = cache_.find(seed);
    const bool current = it != cache_.end() && it->second.matrix == hit.matrix;
    if (intact) {
      MANDIPASS_OBS_COUNT("auth.batch.matrix_cache_hits");
      if (current) {
        recency_.splice(recency_.begin(), recency_, it->second.lru);
      }
      return hit.matrix;
    }
    // Poisoned: the packed bytes no longer match the CRC recorded at
    // insert. Drop the entry and fall through to the rebuild-from-seed
    // miss path — the seed is the ground truth, so the cache self-heals.
    // Only the thread that drops it counts the detection, so racers that
    // saw the same poisoned entry do not count it twice.
    if (current) {
      MANDIPASS_OBS_COUNT("auth.matrix_cache.poison_detected");
      recency_.erase(it->second.lru);
      cache_.erase(it);
    }
  }
  MANDIPASS_OBS_COUNT("auth.batch.matrix_cache_misses");
  {
    // Make room before the build: a full cache drops its LRU entry now,
    // so that matrix (unless a caller still holds it) is freed before the
    // new one is allocated and the build writes into warm memory.
    MutexLock lock(mutex_);
    if (!cache_.contains(seed)) {
      evict_above(config_.max_entries - 1);
    }
  }
  // Build outside any lock (dim^2 RNG draws), then publish. A losing
  // racer's matrix is identical by construction, so either copy is fine.
  auto fresh = std::make_shared<const GaussianMatrix>(seed, dim);
  const std::uint32_t crc = fresh->checksum();
  MutexLock lock(mutex_);
  auto [it, inserted] = cache_.try_emplace(seed);
  if (inserted) {
    recency_.push_front(seed);
    it->second = Entry{std::move(fresh), crc, recency_.begin()};
    evict_above(config_.max_entries);
  } else if (it->second.matrix->dim() != dim) {
    it->second.matrix = std::move(fresh);
    it->second.crc = crc;
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  } else {
    recency_.splice(recency_.begin(), recency_, it->second.lru);
  }
  return it->second.matrix;
}

std::shared_ptr<const GaussianMatrix> MatrixCache::peek(std::uint64_t seed,
                                                        std::size_t dim) const {
  MANDIPASS_EXPECTS(dim > 0);
  const Snapshot hit = snapshot(seed, dim);
  if (hit.matrix == nullptr) {
    return nullptr;
  }
  if (hit.matrix->checksum() != hit.crc) {
    MANDIPASS_OBS_COUNT("auth.matrix_cache.poison_detected");
    return nullptr;
  }
  return hit.matrix;
}

std::size_t MatrixCache::size() const {
  MutexLock lock(mutex_);
  return cache_.size();
}

bool MatrixCache::corrupt_integrity_for_test(std::uint64_t seed) {
  MutexLock lock(mutex_);
  const auto it = cache_.find(seed);
  if (it == cache_.end()) {
    return false;
  }
  it->second.crc ^= 0xDEADBEEFu;
  return true;
}

void MatrixCache::evict_above(std::size_t limit) {
  while (cache_.size() > limit) {
    // recency_ back = least recently used; with limit = max_entries >= 1
    // never the entry just pushed to the front, so the caller's matrix
    // survives its own insert.
    const std::uint64_t victim = recency_.back();
    recency_.pop_back();
    cache_.erase(victim);
    MANDIPASS_OBS_COUNT("auth.matrix_cache.evicted");
  }
}

}  // namespace mandipass::auth
