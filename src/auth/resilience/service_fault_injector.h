// Deterministic service-level fault injection (DESIGN.md §17).
//
// PR 4's imu::FaultInjector proved the discipline at the signal layer:
// faults are *scripted*, not random, so every chaos run is reproducible
// and its counters gate exactly against a committed baseline.
// ServiceFaultInjector lifts the same discipline to the serving layer.
// Three fault families cover the overload scenarios bench_chaos drives:
//
//   * slow-shard stalls — arm_slow_shard(s, stall_us, batches) charges
//     shard s with `batches` stalled shard-batches. The resilience layer
//     consumes a charge per shard-batch and applies the stall as *skew
//     against the request deadline* (Deadline::expired_after) rather
//     than advancing any clock or actually sleeping: expiry counts are
//     then independent of worker-thread scheduling, and the bench runs
//     at full speed.
//   * store I/O error bursts — thin delegation to common::arm_io_fault,
//     so the same write-fault hook the crash-safety tests use drives the
//     circuit breaker's persistence failures.
//   * cache poisoning — flips the recorded integrity CRC of a cached
//     Gaussian matrix (MatrixCache::corrupt_integrity_for_test), so the
//     next lookup exercises the detection + self-heal path.
//
// Like the io fault hook, arm/clear calls belong in single-threaded
// scenario setup. consume_stall runs on the verify_batch caller's thread;
// it stays internally synchronised because several callers may share one
// ResilientVerifier.
#pragma once

#include <cstddef>
#include <cstdint>

#include "auth/matrix_cache.h"
#include "common/io.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mandipass::auth::resilience {

class ServiceFaultInjector {
 public:
  /// Charges `batches` stalled shard-batches of `stall_us` against
  /// `shard`. Re-arming replaces any previous charge.
  void arm_slow_shard(std::size_t shard, std::int64_t stall_us, int batches)
      MANDIPASS_EXCLUDES(mutex_);

  /// The stall (microseconds of deadline skew) this shard-batch
  /// observes; 0 when unarmed or the charge is spent. Each call with a
  /// live charge consumes one batch and counts
  /// "auth.resil.fault.stalls".
  std::int64_t consume_stall(std::size_t shard) MANDIPASS_EXCLUDES(mutex_);

  /// Arms a store write-fault burst (delegates to common::arm_io_fault;
  /// counts "auth.resil.fault.store_bursts").
  void arm_store_fault_burst(const common::IoFaultConfig& config);

  /// Disarms the store hook (delegates to common::disarm_io_fault).
  void clear_store_faults();

  /// Poisons `seed`'s cached matrix in `cache` so the next lookup takes
  /// the CRC-mismatch detection path; false if the seed is not cached.
  /// Counts "auth.resil.fault.poisoned" when it lands.
  bool poison_matrix(MatrixCache& cache, std::uint64_t seed);

  /// Drops any remaining slow-shard charge.
  void clear_stalls() MANDIPASS_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  std::size_t stall_shard_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  std::int64_t stall_us_ MANDIPASS_GUARDED_BY(mutex_) = 0;
  int stall_batches_ MANDIPASS_GUARDED_BY(mutex_) = 0;
};

}  // namespace mandipass::auth::resilience
