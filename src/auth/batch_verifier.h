// Concurrent batch authentication engine.
//
// A production deployment serves many verification requests at once while
// enrolments and revocations trickle in. BatchVerifier owns a
// TemplateStore behind an annotated common::SharedMutex:
//
//   * verify paths take a shared lock only long enough to snapshot the
//     user's StoredTemplate (a copy), then run the heavy math — Gaussian
//     cancelable transform + cosine distance — outside the lock;
//   * enroll / revoke / re-key take the exclusive lock.
//
// A reader therefore always sees a template that existed in full at some
// point (no torn reads: the snapshot happens under the lock), and the
// returned key_version identifies exactly which template generation the
// decision was made against. verify_batch fans the requests out over a
// thread pool with deterministic chunking; per-request decisions are
// independent, so the decision vector is identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "auth/gaussian_matrix.h"
#include "auth/matrix_cache.h"
#include "auth/resilience/backoff.h"
#include "auth/template_store.h"
#include "auth/verifier.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace mandipass::auth {

/// One authentication request: a user id plus the raw (pre-transform)
/// MandiblePrint extracted from the probe recording.
struct VerifyRequest {
  std::string user;
  std::vector<float> raw_probe;
};

/// What happened to one request in a batch. verify_one is total: every
/// request — including malformed probes and unknown ids — maps to one of
/// these, so no exception can escape a worker thread and tear down the
/// whole batch (DESIGN.md §12).
enum class BatchStatus : std::uint8_t {
  Accepted,  ///< enrolled user, distance within threshold
  Rejected,  ///< enrolled user, distance beyond threshold
  Unknown,   ///< no enrolment for this user id
  Invalid,   ///< request malformed (empty / non-finite / wrong-dim probe)
  Expired,   ///< deadline passed before verification ran (DeadlineExceeded)
  Shed,      ///< load-shed before verification ran (Overloaded)
};

const char* batch_status_name(BatchStatus status);

/// Outcome of one request in a batch.
struct BatchDecision {
  bool known = false;            ///< user was enrolled when snapshotted
  Decision decision;             ///< valid only when known
  std::uint32_t key_version = 0; ///< template generation the decision used
  BatchStatus status = BatchStatus::Unknown;
  /// Structured reject reason; meaningful for Unknown (UnknownUser),
  /// Invalid (InvalidInput / NonFiniteSample / DimensionMismatch),
  /// Expired (DeadlineExceeded) and Shed (Overloaded).
  common::ErrorCode reason = common::ErrorCode::UnknownUser;
  /// True when the decision was served in degraded mode (circuit open:
  /// cached-matrix-only verification, DESIGN.md §17). The accept/reject
  /// outcome is still exact — same matrix, same distance — but callers
  /// that require a fully healthy service can route on this bit instead
  /// of getting a silently indistinguishable answer.
  bool degraded = false;
};

/// The typed decision for a request the gates rejected (reject_probe /
/// reject_template in auth/verifier.h): Unknown for UnknownUser, Invalid
/// for every other code.
BatchDecision rejected_decision(const common::Error& error);

/// The typed decision for a request whose budget ran out before it was
/// served: Expired / DeadlineExceeded, known=false regardless of
/// enrolment (the store was never consulted). Counts one
/// fault.reject.deadline_exceeded; service counters stay with the caller.
BatchDecision expired_decision();

/// The typed decision for a request turned away before service: Shed /
/// Overloaded. Counts one fault.reject.overloaded; service counters stay
/// with the caller.
BatchDecision shed_decision(const char* detail);

/// Per-status counts of one verify_batch call.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t known = 0;           ///< requests that matched an enrolment
  std::size_t accepted = 0;
  std::size_t unknown = 0;         ///< ids with no enrolment
  std::size_t invalid = 0;         ///< malformed requests (typed reject)
  std::size_t expired = 0;         ///< deadline-expired before service
  std::size_t shed = 0;            ///< load-shed at admission
  std::size_t degraded = 0;        ///< served in degraded (circuit-open) mode
};

struct BatchResult {
  std::vector<BatchDecision> decisions;  ///< decisions[i] answers requests[i]
  BatchStats stats;
};

/// The per-status counts of `decisions`: requests, known, accepted,
/// unknown, invalid, expired, shed and degraded.
BatchStats tally(std::span<const BatchDecision> decisions);

/// Per-call accounting of the coalescing path (verify_coalesced): how
/// many known requests shared a Gaussian transform with at least one
/// other request versus riding a group of one.
struct CoalesceStats {
  std::size_t groups = 0;      ///< distinct (seed, dim) transform groups
  std::size_t coalesced = 0;   ///< known requests in groups of size >= 2
  std::size_t singletons = 0;  ///< known requests alone in their group
};

/// The locking contract below is machine-checked: every member is
/// MANDIPASS_GUARDED_BY its mutex, the internal snapshot helpers state
/// MANDIPASS_REQUIRES_SHARED, and the public entry points state
/// MANDIPASS_EXCLUDES (they take the lock themselves, so holding it on
/// entry would deadlock). Under the tsafety preset (Clang,
/// -Werror=thread-safety) a mis-locked access is a compile error; on GCC
/// the annotations are documentation (DESIGN.md §14).
class BatchVerifier {
 public:
  /// `cache` lets several engines (the shards of a ShardedVerifier)
  /// share one seed-keyed Gaussian-matrix cache; when null the verifier
  /// owns a private one. The cache is internally synchronised and the
  /// pointer itself is immutable after construction, so it needs no
  /// guard here.
  explicit BatchVerifier(double threshold = kPaperThreshold,
                         std::shared_ptr<MatrixCache> cache = nullptr);

  /// Seals a template (exclusive lock). Overwrites any previous one.
  void enroll(const std::string& user, StoredTemplate tmpl) MANDIPASS_EXCLUDES(mutex_);

  /// Removes a user's template (exclusive lock); false if absent.
  bool revoke(const std::string& user) MANDIPASS_EXCLUDES(mutex_);

  /// Consistent copy of the user's sealed template (shared lock).
  std::optional<StoredTemplate> lookup(const std::string& user) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Enrolled-user count (shared lock).
  std::size_t size() const MANDIPASS_EXCLUDES(mutex_);

  /// Verifies one request against the current template generation: the
  /// verify_coalesced body run on a group of one with no deadline.
  BatchDecision verify_one(const std::string& user, std::span<const float> raw_probe) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Verifies a batch, fanning requests out over `pool` (the global pool
  /// when null). Returns per-request decisions plus their tally.
  BatchResult verify_batch(std::span<const VerifyRequest> requests,
                           common::ThreadPool* pool = nullptr) const
      MANDIPASS_EXCLUDES(mutex_);

  /// Coalesced verification of the subset requests[indices]: one shared
  /// lock acquisition snapshots every template plus the threshold, the
  /// known requests are grouped by (matrix_seed, dim), and each group
  /// runs as one GaussianMatrix::transform_batch tile instead of one
  /// transform per request. decisions[i] is written for each i in
  /// `indices` (decisions.size() must equal requests.size()); other
  /// slots are untouched, so a router can aim several shards at one
  /// decision vector. Decisions are bit-identical to verify_one on the
  /// same snapshot — including duplicate user ids, which simply resolve
  /// to the same snapshotted template — and land at their request's own
  /// index, so the caller's ordering can never invert. The API is total:
  /// malformed probes and unknown ids become typed decisions.
  ///
  /// `deadline` bounds the call: if it is already expired on entry every
  /// indexed request short-circuits to an Expired decision before any
  /// lock or GEMM, and it is re-checked before each group's transform so
  /// a budget that dies mid-batch stops burning cycles on answers nobody
  /// will read. The default deadline is unlimited and costs one null
  /// check (bench_overhead's <2% gate covers this path).
  CoalesceStats verify_coalesced(std::span<const VerifyRequest> requests,
                                 std::span<const std::size_t> indices,
                                 std::span<BatchDecision> decisions,
                                 const common::Deadline& deadline = {}) const
      MANDIPASS_EXCLUDES(mutex_);

  double threshold() const MANDIPASS_EXCLUDES(mutex_);
  void set_threshold(double t) MANDIPASS_EXCLUDES(mutex_);

  /// Bulk snapshot of the whole store (exclusive lock held by save for a
  /// consistent image); mirrors TemplateStore persistence.
  void save(std::ostream& os) const MANDIPASS_EXCLUDES(mutex_);
  void load(std::istream& is) MANDIPASS_EXCLUDES(mutex_);

  /// Crash-safe persistence of the whole store to `path` (TemplateStore
  /// atomic save + .bak rotation) with transient-I/O retry under the
  /// deterministic backoff policy. The exclusive lock is held for the
  /// duration, matching save()'s consistent-image contract; retries
  /// sleep through resilience::retry_sleep_us, which tests and the chaos
  /// bench replace with a capturing hook, so the hold time under
  /// injected faults is virtual. This is the probe the resilience
  /// layer's circuit breaker drives (DESIGN.md §17).
  common::Result<void> save_file(const std::string& path, int max_retries = 3,
                                 const resilience::BackoffPolicy& backoff = {}) const
      MANDIPASS_EXCLUDES(mutex_);

 private:
  /// Shared-lock snapshot helpers: the caller must already hold mutex_
  /// at least shared; they perform the guarded reads and nothing else.
  std::optional<StoredTemplate> lookup_locked(const std::string& user) const
      MANDIPASS_REQUIRES_SHARED(mutex_);
  double threshold_locked() const MANDIPASS_REQUIRES_SHARED(mutex_);

  /// The one decision body behind verify_coalesced and verify_one.
  /// `Requests` is indexable and its elements have `user` and
  /// `raw_probe`, so verify_one passes its request as a view, uncopied.
  template <typename Requests>
  CoalesceStats decide(const Requests& requests, std::span<const std::size_t> indices,
                       std::span<BatchDecision> decisions,
                       const common::Deadline& deadline) const MANDIPASS_EXCLUDES(mutex_);

  mutable common::SharedMutex mutex_;
  Verifier verifier_ MANDIPASS_GUARDED_BY(mutex_);    ///< threshold can be re-tuned
  TemplateStore store_ MANDIPASS_GUARDED_BY(mutex_);  ///< template generations

  /// Seed-keyed Gaussian-matrix cache (auth/matrix_cache.h), possibly
  /// shared across engines. Immutable pointer, internally synchronised.
  std::shared_ptr<MatrixCache> cache_;
};

}  // namespace mandipass::auth
