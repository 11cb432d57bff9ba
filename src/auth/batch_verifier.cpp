#include "auth/batch_verifier.h"
// mandilint: allow-file(expects-guard) -- the batch API is total by design
// (DESIGN.md §12): malformed requests become typed Invalid decisions on the
// pool workers instead of precondition failures, and threshold bounds are
// enforced by the owned Verifier.

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "auth/gaussian_matrix.h"
#include "common/error.h"
#include "common/mutex.h"
#include "common/obs.h"

namespace mandipass::auth {

using common::kDeferLock;
using common::ReaderLock;
using common::WriterLock;

BatchVerifier::BatchVerifier(double threshold, std::shared_ptr<MatrixCache> cache)
    : verifier_(threshold),
      cache_(cache != nullptr ? std::move(cache) : std::make_shared<MatrixCache>()) {}

void BatchVerifier::enroll(const std::string& user, StoredTemplate tmpl) {
  WriterLock lock(mutex_, kDeferLock);
  {
    MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.exclusive_lock_wait_us");
    // Deferred acquire on the scoped guard so the trace times exactly the
    // lock wait; the guard's destructor still releases (common/mutex.h).
    lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
  }
  MANDIPASS_OBS_COUNT("auth.batch.enroll_total");
  store_.enroll(user, std::move(tmpl));
}

bool BatchVerifier::revoke(const std::string& user) {
  WriterLock lock(mutex_, kDeferLock);
  {
    MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.exclusive_lock_wait_us");
    lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
  }
  MANDIPASS_OBS_COUNT("auth.batch.revoke_total");
  return store_.revoke(user);
}

std::optional<StoredTemplate> BatchVerifier::lookup_locked(const std::string& user) const {
  return store_.lookup(user);
}

double BatchVerifier::threshold_locked() const { return verifier_.threshold(); }

std::optional<StoredTemplate> BatchVerifier::lookup(const std::string& user) const {
  ReaderLock lock(mutex_);
  return lookup_locked(user);
}

std::size_t BatchVerifier::size() const {
  ReaderLock lock(mutex_);
  return store_.size();
}

double BatchVerifier::threshold() const {
  ReaderLock lock(mutex_);
  return threshold_locked();
}

void BatchVerifier::set_threshold(double t) {
  WriterLock lock(mutex_);
  verifier_.set_threshold(t);
}

const char* batch_status_name(BatchStatus status) {
  switch (status) {
    case BatchStatus::Accepted:
      return "accepted";
    case BatchStatus::Rejected:
      return "rejected";
    case BatchStatus::Unknown:
      return "unknown";
    case BatchStatus::Invalid:
      return "invalid";
    case BatchStatus::Expired:
      return "expired";
    case BatchStatus::Shed:
      return "shed";
  }
  return "?";
}

BatchDecision rejected_decision(const common::Error& error) {
  BatchDecision out;
  out.status =
      error.code == common::ErrorCode::UnknownUser ? BatchStatus::Unknown : BatchStatus::Invalid;
  out.reason = error.code;
  return out;
}

BatchDecision expired_decision() {
  BatchDecision out;
  out.status = BatchStatus::Expired;
  out.reason = common::make_error(common::ErrorCode::DeadlineExceeded,
                                  "request budget exhausted before verification")
                   .code;
  return out;
}

BatchDecision shed_decision(const char* detail) {
  BatchDecision out;
  out.status = BatchStatus::Shed;
  out.reason = common::make_error(common::ErrorCode::Overloaded, detail).code;
  return out;
}

namespace {

/// BatchVerifier's accounting of a gate reject: the typed decision plus
/// its auth.batch.verify_unknown / verify_invalid counter.
BatchDecision count_reject(const common::Error& error) {
  if (error.code == common::ErrorCode::UnknownUser) {
    MANDIPASS_OBS_COUNT("auth.batch.verify_unknown");
  } else {
    MANDIPASS_OBS_COUNT("auth.batch.verify_invalid");
  }
  return rejected_decision(error);
}

/// BatchVerifier's accounting of an expired request: the typed decision
/// plus its auth.batch.verify_expired counter.
BatchDecision count_expired() {
  MANDIPASS_OBS_COUNT("auth.batch.verify_expired");
  return expired_decision();
}

}  // namespace

template <typename Requests>
CoalesceStats BatchVerifier::decide(const Requests& requests, std::span<const std::size_t> indices,
                                    std::span<BatchDecision> decisions,
                                    const common::Deadline& deadline) const {
  MANDIPASS_EXPECTS(decisions.size() == requests.size());
  CoalesceStats cs;
  if (indices.empty()) {
    return cs;
  }
  // Deadline gate on entry: a batch whose budget is already gone gets
  // typed Expired decisions before any lock or GEMM is touched.
  if (deadline.expired()) {
    for (const std::size_t i : indices) {
      MANDIPASS_OBS_COUNT("auth.batch.verify_total");
      decisions[i] = count_expired();
    }
    return cs;
  }
  // Phase 1 — the probe gate: malformed probes become typed decisions
  // before any lock is taken.
  std::vector<std::size_t> valid;
  valid.reserve(indices.size());
  for (const std::size_t i : indices) {
    MANDIPASS_OBS_COUNT("auth.batch.verify_total");
    if (const auto reject = reject_probe(requests[i].raw_probe)) {
      decisions[i] = count_reject(*reject);
      continue;
    }
    decisions[i] = BatchDecision{};
    valid.push_back(i);
  }
  if (valid.empty()) {
    return cs;
  }
  // Phase 2 — ONE shared-lock window snapshots every template plus the
  // threshold, so the whole coalesced batch is decided against a single
  // consistent store generation. Duplicate user ids in the batch hit the
  // same snapshot and therefore always agree; nothing here acquires a
  // second lock, so a duplicate-heavy batch cannot deadlock either.
  std::vector<std::optional<StoredTemplate>> snaps(valid.size());
  double threshold = 0.0;
  {
    ReaderLock lock(mutex_, kDeferLock);
    {
      MANDIPASS_OBS_TRACE(trace_wait, "auth.batch.shared_lock_wait_us");
      lock.lock();  // mandilint: allow(raw-lock-discipline) -- timed deferred RAII acquire
    }
    for (std::size_t k = 0; k < valid.size(); ++k) {
      snaps[k] = lookup_locked(requests[valid[k]].user);
    }
    threshold = threshold_locked();
  }
  // Phase 3 — the template gate, then group the rest by (matrix_seed,
  // probe dim). std::map keys keep group order deterministic.
  std::map<std::pair<std::uint64_t, std::size_t>, std::vector<std::size_t>> groups;
  for (std::size_t k = 0; k < valid.size(); ++k) {
    const auto& req = requests[valid[k]];
    const StoredTemplate* stored = snaps[k] ? &*snaps[k] : nullptr;
    if (const auto reject = reject_template(req.user, stored, req.raw_probe.size())) {
      decisions[valid[k]] = count_reject(*reject);
      continue;
    }
    groups[{stored->matrix_seed, req.raw_probe.size()}].push_back(k);
  }
  // Phase 4 — one packed-GEMM tile per group: pack the member probes
  // contiguously and stream the group's matrix once per kXTile probes.
  // transform_batch keeps transform()'s per-element accumulation order,
  // so every distance below is bit-identical to a lone transform.
  const Verifier v(threshold);
  std::vector<float> xs;
  std::vector<float> transformed;
  bool budget_gone = false;
  for (const auto& [key, members] : groups) {
    const auto& [seed, dim] = key;
    // Re-check the budget before each group's transform: once it dies
    // mid-batch, the remaining groups' members expire instead of burning
    // GEMM cycles on answers nobody will read.
    if (!budget_gone && deadline.expired()) {
      budget_gone = true;
    }
    if (budget_gone) {
      for (const std::size_t k : members) {
        decisions[valid[k]] = count_expired();
      }
      continue;
    }
    // The group key carries the probe dim and get() returns a matrix of
    // exactly that dim, so every member rides this group's tile.
    const auto g = cache_->get(seed, dim);
    cs.groups += 1;
    if (members.size() >= 2) {
      cs.coalesced += members.size();
    } else {
      cs.singletons += 1;
    }
    xs.resize(members.size() * dim);
    transformed.resize(members.size() * dim);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const auto& probe = requests[valid[members[m]]].raw_probe;
      std::copy(probe.begin(), probe.end(), xs.begin() + static_cast<std::ptrdiff_t>(m * dim));
    }
    g->transform_batch(xs, members.size(), transformed);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::size_t k = members[m];
      BatchDecision& out = decisions[valid[k]];
      out.known = true;
      out.key_version = snaps[k]->key_version;
      out.decision = v.verify(std::span<const float>(transformed).subspan(m * dim, dim),
                              snaps[k]->data);
      if (out.decision.accepted) {
        MANDIPASS_OBS_COUNT("auth.batch.verify_accepted");
        out.status = BatchStatus::Accepted;
      } else {
        MANDIPASS_OBS_COUNT("auth.batch.verify_rejected");
        out.status = BatchStatus::Rejected;
      }
    }
  }
  return cs;
}

CoalesceStats BatchVerifier::verify_coalesced(std::span<const VerifyRequest> requests,
                                              std::span<const std::size_t> indices,
                                              std::span<BatchDecision> decisions,
                                              const common::Deadline& deadline) const {
  return decide(requests, indices, decisions, deadline);
}

BatchDecision BatchVerifier::verify_one(const std::string& user,
                                        std::span<const float> raw_probe) const {
  MANDIPASS_OBS_TRACE(trace_verify, "auth.batch.verify_us");
  struct RequestView {
    const std::string& user;
    std::span<const float> raw_probe;
  };
  const std::array<RequestView, 1> request{{{user, raw_probe}}};
  constexpr std::size_t kOnly = 0;
  BatchDecision out;
  decide(request, {&kOnly, 1}, {&out, 1}, common::Deadline{});
  return out;
}

BatchResult BatchVerifier::verify_batch(std::span<const VerifyRequest> requests,
                                        common::ThreadPool* pool) const {
  MANDIPASS_OBS_TRACE(trace_batch, "auth.batch.batch_us");
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::global();

  BatchResult result;
  result.decisions.resize(requests.size());
  tp.parallel_for(0, requests.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      result.decisions[i] = verify_one(requests[i].user, requests[i].raw_probe);
    }
  });
  result.stats = tally(result.decisions);
  return result;
}

BatchStats tally(std::span<const BatchDecision> decisions) {
  BatchStats s;
  s.requests = decisions.size();
  for (const BatchDecision& d : decisions) {
    s.known += d.known ? 1 : 0;
    s.accepted += (d.known && d.decision.accepted) ? 1 : 0;
    s.unknown += d.status == BatchStatus::Unknown ? 1 : 0;
    s.invalid += d.status == BatchStatus::Invalid ? 1 : 0;
    s.expired += d.status == BatchStatus::Expired ? 1 : 0;
    s.shed += d.status == BatchStatus::Shed ? 1 : 0;
    s.degraded += d.degraded ? 1 : 0;
  }
  return s;
}

void BatchVerifier::save(std::ostream& os) const {
  WriterLock lock(mutex_);
  store_.save(os);
}

void BatchVerifier::load(std::istream& is) {
  WriterLock lock(mutex_);
  store_.load(is);
}

common::Result<void> BatchVerifier::save_file(const std::string& path, int max_retries,
                                              const resilience::BackoffPolicy& backoff) const {
  WriterLock lock(mutex_);
  return store_.save_file(path, max_retries, backoff);
}

}  // namespace mandipass::auth
