// service_epochs and service_peruser: the 8-shard ResilientVerifier fed
// batches of seeded MandiblePrints from one client thread, with enroll /
// revoke churn on a disjoint user set between batches.
//
//   service_epochs   64-dim prints, 8 shared key epochs, 20k users,
//                    batches of 256: coalesced GEMM groups and a
//                    MatrixCache that always hits.
//   service_peruser  512-dim prints, one key per user (the paper's
//                    shape), 2048 users — twice MatrixCache's 1024-entry
//                    cap — and batches of 2: cache misses and Gaussian
//                    construction dominate.
//
// Prints are synthetic (a per-user base vector plus per-session noise),
// so no extraction runs. Setup derives every template and every request's
// reference distance with GaussianMatrix(seed, dim).transform followed by
// cosine_distance; each decision the service returns must equal its
// reference bit for bit.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>

#include "auth/batch_verifier.h"
#include "auth/cosine.h"
#include "auth/gaussian_matrix.h"
#include "auth/matrix_cache.h"
#include "auth/metrics.h"
#include "auth/resilience/resilient_verifier.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "speed.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mandipass;

constexpr std::size_t kShards = 8;
constexpr std::uint64_t kCalibrationSeed = 0xCA11B;
constexpr std::size_t kCalibrationPeople = 400;
constexpr std::size_t kCalibrationImpostorsPerPerson = 10;
constexpr std::uint64_t kEpochKeyBase = 0x5EED0000;
/// Churn writes after each verify batch, alternating enroll and revoke.
/// The burst is timed as a whole: a mean over 16 mixed writes keeps the
/// write median about the store (not about the cache state the batch
/// left behind, nor about which of two write kinds sits at the median).
constexpr std::size_t kWritesPerBatch = 16;

struct Shape {
  std::size_t dim;
  std::size_t users;          ///< verify population
  std::size_t churn_users;    ///< disjoint enroll/revoke population
  std::size_t key_epochs;     ///< shared key seeds; 0 = one key per user
  std::size_t batch;          ///< requests per verify_batch call
  std::size_t tape_batches;   ///< distinct batches before the tape repeats
  double noise;               ///< per-element session noise (sigma)
  /// Seed groups per batch whose reference the traced run re-derives
  /// with its own spans (0 = all of them).
  std::size_t traced_reference_groups;
  /// Host-speed probe for verify_batch (speed.h): 64-dim shared-key
  /// batches are packed GEMMs and cache reads, copy-like work; per-user
  /// batches are mostly Gaussian matrix builds.
  ProbeMix probe;
};

constexpr Shape kEpochs{64, 20000, 256, 8, 256, 256, 0.52, 0, {0, 2, 0}};
constexpr Shape kPerUser{512, 2048, 64, 0, 2, 8192, 0.92, 1, {1, 1, 0}};
/// Host-speed probe for the churn writes: hash-map updates on a store of
/// thousands of templates are bound by cache and memory latency.
constexpr ProbeMix kWriteProbe{0, 0, 1};

std::string user_name(std::size_t u) { return "u" + std::to_string(u); }

std::vector<float> base_print(std::uint64_t seed, std::size_t u, std::size_t dim) {
  Rng rng(seed ^ (u * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL));
  std::vector<float> v(dim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());
  }
  return v;
}

std::vector<float> session(const std::vector<float>& base, Rng& rng, double sigma) {
  std::vector<float> v = base;
  for (float& x : v) {
    x += static_cast<float>(rng.normal(0.0, sigma));
  }
  return v;
}

/// The service provider's EER threshold for this print model, from a
/// fixed calibration cohort (raw prints, as core::calibrate_threshold).
double calibrate(const Shape& shape) {
  Rng rng(kCalibrationSeed);
  std::vector<std::vector<float>> a;
  std::vector<std::vector<float>> b;
  for (std::size_t p = 0; p < kCalibrationPeople; ++p) {
    const auto base = base_print(kCalibrationSeed, p, shape.dim);
    a.push_back(session(base, rng, shape.noise));
    b.push_back(session(base, rng, shape.noise));
  }
  std::vector<double> genuine;
  std::vector<double> impostor;
  for (std::size_t p = 0; p < kCalibrationPeople; ++p) {
    genuine.push_back(auth::cosine_distance(a[p], b[p]));
    for (std::size_t k = 1; k <= kCalibrationImpostorsPerPerson; ++k) {
      impostor.push_back(auth::cosine_distance(a[p], b[(p + k) % kCalibrationPeople]));
    }
  }
  const auto eer = auth::compute_eer(genuine, impostor);
  std::cerr << "[service] calibration EER " << eer.eer << " at threshold " << eer.threshold
            << "\n";
  return eer.threshold;
}

struct Batch {
  std::vector<auth::VerifyRequest> requests;
  std::vector<std::size_t> claimed;   ///< user index per request
  std::vector<double> reference;      ///< expected distance per request
  std::vector<char> genuine;          ///< probe belongs to the claimed user
};

struct Service {
  const Shape* shape = nullptr;
  double threshold = 0.0;
  std::vector<std::uint64_t> key;              ///< key seed per user (churn users last)
  std::vector<auth::StoredTemplate> templates; ///< per user (churn users last)
  std::vector<Batch> tape;
  std::map<std::uint64_t, std::shared_ptr<const auth::GaussianMatrix>> epoch_matrices;
  std::unique_ptr<auth::resilience::ResilientVerifier> rv;
  /// The enrolled churn users are the ring window [churn_head, churn_tail).
  std::size_t churn_head = 0;
  std::size_t churn_tail = 0;
  std::size_t churn_writes = 0;
};

/// Builds one service: prints, tape, templates, reference distances and
/// the enrolled population. Matrix builds are timed into `tracer` (they
/// run on pool lanes and are recorded after the join).
std::unique_ptr<Service> setup_service(const Shape& shape, std::uint64_t seed, Tracer& tracer) {
  auto s = std::make_unique<Service>();
  s->shape = &shape;
  s->threshold = calibrate(shape);
  const std::size_t population = shape.users + shape.churn_users;
  const std::uint64_t print_seed = seed * 0x9E3779B97F4A7C15ULL + 0x51;
  // Shared key epochs are the service's own deployment keys, fixed like
  // its threshold; per-user keys are drawn with the users, from the seed.
  const std::uint64_t key_base =
      shape.key_epochs == 0 ? (seed + 1) * 0xD1B54A32D192ED03ULL : kEpochKeyBase;
  s->key.resize(population);
  for (std::size_t u = 0; u < population; ++u) {
    s->key[u] = key_base + (shape.key_epochs == 0 ? u : u % shape.key_epochs);
  }

  // Request tape: half genuine, half impostor probes, each a fresh
  // session of the presenting user's base print.
  Rng rng(print_seed ^ 0x7A9E);
  s->tape.resize(shape.tape_batches);
  for (Batch& b : s->tape) {
    for (std::size_t r = 0; r < shape.batch; ++r) {
      const std::size_t u = rng.uniform_index(shape.users);
      const bool genuine = rng.bernoulli(0.5);
      const std::size_t owner =
          genuine ? u : (u + 1 + rng.uniform_index(shape.users - 1)) % shape.users;
      b.requests.push_back(
          {user_name(u), session(base_print(print_seed, owner, shape.dim), rng, shape.noise)});
      b.claimed.push_back(u);
      b.genuine.push_back(genuine ? 1 : 0);
      b.reference.push_back(0.0);
    }
  }

  // Group users and requests by key seed, then derive each group's
  // templates and reference distances from one matrix.
  struct Group {
    std::uint64_t key = 0;
    std::vector<std::size_t> users;
    std::vector<std::pair<std::size_t, std::size_t>> requests;  // (batch, slot)
  };
  std::map<std::uint64_t, std::size_t> group_of;
  std::vector<Group> groups;
  for (std::size_t u = 0; u < population; ++u) {
    auto [it, fresh] = group_of.try_emplace(s->key[u], groups.size());
    if (fresh) {
      groups.push_back({s->key[u], {}, {}});
    }
    groups[it->second].users.push_back(u);
  }
  for (std::size_t b = 0; b < s->tape.size(); ++b) {
    for (std::size_t r = 0; r < shape.batch; ++r) {
      groups[group_of[s->key[s->tape[b].claimed[r]]]].requests.emplace_back(b, r);
    }
  }
  s->templates.resize(population);
  std::vector<std::vector<float>> enroll_prints(population);
  for (std::size_t u = 0; u < population; ++u) {
    enroll_prints[u] = session(base_print(print_seed, u, shape.dim), rng, shape.noise);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> build_ns(groups.size());
  std::vector<std::shared_ptr<const auth::GaussianMatrix>> matrices(groups.size());
  const std::size_t dim = shape.dim;
  common::parallel_for(0, groups.size(), 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<float> xs;
    std::vector<float> out;
    for (std::size_t gi = lo; gi < hi; ++gi) {
      const Group& g = groups[gi];
      const std::int64_t t0 = tracer.now_ns();
      auto m = std::make_shared<const auth::GaussianMatrix>(g.key, dim);
      build_ns[gi] = {t0, tracer.now_ns()};
      xs.clear();
      for (const std::size_t u : g.users) {
        xs.insert(xs.end(), enroll_prints[u].begin(), enroll_prints[u].end());
      }
      out.resize(xs.size());
      m->transform_batch(xs, g.users.size(), out);
      for (std::size_t k = 0; k < g.users.size(); ++k) {
        auth::StoredTemplate& t = s->templates[g.users[k]];
        t.data.assign(out.begin() + static_cast<std::ptrdiff_t>(k * dim),
                      out.begin() + static_cast<std::ptrdiff_t>((k + 1) * dim));
        t.matrix_seed = g.key;
        t.key_version = 1;
      }
      for (const auto& [b, r] : g.requests) {
        const auto transformed = m->transform(s->tape[b].requests[r].raw_probe);
        s->tape[b].reference[r] =
            auth::cosine_distance(transformed, s->templates[s->tape[b].claimed[r]].data);
      }
      if (shape.key_epochs != 0) {
        matrices[gi] = std::move(m);
      }
    }
  });
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    tracer.record("auth.matrix_build", build_ns[gi].first, build_ns[gi].second, -1, 0);
    if (matrices[gi] != nullptr) {
      s->epoch_matrices[groups[gi].key] = matrices[gi];
    }
  }

  s->rv = std::make_unique<auth::resilience::ResilientVerifier>(
      kShards, auth::resilience::ResilienceConfig{}, s->threshold);
  for (std::size_t u = 0; u < shape.users; ++u) {
    s->rv->enroll(user_name(u), s->templates[u]);
  }
  // Warm the shared MatrixCache up to its cap, so the timed loop starts
  // at the hit ratio it keeps (a cold cache would make the first batches
  // all misses). One genuine request per user, each must be decided, in
  // batches small enough that the matrices in flight stay few.
  constexpr std::size_t kWarmBatch = 64;
  const std::size_t warm_users = std::min(shape.users, auth::MatrixCacheConfig{}.max_entries);
  for (std::size_t lo = 0; lo < warm_users; lo += kWarmBatch) {
    std::vector<auth::VerifyRequest> warm;
    for (std::size_t u = lo; u < std::min(warm_users, lo + kWarmBatch); ++u) {
      warm.push_back({user_name(u), enroll_prints[u]});
    }
    for (const auth::BatchDecision& d : s->rv->verify_batch(warm).decisions) {
      if (d.status != auth::BatchStatus::Accepted && d.status != auth::BatchStatus::Rejected) {
        throw std::runtime_error("cache warm-up request was not decided");
      }
    }
  }
  // Half the churn users start enrolled; the writes then alternate
  // enrolling the next one and revoking the oldest.
  for (; s->churn_tail < shape.churn_users / 2; ++s->churn_tail) {
    const std::size_t u = shape.users + s->churn_tail;
    s->rv->enroll(user_name(u), s->templates[u]);
  }
  return s;
}

/// Checks one batch's decisions against the references and counts them.
/// Returns the number of decisions.
std::size_t check_batch(const Service& s, const Batch& b, const auth::BatchResult& res,
                        OutcomeTally& outcomes) {
  std::size_t decisions = 0;
  for (std::size_t r = 0; r < b.requests.size(); ++r) {
    const auth::BatchDecision& d = res.decisions[r];
    switch (d.status) {
      case auth::BatchStatus::Accepted:
      case auth::BatchStatus::Rejected: {
        const bool accept = b.reference[r] <= s.threshold;
        const bool ok = d.known && !d.degraded && d.decision.distance == b.reference[r] &&
                        d.decision.accepted == accept &&
                        (d.status == auth::BatchStatus::Accepted) == accept;
        if (ok) {
          outcomes.decided();
          ++decisions;
        } else {
          outcomes.wrong();
        }
        break;
      }
      case auth::BatchStatus::Shed:
        outcomes.no_decision("shed");
        break;
      case auth::BatchStatus::Expired:
        outcomes.no_decision("expired");
        break;
      case auth::BatchStatus::Unknown:
        outcomes.no_decision("unknown_enrolled");
        break;
      case auth::BatchStatus::Invalid:
        outcomes.wrong();  // every probe on the tape is well-formed
        break;
    }
  }
  return decisions;
}

/// One churn write on the disjoint user set, prepared before it is timed.
struct ChurnWrite {
  bool enroll = false;
  std::string name;
  auth::StoredTemplate tmpl;  ///< the template to enroll
};

/// The next churn write: every other one enrolls the next churn user,
/// the rest revoke the oldest enrolled one.
ChurnWrite next_churn_write(Service& s) {
  const std::size_t churn = s.shape->churn_users;
  ChurnWrite w;
  w.enroll = s.churn_writes++ % 2 == 0;
  const std::size_t u = s.shape->users + (w.enroll ? s.churn_tail++ : s.churn_head++) % churn;
  w.name = user_name(u);
  if (w.enroll) {
    w.tmpl = s.templates[u];
  }
  return w;
}

/// Makes the service call for a prepared write. Returns false when a
/// revoke found nothing to remove (a wrong answer: the user was enrolled).
bool apply(Service& s, ChurnWrite& w) {
  if (w.enroll) {
    s.rv->enroll(w.name, std::move(w.tmpl));
    return true;
  }
  return s.rv->revoke(w.name);
}

struct LoopResult {
  std::vector<double> call_ns;   ///< raw wall time of each verify_batch call
  std::vector<double> write_ns;  ///< raw wall time of each burst, per write
  std::vector<double> call_ref_us;   ///< CPU time of each call, reference host (speed.h)
  std::vector<double> write_ref_us;  ///< the same for each burst, per write
  double busy_ref_s = 0.0;  ///< reference-host CPU time spent inside service calls
  std::size_t decisions = 0;
  double wall_s = 0.0;
  std::size_t next_batch = 0;
};

/// Runs tape batches from `start` until `seconds` have passed, each
/// followed by a burst of churn writes, with host-speed probes (speed.h)
/// before each batch and after each burst.
LoopResult timed_loop(Service& s, std::size_t start, double seconds, OutcomeTally& outcomes) {
  LoopResult r;
  std::vector<double> probe_ns;
  std::vector<double> write_probe_ns;
  std::vector<double> call_cpu_ns;
  std::vector<double> burst_cpu_ns;
  std::vector<ChurnWrite> burst(kWritesPerBatch);
  std::vector<char> ok(kWritesPerBatch);
  write_probe_ns.push_back(reference_probe_ns(kWriteProbe));
  const auto t0 = Clock::now();
  std::size_t b = start;
  while (elapsed_s(t0, Clock::now()) < seconds) {
    const Batch& batch = s.tape[b++ % s.tape.size()];
    probe_ns.push_back(reference_probe_ns(s.shape->probe));
    const CallTimer call_timer;
    const auth::BatchResult res = s.rv->verify_batch(batch.requests);
    const CallTime call = call_timer.stop();
    r.call_ns.push_back(call.wall_ns);
    call_cpu_ns.push_back(call.cpu_ns);
    r.decisions += check_batch(s, batch, res, outcomes);

    for (ChurnWrite& w : burst) {
      w = next_churn_write(s);
    }
    const CallTimer burst_timer;
    for (std::size_t k = 0; k < burst.size(); ++k) {
      ok[k] = apply(s, burst[k]) ? 1 : 0;
    }
    const CallTime writes = burst_timer.stop();
    r.write_ns.push_back(writes.wall_ns / static_cast<double>(kWritesPerBatch));
    burst_cpu_ns.push_back(writes.cpu_ns);
    // The write probe runs after the burst, away from the next batch:
    // its walk through 8 MiB would evict what the batch reads.
    write_probe_ns.push_back(reference_probe_ns(kWriteProbe));
    for (const char k : ok) {
      k != 0 ? outcomes.decided() : outcomes.wrong();
    }
  }
  r.wall_s = elapsed_s(t0, Clock::now());
  r.next_batch = b;
  probe_ns.push_back(reference_probe_ns(s.shape->probe));
  const std::vector<double> scale = speed_scales(s.shape->probe, probe_ns);
  const std::vector<double> write_scale = speed_scales(kWriteProbe, write_probe_ns);
  for (std::size_t k = 0; k < call_cpu_ns.size(); ++k) {
    r.call_ref_us.push_back(call_cpu_ns[k] * scale[k] / 1e3);
    r.write_ref_us.push_back(burst_cpu_ns[k] * write_scale[k] / 1e3 /
                             static_cast<double>(kWritesPerBatch));
    r.busy_ref_s += (call_cpu_ns[k] * scale[k] + burst_cpu_ns[k] * write_scale[k]) / 1e9;
  }
  return r;
}

/// FAR / FRR of the whole tape at the calibrated threshold. Every
/// decision the run returned equals its reference, so these are the
/// service's own rates on the tape.
std::pair<double, double> tape_rates(const Service& s) {
  std::size_t genuine = 0, impostor = 0, false_reject = 0, false_accept = 0;
  for (const Batch& b : s.tape) {
    for (std::size_t r = 0; r < b.reference.size(); ++r) {
      const bool accept = b.reference[r] <= s.threshold;
      if (b.genuine[r] != 0) {
        ++genuine;
        false_reject += accept ? 0 : 1;
      } else {
        ++impostor;
        false_accept += accept ? 1 : 0;
      }
    }
  }
  return {100.0 * safe_ratio(static_cast<double>(false_accept), static_cast<double>(impostor)),
          100.0 * safe_ratio(static_cast<double>(false_reject), static_cast<double>(genuine))};
}

struct Counters {
  std::uint64_t hits, misses, groups, coalesced, singletons, shed, admitted;

  static Counters now() {
    using common::obs::counter;
    return {counter("auth.batch.matrix_cache_hits").value(),
            counter("auth.batch.matrix_cache_misses").value(),
            counter("auth.shard.coalesced_groups").value(),
            counter("auth.shard.coalesced_requests").value(),
            counter("auth.shard.singleton_requests").value(),
            counter("auth.resil.shed").value(),
            counter("auth.resil.admitted").value()};
  }
  Counters operator-(const Counters& o) const {
    return {hits - o.hits,           misses - o.misses, groups - o.groups,
            coalesced - o.coalesced, singletons - o.singletons, shed - o.shed,
            admitted - o.admitted};
  }
  Counters& operator+=(const Counters& o) {
    hits += o.hits;
    misses += o.misses;
    groups += o.groups;
    coalesced += o.coalesced;
    singletons += o.singletons;
    shed += o.shed;
    admitted += o.admitted;
    return *this;
  }
};

/// The traced half of a traced run. Per batch: the real ResilientVerifier
/// call (checked, counted), then — on the now-warm cache — the same batch
/// through ShardedVerifier::verify_batch, ResilientVerifier again, and
/// each shard's BatchVerifier::verify_coalesced on its own slice, so
/// admission and fan-out are differences of calls in one cache state.
/// Finally the batch's reference is re-derived with spans around the
/// Gaussian build, transform_batch, transform and cosine.
void traced_loop(Service& s, std::size_t start, double seconds, Tracer& tracer, Report& report,
                 const std::vector<double>& plain_call_ref_us) {
  const Shape& shape = *s.shape;
  std::vector<double> resil_us, shard_us, skews, fanout_us, admission_us;
  std::vector<double> transform_us, transform_batch_us, cosine_us;
  std::vector<double> enroll_us, revoke_us;
  // Probe before each batch (and one after the last) and the real call's
  // CPU time, for trace.overhead_us in the end-to-end metric's units.
  std::vector<double> probe_ns;
  std::vector<double> call_cpu_ns;
  Counters delta{};       // around the real ResilientVerifier calls
  Counters coalescing{};  // around the ShardedVerifier repeats
  std::size_t requests = 0;
  const auto t0 = Clock::now();
  std::size_t b = start;
  std::vector<auth::BatchDecision> scratch;
  while (elapsed_s(t0, Clock::now()) < seconds) {
    const std::size_t id = b;
    const Batch& batch = s.tape[b++ % s.tape.size()];
    ScopedSpan root(tracer, "service.batch", -1, id);

    probe_ns.push_back(reference_probe_ns(shape.probe));
    const Counters before = Counters::now();
    ScopedSpan real(tracer, "auth.resil.verify_batch", root.index(), id);
    const CallTimer timer;
    const auth::BatchResult res = s.rv->verify_batch(batch.requests);
    call_cpu_ns.push_back(timer.stop().cpu_ns);
    resil_us.push_back(real.close());
    delta += Counters::now() - before;
    requests += batch.requests.size();
    check_batch(s, batch, res, report.outcomes);

    // ResilientVerifier's own fan-out does not feed the auth.shard.coalesced_*
    // counters; ShardedVerifier::verify_batch groups the same batch the same
    // way and does, so the coalescing counts come from this repeat.
    const Counters before_sharded = Counters::now();
    ScopedSpan sharded(tracer, "auth.shard.verify_batch", root.index(), id);
    (void)s.rv->engine().verify_batch(batch.requests);
    const double sharded_us = sharded.close();
    coalescing += Counters::now() - before_sharded;
    ScopedSpan again(tracer, "auth.resil.verify_batch_warm", root.index(), id);
    (void)s.rv->verify_batch(batch.requests);
    const double again_us = again.close();

    std::vector<std::vector<std::size_t>> routed(s.rv->shard_count());
    for (std::size_t r = 0; r < batch.requests.size(); ++r) {
      routed[s.rv->shard_for(batch.requests[r].user)].push_back(r);
    }
    scratch.assign(batch.requests.size(), {});
    std::vector<double> parts;
    for (std::size_t sh = 0; sh < routed.size(); ++sh) {
      if (routed[sh].empty()) {
        continue;
      }
      ScopedSpan span(tracer, "auth.shard.verify_coalesced", root.index(), id);
      (void)s.rv->engine().shard(sh).verify_coalesced(batch.requests, routed[sh], scratch);
      parts.push_back(span.close());
    }
    shard_us.insert(shard_us.end(), parts.begin(), parts.end());
    // With one pool lane the shards run one after another inside
    // verify_batch, so what is not shard work is routing and assembly.
    double shards_total = 0.0;
    for (const double p : parts) {
      shards_total += p;
    }
    skews.push_back(skew(parts));
    fanout_us.push_back(sharded_us - shards_total);
    admission_us.push_back(again_us - sharded_us);

    // Re-derive the reference for (some of) the batch's seed groups.
    std::map<std::uint64_t, std::vector<std::size_t>> by_key;
    for (std::size_t r = 0; r < batch.requests.size(); ++r) {
      by_key[s.key[batch.claimed[r]]].push_back(r);
    }
    std::size_t groups_done = 0;
    for (const auto& [key, members] : by_key) {
      if (shape.traced_reference_groups != 0 && groups_done++ >= shape.traced_reference_groups) {
        break;
      }
      std::shared_ptr<const auth::GaussianMatrix> g;
      if (auto it = s.epoch_matrices.find(key); it != s.epoch_matrices.end()) {
        g = it->second;
      } else {
        ScopedSpan build(tracer, "auth.matrix_build", root.index(), id);
        g = std::make_shared<const auth::GaussianMatrix>(key, shape.dim);
      }
      std::vector<float> xs;
      for (const std::size_t r : members) {
        xs.insert(xs.end(), batch.requests[r].raw_probe.begin(),
                  batch.requests[r].raw_probe.end());
      }
      std::vector<float> out(xs.size());
      ScopedSpan tb(tracer, "auth.transform_batch", root.index(), id);
      g->transform_batch(xs, members.size(), out);
      transform_batch_us.push_back(tb.close() / static_cast<double>(members.size()));
      for (const std::size_t r : members) {
        ScopedSpan tr(tracer, "auth.transform", root.index(), id);
        const auto t = g->transform(batch.requests[r].raw_probe);
        transform_us.push_back(tr.close());
        ScopedSpan cs(tracer, "auth.cosine", root.index(), id);
        const double dist = auth::cosine_distance(t, s.templates[batch.claimed[r]].data);
        cosine_us.push_back(cs.close());
        if (dist != batch.reference[r]) {
          report.outcomes.wrong();
        }
      }
    }

    for (std::size_t k = 0; k < kWritesPerBatch; ++k) {
      ChurnWrite w = next_churn_write(s);
      const bool enroll = w.enroll;
      ScopedSpan span(tracer, enroll ? "auth.enroll" : "auth.revoke", root.index(), id);
      const bool ok = apply(s, w);
      (enroll ? enroll_us : revoke_us).push_back(span.close());
      ok ? report.outcomes.decided() : report.outcomes.wrong();
    }
    // As in timed_loop, so the next batch meets the same cache state.
    (void)reference_probe_ns(kWriteProbe);
  }

  std::vector<double> build_us = tracer.durations_us("auth.matrix_build");
  std::cerr << "[service] traced " << resil_us.size() << " batches; " << build_us.size()
            << " matrix builds timed\n";
  report.add("auth.matrix_build_us", "us", median(build_us));
  report.add("auth.matrix_cache.hit_ratio", "ratio", hit_ratio(delta.hits, delta.misses));
  report.add("auth.transform_us", "us", median(transform_us));
  report.add("auth.transform_batch_us_per_probe", "us", median(transform_batch_us));
  report.add("auth.cosine_us", "us", median(cosine_us));
  report.add("auth.coalesce_ratio", "ratio",
             coalesce_ratio(coalescing.coalesced, coalescing.singletons));
  report.add("auth.coalesced_group_size", "requests",
             coalesced_group_size(coalescing.coalesced, coalescing.groups, coalescing.singletons));
  report.add("auth.shard_verify_us", "us", median(shard_us));
  report.add("auth.shard_skew", "ratio", median(skews));
  report.add("auth.route_fanout_us", "us", median(fanout_us));
  report.add("auth.resil.admission_us", "us", median(admission_us));
  report.add("auth.enroll_us", "us", median(enroll_us));
  report.add("auth.revoke_us", "us", median(revoke_us));
  report.add("auth.resil.shed_ratio", "ratio",
             safe_ratio(static_cast<double>(delta.shed), static_cast<double>(requests)));
  report.add("failed_ratio", "ratio", report.outcomes.failed_ratio());
  probe_ns.push_back(reference_probe_ns(shape.probe));
  const std::vector<double> scale = speed_scales(shape.probe, probe_ns);
  std::vector<double> traced_ref_us;
  for (std::size_t k = 0; k < call_cpu_ns.size(); ++k) {
    traced_ref_us.push_back(call_cpu_ns[k] * scale[k] / 1e3);
  }
  report.add("trace.overhead_us", "us", median(traced_ref_us) - median(plain_call_ref_us));
  report.add("trace.call_samples", "count", static_cast<double>(resil_us.size()));
}

Report run_service(const Shape& shape, const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::unique_ptr<Service> service;
  while (more_setups(options, setup_s)) {
    service.reset();  // one service resident at a time
    const double scale_before = setup_scale();
    const auto t0 = setup_s.empty() ? options.process_start : Clock::now();
    service = setup_service(shape, options.seed, tracer);
    setup_s.push_back(elapsed_s(t0, Clock::now()));
    setup_ref_s.push_back(setup_s.back() * (scale_before + setup_scale()) / 2.0);
  }
  std::cerr << "[" << options.workload << "] setup";
  for (const double s : setup_s) {
    std::cerr << " " << s << "s";
  }
  std::cerr << "\n";
  Service& s = *service;

  set_pool_lanes(kLoopLanes);
  const LoopResult warmup = timed_loop(s, 0, kWarmupSeconds, report.outcomes);
  if (!options.trace) {
    const std::uint64_t faults0 = minor_faults();
    const LoopResult loop = timed_loop(s, warmup.next_batch, options.seconds, report.outcomes);
    const std::uint64_t faults = minor_faults() - faults0;
    const auto [far, frr] = tape_rates(s);
    const auto call_us = to_us(loop.call_ns);
    std::cerr << "[" << options.workload << "] verify_batch: " << p99_note(call_us.size())
              << "; " << loop.write_ns.size() << " bursts of " << kWritesPerBatch << " writes\n"
              << "[" << options.workload << "] raw: call p50 " << percentile(call_us, 0.5)
              << " us, p99 " << percentile(call_us, 0.99) << " us, write p50 "
              << median(to_us(loop.write_ns)) << " us, "
              << static_cast<double>(loop.decisions) / loop.wall_s
              << " verifies per wall second, "
              << safe_ratio(static_cast<double>(faults), static_cast<double>(loop.call_ns.size()))
              << " page faults per batch\n";
    report.add("setup_s", "s", median(setup_ref_s));
    report.add("verifies_per_s", "1/s",
               safe_ratio(static_cast<double>(loop.decisions), loop.busy_ref_s));
    report.add("call_p50_us", "us", percentile(loop.call_ref_us, 0.5));
    report.add("call_p99_us", "us", percentile(loop.call_ref_us, 0.99));
    report.add("write_p50_us", "us", median(loop.write_ref_us));
    report.add("decided_pct", "%", report.outcomes.decided_pct());
    report.add("far_pct", "%", far);
    report.add("frr_pct", "%", frr);
    report.add("peak_rss_mb", "MiB", peak_rss_mb());
    return report;
  }

  const LoopResult plain =
      timed_loop(s, warmup.next_batch, options.seconds / 2.0, report.outcomes);
  traced_loop(s, plain.next_batch, options.seconds / 2.0, tracer, report, plain.call_ref_us);
  if (!tracer.write_jsonl(options.trace_path)) {
    std::cerr << "[" << options.workload << "] could not write " << options.trace_path << "\n";
  }
  return report;
}

}  // namespace

Report run_service_epochs(const Options& options) { return run_service(kEpochs, options); }

Report run_service_peruser(const Options& options) { return run_service(kPerUser, options); }

}  // namespace perfbench
