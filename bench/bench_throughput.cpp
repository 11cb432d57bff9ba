// Serving-path throughput, two sections:
//
//   1. extract_batch samples/sec — the compiled inference plan (fused
//      Conv+BN+ReLU, packed register-blocked GEMM, scratch arenas;
//      DESIGN.md §13) against the layer-by-layer reference path it
//      replaced, measured single-thread so the speedup is the kernel's,
//      not the pool's. Gates: compiled matches reference to ≤1e-5
//      max-abs, and >= 2x reference throughput. The speedup is the median
//      of per-pair ratios over interleaved reference/compiled batches
//      timed in thread CPU time, so drift and preemption on a shared host
//      hit both sides of a pair alike.
//   2. verifications/sec of the concurrent BatchVerifier engine at batch
//      sizes 1..256, single- vs multi-thread. Per-request decisions are
//      independent, so the multi-thread decision vector must be
//      identical to the single-thread one — the bench checks that too.
//
// Usage: bench_throughput [--threads N]   (default: all hardware cores)
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "auth/batch_verifier.h"
#include "auth/gaussian_matrix.h"
#include "bench_common.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

using namespace mandipass;

namespace {

constexpr std::size_t kDim = 256;       // MandiblePrint length (headline config)
constexpr std::size_t kUsers = 64;

std::vector<float> random_print(Rng& rng) {
  std::vector<float> v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.uniform());  // sigmoid-range embedding
  }
  return v;
}

struct Measurement {
  double per_sec = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::vector<auth::BatchDecision> decisions;
};

/// Per-request latencies come from the auth.batch.verify_us histogram,
/// which verify_one records for every request; it is reset after the
/// warm-up so it holds exactly this measurement's timed requests.
Measurement measure(const auth::BatchVerifier& engine,
                    std::span<const auth::VerifyRequest> requests, common::ThreadPool& pool) {
  using clock = std::chrono::steady_clock;
  common::obs::Histogram& verify_us = common::obs::histogram("auth.batch.verify_us");
  // Warm-up pass (first-touch, pool spin-up), then repeat until ~0.25 s.
  auth::BatchResult last = engine.verify_batch(requests, &pool);
  verify_us.reset();
  const auto t0 = clock::now();
  std::size_t total = 0;
  while (std::chrono::duration<double>(clock::now() - t0).count() < 0.25) {
    last = engine.verify_batch(requests, &pool);
    total += last.stats.requests;
  }
  const double secs = std::chrono::duration<double>(clock::now() - t0).count();
  const common::obs::HistogramSnapshot lat = verify_us.snapshot("auth.batch.verify_us");
  Measurement m;
  m.per_sec = static_cast<double>(total) / secs;
  m.mean_ms = lat.count > 0 ? lat.sum_us / static_cast<double>(lat.count) / 1000.0 : 0.0;
  m.max_ms = lat.max_us / 1000.0;
  m.decisions = std::move(last.decisions);
  return m;
}

bool same_decisions(const std::vector<auth::BatchDecision>& a,
                    const std::vector<auth::BatchDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].known != b[i].known || a[i].key_version != b[i].key_version ||
        a[i].decision.accepted != b[i].decision.accepted ||
        a[i].decision.distance != b[i].decision.distance) {
      return false;
    }
  }
  return true;
}

// ---- Section 1: compiled-plan extract_batch vs the reference path ----

std::vector<core::GradientArray> random_gradient_batch(std::size_t count, std::size_t half,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::GradientArray> out;
  out.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    core::GradientArray g;
    for (std::size_t a = 0; a < imu::kAxisCount; ++a) {
      g.positive[a].resize(half);
      g.negative[a].resize(half);
      for (std::size_t i = 0; i < half; ++i) {
        g.positive[a][i] = rng.uniform(0.0, 0.5);
        g.negative[a][i] = rng.uniform(-0.5, 0.0);
      }
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// The pre-plan extract_batch pipeline, kept here as the measured
/// baseline: per-chunk GradientArray copy, Tensor packing, and the
/// layer-by-layer eval forward (separate conv GEMM, BN pass, ReLU pass,
/// Linear, Sigmoid).
std::vector<std::vector<float>> reference_extract_batch(
    core::BiometricExtractor& ex, const std::vector<core::GradientArray>& arrays) {
  std::vector<std::vector<float>> out;
  out.reserve(arrays.size());
  constexpr std::size_t kChunk = 128;
  for (std::size_t start = 0; start < arrays.size(); start += kChunk) {
    const std::size_t bs = std::min(kChunk, arrays.size() - start);
    const auto off = static_cast<std::ptrdiff_t>(start);
    const std::vector<core::GradientArray> chunk(
        arrays.begin() + off, arrays.begin() + off + static_cast<std::ptrdiff_t>(bs));
    const core::BranchTensors input = core::pack_branches(chunk, ex.config().axes);
    const nn::Tensor e = ex.embed(input, /*train=*/false);
    for (std::size_t b = 0; b < bs; ++b) {
      std::vector<float> row(e.dim(1));
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = e.at2(b, j);
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// Wall-clock samples/sec of `run` over 0.3 s (the multi-thread table
/// column; no gate reads it).
template <typename F>
double measure_extract(F&& run, std::size_t batch_size) {
  using clock = std::chrono::steady_clock;
  (void)run();  // warm-up: arena carve, first-touch
  const auto t0 = clock::now();
  std::size_t total = 0;
  while (std::chrono::duration<double>(clock::now() - t0).count() < 0.3) {
    (void)run();
    total += batch_size;
  }
  const double secs = std::chrono::duration<double>(clock::now() - t0).count();
  return static_cast<double>(total) / secs;
}

struct ExtractComparison {
  double ref_samples_per_sec = 0.0;   ///< over all timed reference batches
  double plan_samples_per_sec = 0.0;  ///< over all timed compiled batches
  double speedup = 0.0;               ///< median of paired reference/compiled ratios
  std::vector<std::vector<float>> ref_last;
  std::vector<std::vector<float>> plan_last;
};

/// Single-thread reference-vs-compiled comparison: kPairs pairs of one
/// reference batch and one compiled batch, alternating which runs first,
/// each batch timed in the calling thread's CPU time (the pool runs a
/// one-lane parallel_for inline). Pairing and the median keep a slow
/// stretch of a shared host from landing on one side of the ratio only;
/// 45 pairs (~5 s) outlast the memory-contention bursts that slow the
/// bandwidth-bound compiled trunk more than the reference.
template <typename Ref, typename Plan>
ExtractComparison compare_extract(Ref&& ref, Plan&& plan, std::size_t batch_size) {
  constexpr int kPairs = 45;
  ExtractComparison c;
  c.ref_last = ref();  // warm-up: plan compile, arena carve, first-touch
  c.plan_last = plan();
  const auto timed = [](auto& run, std::vector<std::vector<float>>& last) {
    const double t0 = bench::thread_cpu_seconds();
    last = run();
    return bench::thread_cpu_seconds() - t0;
  };
  std::vector<double> ratios;
  double ref_cpu = 0.0;
  double plan_cpu = 0.0;
  for (int p = 0; p < kPairs; ++p) {
    double r = 0.0;
    double q = 0.0;
    if (p % 2 == 0) {
      r = timed(ref, c.ref_last);
      q = timed(plan, c.plan_last);
    } else {
      q = timed(plan, c.plan_last);
      r = timed(ref, c.ref_last);
    }
    ref_cpu += r;
    plan_cpu += q;
    ratios.push_back(q > 0.0 ? r / q : 0.0);
  }
  const double samples = static_cast<double>(kPairs) * static_cast<double>(batch_size);
  c.ref_samples_per_sec = ref_cpu > 0.0 ? samples / ref_cpu : 0.0;
  c.plan_samples_per_sec = plan_cpu > 0.0 ? samples / plan_cpu : 0.0;
  c.speedup = median(ratios);
  return c;
}

float max_abs_delta(const std::vector<std::vector<float>>& a,
                    const std::vector<std::vector<float>>& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    for (std::size_t j = 0; j < a[i].size() && j < b[i].size(); ++j) {
      worst = std::max(worst, std::abs(a[i][j] - b[i][j]));
    }
  }
  return worst;
}

/// Returns pass/fail of the two extract gates (tolerance + 2x speedup).
bool run_extract_section(std::size_t threads) {
  core::ExtractorConfig cfg;
  cfg.embedding_dim = kDim;  // headline MandiblePrint config
  core::BiometricExtractor ex(cfg);
  constexpr std::size_t kBatch = 256;
  const auto batch = random_gradient_batch(kBatch, cfg.half_length, 9001);

  // Single-thread: the tentpole's own gate — kernel vs kernel, no pool.
  common::ThreadPool::set_global_threads(1);
  const ExtractComparison single =
      compare_extract([&] { return reference_extract_batch(ex, batch); },
                      [&] { return ex.extract_batch(batch); }, kBatch);
  const float delta = max_abs_delta(single.ref_last, single.plan_last);
  const double speedup = single.speedup;

  // Multi-thread compiled path, for the table only. The pool stays at
  // `threads` afterwards for the verification section.
  common::ThreadPool::set_global_threads(threads);
  const double fusedN = measure_extract([&] { return ex.extract_batch(batch); }, kBatch);

  std::cout << "\nextract_batch samples/sec (batch " << kBatch << ", dim " << kDim << "):\n";
  Table table({"path", "1 thread [sps, CPU time]", std::to_string(threads) + " threads [sps]"});
  table.add_row({"reference (layered)", fmt(single.ref_samples_per_sec, 0), "-"});
  table.add_row({"compiled plan", fmt(single.plan_samples_per_sec, 0),
                 fmt(fusedN, 0)});
  table.print(std::cout);
  std::cout << "single-thread speedup (median of paired ratios): " << fmt(speedup, 2)
            << "x   max-abs embedding delta: " << delta << "\n";

  const bool matches = bench::record_verdict(
      "extract_plan_matches_reference", delta <= 1e-5f,
      "compiled extract_batch within 1e-5 max-abs of the layer-by-layer reference");
  const bool fast = bench::record_verdict(
      "extract_plan_speedup_ge_2x", speedup >= 2.0,
      "compiled extract_batch >= 2x single-thread reference throughput");
  return matches && fast;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::init_bench(argc, argv);
  bench::print_banner("serving-path throughput",
                      "reproduction extension: compiled inference plan "
                      "(samples/sec) + concurrent verification "
                      "(verifications/sec, single- vs multi-thread)");

  const bool extract_ok = run_extract_section(threads);

  Rng rng(4242);
  auth::BatchVerifier engine;
  std::vector<std::vector<float>> prints;
  for (std::size_t u = 0; u < kUsers; ++u) {
    prints.push_back(random_print(rng));
    const std::uint64_t seed = rng();
    const auth::GaussianMatrix g(seed, kDim);
    auth::StoredTemplate tmpl;
    tmpl.data = g.transform(prints.back());
    tmpl.matrix_seed = seed;
    tmpl.key_version = 1;
    engine.enroll("user" + std::to_string(u), tmpl);
  }

  common::ThreadPool single(1);
  common::ThreadPool multi(threads);

  std::cout << "\nverifications/sec by batch size (" << kUsers << " enrolled users, dim "
            << kDim << "):\n";
  Table table({"batch", "1 thread [v/s]", std::to_string(threads) + " threads [v/s]",
               "speedup", "mean lat [ms]", "max lat [ms]"});

  bool consistent = true;
  double speedup_at_64 = 0.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                                  std::size_t{64}, std::size_t{256}}) {
    std::vector<auth::VerifyRequest> requests;
    requests.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::size_t u = i % kUsers;
      // Genuine probe with mild session noise; every request still runs
      // the full transform + distance whatever the outcome.
      std::vector<float> probe = prints[u];
      for (float& x : probe) {
        x += static_cast<float>(rng.normal(0.0, 0.01));
      }
      requests.push_back({"user" + std::to_string(u), std::move(probe)});
    }
    const Measurement s = measure(engine, requests, single);
    const Measurement m = measure(engine, requests, multi);
    consistent = consistent && same_decisions(s.decisions, m.decisions);
    const double speedup = s.per_sec > 0.0 ? m.per_sec / s.per_sec : 0.0;
    if (batch == 64) {
      speedup_at_64 = speedup;
    }
    table.add_row({std::to_string(batch), fmt(s.per_sec, 0), fmt(m.per_sec, 0),
                   fmt(speedup, 2) + "x", fmt(m.mean_ms, 3), fmt(m.max_ms, 3)});
  }
  table.print(std::cout);

  std::cout << "\nspeedup at batch 64 with " << threads << " threads: " << fmt(speedup_at_64, 2)
            << "x\n";
  std::cout << "single- vs multi-thread decisions identical: "
            << (consistent ? "PASS" : "FAIL") << "\n";
  // The throughput target (>= 3x at batch 64 with all cores) only means
  // something on a multi-core host; the hard in-bench gate is decision
  // consistency.
  bench::record_verdict("decisions_thread_invariant", consistent,
                        "single- vs multi-thread batch decisions identical");
  return (consistent && extract_ok) ? 0 : 1;
}
