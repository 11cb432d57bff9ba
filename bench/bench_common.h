// Shared experiment infrastructure for the benchmark harnesses.
//
// Every figure/table bench follows the paper's protocol:
//   1. a hired population (the verification service provider's training
//      cohort) trains the biometric extractor — end users are NEVER in
//      the training set;
//   2. an evaluation population of 34 users (28 male / 6 female, like the
//      paper's cohort) provides enrolment and probe sessions;
//   3. genuine / impostor cosine-distance samples give FRR/FAR/EER/VSR.
//
// Trained extractors are cached on disk (keyed by a config tag) so the
// bench suite does not retrain the same model once per binary. Set
// MANDIPASS_BENCH_QUICK=1 to run every bench at a reduced scale, and
// MANDIPASS_CACHE_DIR to relocate the model cache.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "auth/metrics.h"
#include "core/dataset_builder.h"
#include "core/extractor.h"
#include "core/trainer.h"
#include "vibration/population.h"

namespace mandipass::bench {

/// Experiment sizes. The full scale reproduces the paper's cohort; quick
/// mode shrinks everything for fast iteration.
struct Scale {
  std::size_t hired_people = 400;       ///< VSP training cohort
  std::size_t train_arrays = 50;        ///< signal arrays per hired person
  std::size_t epochs = 28;
  std::size_t users = 34;               ///< the paper's 34 volunteers
  std::size_t user_arrays = 60;         ///< probe arrays per user
  std::size_t sweep_hired = 80;         ///< cohort for multi-training sweeps
  std::size_t sweep_train_arrays = 50;
  std::size_t sweep_epochs = 12;
  std::size_t sweep_user_arrays = 30;
  bool quick = false;
};

/// Reads MANDIPASS_BENCH_QUICK and returns the active scale.
Scale active_scale();

/// Parses the shared bench CLI flags and configures the global thread
/// pool. Every bench main() calls this first:
///
///   --threads N     size the pool to N lanes (default: all hardware cores)
///   --json [PATH]   on exit, write a schema-versioned BenchReport
///                   (common/bench_report.h) with the run's metadata,
///                   common::obs metric snapshot, and recorded verdicts;
///                   PATH defaults to BENCH_<bench name>.json
///
/// Both flags are removed from argc/argv so harnesses that hand argv to
/// another parser (e.g. google-benchmark in bench_overhead) never see
/// them. Unknown flags are left alone for the bench's own parsing.
/// Returns the active lane count.
std::size_t init_bench(int& argc, char** argv);

/// Records a named reproduction-shape claim (e.g. "onset detected",
/// "eer below paper bound") into the report --json emits. Safe to call
/// whether or not --json was given; returns `pass` so call sites can
/// fold it into their exit code.
bool record_verdict(const std::string& name, bool pass, const std::string& detail = "");

/// CPU time consumed by the calling thread, in seconds. Time the thread
/// spends preempted is not billed, so paired ratios of it hold still on
/// a shared host.
double thread_cpu_seconds();

/// Fixed seeds so every bench sees the same people.
inline constexpr std::uint64_t kHiredPopulationSeed = 101;
inline constexpr std::uint64_t kUserPopulationSeed = 202;
inline constexpr std::uint64_t kSessionSeed = 2718;

/// The paper's cohort: 28 males + 6 females, ids 0..33.
std::vector<vibration::PersonProfile> paper_cohort(std::uint64_t seed = kUserPopulationSeed);

/// Default extractor configuration used by the headline experiments.
core::ExtractorConfig default_extractor_config(std::size_t embedding_dim = 256,
                                               std::size_t axes = 6);

/// Default training configuration (weight decay + light input noise, the
/// regularisation the ablation bench quantifies).
core::TrainConfig default_train_config(std::size_t epochs);

/// Trains (or loads from cache) an extractor on the hired population.
/// `tag` names the cache entry; it must uniquely describe the
/// (config, cohort, data) combination.
std::shared_ptr<core::BiometricExtractor> get_or_train_extractor(
    const std::string& tag, const core::ExtractorConfig& config, std::size_t hired_people,
    std::size_t train_arrays, std::size_t epochs,
    const core::CollectionConfig& collection = {});

/// Collects gradient arrays + embeddings for an evaluation population.
struct EvalSet {
  core::LabeledGradientSet data;
  std::vector<std::vector<float>> embeddings;
};
EvalSet collect_and_embed(core::BiometricExtractor& extractor,
                          std::span<const vibration::PersonProfile> people,
                          const core::CollectionConfig& collection, std::uint64_t session_seed);

/// All-pairs genuine / impostor cosine distances.
struct DistanceSamples {
  std::vector<double> genuine;
  std::vector<double> impostor;
};
DistanceSamples pairwise_distances(const EvalSet& eval);

/// Distances of each probe embedding against a per-user reference
/// (enrolment template), rather than all pairs.
std::vector<double> distances_to_templates(
    const std::vector<std::vector<float>>& templates, const EvalSet& probes);

/// Per-user mean embedding from an EvalSet (a simple enrolment template).
std::vector<std::vector<float>> per_user_templates(const EvalSet& eval, std::size_t users);

/// Standard header printed by every bench.
void print_banner(const std::string& experiment, const std::string& paper_claim);

}  // namespace mandipass::bench
