#include "bench_common.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>

#include "auth/cosine.h"
#include "common/bench_report.h"
#include "common/error.h"
#include "common/obs.h"
#include "common/thread_pool.h"

#ifndef MANDIPASS_GIT_SHA
#define MANDIPASS_GIT_SHA "unknown"
#endif

namespace mandipass::bench {

namespace {

/// Per-run state behind --json, flushed by an atexit hook so every bench
/// gets a report without touching its main().
struct BenchSession {
  std::mutex mutex;
  bool json_enabled = false;
  std::string json_path;
  std::string bench_name = "bench";
  std::size_t threads = 1;
  std::chrono::steady_clock::time_point wall_start{};
  std::clock_t cpu_start{};
  std::vector<common::BenchVerdict> verdicts;
};

BenchSession& session() {
  static BenchSession s;
  return s;
}

void flush_session_report() {
  BenchSession& s = session();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.json_enabled) {
    return;
  }
  common::BenchReport report;
  report.bench = s.bench_name;
  report.git_sha = MANDIPASS_GIT_SHA;
  report.threads = static_cast<std::int64_t>(s.threads);
  report.quick = active_scale().quick;
  report.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                s.wall_start)
                      .count();
  report.cpu_s = static_cast<double>(std::clock() - s.cpu_start) /
                 static_cast<double>(CLOCKS_PER_SEC);
  report.metrics = common::obs::Registry::instance().snapshot();
  report.verdicts = s.verdicts;
  try {
    common::write_report(report, s.json_path);
    std::cout << "[bench] wrote report to " << s.json_path << "\n";
  } catch (const Error& e) {
    std::cerr << "[bench] failed to write report: " << e.what() << "\n";
  }
}

}  // namespace

Scale active_scale() {
  Scale s;
  const char* quick = std::getenv("MANDIPASS_BENCH_QUICK");
  if (quick != nullptr && quick[0] != '\0' && quick[0] != '0') {
    s.quick = true;
    s.hired_people = 40;
    s.train_arrays = 30;
    s.epochs = 6;
    s.users = 12;
    s.user_arrays = 20;
    s.sweep_hired = 24;
    s.sweep_train_arrays = 24;
    s.sweep_epochs = 5;
    s.sweep_user_arrays = 12;
  }
  return s;
}

std::size_t init_bench(int& argc, char** argv) {
  std::size_t threads = 0;  // 0 = hardware concurrency
  bool json_enabled = false;
  std::string json_path;

  // Scan and compact in one pass: consumed flags are removed from argv so
  // downstream parsers (google-benchmark rejects unknown flags) never see
  // them.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      std::string value;
      if (arg == "--threads") {
        if (i + 1 < argc) {
          value = argv[++i];
        }
      } else {
        value = arg.substr(10);
      }
      const long n = std::strtol(value.c_str(), nullptr, 10);
      if (n >= 1) {
        threads = static_cast<std::size_t>(n);
      } else {
        std::cerr << "[bench] ignoring invalid --threads value '" << value << "'\n";
      }
      continue;
    }
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      json_enabled = true;
      if (arg.rfind("--json=", 0) == 0) {
        json_path = arg.substr(7);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        json_path = argv[++i];
      }
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;

  common::ThreadPool::set_global_threads(threads);

  BenchSession& s = session();
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (argv[0] != nullptr && argv[0][0] != '\0') {
      s.bench_name = std::filesystem::path(argv[0]).filename().string();
    }
    s.json_enabled = json_enabled;
    s.json_path = json_path.empty() ? "BENCH_" + s.bench_name + ".json" : json_path;
    s.threads = common::ThreadPool::global_thread_count();
    s.wall_start = std::chrono::steady_clock::now();
    s.cpu_start = std::clock();
  }
  if (json_enabled) {
    // The registry singleton must be constructed before the atexit hook
    // registers, so it destructs after the hook runs.
    common::obs::Registry::instance();
    std::atexit(flush_session_report);
  }
  return common::ThreadPool::global_thread_count();
}

bool record_verdict(const std::string& name, bool pass, const std::string& detail) {
  BenchSession& s = session();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.verdicts.push_back({name, pass, detail});
  return pass;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<vibration::PersonProfile> paper_cohort(std::uint64_t seed) {
  vibration::PopulationGenerator gen(seed);
  std::vector<vibration::PersonProfile> people;
  const Scale s = active_scale();
  const std::size_t males = s.users * 28 / 34;
  for (std::size_t i = 0; i < s.users; ++i) {
    people.push_back(gen.sample_with_gender(i < males ? vibration::Gender::Male
                                                      : vibration::Gender::Female));
  }
  return people;
}

core::ExtractorConfig default_extractor_config(std::size_t embedding_dim, std::size_t axes) {
  core::ExtractorConfig cfg;
  cfg.embedding_dim = embedding_dim;
  cfg.axes = axes;
  return cfg;
}

core::TrainConfig default_train_config(std::size_t epochs) {
  core::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.weight_decay = 1e-4;
  cfg.input_noise = 0.05;
  // Decay the learning rate to 10% of its start over the run, whatever
  // the epoch budget.
  cfg.lr_decay = std::pow(0.1, 1.0 / static_cast<double>(epochs));
  return cfg;
}

namespace {

std::filesystem::path cache_dir() {
  if (const char* dir = std::getenv("MANDIPASS_CACHE_DIR")) {
    return dir;
  }
  return ".mandipass_cache";
}

}  // namespace

std::shared_ptr<core::BiometricExtractor> get_or_train_extractor(
    const std::string& tag, const core::ExtractorConfig& config, std::size_t hired_people,
    std::size_t train_arrays, std::size_t epochs, const core::CollectionConfig& collection) {
  auto extractor = std::make_shared<core::BiometricExtractor>(config);

  const Scale s = active_scale();
  const auto path = cache_dir() / ("model_" + tag + (s.quick ? "_quick" : "") + ".bin");
  if (std::ifstream in{path, std::ios::binary}; in) {
    try {
      extractor->load(in);
      std::cout << "[bench] loaded cached extractor '" << tag << "' from " << path << "\n";
      return extractor;
    } catch (const Error& e) {
      std::cout << "[bench] cache at " << path << " unusable (" << e.what()
                << "); retraining\n";
      extractor = std::make_shared<core::BiometricExtractor>(config);
    }
  }

  std::cout << "[bench] training extractor '" << tag << "': " << hired_people
            << " hired people x " << train_arrays << " arrays, " << epochs << " epochs...\n";
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(kSessionSeed);
  vibration::PopulationGenerator hired_pop(kHiredPopulationSeed);
  const auto hired = hired_pop.sample_population(hired_people);
  core::CollectionConfig cc = collection;
  cc.arrays_per_person = train_arrays;
  // Tone augmentation: hired people vary their tone across the range of
  // unconscious variation, so the extractor learns tone-robust features
  // (Fig. 14) that an impersonator's pitch imitation cannot exploit.
  cc.tone_augment_min = 0.92;
  cc.tone_augment_max = 1.09;
  const auto data = core::collect_gradient_set(hired, cc, rng);
  core::ExtractorTrainer trainer(*extractor, default_train_config(epochs));
  const double acc = trainer.train(data);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << "[bench] trained in " << static_cast<int>(secs) << " s, final train accuracy "
            << acc << "\n";

  std::error_code ec;
  std::filesystem::create_directories(cache_dir(), ec);
  if (std::ofstream out{path, std::ios::binary}; out) {
    extractor->save(out);
  }
  return extractor;
}

EvalSet collect_and_embed(core::BiometricExtractor& extractor,
                          std::span<const vibration::PersonProfile> people,
                          const core::CollectionConfig& collection,
                          std::uint64_t session_seed) {
  Rng rng(session_seed);
  EvalSet eval;
  eval.data = core::collect_gradient_set(people, collection, rng);
  const auto t0 = std::chrono::steady_clock::now();
  eval.embeddings = core::embed_all(extractor, eval.data);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (secs > 0.0) {
    std::cout << "[bench] embedded " << eval.embeddings.size() << " arrays in "
              << static_cast<int>(secs * 1000.0) << " ms ("
              << static_cast<int>(static_cast<double>(eval.embeddings.size()) / secs)
              << " arrays/s, " << common::ThreadPool::global_thread_count() << " threads)\n";
  }
  return eval;
}

DistanceSamples pairwise_distances(const EvalSet& eval) {
  DistanceSamples out;
  const auto& emb = eval.embeddings;
  for (std::size_t i = 0; i < emb.size(); ++i) {
    for (std::size_t j = i + 1; j < emb.size(); ++j) {
      const double d = auth::cosine_distance(emb[i], emb[j]);
      (eval.data.labels[i] == eval.data.labels[j] ? out.genuine : out.impostor).push_back(d);
    }
  }
  return out;
}

std::vector<std::vector<float>> per_user_templates(const EvalSet& eval, std::size_t users) {
  MANDIPASS_EXPECTS(!eval.embeddings.empty());
  const std::size_t dim = eval.embeddings.front().size();
  std::vector<std::vector<float>> templates(users, std::vector<float>(dim, 0.0f));
  std::vector<std::size_t> counts(users, 0);
  for (std::size_t i = 0; i < eval.embeddings.size(); ++i) {
    const std::uint32_t u = eval.data.labels[i];
    MANDIPASS_EXPECTS(u < users);
    for (std::size_t j = 0; j < dim; ++j) {
      templates[u][j] += eval.embeddings[i][j];
    }
    ++counts[u];
  }
  for (std::size_t u = 0; u < users; ++u) {
    if (counts[u] == 0) {
      continue;
    }
    for (auto& v : templates[u]) {
      v /= static_cast<float>(counts[u]);
    }
  }
  return templates;
}

std::vector<double> distances_to_templates(const std::vector<std::vector<float>>& templates,
                                           const EvalSet& probes) {
  std::vector<double> out;
  out.reserve(probes.embeddings.size());
  for (std::size_t i = 0; i < probes.embeddings.size(); ++i) {
    const std::uint32_t u = probes.data.labels[i];
    MANDIPASS_EXPECTS(u < templates.size());
    out.push_back(auth::cosine_distance(templates[u], probes.embeddings[i]));
  }
  return out;
}

void print_banner(const std::string& experiment, const std::string& paper_claim) {
  const Scale s = active_scale();
  std::cout << "\n==============================================================\n"
            << " MandiPass reproduction — " << experiment << "\n"
            << " Paper: " << paper_claim << "\n"
            << " Scale: " << (s.quick ? "QUICK (set MANDIPASS_BENCH_QUICK=0 for full)" : "full")
            << "   Threads: " << common::ThreadPool::global_thread_count()
            << " (--threads N)\n"
            << "==============================================================\n";
}

}  // namespace mandipass::bench
