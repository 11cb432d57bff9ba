// MandiPass benchmark entry point.
//
//   perfbench --workload <device_paper|service_epochs|service_peruser>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Runs one workload in this process. Diagnostics go to stderr; the last
// line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with the
// library's own obs timers off; with --trace 1 they are the per-layer
// set, and the spans are written to --trace-out as JSON lines. The exit
// code is 1 when any answer was wrong, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common/obs.h"
#include "common/thread_pool.h"
#include "workload.h"

namespace perfbench {

void set_pool_lanes(std::size_t lanes) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  mandipass::common::ThreadPool::set_global_threads(std::min(hw, lanes));
}

double setup_scale() {
  // Setups are mostly Gaussian draws (matrix builds, session noise) and
  // float GEMMs, like the device calls.
  constexpr ProbeMix kMix{1, 1, 0};
  constexpr std::size_t kPerLane = 4;
  const std::size_t lanes = mandipass::common::ThreadPool::global_thread_count();
  std::vector<std::vector<double>> per_lane(lanes);
  mandipass::common::parallel_for(0, lanes, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t lane = lo; lane < hi; ++lane) {
      for (std::size_t k = 0; k < kPerLane; ++k) {
        per_lane[lane].push_back(reference_probe_ns(kMix));
      }
    }
  });
  std::vector<double> probes;
  for (const auto& p : per_lane) {
    probes.insert(probes.end(), p.begin(), p.end());
  }
  return speed_scale(kMix, probes);
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"core.preprocess_us", "us"},
    {"core.gradient_us", "us"},
    {"core.extract_us", "us"},
    {"core.facade_verify_us", "us"},
    {"core.facade_unattributed_us", "us"},
    {"core.capture_reject_ratio", "ratio"},
    {"auth.matrix_build_us", "us"},
    {"auth.matrix_cache.hit_ratio", "ratio"},
    {"auth.transform_us", "us"},
    {"auth.transform_batch_us_per_probe", "us"},
    {"auth.cosine_us", "us"},
    {"auth.coalesce_ratio", "ratio"},
    {"auth.coalesced_group_size", "requests"},
    {"auth.shard_verify_us", "us"},
    {"auth.shard_skew", "ratio"},
    {"auth.route_fanout_us", "us"},
    {"auth.resil.admission_us", "us"},
    {"auth.enroll_us", "us"},
    {"auth.revoke_us", "us"},
    {"auth.resil.shed_ratio", "ratio"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_us", "us"},
    {"trace.call_samples", "count"},
};

/// Adds every per-layer metric not yet in `report` with value 0, so each
/// traced run prints the full set (a layer the workload does not reach
/// reads 0).
void fill_absent_layers(Report& report) {
  for (const LayerMetric& m : kLayerMetrics) {
    const bool present = std::any_of(report.metrics.begin(), report.metrics.end(),
                                     [&](const Metric& x) { return x.name == m.name; });
    if (!present) {
      report.add(m.name, m.unit, 0.0);
    }
  }
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <device_paper|service_epochs|service_peruser>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Operations that ended without a correct decision for a reason the
/// service owns: wrong answers, plus every no-decision outcome except a
/// typed capture reject (the device asking the user to voice again).
std::uint64_t failed_operations(const OutcomeTally& t) {
  return t.wrong_count() + t.no_decision_count() - t.count_with_prefix("capture_reject.");
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.process_start = Clock::now();

  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("malformed argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "trace-out") {
      return usage("unknown option --" + key);
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      return usage(std::string("missing --") + required);
    }
  }
  options.workload = args["workload"];
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  if (!parse_u64(args["seed"], options.seed)) {
    return usage("--seed must be a whole number");
  }
  if (!parse_u64(args["seconds"], seconds) || seconds == 0 || seconds > 600) {
    return usage("--seconds must be a whole number in 1..600");
  }
  if (!parse_u64(args["trace"], trace) || trace > 1) {
    return usage("--trace must be 0 or 1");
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.trace_path = args.count("trace-out") != 0
                           ? args["trace-out"]
                           : "trace-" + options.workload + "-" + args["seed"] + ".jsonl";

  // One client thread drives the library. The workloads resize the
  // global pool to kLoopLanes around their timed loops.
  set_pool_lanes(kSetupLanes);
  // End-to-end runs keep the library's own obs timers off; counters stay
  // live either way. The traced run turns them on like a debug build would.
  mandipass::common::obs::set_enabled(options.trace);

  Report report;
  try {
    if (options.workload == "device_paper") {
      report = run_device_paper(options);
    } else if (options.workload == "service_epochs") {
      report = run_service_epochs(options);
    } else if (options.workload == "service_peruser") {
      report = run_service_peruser(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload aborted: " << e.what() << "\n";
    return 1;
  }
  if (options.trace) {
    fill_absent_layers(report);
  }

  const OutcomeTally& t = report.outcomes;
  report.correct = report.correct && t.wrong_count() == 0 && t.attempted() > 0;
  std::cerr << "[perfbench] " << options.workload << " seed " << options.seed << ": attempted "
            << t.attempted() << ", decided " << t.decided_count() << ", wrong "
            << t.wrong_count() << ", failed_ratio " << t.failed_ratio() << "\n";
  for (const auto& [reason, count] : t.reasons()) {
    std::cerr << "[perfbench]   no decision: " << reason << " x" << count << "\n";
  }
  for (const Metric& m : report.metrics) {
    std::cerr << "[perfbench]   " << m.name << " = " << m.value << " " << m.unit << "\n";
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted());
  json += ", \"failed\": " + std::to_string(failed_operations(t));
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return report.correct ? 0 : 1;
}
