// Shared types of the benchmark workloads.
//
// Each workload builds its state from the seed (setup, repeated by
// more_setups so setup_s is a median), then drives the library
// from one client thread for --seconds, checking every answer. Every
// end-to-end time is reported in reference-host time (speed.h). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it splits
// the time between an untraced and a traced phase and reports the
// per-layer metrics from spans the benchmark records around its own
// calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "speed.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kSetupRepeats = 3;
/// Setup repeats past kSetupRepeats until this much time is spent, so a
/// setup of a fraction of a second still gets a median of many samples.
inline constexpr double kSetupMinSeconds = 3.0;
/// Lanes of the global thread pool while a timed loop runs: one, so every
/// call runs inline on the client thread and its thread CPU time is its
/// whole cost. The host's cores are shared; more lanes would time the
/// scheduler.
inline constexpr std::size_t kLoopLanes = 1;
/// Lanes for setup and the untimed checks, which only need to finish.
inline constexpr std::size_t kSetupLanes = 4;
/// Untimed (but checked) calls before the timed loop, so lazy plan
/// compiles and first-touch page faults stay out of the samples.
inline constexpr double kWarmupSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;        ///< where the traced run writes its spans
  Clock::time_point process_start;
};

/// True while another setup should run, given the setup times so far: at
/// least kSetupRepeats of them and kSetupMinSeconds in all. A traced run
/// sets up once.
inline bool more_setups(const Options& options, const std::vector<double>& setup_s) {
  if (options.trace) {
    return setup_s.empty();
  }
  double total = 0.0;
  for (const double s : setup_s) {
    total += s;
  }
  return setup_s.size() < kSetupRepeats || total < kSetupMinSeconds;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = true;
  OutcomeTally outcomes;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

/// Nanoseconds between two steady-clock points, as a double.
inline double elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Wall time and client-thread CPU time of one timed call.
struct CallTime {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
};

/// Starts both clocks on construction; stop() reads them.
class CallTimer {
 public:
  CallTimer() : wall0_(Clock::now()), cpu0_(thread_cpu_ns()) {}
  CallTime stop() const {
    const double cpu = thread_cpu_ns() - cpu0_;
    return {elapsed_ns(wall0_, Clock::now()), cpu};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

inline double elapsed_s(Clock::time_point a, Clock::time_point b) { return elapsed_ns(a, b) / 1e9; }

/// Nanosecond samples converted to microseconds.
inline std::vector<double> to_us(const std::vector<double>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const double v : ns) {
    out.push_back(v / 1e3);
  }
  return out;
}

/// The stderr note that goes with a reported p99: sample count, and
/// whether at least ten samples lie beyond it.
inline std::string p99_note(std::size_t n) {
  return std::to_string(n) + " calls, " + std::to_string(samples_beyond(n, 0.99)) +
         " beyond p99" + (percentile_supported(n, 0.99) ? "" : " (fewer than 10: p99 unsupported)");
}

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Minor page faults of this process so far (getrusage).
std::uint64_t minor_faults();

/// Resizes the global thread pool to `lanes`, at most the hardware's.
/// Call only between parallel regions.
void set_pool_lanes(std::size_t lanes);

/// Host-speed scale for a setup (speed.h). Setup runs on every lane of
/// the global pool, whose cores the host slows independently, so a few
/// probes run on each lane and the scale comes from all of them. Call
/// right before and right after a setup and use the mean.
double setup_scale();

Report run_device_paper(const Options& options);
Report run_service_epochs(const Options& options);
Report run_service_peruser(const Options& options);

}  // namespace perfbench
