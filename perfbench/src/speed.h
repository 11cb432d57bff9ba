// Host-speed normalisation of the benchmark's time metrics.
//
// The benchmark runs on a few cores of a shared host whose speed drifts
// over seconds to minutes (frequency and neighbours' load: no time is
// stolen, the same instructions simply take longer). A raw time then says
// more about the host than about the program. So the timed loops run a
// short, fixed piece of the benchmark's own arithmetic, the reference
// probe, before each call and after the last one, and every reported time
// is scaled by (nominal probe time) / (mean of the probes just before and
// just after the call): the time the call takes on a host where the probe
// takes its nominal time. The host changes speed abruptly, so the probes
// next to the call track it better than any smoothed estimate. The
// probe calls no library code, so no change to the program under test
// moves it. Calls and probes are timed in thread CPU time, which also
// leaves out time the thread spent preempted. The raw wall times are
// printed on stderr.
//
// The host's slow spells do not slow all work alike: scalar
// transcendental maths (Box-Muller draws, as in a Gaussian matrix build)
// slows the most, strided copies through L2 (as in a packed GEMM) much
// less. So each workload probes with the mix of the two that its calls
// are made of (ProbeMix).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// What one reference probe runs: `draw_rounds` rounds of 1024 Gaussian
/// draws and FMA passes over an L1 buffer, `copies` strided transposing
/// copies of a 128 x 64 float block through L2, and `chases` walks of 256
/// dependent loads through an 8 MiB random cycle (cache- and
/// memory-latency bound, as hash-map updates on a large store are).
struct ProbeMix {
  std::size_t draw_rounds = 0;
  std::size_t copies = 0;
  std::size_t chases = 0;
};

/// Nominal thread CPU time of one draw round, one copy and one chase:
/// about their medians on the 4-core Xeon VM the bounds in BENCHMARK.json
/// were set on, so scaled times read close to raw ones there.
inline constexpr double kDrawRoundNs = 110'000.0;
inline constexpr double kCopyNs = 42'000.0;
inline constexpr double kChaseNs = 80'000.0;

/// CPU time of the calling thread, in nanoseconds. The timed loops run
/// every call on the client thread and time it with this clock, so time
/// the thread spends descheduled (other processes on the same cores) is
/// not counted.
double thread_cpu_ns();

/// Runs one reference probe; returns the thread CPU time it took, in
/// nanoseconds.
double reference_probe_ns(const ProbeMix& mix);

/// The mix's nominal time over the median of `probe_ns`.
double speed_scale(const ProbeMix& mix, const std::vector<double>& probe_ns);

/// Per-call scale factors from the probes run before each of n calls and
/// after the last (n + 1 probes): the mix's nominal time over the mean of
/// the two probes around each call.
std::vector<double> speed_scales(const ProbeMix& mix, const std::vector<double>& probe_ns);

}  // namespace perfbench
