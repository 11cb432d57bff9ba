#include "speed.h"

#include <time.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "stats.h"

namespace perfbench {
namespace {

// Keeps the probe's results observable so the compiler cannot drop them.
volatile double g_sink = 0.0;

double clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Core-bound work: Box-Muller draws on a xorshift stream, then float
/// multiply-adds over the 16 KiB buffer they filled.
double draw_round() {
  constexpr std::size_t kDraws = 1024;
  constexpr std::size_t kPasses = 16;
  std::array<float, 4096> buf{};
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < kDraws; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u1 = (static_cast<double>(x >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    buf[(2 * i) % buf.size()] = static_cast<float>(r * std::cos(6.283185307179586 * u2));
    buf[(2 * i + 1) % buf.size()] = static_cast<float>(r * std::sin(6.283185307179586 * u2));
  }
  float acc = 0.0f;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      acc += buf[i] * buf[(i + p) % buf.size()];
    }
  }
  return static_cast<double>(acc);
}

/// L2-bound work: a transposing copy of a 128 x 64 block between two
/// 256 KiB buffers (64 KiB read, 64 KiB written at a 1 KiB stride). The
/// buffers are per thread: setup_scale probes on every lane at once.
double copy_block() {
  constexpr std::size_t kStride = 256;  // floats per buffer row
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kCols = 64;
  thread_local std::vector<float> from(kStride * kStride, 1.0f);
  thread_local std::vector<float> to(kStride * kStride, 0.0f);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      to[j * kStride + i] = from[i * kStride + j] + 1.0f;
    }
  }
  return static_cast<double>(to[kStride + 1]);
}

/// Latency-bound work: 256 dependent loads along a random cycle through
/// an 8 MiB table (shared, read-only), continuing where the calling
/// thread's previous chase stopped.
double chase() {
  constexpr std::size_t kSlots = (8u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kSteps = 256;
  static const std::vector<std::uint32_t> next = [] {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<std::uint32_t> v(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      v[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  thread_local std::uint32_t at = 0;
  for (std::size_t k = 0; k < kSteps; ++k) {
    at = next[at];
  }
  return static_cast<double>(at);
}

double nominal_ns(const ProbeMix& mix) {
  return static_cast<double>(mix.draw_rounds) * kDrawRoundNs +
         static_cast<double>(mix.copies) * kCopyNs + static_cast<double>(mix.chases) * kChaseNs;
}

}  // namespace

double thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double reference_probe_ns(const ProbeMix& mix) {
  const double t0 = thread_cpu_ns();
  double sink = 0.0;
  for (std::size_t k = 0; k < mix.draw_rounds; ++k) {
    sink += draw_round();
  }
  for (std::size_t k = 0; k < mix.copies; ++k) {
    sink += copy_block();
  }
  for (std::size_t k = 0; k < mix.chases; ++k) {
    sink += chase();
  }
  const double t1 = thread_cpu_ns();
  g_sink = g_sink + sink;
  return t1 - t0;
}

double speed_scale(const ProbeMix& mix, const std::vector<double>& probe_ns) {
  return safe_ratio(nominal_ns(mix), median(probe_ns));
}

std::vector<double> speed_scales(const ProbeMix& mix, const std::vector<double>& probe_ns) {
  std::vector<double> scales = adjacent_means(probe_ns);
  for (double& s : scales) {
    s = safe_ratio(nominal_ns(mix), s);
  }
  return scales;
}

}  // namespace perfbench
