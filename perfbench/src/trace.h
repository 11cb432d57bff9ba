// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a library
// layer (name, start, end, parent span, request id). Spans stay in memory
// while the workload runs and are written out once, at exit, as JSON
// lines followed by a per-name self-time summary. A disabled Tracer
// records nothing and costs one branch per call site.
//
// Single-threaded: only the benchmark's client thread records spans
// (now_ns() alone may be read from pool lanes).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  /// Spans kept in memory at most; later ones are counted as dropped.
  static constexpr std::size_t kMaxSpans = 4'000'000;

  explicit Tracer(bool enabled);

  /// Nanoseconds since the tracer was created (steady clock).
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span starting now; returns its index, or -1 when disabled
  /// or when the span budget is spent (counted in dropped()).
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t request);
  /// Closes span `index` now. Ignores -1.
  void close(std::int32_t index);
  /// Records an interval measured elsewhere (e.g. on a pool lane, with
  /// now_ns() of this tracer); returns its index or -1 like open().
  std::int32_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::int32_t parent, std::uint64_t request);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Writes every span as one JSON object per line, then one
  /// {"summary": name, ...} line per span name with its count, total and
  /// median duration, and total and median self time. False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t dropped_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes at close() or in the
/// destructor, whichever comes first. Measures its own duration even
/// when the tracer drops the span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent, std::uint64_t request)
      : tracer_(tracer), start_ns_(tracer.now_ns()), index_(tracer.open(name, parent, request)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (once) and returns its duration in microseconds.
  double close() {
    if (!closed_) {
      closed_ = true;
      tracer_.close(index_);
      duration_us_ = static_cast<double>(tracer_.now_ns() - start_ns_) / 1e3;
    }
    return duration_us_;
  }

  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t start_ns_;
  std::int32_t index_;
  bool closed_ = false;
  double duration_us_ = 0.0;
};

}  // namespace perfbench
