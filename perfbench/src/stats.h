// The benchmark's own arithmetic: exact order statistics over raw
// nanosecond samples, the ratio definitions the report uses, the
// per-reason outcome tally behind failed_ratio, and span self time.
//
// Everything here is pure and covered by tests/test_stats.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank position (1-based) of quantile q in n sorted samples:
/// ceil(q * n), clamped to [1, n]. Precondition: n > 0, 0 < q <= 1.
std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly beyond the nearest-rank q-quantile: n - rank.
std::size_t samples_beyond(std::size_t n, double q);

/// True when the q-quantile of n samples has at least `min_beyond`
/// samples above it (the rule for reporting a high percentile).
bool percentile_supported(std::size_t n, double q, std::size_t min_beyond = 10);

/// Exact nearest-rank q-quantile of `samples` (taken by value: the copy
/// is partially reordered). Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

/// Nearest-rank median (the lower middle for an even count).
inline double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// Means of neighbouring samples: out[i] = (samples[i] + samples[i + 1]) / 2,
/// one fewer than the input (empty for fewer than two samples). The host
/// speed during a call is taken as the mean of the probes run just
/// before and just after it (speed.h).
std::vector<double> adjacent_means(const std::vector<double>& samples);

/// num / den, or 0 when den is 0. Every ratio the report prints goes
/// through this so an empty base reads 0 instead of NaN.
double safe_ratio(double num, double den);

/// MatrixCache hit ratio over all lookups: hits / (hits + misses).
double hit_ratio(std::uint64_t hits, std::uint64_t misses);

/// Share of transformed requests that rode a group of two or more:
/// coalesced / (coalesced + singletons).
double coalesce_ratio(std::uint64_t coalesced, std::uint64_t singletons);

/// Mean size of the groups of two or more. `groups` counts every group,
/// singletons included (the auth.shard.coalesced_groups convention), so
/// the multi-request groups are groups - singletons.
double coalesced_group_size(std::uint64_t coalesced, std::uint64_t groups,
                            std::uint64_t singletons);

/// Slowest part over the mean part (>= 1; 0 for no parts).
double skew(const std::vector<double>& parts);

/// Counts operations by outcome. Every attempted operation ends in
/// exactly one of: a decision, a named no-decision reason (capture
/// reject, shed, expired, unknown-for-enrolled), or a wrong answer.
class OutcomeTally {
 public:
  void decided() { ++decided_; }
  void no_decision(const std::string& reason) { ++reasons_[reason]; }
  void wrong() { ++wrong_; }

  std::uint64_t attempted() const;
  std::uint64_t decided_count() const { return decided_; }
  std::uint64_t no_decision_count() const;
  std::uint64_t wrong_count() const { return wrong_; }
  /// Operations without a decision over operations attempted. A wrong
  /// answer carries a decision, so it is not counted here.
  double failed_ratio() const;
  /// 100 * decided / attempted.
  double decided_pct() const;
  /// Count of no-decision outcomes whose reason starts with `prefix`.
  std::uint64_t count_with_prefix(const std::string& prefix) const;
  const std::map<std::string, std::uint64_t>& reasons() const { return reasons_; }

 private:
  std::uint64_t decided_ = 0;
  std::uint64_t wrong_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent, so
/// overlapping or parallel children are not subtracted twice).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
