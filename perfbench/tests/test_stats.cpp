// Tests of the benchmark's own arithmetic (src/stats.h): the percentile
// rule, the probe means behind host-speed scaling, span self time, the
// ratio bases and failed_ratio counting.
//
// Build and run: python3 perfbench/run.py --selftest
// (or ctest in the benchmark's build directory).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // descending: percentile must sort
  }
  return v;
}

void test_percentile_rule() {
  using namespace perfbench;
  // 1000 samples: p99 is the 990th smallest, with exactly ten beyond it.
  check(nearest_rank(1000, 0.99) == 990, "rank of p99 in 1000");
  check(samples_beyond(1000, 0.99) == 10, "ten samples beyond p99 of 1000");
  check(percentile_supported(1000, 0.99), "p99 supported at 1000 samples");
  check(!percentile_supported(999, 0.99), "p99 unsupported at 999 samples");
  check(samples_beyond(999, 0.99) == 9, "nine beyond p99 of 999");
  check(near(percentile(one_to(1000), 0.99), 990.0), "p99 of 1..1000 is 990");
  check(near(percentile(one_to(1000), 0.5), 500.0), "median of 1..1000 is 500");
  check(near(percentile(one_to(5), 0.5), 3.0), "median of 1..5 is 3");
  check(near(median(one_to(4)), 2.0), "even-count median is the lower middle");
  check(near(percentile(one_to(7), 1.0), 7.0), "p100 is the maximum");
  check(near(percentile(one_to(7), 0.0001), 1.0), "a tiny quantile is the minimum");
  check(near(percentile({}, 0.5), 0.0), "empty sample reads 0");
  // Exact order statistics, not bucket edges: sub-microsecond values
  // survive unchanged.
  check(near(percentile({0.25, 0.75, 0.5}, 0.5), 0.5), "sub-us median exact");
}

void test_adjacent_means() {
  using perfbench::adjacent_means;
  // Probes before call 0, between calls 0 and 1, and after call 1.
  const auto m = adjacent_means({10, 20, 40});
  check(m.size() == 2, "one estimate per call between two probes");
  check(near(m[0], 15.0) && near(m[1], 30.0), "mean of the probes around each call");
  check(adjacent_means({7}).empty() && adjacent_means({}).empty(),
        "fewer than two probes, no estimates");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70); the grandchild [12,18) belongs to the first child only.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},      {"a.x", 12, 18, 1, 1},
  };
  const auto self = perfbench::self_times(spans);
  check(self[0] == 100 - 40 - 10, "root self = 100 - union(10..50) - (60..70)");
  check(self[1] == 20 - 6, "child self excludes its grandchild");
  check(self[2] == 30, "leaf self is its duration");
  check(self[4] == 6, "grandchild self");
  // A child running past its parent is clipped to the parent.
  std::vector<Span> clipped = {{"p", 0, 10, -1, 2}, {"q", 5, 20, 0, 2}};
  check(perfbench::self_times(clipped)[0] == 5, "child clipped to parent");
}

void test_ratio_bases() {
  using namespace perfbench;
  check(near(safe_ratio(1.0, 0.0), 0.0), "empty base reads 0");
  check(near(hit_ratio(3, 1), 0.75), "hit ratio base is hits + misses");
  check(near(hit_ratio(0, 0), 0.0), "hit ratio with no lookups");
  check(near(coalesce_ratio(6, 2), 0.75), "coalesce base is coalesced + singletons");
  // 5 groups of which 2 singletons: 3 multi-request groups carry 9.
  check(near(coalesced_group_size(9, 5, 2), 3.0), "group size over multi-request groups");
  check(near(coalesced_group_size(0, 4, 4), 0.0), "only singletons: size 0");
  check(near(skew({1.0, 1.0, 4.0}), 2.0), "skew = slowest over mean");
  check(near(skew({}), 0.0), "skew of nothing");
}

void test_failed_ratio() {
  perfbench::OutcomeTally t;
  for (int i = 0; i < 6; ++i) {
    t.decided();
  }
  t.no_decision("capture_reject.onset_not_found");
  t.no_decision("capture_reject.onset_not_found");
  t.no_decision("shed");
  t.wrong();
  check(t.attempted() == 10, "attempted counts every outcome");
  check(t.no_decision_count() == 3, "three without a decision");
  check(near(t.failed_ratio(), 0.3), "failed_ratio = no-decision / attempted");
  check(near(t.decided_pct(), 70.0), "wrong answers still carry a decision");
  check(t.count_with_prefix("capture_reject.") == 2, "capture rejects by prefix");
  check(t.reasons().at("shed") == 1, "breakdown by reason");
  perfbench::OutcomeTally empty;
  check(near(empty.failed_ratio(), 0.0) && empty.attempted() == 0, "empty tally");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_adjacent_means();
  test_self_time();
  test_ratio_bases();
  test_failed_ratio();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
