#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double r = std::ceil(q * static_cast<double>(n));
  if (r < 1.0) {
    return 1;
  }
  return std::min(n, static_cast<std::size_t>(r));
}

std::size_t samples_beyond(std::size_t n, double q) { return n - nearest_rank(n, q); }

bool percentile_supported(std::size_t n, double q, std::size_t min_beyond) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::vector<double> adjacent_means(const std::vector<double>& samples) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    out.push_back((samples[i] + samples[i + 1]) / 2.0);
  }
  return out;
}

double safe_ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return safe_ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

double coalesce_ratio(std::uint64_t coalesced, std::uint64_t singletons) {
  return safe_ratio(static_cast<double>(coalesced), static_cast<double>(coalesced + singletons));
}

double coalesced_group_size(std::uint64_t coalesced, std::uint64_t groups,
                            std::uint64_t singletons) {
  const std::uint64_t multi = groups > singletons ? groups - singletons : 0;
  return safe_ratio(static_cast<double>(coalesced), static_cast<double>(multi));
}

double skew(const std::vector<double>& parts) {
  if (parts.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double worst = parts.front();
  for (const double p : parts) {
    sum += p;
    worst = std::max(worst, p);
  }
  return safe_ratio(worst, sum / static_cast<double>(parts.size()));
}

std::uint64_t OutcomeTally::no_decision_count() const {
  std::uint64_t n = 0;
  for (const auto& [reason, count] : reasons_) {
    n += count;
  }
  return n;
}

std::uint64_t OutcomeTally::attempted() const {
  return decided_ + wrong_ + no_decision_count();
}

double OutcomeTally::failed_ratio() const {
  return safe_ratio(static_cast<double>(no_decision_count()), static_cast<double>(attempted()));
}

double OutcomeTally::decided_pct() const {
  return 100.0 * safe_ratio(static_cast<double>(decided_ + wrong_),
                            static_cast<double>(attempted()));
}

std::uint64_t OutcomeTally::count_with_prefix(const std::string& prefix) const {
  std::uint64_t n = 0;
  for (const auto& [reason, count] : reasons_) {
    if (reason.rfind(prefix, 0) == 0) {
      n += count;
    }
  }
  return n;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
      }
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

}  // namespace perfbench
