#include "trace.h"

#include <fstream>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

std::int32_t Tracer::open(const char* name, std::int32_t parent, std::uint64_t request) {
  if (!enabled_) {
    return -1;
  }
  const std::int64_t t = now_ns();
  return record(name, t, t, parent, request);
}

std::int32_t Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                            std::int32_t parent, std::uint64_t request) {
  if (!enabled_) {
    return -1;
  }
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t index) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<std::int64_t> self = self_times(spans_);
  struct Summary {
    std::vector<double> total_us;
    std::vector<double> self_us;
  };
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"self_ns\":" << self[i] << "}\n";
    Summary& sum = by_name[s.name];
    sum.total_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    sum.self_us.push_back(static_cast<double>(self[i]) / 1e3);
  }
  for (const auto& [name, sum] : by_name) {
    double total = 0.0;
    double self_total = 0.0;
    for (const double v : sum.total_us) {
      total += v;
    }
    for (const double v : sum.self_us) {
      self_total += v;
    }
    out << "{\"summary\":\"" << name << "\",\"count\":" << sum.total_us.size()
        << ",\"total_us\":" << total << ",\"median_us\":" << median(sum.total_us)
        << ",\"self_total_us\":" << self_total << ",\"self_median_us\":" << median(sum.self_us)
        << "}\n";
  }
  out << "{\"dropped_spans\":" << dropped_ << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
