#include "perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowUs() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Never below the median: with fewer than 21 samples the rule's
  // percentile would fall under p50.
  const size_t idx = std::max(n >= 11 ? n - 11 : 0, n / 2);
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) value = 0.0;
  entries_.push_back({name, value, unit});
  Print(name, value, unit, note);
}

void MetricSink::Print(const std::string& name, double value,
                       const std::string& unit, const std::string& note) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void MetricSink::PrintRecord(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", entries_[i].name.c_str(),
                entries_[i].value, entries_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
