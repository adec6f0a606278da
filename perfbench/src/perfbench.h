// Shared helpers of the apujoin benchmark program: the clock, order
// statistics, and the metric sink that prints every metric by name with its
// unit and, as the last line of the run, one JSON record.

#ifndef APUJOIN_PERFBENCH_PERFBENCH_H_
#define APUJOIN_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process (the trace timebase).
double NowUs();

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// The highest percentile of a sample that has at least ten samples beyond
/// it, but never below the median (with fewer than 21 samples the median is
/// reported and `beyond` says how many samples lie above it).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Collects the metrics of one run, prints each as it is added, and emits
/// the final JSON record.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Prints a metric line without recording it: for figures a user reads
  /// but the benchmark does not gate (see BENCHMARK.json).
  static void Print(const std::string& name, double value,
                    const std::string& unit, const std::string& note = "");
  /// Prints the one-line JSON record the benchmark contract asks for.
  void PrintRecord(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // APUJOIN_PERFBENCH_PERFBENCH_H_
