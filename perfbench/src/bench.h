// Shared declarations of the repository benchmark binary: run options,
// the metric sink that prints the result line, and the workload entry
// points. See perfbench/README.md for what each workload measures.
#ifndef WDL_PERFBENCH_BENCH_H_
#define WDL_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wdl::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Few ops at tiny sizes: the self-test mode.
  bool smoke = false;
  /// Corrupts one element of the expected final state before the
  /// correctness check, which must then report a mismatch.
  bool corrupt_expectation = false;
  std::string peerd_path;  // wdl_peerd binary (wepic_tcp)
  std::string work_dir;    // scratch root for daemon dirs and traces
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to main(), which prints it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string error;  // non-empty: why `correct` is false

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (error.empty()) error = why;
  }
};

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

RunResult RunWepicTcp(const RunOptions& options);
RunResult RunSocialChurn(const RunOptions& options);

}  // namespace wdl::bench

#endif  // WDL_PERFBENCH_BENCH_H_
