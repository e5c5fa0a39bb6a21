// wdl_repo_bench: the repository benchmark binary (see README.md).
//
//   wdl_repo_bench --workload wepic_tcp|social_churn
//       --seed N --seconds S --trace 0|1 --peerd PATH --work-dir DIR
//       [--smoke] [--corrupt-expectation]
//
// Prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs print the end-to-end metrics, traced runs the
// per-layer ones. Diagnostics go to standard error.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/logging.h"
#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wdl_repo_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --peerd PATH --work-dir DIR [--smoke] "
               "[--corrupt-expectation]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wdl::bench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--corrupt-expectation") {
      options.corrupt_expectation = true;
    } else if (i + 1 >= argc) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--peerd") {
      options.peerd_path = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || !(options.seconds > 0)) return Usage();
  wdl::SetLogLevel(wdl::LogLevel::kError);
  // A reader that goes away must not kill the run before its teardown
  // stops the daemons and removes their directories.
  std::signal(SIGPIPE, SIG_IGN);

  RunResult result;
  if (options.workload == "wepic_tcp") {
    result = RunWepicTcp(options);
  } else if (options.workload == "social_churn") {
    result = RunSocialChurn(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(),
                 result.error.c_str());
  }

  // Metric names and units are plain identifiers (see report.cc), so
  // they need no JSON escaping.
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
