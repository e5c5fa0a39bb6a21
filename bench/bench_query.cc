// Experiment S4b — ad-hoc query cost (the §4 Query tab).
//
// Measures end-to-end ad-hoc queries: local single-relation scans,
// local joins, distributed queries whose body crosses to another peer
// (one delegation install + teardown per query), and bound point
// lookups against a recursive view (DESIGN.md §10).
//
// Expected shape: local queries are one evaluation over the peer's
// materialized views and scale with the rows they read; a distributed
// query adds a constant delegation round-trip (install + retract), so
// the local/distributed gap shrinks relatively as data grows. Bound
// point lookups probe the view's index and touch O(answers) tuples, so
// they stay flat as the view grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/query.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }

void Setup(System* system, int facts) {
  Peer* a = system->CreatePeer("a");
  Peer* b = system->CreatePeer("b");
  a->gate().TrustPeer("b");
  b->gate().TrustPeer("a");
  (void)a->LoadProgramText("collection ext data@a(k: int, v: int);");
  (void)b->LoadProgramText("collection ext data@b(k: int, v: int);");
  for (int64_t i = 0; i < facts; ++i) {
    (void)a->Insert(Fact("data", "a", {I(i), I(i * 2)}));
    (void)b->Insert(Fact("data", "b", {I(i), I(i * 3)}));
  }
  (void)system->RunUntilQuiescent(10000);
}

void BM_Query_LocalScan(benchmark::State& state) {
  System system;
  Setup(&system, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<QueryResult> r = RunQuery(&system, "a", "data@a($k, $v)");
    benchmark::DoNotOptimize(r);
    state.counters["rows"] =
        r.ok() ? static_cast<double>(r->rows.size()) : -1;
  }
}
BENCHMARK(BM_Query_LocalScan)->Arg(100)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_Query_LocalJoin(benchmark::State& state) {
  System system;
  Setup(&system, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<QueryResult> r =
        RunQuery(&system, "a", "data@a($k, $v), data@a($v, $w)");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Query_LocalJoin)->Arg(100)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_Query_Distributed(benchmark::State& state) {
  System system;
  Setup(&system, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<QueryResult> r =
        RunQuery(&system, "a", "data@a($k, $v), data@b($k, $w)");
    benchmark::DoNotOptimize(r);
    state.counters["rows"] =
        r.ok() ? static_cast<double>(r->rows.size()) : -1;
    state.counters["rounds"] = r.ok() ? r->rounds : -1;
  }
}
BENCHMARK(BM_Query_Distributed)->Arg(100)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// --- bound point lookups on a recursive view -------------------------
//
// Fixture: K disjoint chains of kChainLen edges each; the transitive
// closure `path` holds K * kChainLen*(kChainLen+1)/2 tuples. The arg
// is the target closure size (10k / 100k / 1M), built once per size.
// A local read installs nothing, so the system stays at its quiescent
// baseline between iterations.

constexpr int64_t kChainLen = 5;  // edges per chain -> 15 path tuples
constexpr int64_t kPathPerChain = kChainLen * (kChainLen + 1) / 2;

System* ChainFixture(int64_t path_tuples) {
  static auto* cache = new std::map<int64_t, std::unique_ptr<System>>();
  auto it = cache->find(path_tuples);
  if (it != cache->end()) return it->second.get();

  auto system = std::make_unique<System>();
  Peer* a = system->CreatePeer("a");
  (void)a->LoadProgramText(R"(
    collection ext edge@a(x: int, y: int);
    collection int path@a(x: int, y: int);
    rule path@a($x, $y) :- edge@a($x, $y);
    rule path@a($x, $z) :- edge@a($x, $y), path@a($y, $z);
  )");
  int64_t chains = path_tuples / kPathPerChain;
  for (int64_t c = 0; c < chains; ++c) {
    int64_t base = c * (kChainLen + 1);  // node ids disjoint per chain
    for (int64_t i = 0; i < kChainLen; ++i) {
      (void)a->Insert(Fact("edge", "a", {I(base + i), I(base + i + 1)}));
    }
  }
  (void)system->RunUntilQuiescent(100000);
  System* out = system.get();
  (*cache)[path_tuples] = std::move(system);
  return out;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p / 100.0 * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

void BM_Query_BoundPoint(benchmark::State& state) {
  System* system = ChainFixture(state.range(0));
  // Probe the head of a mid-fixture chain: 5 answers out of the whole
  // closure.
  int64_t chains = state.range(0) / kPathPerChain;
  std::string body =
      "path@a(" + std::to_string((chains / 2) * (kChainLen + 1)) + ", $y)";

  // One untimed warm-up query: the first lookup after fixture build
  // pays one-time per-column index construction over the whole view
  // (O(n)); steady-state serving latency is the metric.
  (void)RunQuery(system, "a", body);

  // Per-iteration wall times, for tail latency: Google Benchmark's
  // aggregate percentiles need --benchmark_repetitions, which reruns
  // the whole fixture; recording laps inside the loop gets p50/p95/p99
  // from a single run instead. bench_compare.py --latency reads them.
  std::vector<double> laps_ns;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    Result<QueryResult> r = RunQuery(system, "a", body);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r);
    laps_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    state.counters["rows"] =
        r.ok() ? static_cast<double>(r->rows.size()) : -1;
    state.counters["local_read"] = r.ok() && r->demand_path ? 1 : 0;
    state.counters["tuples_examined"] =
        r.ok() ? static_cast<double>(r->tuples_examined) : -1;
  }
  std::sort(laps_ns.begin(), laps_ns.end());
  state.counters["p50_ns"] = Percentile(laps_ns, 50);
  state.counters["p95_ns"] = Percentile(laps_ns, 95);
  state.counters["p99_ns"] = Percentile(laps_ns, 99);
}
BENCHMARK(BM_Query_BoundPoint)
    ->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

}  // namespace wdl

int main(int argc, char** argv) {
  // The 1M-tuple closure costs minutes of fixture build; keep it out
  // of routine smoke runs, in reach of the manual baseline job
  // (WDL_BENCH_BIG=1, same knob as bench_topology's footprint point).
  if (std::getenv("WDL_BENCH_BIG") != nullptr) {
    benchmark::RegisterBenchmark("BM_Query_BoundPoint",
                                 wdl::BM_Query_BoundPoint)
        ->Arg(1000000)->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
