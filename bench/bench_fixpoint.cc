// Experiment A1 — the semi-naive fixpoint on recursive programs
// (DESIGN.md §3).
//
// The paper's engine (§2) runs "a fixpoint computation of its program"
// every stage; ours is semi-naive. This bench times one full fixpoint
// on recursive programs (transitive closure over a chain / a random
// graph, same-generation), where semi-naive evaluation scales roughly
// linearly in the output. The naive-fixpoint ablation that justified
// the choice is gone with its mode; its last numbers are the
// `_Naive` rows of BENCH_pr10.json (1.8x to 37x slower at the largest
// sizes). The multi-threaded variants went with the thread pools
// (DESIGN.md §8 has their last numbers).

#include <benchmark/benchmark.h>

#include "engine/engine.h"
#include "parser/parser.h"

namespace wdl {
namespace {

constexpr char kTcProgram[] =
    "collection ext edge@p(x: int, y: int);"
    "collection int tc@p(x: int, y: int);"
    "rule tc@p($x, $y) :- edge@p($x, $y);"
    "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);";

void LoadChain(Engine* e, int n) {
  for (int64_t i = 0; i < n; ++i) {
    benchmark::DoNotOptimize(
        e->InsertFact(Fact("edge", "p", {Value::Int(i), Value::Int(i + 1)})));
  }
}

/// Access-path telemetry for the bench JSON: future perf PRs can
/// attribute wins (index vs scan vs Δ-probe mix).
void ExportEvalCounters(benchmark::State& state, const EvalCounters& c) {
  state.counters["slot_bindings"] = static_cast<double>(c.slot_bindings);
  state.counters["index_lookups"] = static_cast<double>(c.index_lookups);
  state.counters["full_scans"] = static_cast<double>(c.full_scans);
  state.counters["delta_index_probes"] =
      static_cast<double>(c.delta_index_probes);
  state.counters["delta_scans"] = static_cast<double>(c.delta_scans);
}

void BM_TcChain_SemiNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine e("p");
    Program program = *ParseProgram(kTcProgram);
    (void)e.LoadProgram(program);
    LoadChain(&e, n);
    state.ResumeTiming();

    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r.stats.local_derivations);
    state.counters["derived"] = static_cast<double>(
        e.catalog().Get("tc")->size());
    state.counters["iterations"] = r.stats.iterations;
    state.counters["tuples_examined"] =
        static_cast<double>(r.stats.tuples_examined);
    ExportEvalCounters(state, e.eval_counters());
  }
}

BENCHMARK(BM_TcChain_SemiNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_TcGraph_SemiNaive(benchmark::State& state) {
  int nodes = static_cast<int>(state.range(0));
  int edges = nodes * 3;
  for (auto _ : state) {
    state.PauseTiming();
    Engine e("p");
    (void)e.LoadProgram(*ParseProgram(kTcProgram));
    uint64_t s = 42;
    for (int i = 0; i < edges; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t a = (s >> 33) % nodes;
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      int64_t b = (s >> 33) % nodes;
      (void)e.InsertFact(Fact("edge", "p", {Value::Int(a), Value::Int(b)}));
    }
    state.ResumeTiming();
    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r);
    state.counters["derived"] =
        static_cast<double>(e.catalog().Get("tc")->size());
    ExportEvalCounters(state, e.eval_counters());
  }
}

BENCHMARK(BM_TcGraph_SemiNaive)->Arg(32)->Arg(64)->Arg(128);

// Same-generation: a second recursion shape (bushier deltas).
void BM_SameGen_SemiNaive(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Engine e("p");
    (void)e.LoadProgram(*ParseProgram(
        "collection ext par@p(c: int, d: int);"
        "collection int sg@p(x: int, y: int);"
        "rule sg@p($x, $x) :- par@p($x, $_);"
        "rule sg@p($x, $y) :- par@p($x, $xp), sg@p($xp, $yp), "
        "par@p($y, $yp);"));
    // Complete binary tree: par(child, parent).
    int id = 1;
    for (int level = 0; level < depth; ++level) {
      int level_start = 1 << level;
      for (int i = 0; i < (1 << level); ++i) {
        int parent = level_start + i;
        (void)e.InsertFact(Fact(
            "par", "p", {Value::Int(2 * parent), Value::Int(parent)}));
        (void)e.InsertFact(Fact(
            "par", "p", {Value::Int(2 * parent + 1), Value::Int(parent)}));
        id += 2;
      }
    }
    benchmark::DoNotOptimize(id);
    state.ResumeTiming();
    StageResult r = e.RunStage();
    benchmark::DoNotOptimize(r);
    state.counters["derived"] =
        static_cast<double>(e.catalog().Get("sg")->size());
    ExportEvalCounters(state, e.eval_counters());
  }
}

BENCHMARK(BM_SameGen_SemiNaive)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
