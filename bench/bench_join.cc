// Experiment A4 — join strategy ablation (DESIGN.md §3).
//
// The evaluator picks, per body atom, the first argument position with
// a constant or bound variable and probes a lazily built hash index;
// with indexes disabled it scans. This bench measures both paths on a
// two-atom join of growing size, plus the sensitivity of left-to-right
// evaluation to body-atom order (the paper: "the order matters").
//
// Expected shape: indexed join ~O(output), scan join ~O(n^2); the
// selective-first body order beats the unselective-first order.

#include <benchmark/benchmark.h>

#include "engine/eval.h"
#include "engine/plan_cache.h"
#include "parser/parser.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }

// edge(x,y) x edge(y,z) over a chain of length n.
void JoinBench(benchmark::State& state, bool use_indexes) {
  int n = static_cast<int>(state.range(0));
  Catalog catalog("p");
  for (int64_t i = 0; i < n; ++i) {
    (void)catalog.InsertFact(Fact("edge", "p", {I(i), I(i + 1)}));
  }
  const ConcreteRule rule =
      BindRule(*ParseRule("h@p($x, $z) :- edge@p($x, $y), edge@p($y, $z)"));
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{use_indexes});

  for (auto _ : state) {
    size_t results = 0;
    RuleEvaluator::Sinks sinks;
    sinks.on_local_fact = [&](const Fact&) { ++results; };
    evaluator.Evaluate(rule, nullptr, -1, sinks);
    benchmark::DoNotOptimize(results);
    state.counters["results"] = static_cast<double>(results);
  }
  const EvalCounters& c = evaluator.counters();
  state.counters["tuples_examined"] = benchmark::Counter(
      static_cast<double>(c.tuples_examined),
      benchmark::Counter::kAvgIterations);
  state.counters["slot_bindings"] = benchmark::Counter(
      static_cast<double>(c.slot_bindings),
      benchmark::Counter::kAvgIterations);
  state.counters["index_lookups"] = benchmark::Counter(
      static_cast<double>(c.index_lookups),
      benchmark::Counter::kAvgIterations);
  state.counters["full_scans"] = benchmark::Counter(
      static_cast<double>(c.full_scans),
      benchmark::Counter::kAvgIterations);
}

void BM_Join_Indexed(benchmark::State& state) { JoinBench(state, true); }
void BM_Join_Scan(benchmark::State& state) { JoinBench(state, false); }
BENCHMARK(BM_Join_Indexed)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Join_Scan)->Arg(100)->Arg(1000)->Arg(10000);

// Left-to-right order sensitivity: selective atom first vs last.
// sel(x) has 1 tuple; big(x,y) has n.
void OrderBench(benchmark::State& state, bool selective_first) {
  int n = static_cast<int>(state.range(0));
  Catalog catalog("p");
  (void)catalog.InsertFact(Fact("sel", "p", {I(n / 2)}));
  for (int64_t i = 0; i < n; ++i) {
    (void)catalog.InsertFact(Fact("big", "p", {I(i), I(i * 7)}));
  }
  const ConcreteRule rule = BindRule(
      selective_first
          ? *ParseRule("h@p($y) :- sel@p($x), big@p($x, $y)")
          : *ParseRule("h@p($y) :- big@p($x, $y), sel@p($x)"));
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{true});

  for (auto _ : state) {
    size_t results = 0;
    RuleEvaluator::Sinks sinks;
    sinks.on_local_fact = [&](const Fact&) { ++results; };
    evaluator.Evaluate(rule, nullptr, -1, sinks);
    benchmark::DoNotOptimize(results);
  }
  state.counters["tuples_examined"] = benchmark::Counter(
      static_cast<double>(evaluator.counters().tuples_examined),
      benchmark::Counter::kAvgIterations);
}

void BM_Order_SelectiveFirst(benchmark::State& state) {
  OrderBench(state, true);
}
void BM_Order_SelectiveLast(benchmark::State& state) {
  OrderBench(state, false);
}
BENCHMARK(BM_Order_SelectiveFirst)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Order_SelectiveLast)->Arg(1000)->Arg(10000);

// Point lookup vs scan on a single relation (storage-level).
void BM_Storage_IndexedLookup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Relation rel(RelationDecl{
      "r", "p", RelationKind::kExtensional,
      {{"k", ValueKind::kInt}, {"v", ValueKind::kInt}}});
  for (int64_t i = 0; i < n; ++i) {
    (void)rel.Insert({I(i), I(i * 3)});
  }
  int64_t probe = 0;
  for (auto _ : state) {
    size_t hits = 0;
    rel.LookupEqual(0, I(probe++ % n), [&](const Tuple&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
void BM_Storage_ScanLookup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Relation rel(RelationDecl{
      "r", "p", RelationKind::kExtensional,
      {{"k", ValueKind::kInt}, {"v", ValueKind::kInt}}});
  for (int64_t i = 0; i < n; ++i) {
    (void)rel.Insert({I(i), I(i * 3)});
  }
  int64_t probe = 0;
  for (auto _ : state) {
    size_t hits = 0;
    rel.ScanEqual(0, I(probe++ % n), [&](const Tuple&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Storage_IndexedLookup)->Arg(1000)->Arg(100000);
BENCHMARK(BM_Storage_ScanLookup)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
