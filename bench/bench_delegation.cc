// Experiment A2 — the cost of delegation (DESIGN.md §3).
//
// Delegation is the paper's headline feature: rules are installed at
// remote peers at run time. This bench quantifies
//   (a) delegation fan-out: one rule whose prefix has N bindings
//       installs N residual rules at the target, measured end to end;
//   (b) steady-state evaluation: once installed, delegated rules cost
//       the same as locally authored rules (the paper's design intent —
//       delegation is a setup cost, not a per-stage tax);
//   (c) churn: flipping the prefix on and off installs and retracts
//       delegations every stage;
//   (d) a rule-set change at a hub: one residual installed and then
//       retracted next to N others.
//
// Expected shape: (a) grows linearly in N; (b) delegated ≈ local;
// (c) two messages (install + retract) per flip, constant per cycle;
// (d) flat in N.

#include <benchmark/benchmark.h>

#include "parser/parser.h"
#include "runtime/system.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& v) { return Value::String(v); }

// (a) N prefix bindings -> N residual rules at the target.
void BM_DelegationFanout(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    System system;
    Peer* origin = system.CreatePeer("origin");
    Peer* target = system.CreatePeer("target");
    target->gate().TrustPeer("origin");
    origin->gate().TrustPeer("target");
    (void)origin->LoadProgramText(
        "collection ext keys@origin(k: int);"
        "collection int got@origin(k: int, v: int);"
        "rule got@origin($k, $v) :- keys@origin($k), "
        "store@target($k, $v);");
    (void)target->LoadProgramText("collection ext store@target(k: int, "
                                  "v: int);");
    for (int64_t i = 0; i < n; ++i) {
      (void)origin->Insert(Fact("keys", "origin", {I(i)}));
      (void)target->Insert(Fact("store", "target", {I(i), I(i * 10)}));
    }
    state.ResumeTiming();

    benchmark::DoNotOptimize(system.RunUntilQuiescent(10000));
    state.counters["delegated_rules"] = static_cast<double>(
        target->engine().rules().size());
    state.counters["rounds"] = system.rounds_run();
  }
}
BENCHMARK(BM_DelegationFanout)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// (b) Delegated versus locally authored rule at steady state: cost of
// one stage that re-derives the same view.
void SteadyState(benchmark::State& state, bool delegated) {
  int facts = static_cast<int>(state.range(0));
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  a->gate().TrustPeer("b");
  b->gate().TrustPeer("a");
  (void)b->LoadProgramText("collection ext data@b(x: int);");
  for (int64_t i = 0; i < facts; ++i) {
    (void)b->Insert(Fact("data", "b", {I(i)}));
  }
  if (delegated) {
    // a's rule reads b's data: the residual installs at b.
    (void)a->LoadProgramText(
        "collection ext who@a(p: string);"
        "collection int view@a(x: int);"
        "fact who@a(\"b\");"
        "rule view@a($x) :- who@a($p), data@$p($x);");
  } else {
    // The same dataflow authored directly at b.
    (void)b->AddRuleText("view@a($x) :- data@b($x)");
  }
  (void)system.RunUntilQuiescent(10000);

  for (auto _ : state) {
    // Force one full stage at b (the evaluating peer either way).
    StageResult r = b->engine().RunStage();
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = facts;
}

void BM_SteadyState_DelegatedRule(benchmark::State& state) {
  SteadyState(state, true);
}
void BM_SteadyState_LocalRule(benchmark::State& state) {
  SteadyState(state, false);
}
BENCHMARK(BM_SteadyState_DelegatedRule)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SteadyState_LocalRule)->Arg(100)->Arg(1000)->Arg(10000);

// (c) Churn: select/deselect flips delegations on and off.
void BM_DelegationChurn(benchmark::State& state) {
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  a->gate().TrustPeer("b");
  b->gate().TrustPeer("a");
  (void)a->LoadProgramText(
      "collection ext sel@a(p: string);"
      "collection int view@a(x: int);"
      "rule view@a($x) :- sel@a($p), data@$p($x);");
  (void)b->LoadProgramText(
      "collection ext data@b(x: int); fact data@b(1);");
  (void)system.RunUntilQuiescent(10000);

  Fact selection("sel", "a", {S("b")});
  for (auto _ : state) {
    (void)a->Insert(selection);
    benchmark::DoNotOptimize(system.RunUntilQuiescent(10000));
    (void)a->Remove(selection);
    benchmark::DoNotOptimize(system.RunUntilQuiescent(10000));
  }
  state.counters["msgs_per_cycle"] = benchmark::Counter(
      static_cast<double>(system.network().stats().messages_submitted),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DelegationChurn);

// (d) The social workload's follow and unfollow at a hub: the hub holds
// N residuals `feed@fI($id, "hub") :- post@hub($id)` over 20 posts, one
// per follower, and each iteration installs one more residual and
// retracts it again. A change evaluates the one residual it touches:
// `tuples_examined` per change stays at the 20 posts at every N.
void BM_RuleSetChange(benchmark::State& state) {
  const int residuals = static_cast<int>(state.range(0));
  Engine hub("hub");
  std::string posts = "collection ext post@hub(id: int);";
  for (int id = 0; id < 20; ++id) {
    posts += " fact post@hub(" + std::to_string(id) + ");";
  }
  (void)hub.LoadProgram(*ParseProgram(posts));
  auto residual = [](int follower) {
    const std::string name = "f" + std::to_string(follower);
    Delegation d;
    d.origin_peer = name;
    d.target_peer = "hub";
    d.rule = *ParseRule("feed@" + name + "($id, \"hub\") :- post@hub($id)");
    return d;
  };
  for (int i = 0; i < residuals; ++i) {
    (void)hub.InstallDelegatedRule(residual(i));
  }
  while (hub.HasPendingWork()) (void)hub.RunStage();

  const Delegation extra = residual(residuals);
  const EvalCounters& ec = hub.eval_counters();
  const uint64_t examined_before = ec.tuples_examined;
  const uint64_t full_before = ec.stages_full;
  for (auto _ : state) {
    (void)hub.InstallDelegatedRule(extra);
    while (hub.HasPendingWork()) benchmark::DoNotOptimize(hub.RunStage());
    hub.RetractDelegatedRule(extra.Key());
    while (hub.HasPendingWork()) benchmark::DoNotOptimize(hub.RunStage());
  }
  const double changes = 2.0 * static_cast<double>(state.iterations());
  state.counters["tuples_examined"] =
      static_cast<double>(ec.tuples_examined - examined_before) / changes;
  state.counters["stages_full"] =
      static_cast<double>(ec.stages_full - full_before);
}
BENCHMARK(BM_RuleSetChange)->Arg(100)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
