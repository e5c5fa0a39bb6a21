// Experiment A6 — access-control overhead (DESIGN.md §3).
//
// Measures the delegation gate's screening cost on the trusted
// fast-path versus the pending queue, and the AccessPolicy's view-read
// check as provenance chains deepen.
//
// Expected shape: screening is O(1)-ish either way (set lookups);
// provenance-derived view checks grow linearly with chain depth, and
// declassification turns them O(1).

#include <benchmark/benchmark.h>

#include "acl/delegation_gate.h"
#include "acl/policy.h"
#include "base/string_util.h"
#include "parser/parser.h"

namespace wdl {
namespace {

Delegation MakeDelegation(int i) {
  Delegation d;
  d.origin_peer = "origin" + std::to_string(i % 16);
  d.target_peer = "me";
  d.rule = *ParseRule("out@origin" + std::to_string(i % 16) +
                      "($x) :- data@me($x, " + std::to_string(i) + ")");
  d.origin_rule_hash = d.rule.Hash();
  return d;
}

void BM_Gate_TrustedFastPath(benchmark::State& state) {
  DelegationGate gate;
  for (int i = 0; i < 16; ++i) {
    gate.TrustPeer("origin" + std::to_string(i));
  }
  int i = 0;
  for (auto _ : state) {
    Delegation d = MakeDelegation(i++);
    benchmark::DoNotOptimize(gate.OnArrival(d));
  }
}
BENCHMARK(BM_Gate_TrustedFastPath);

void BM_Gate_PendingQueue(benchmark::State& state) {
  DelegationGate gate;
  int i = 0;
  for (auto _ : state) {
    Delegation d = MakeDelegation(i++);
    benchmark::DoNotOptimize(gate.OnArrival(d));
    // Keep the queue bounded so the bench measures screening, not an
    // ever-growing map.
    if (gate.pending_count() > 256) {
      (void)gate.Approve(gate.Pending().front()->Key());
    }
  }
}
BENCHMARK(BM_Gate_PendingQueue);

void BM_Gate_ApproveCycle(benchmark::State& state) {
  DelegationGate gate;
  int i = 0;
  for (auto _ : state) {
    Delegation d = MakeDelegation(i++);
    gate.OnArrival(d);
    Result<Delegation> approved = gate.Approve(d.Key());
    benchmark::DoNotOptimize(approved);
  }
}
BENCHMARK(BM_Gate_ApproveCycle);

void BM_Policy_ViewChainRead(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  AccessPolicy policy;
  (void)policy.RegisterRelation("base@a", "a");
  (void)policy.Grant("base@a", "a", "reader", Privilege::kRead);
  std::string prev = "base@a";
  for (int i = 0; i < depth; ++i) {
    std::string view = StrFormat("v%d@a", i);
    (void)policy.RegisterRelation(view, "a");
    (void)policy.RegisterView(view, {prev});
    prev = view;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.CheckRead(prev, "reader"));
  }
}
BENCHMARK(BM_Policy_ViewChainRead)->Arg(1)->Arg(8)->Arg(64);

void BM_Policy_DeclassifiedRead(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  AccessPolicy policy;
  (void)policy.RegisterRelation("base@a", "a");
  std::string prev = "base@a";
  for (int i = 0; i < depth; ++i) {
    std::string view = StrFormat("v%d@a", i);
    (void)policy.RegisterRelation(view, "a");
    (void)policy.RegisterView(view, {prev});
    prev = view;
  }
  // reader has NO base access, but the top view is declassified: the
  // check short-circuits on the explicit grant.
  (void)policy.Declassify(prev, "a", "reader");
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.CheckRead(prev, "reader"));
  }
}
BENCHMARK(BM_Policy_DeclassifiedRead)->Arg(1)->Arg(8)->Arg(64);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
