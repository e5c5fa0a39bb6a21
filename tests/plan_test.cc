#include "engine/plan.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/eval.h"
#include "engine/plan_cache.h"
#include "parser/parser.h"
#include "runtime/system.h"
#include "storage/tuple.h"

#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::I;
using test::R;
using test::S;

// --- Plan shape: slots, op sequences, compile-time access paths -------

// Plans are compiled per shape: constants in argument, head and peer
// positions are parameters, which take the first slots and are bound
// before the body runs.

TEST(CompileRuleTest, SlotsAreNumberedDenselyInFirstOccurrenceOrder) {
  RulePlan plan = CompileRule(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)"));
  // The peer p is parameter 0; the variables follow it.
  ASSERT_EQ(plan.num_params, 1u);
  ASSERT_EQ(plan.num_slots, 4u);
  EXPECT_EQ(plan.slot_vars, (std::vector<std::string>{"", "x", "y", "z"}));

  ASSERT_EQ(plan.atoms.size(), 2u);
  const PlanAtom& a0 = plan.atoms[0];
  EXPECT_EQ(a0.peer.slot, 0);
  ASSERT_EQ(a0.terms.size(), 2u);
  EXPECT_EQ(a0.terms[0].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a0.terms[0].slot, 1);
  EXPECT_EQ(a0.terms[1].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a0.terms[1].slot, 2);
  EXPECT_EQ(a0.bound_slots, (std::vector<uint16_t>{1, 2}));
  // No argument bound before the first atom: full scan.
  EXPECT_EQ(a0.index_column, -1);

  const PlanAtom& a1 = plan.atoms[1];
  EXPECT_EQ(a1.terms[0].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(a1.terms[0].slot, 2);
  EXPECT_EQ(a1.terms[1].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a1.terms[1].slot, 3);
  // $y is bound by atom 0, so column 0 drives an index probe.
  EXPECT_EQ(a1.index_column, 0);
  EXPECT_EQ(a1.index_slot, 2);

  ASSERT_EQ(plan.head.terms.size(), 2u);
  EXPECT_EQ(plan.head.terms[0].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(plan.head.terms[0].slot, 1);
  EXPECT_EQ(plan.head.terms[1].slot, 3);
  EXPECT_EQ(plan.head.peer.slot, 0);
  EXPECT_FALSE(plan.head.dead);
  EXPECT_TRUE(plan.head.relation.is_const);
  EXPECT_EQ(plan.head.relation.sym, Symbol::Intern("h"));
}

TEST(CompileRuleTest, ConstantArgumentDrivesIndexColumn) {
  RulePlan plan = CompileRule(R("h@p($x) :- e@p(3, $x)"));
  EXPECT_EQ(ShapeParams(R("h@p($x) :- e@p(3, $x)")),
            (std::vector<Value>{S("p"), I(3)}));
  const PlanAtom& a = plan.atoms[0];
  EXPECT_EQ(a.terms[0].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(a.index_column, 0);
  EXPECT_EQ(a.index_slot, 1);  // parameter 1: the constant 3
}

TEST(CompileRuleTest, ParametersTakeTheIndexTheirConstantsWould) {
  // Constants in argument, head and peer positions: the argument
  // parameter keys atom 0's probe, and the head's constant shares it.
  const Rule rule = R("h@q(7, $y) :- e@p($x, 7), f@p($x, $y)");
  EXPECT_EQ(ShapeParams(rule), (std::vector<Value>{S("p"), I(7), S("q")}));
  RulePlan plan = CompileRule(rule);
  ASSERT_EQ(plan.num_params, 3u);
  EXPECT_EQ(plan.atoms[0].index_column, 1);
  EXPECT_EQ(plan.atoms[0].index_slot, 1);
  EXPECT_EQ(plan.atoms[1].index_column, 0);  // $x, as before
  EXPECT_EQ(plan.head.peer.slot, 2);
  EXPECT_EQ(plan.head.terms[0].slot, 1);

  // Evaluated with each rule's own parameters, one plan probes exactly
  // the tuples its constant selects.
  Catalog catalog("p");
  for (int64_t i = 0; i < 10; ++i) {
    (void)catalog.InsertFact(Fact("e", "p", {I(i), I(i % 2 == 0 ? 7 : 8)}));
    (void)catalog.InsertFact(Fact("f", "p", {I(i), I(i * 10)}));
  }
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{});
  for (int64_t k : {7, 8}) {
    const std::string text = std::to_string(k);
    ConcreteRule bound =
        BindRule(R("h@q(" + text + ", $y) :- e@p($x, " + text +
                   "), f@p($x, $y)"));
    std::vector<Fact> out;
    RuleEvaluator::Sinks sinks;
    sinks.on_remote_fact = [&](const Fact& f) { out.push_back(f); };
    evaluator.ResetCounters();
    evaluator.Evaluate(bound, nullptr, -1, sinks);
    ASSERT_EQ(out.size(), 5u) << k;
    for (const Fact& f : out) {
      EXPECT_EQ(f.peer, "q");
      EXPECT_EQ(f.args[0], I(k));
    }
    // One probe of e for the constant, one of f per match; no scan.
    EXPECT_EQ(evaluator.counters().full_scans, 0u);
    EXPECT_EQ(evaluator.counters().index_lookups, 6u);
    EXPECT_EQ(evaluator.counters().tuples_examined, 10u);
  }
}

TEST(CompileRuleTest, RepeatedVariableWithinAtomChecksButCannotKey) {
  // $x's first occurrence is position 0 of this very atom: position 1
  // is a check, but the access path cannot use an in-atom binding.
  RulePlan plan = CompileRule(R("h@p($x) :- b@p($x, $x)"));
  const PlanAtom& a = plan.atoms[0];
  EXPECT_EQ(a.terms[0].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a.terms[1].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(a.index_column, -1);
}

TEST(CompileRuleTest, RelationAndPeerVariablesCompileToSlots) {
  RulePlan plan = CompileRule(R("h@p($x) :- names@p($r), $r@p($x)"));
  EXPECT_TRUE(plan.atoms[0].relation.is_const);
  EXPECT_FALSE(plan.atoms[1].relation.is_const);
  EXPECT_EQ(plan.slot_vars[plan.atoms[1].relation.slot], "r");
  // A constant peer is a parameter slot.
  EXPECT_FALSE(plan.atoms[1].peer.is_const);
  EXPECT_LT(plan.atoms[1].peer.slot, plan.num_params);
}

TEST(CompileRuleTest, NegatedAtomNeverBindsAndDetectsUnboundStatically) {
  RulePlan bound = CompileRule(R("h@p($x) :- all@p($x), not ban@p($x)"));
  EXPECT_TRUE(bound.atoms[1].negated);
  EXPECT_FALSE(bound.atoms[1].negated_unbound);
  EXPECT_TRUE(bound.atoms[1].bound_slots.empty());
  EXPECT_EQ(bound.atoms[1].terms[0].op, PlanTerm::Op::kCheck);

  // $y can never be bound: the negation is statically never ground.
  RulePlan unbound = CompileRule(R("h@p($x) :- all@p($x), not ban@p($y)"));
  EXPECT_TRUE(unbound.atoms[1].negated_unbound);
}

TEST(CompileRuleTest, UnboundHeadVariableMarksHeadDead) {
  RulePlan plan = CompileRule(R("h@p($q) :- b@p($x)"));
  EXPECT_TRUE(plan.head.dead);
  EXPECT_FALSE(CompileRule(R("h@p($x) :- b@p($x)")).head.dead);
}

TEST(CompileRuleTest, DebugStringDescribesSlotsAndAccessPath) {
  RulePlan plan = CompileRule(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)"));
  std::string s = plan.DebugString();
  EXPECT_NE(s.find("slots: 0=?0 1=$x 2=$y 3=$z"), std::string::npos) << s;
  EXPECT_NE(s.find("access=scan"), std::string::npos) << s;
  EXPECT_NE(s.find("access=index col 0 key=s2"), std::string::npos) << s;
}

// --- Plan cache -------------------------------------------------------

// Installed rules own their plans (DESIGN.md §4): each install
// acquires from the process-wide cache once, stages never consult it,
// and removing a rule releases its plans.

TEST(PlanCacheTest, CompilesOncePerRuleAndCountsHits) {
  SharedPlanCache& cache = SharedPlanCache::Instance();
  cache.ResetStatsForTesting();
  Engine engine("p");
  ASSERT_TRUE(engine.AddRule(R("h@p($x) :- b@p($x)")).ok());
  EXPECT_EQ(cache.stats().compiles, 1u);
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.InsertFact(Fact("b", "p", {I(i)})).ok());
    (void)engine.RunStage();
  }
  EXPECT_EQ(cache.stats().compiles, 1u);  // stages reuse the rule's plan
  EXPECT_EQ(cache.stats().hits, 0u);

  ASSERT_TRUE(engine.AddRule(R("h2@p($x) :- b@p($x)")).ok());
  EXPECT_EQ(cache.stats().compiles, 2u);
  ASSERT_TRUE(engine.AddRule(R("h@p($y) :- b@p($y)")).ok());  // α-variant
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, EvictedPlansRecompileAndDoNotAccumulate) {
  // Churning residuals (delegations come and go with their prefixes)
  // must not accumulate plans, natural or head-bound, for the engine's
  // lifetime.
  SharedPlanCache& cache = SharedPlanCache::Instance();
  cache.ResetStatsForTesting();
  const size_t live_before = cache.LiveCountForTesting();
  Engine engine("p");
  ASSERT_TRUE(engine.LoadProgram(test::P(R"(
    collection ext b@p(x: int);
    collection int v@p(x: int);
  )")).ok());
  const Fact b1("b", "p", {I(1)});
  for (int i = 0; i < 20; ++i) {
    Delegation d;
    d.origin_peer = "q";
    d.target_peer = "p";
    d.rule = R("v@p(" + std::to_string(i) + ") :- b@p($x)");
    ASSERT_TRUE(engine.InstallDelegatedRule(d).ok());
    ASSERT_TRUE(engine.InsertFact(b1).ok());
    test::Settle(&engine);
    // Retracting v(i) runs a DRed existence check: the head-bound plan.
    ASSERT_TRUE(engine.RemoveFact(b1).ok());
    test::Settle(&engine);
    EXPECT_EQ(cache.LiveCountForTesting(), live_before + 2);
    engine.RetractDelegatedRule(d.Key());
    test::Settle(&engine);
    EXPECT_EQ(cache.LiveCountForTesting(), live_before);
  }
  EXPECT_EQ(cache.stats().compiles, 40u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, EngineEvictsPlansForRemovedRules) {
  // One-off rules (ad-hoc queries, retracted delegations) must not
  // keep their plans alive: re-adding after removal recompiles instead
  // of hitting a stale entry.
  SharedPlanCache& cache = SharedPlanCache::Instance();
  cache.ResetStatsForTesting();
  const size_t live_before = cache.LiveCountForTesting();
  Engine engine("p");
  Rule rule = R("h@p($x) :- b@p($x)");
  Result<uint64_t> id = engine.AddRule(rule);
  ASSERT_TRUE(id.ok());
  (void)engine.RunStage();
  EXPECT_EQ(cache.LiveCountForTesting(), live_before + 1);
  ASSERT_TRUE(engine.RemoveRule(*id).ok());
  EXPECT_EQ(cache.LiveCountForTesting(), live_before);
  ASSERT_TRUE(engine.AddRule(rule).ok());
  (void)engine.RunStage();
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// A hub holds one residual per follower. They differ only in the
// follower's name, so they share one plan, but each derives its own
// facts: retracting one must retract exactly its contribution, whether
// it was installed before the last stage or since, and the siblings'
// contributions stay.
TEST(PlanCacheTest, ResidualsDifferingInConstantsShareOnePlan) {
  SharedPlanCache& cache = SharedPlanCache::Instance();
  cache.ResetStatsForTesting();
  Engine hub("hub");
  ASSERT_TRUE(hub.LoadProgram(test::P(R"(
    collection ext post@hub(id: int);
    fact post@hub(1);
    fact post@hub(2);
  )")).ok());
  auto residual = [](const std::string& follower) {
    Delegation d;
    d.origin_peer = follower;
    d.target_peer = "hub";
    d.rule = R("feed@" + follower + "($id, \"hub\") :- post@hub($id)");
    return d;
  };
  for (const char* f : {"f0", "f1", "f2", "f3"}) {
    ASSERT_TRUE(hub.InstallDelegatedRule(residual(f)).ok());
  }
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  for (const InstalledRule* ir : hub.rules()) {
    EXPECT_EQ(ir->plan.get(), hub.rules()[0]->plan.get());
  }
  StageResult first = hub.RunStage();
  ASSERT_EQ(first.outbound.size(), 4u);
  for (const auto& [peer, out] : first.outbound) {
    ASSERT_EQ(out.derived_deltas.size(), 1u) << peer;
    EXPECT_EQ(out.derived_deltas[0].inserts.size(), 2u) << peer;
  }

  hub.RetractDelegatedRule(residual("f2").Key());
  ASSERT_TRUE(hub.InstallDelegatedRule(residual("f4")).ok());
  hub.RetractDelegatedRule(residual("f4").Key());
  EXPECT_EQ(hub.rules().size(), 3u);
  StageResult second = hub.RunStage();
  ASSERT_EQ(second.outbound.size(), 1u);
  ASSERT_EQ(second.outbound["f2"].derived_deltas.size(), 1u);
  EXPECT_TRUE(second.outbound["f2"].derived_deltas[0].inserts.empty());
  EXPECT_EQ(second.outbound["f2"].derived_deltas[0].deletes,
            (std::vector<Tuple>{{I(1), S("hub")}, {I(2), S("hub")}}));

  // The siblings still contribute: a new post reaches exactly them.
  ASSERT_TRUE(hub.InsertFact(Fact("post", "hub", {I(3)})).ok());
  StageResult third = hub.RunStage();
  ASSERT_EQ(third.outbound.size(), 3u);
  for (const char* f : {"f0", "f1", "f3"}) {
    ASSERT_EQ(third.outbound[f].derived_deltas.size(), 1u) << f;
    EXPECT_EQ(third.outbound[f].derived_deltas[0].inserts,
              (std::vector<Tuple>{{I(3), S("hub")}}))
        << f;
  }
}

// α-variants of one rule stamp one hash, so their residuals ship under
// one key when they are spelled alike (ground ones always are); a rule
// that differs in a constant stamps its own. A removal retracts exactly
// the residuals no remaining rule emits.
TEST(PlanCacheTest, DelegationKeysFollowTheConcreteRule) {
  Engine a("a");
  ASSERT_TRUE(a.LoadProgram(test::P(R"(
    collection ext sel@a(x: string);
    fact sel@a("x");
  )")).ok());
  Result<uint64_t> one = a.AddRule(R("got@a($v, 1) :- sel@a($v), data@b($v)"));
  Result<uint64_t> twin =
      a.AddRule(R("got@a($w, 1) :- sel@a($w), data@b($w)"));
  Result<uint64_t> two = a.AddRule(R("got@a($v, 2) :- sel@a($v), data@b($v)"));
  ASSERT_TRUE(one.ok() && twin.ok() && two.ok());
  std::vector<const InstalledRule*> rules = a.rules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0]->plan.get(), rules[2]->plan.get());
  EXPECT_TRUE(rules[0]->SameAs(*rules[1]));
  EXPECT_FALSE(rules[0]->SameAs(*rules[2]));
  EXPECT_EQ(rules[0]->rule_hash, rules[1]->rule_hash);
  EXPECT_NE(rules[0]->rule_hash, rules[2]->rule_hash);

  StageResult r = a.RunStage();
  std::map<std::string, uint64_t> keys;
  for (const Delegation& d : r.outbound["b"].delegation_installs) {
    keys[d.rule.ToString()] = d.Key();
  }
  ASSERT_EQ(keys.size(), 2u);
  const uint64_t shared = keys.at("got@a(\"x\", 1) :- data@b(\"x\")");
  const uint64_t own = keys.at("got@a(\"x\", 2) :- data@b(\"x\")");

  ASSERT_TRUE(a.RemoveRule(*one).ok());  // the twin still emits it
  EXPECT_TRUE(a.RunStage().outbound.empty());
  ASSERT_TRUE(a.RemoveRule(*two).ok());
  r = a.RunStage();
  EXPECT_TRUE(r.outbound["b"].delegation_installs.empty());
  EXPECT_EQ(r.outbound["b"].delegation_retracts,
            (std::vector<uint64_t>{own}));
  ASSERT_TRUE(a.RemoveRule(*twin).ok());
  r = a.RunStage();
  EXPECT_EQ(r.outbound["b"].delegation_retracts,
            (std::vector<uint64_t>{shared}));
}

TEST(PlanCacheTest, AccessPathCountersAttributeTheWork) {
  Catalog catalog("p");
  for (int64_t i = 0; i < 10; ++i) {
    (void)catalog.InsertFact(Fact("e", "p", {I(i), I(i + 1)}));
  }
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{});
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [](const Fact&) {};
  evaluator.Evaluate(BindRule(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)")),
                     nullptr, -1, sinks);
  // Atom 0 scans once; atom 1 probes the index once per outer tuple.
  EXPECT_EQ(evaluator.counters().full_scans, 1u);
  EXPECT_EQ(evaluator.counters().index_lookups, 10u);
  EXPECT_GT(evaluator.counters().slot_bindings, 0u);
}

// --- Compiled plans against the reference evaluator -----------------

// Runs each peer's program on a fresh system to quiescence and expects
// the converged state to equal the reference evaluator's
// (support/reference_eval.h) — an independent AST interpreter sharing
// no code with the plan layer.
void ExpectPlansMatchReference(
    const std::map<std::string, std::string>& programs) {
  System system;
  test::ReferenceProgram reference;
  for (const auto& [peer, text] : programs) {
    PeerOptions options;
    options.trust_all_delegations = true;
    ASSERT_TRUE(system.CreatePeer(peer, options)->LoadProgramText(text).ok());
    ASSERT_TRUE(reference.Load(peer, text).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, reference);
}

TEST(PlanEquivalenceTest, TransitiveClosure) {
  ExpectPlansMatchReference({{"p",
      "collection ext edge@p(x: int, y: int);"
      "collection int tc@p(x: int, y: int);"
      "fact edge@p(1, 2); fact edge@p(2, 3); fact edge@p(3, 4);"
      "fact edge@p(4, 2);"
      "rule tc@p($x, $y) :- edge@p($x, $y);"
      "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);"}});
}

TEST(PlanEquivalenceTest, StratifiedNegation) {
  ExpectPlansMatchReference({{"p",
      "collection ext all@p(x: int);"
      "collection ext banned@p(x: int);"
      "collection int ok@p(x: int);"
      "fact all@p(1); fact all@p(2); fact all@p(3);"
      "fact banned@p(2);"
      "rule ok@p($x) :- all@p($x), not banned@p($x);"}});
}

TEST(PlanEquivalenceTest, DeletionRules) {
  ExpectPlansMatchReference({{"p",
      "collection ext pending@p(x: int);"
      "collection ext done@p(x: int);"
      "fact pending@p(1); fact pending@p(2); fact pending@p(3);"
      "fact done@p(2);"
      "rule -pending@p($x) :- done@p($x), pending@p($x);"}});
}

TEST(PlanEquivalenceTest, RelationVariables) {
  ExpectPlansMatchReference({{"p",
      "collection ext names@p(r: string);"
      "collection ext data1@p(x: int);"
      "collection ext data2@p(x: int);"
      "collection int gathered@p(x: int);"
      "fact names@p(\"data1\"); fact names@p(\"data2\");"
      "fact data1@p(10); fact data2@p(20);"
      "rule gathered@p($x) :- names@p($r), $r@p($x);"}});
}

TEST(PlanEquivalenceTest, MixedConstantsAndRepeatedVariables) {
  ExpectPlansMatchReference({{"p",
      "collection ext b@p(x: int, y: int, tag: string);"
      "collection int h@p(x: int);"
      "fact b@p(1, 1, \"keep\"); fact b@p(1, 2, \"keep\");"
      "fact b@p(2, 2, \"drop\"); fact b@p(3, 3, \"keep\");"
      "rule h@p($x) :- b@p($x, $x, \"keep\");"}});
}

TEST(PlanEquivalenceTest, DelegationSplitsMatchInterpreter) {
  // A remote body atom stops local evaluation; the residual rules (one
  // per prefix binding, relation and peer variables substituted) and
  // what they derive back at p must match the reference.
  ExpectPlansMatchReference({
      {"p",
       "collection ext sel@p(a: string);"
       "collection ext kind@p(r: string);"
       "fact sel@p(\"alice\"); fact sel@p(\"bob\");"
       "fact kind@p(\"pictures\");"
       "rule h@p($x) :- sel@p($a), kind@p($r), $r@$a($x, $a);"},
      {"alice",
       "collection ext pictures@alice(x: int, owner: string);"
       "fact pictures@alice(7, \"alice\");"},
      {"bob", "collection ext pictures@bob(x: int, owner: string);"}});
}

TEST(PlanEquivalenceTest, DelegatedDeletionRulesKeepTheDeletionFlag) {
  // "-head :- body" split at a remote atom must still delete when the
  // residual's head derives at the target (the flag travels the wire;
  // dropping it silently turns deletion into insertion). The reference
  // does not model delegated deletions, so this one asserts directly.
  Catalog catalog("p");
  (void)catalog.InsertFact(Fact("sel", "p", {S("q")}));
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{});
  std::vector<Delegation> delegations;
  RuleEvaluator::Sinks sinks;
  sinks.on_delegation = [&](const Delegation& d) {
    delegations.push_back(d);
  };
  evaluator.Evaluate(BindRule(R("-pending@p($x) :- sel@p($a), trig@$a($x)")),
                     nullptr, -1, sinks);
  ASSERT_EQ(delegations.size(), 1u);
  EXPECT_TRUE(delegations[0].rule.head_deletes);
  EXPECT_EQ(delegations[0].target_peer, "q");
  EXPECT_EQ(delegations[0].rule.ToString(), "-pending@p($x) :- trig@q($x)");
}

TEST(PlanEquivalenceTest, RemoteHeadsMatchInterpreter) {
  ExpectPlansMatchReference({{"p",
                             "collection ext b@p(x: int);"
                             "fact b@p(7);"
                             "rule h@q($x) :- b@p($x);"},
                            {"q", ""}});
}

}  // namespace
}  // namespace wdl
