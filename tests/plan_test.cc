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

TEST(CompileRuleTest, SlotsAreNumberedDenselyInFirstOccurrenceOrder) {
  RulePlan plan = CompileRule(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)"));
  ASSERT_EQ(plan.num_slots, 3u);
  EXPECT_EQ(plan.slot_vars, (std::vector<std::string>{"x", "y", "z"}));

  ASSERT_EQ(plan.atoms.size(), 2u);
  const PlanAtom& a0 = plan.atoms[0];
  ASSERT_EQ(a0.terms.size(), 2u);
  EXPECT_EQ(a0.terms[0].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a0.terms[0].slot, 0);
  EXPECT_EQ(a0.terms[1].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a0.terms[1].slot, 1);
  EXPECT_EQ(a0.bound_slots, (std::vector<uint16_t>{0, 1}));
  // Nothing bound before the first atom: full scan.
  EXPECT_EQ(a0.index_column, -1);

  const PlanAtom& a1 = plan.atoms[1];
  EXPECT_EQ(a1.terms[0].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(a1.terms[0].slot, 1);
  EXPECT_EQ(a1.terms[1].op, PlanTerm::Op::kBind);
  EXPECT_EQ(a1.terms[1].slot, 2);
  // $y is bound by atom 0, so column 0 drives an index probe.
  EXPECT_EQ(a1.index_column, 0);
  EXPECT_FALSE(a1.index_key_is_const);
  EXPECT_EQ(a1.index_slot, 1);

  ASSERT_EQ(plan.head.terms.size(), 2u);
  EXPECT_EQ(plan.head.terms[0].op, PlanTerm::Op::kCheck);
  EXPECT_EQ(plan.head.terms[0].slot, 0);
  EXPECT_EQ(plan.head.terms[1].slot, 2);
  EXPECT_FALSE(plan.head.dead);
  EXPECT_TRUE(plan.head.relation.is_const);
  EXPECT_EQ(plan.head.relation.sym, Symbol::Intern("h"));
}

TEST(CompileRuleTest, ConstantArgumentDrivesIndexColumn) {
  RulePlan plan = CompileRule(R("h@p($x) :- e@p(3, $x)"));
  const PlanAtom& a = plan.atoms[0];
  EXPECT_EQ(a.index_column, 0);
  EXPECT_TRUE(a.index_key_is_const);
  EXPECT_EQ(a.index_const, I(3));
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
  EXPECT_TRUE(plan.atoms[1].peer.is_const);
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
  EXPECT_NE(s.find("slots: 0=$x 1=$y 2=$z"), std::string::npos) << s;
  EXPECT_NE(s.find("access=scan"), std::string::npos) << s;
  EXPECT_NE(s.find("access=index col 0 key=s1"), std::string::npos) << s;
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

TEST(PlanCacheTest, AccessPathCountersAttributeTheWork) {
  Catalog catalog("p");
  for (int64_t i = 0; i < 10; ++i) {
    (void)catalog.InsertFact(Fact("e", "p", {I(i), I(i + 1)}));
  }
  RuleEvaluator evaluator(&catalog, "p", EvalOptions{});
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [](const Fact&) {};
  evaluator.Evaluate(
      CompileRule(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)")), nullptr, -1,
      sinks);
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
  evaluator.Evaluate(
      CompileRule(R("-pending@p($x) :- sel@p($a), trig@$a($x)")), nullptr,
      -1, sinks);
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
