#include "engine/eval.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "engine/plan_cache.h"
#include "parser/parser.h"

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::S;

using test::R;

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : catalog_("p"), evaluator_(&catalog_, "p", EvalOptions{}) {}

  void Insert(const std::string& rel, Tuple t) {
    Result<bool> r = catalog_.InsertFact(Fact(rel, "p", std::move(t)));
    ASSERT_TRUE(r.ok()) << r.status();
  }

  struct Collected {
    std::vector<Fact> local;
    std::vector<Fact> remote;
    std::vector<Delegation> delegations;
  };

  Collected Run(const Rule& rule, const DeltaMap* delta = nullptr,
                int delta_pos = -1) {
    Collected c;
    RuleEvaluator::Sinks sinks;
    sinks.on_local_fact = [&](const Fact& f) { c.local.push_back(f); };
    sinks.on_remote_fact = [&](const Fact& f) { c.remote.push_back(f); };
    sinks.on_delegation = [&](const Delegation& d) {
      c.delegations.push_back(d);
    };
    evaluator_.Evaluate(BindRule(rule), delta, delta_pos, sinks);
    return c;
  }

  Catalog catalog_;
  RuleEvaluator evaluator_;
};

TEST_F(EvalTest, SingleAtomProducesAllTuples) {
  Insert("b", {I(1)});
  Insert("b", {I(2)});
  Collected c = Run(R("h@p($x) :- b@p($x)"));
  EXPECT_EQ(c.local.size(), 2u);
}

TEST_F(EvalTest, ConstantsFilterMatches) {
  Insert("b", {I(1), S("keep")});
  Insert("b", {I(2), S("drop")});
  Collected c = Run(R("h@p($x) :- b@p($x, \"keep\")"));
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].args[0], I(1));
}

TEST_F(EvalTest, JoinOnSharedVariable) {
  Insert("e", {I(1), I(2)});
  Insert("e", {I(2), I(3)});
  Insert("e", {I(5), I(6)});
  Collected c = Run(R("h@p($x, $z) :- e@p($x, $y), e@p($y, $z)"));
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].args, (Tuple{I(1), I(3)}));
}

TEST_F(EvalTest, RepeatedVariableInOneAtomRequiresEquality) {
  Insert("b", {I(1), I(1)});
  Insert("b", {I(1), I(2)});
  Collected c = Run(R("h@p($x) :- b@p($x, $x)"));
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].args[0], I(1));
}

TEST_F(EvalTest, RelationVariableResolvedFromBinding) {
  Insert("names", {S("data1")});
  Insert("names", {S("data2")});
  Insert("data1", {I(10)});
  Insert("data2", {I(20)});
  Collected c = Run(R("h@p($x) :- names@p($r), $r@p($x)"));
  EXPECT_EQ(c.local.size(), 2u);
}

TEST_F(EvalTest, NonStringRelationBindingIsDeadBranch) {
  Insert("names", {I(42)});  // an int cannot name a relation
  Insert("data", {I(1)});
  Collected c = Run(R("h@p($x) :- names@p($r), $r@p($x)"));
  EXPECT_TRUE(c.local.empty());
  // Nor a peer: no residual can be substituted, so nothing delegates.
  c = Run(R("h@p($x) :- names@p($a), pictures@$a($x)"));
  EXPECT_TRUE(c.delegations.empty());
}

TEST_F(EvalTest, RemoteBodyAtomEmitsDelegationPerPrefixBinding) {
  Insert("sel", {S("alice")});
  Insert("sel", {S("bob")});
  Collected c = Run(R("h@p($x) :- sel@p($a), pictures@$a($x)"));
  EXPECT_TRUE(c.local.empty());
  ASSERT_EQ(c.delegations.size(), 2u);
  // Residual rules have the prefix substituted and start at the remote
  // atom with a concrete location.
  std::set<std::string> residuals;
  for (const Delegation& d : c.delegations) {
    EXPECT_EQ(d.origin_peer, "p");
    ASSERT_EQ(d.rule.body.size(), 1u);
    EXPECT_TRUE(d.rule.body[0].HasConcreteLocation());
    EXPECT_EQ(d.rule.body[0].peer.name(), d.target_peer);
    residuals.insert(d.rule.ToString());
  }
  // The bound peer variable became a name; unbound $x stays a variable.
  EXPECT_EQ(residuals, (std::set<std::string>{
                           "h@p($x) :- pictures@alice($x)",
                           "h@p($x) :- pictures@bob($x)"}));
}

TEST_F(EvalTest, SelfPeerAtomIsNotADelegation) {
  Insert("sel", {S("p")});  // selecting *ourselves*
  Insert("pictures", {I(7)});
  Collected c = Run(R("h@p($x) :- sel@p($a), pictures@$a($x)"));
  EXPECT_TRUE(c.delegations.empty());
  ASSERT_EQ(c.local.size(), 1u);
}

TEST_F(EvalTest, RemoteHeadGoesToRemoteSink) {
  Insert("b", {I(1)});
  Collected c = Run(R("h@q($x) :- b@p($x)"));
  EXPECT_TRUE(c.local.empty());
  ASSERT_EQ(c.remote.size(), 1u);
  EXPECT_EQ(c.remote[0].peer, "q");
}

TEST_F(EvalTest, HeadRelationVariableResolves) {
  Insert("proto", {S("email")});
  Insert("payload", {I(9)});
  Collected c = Run(R("$r@p($x) :- proto@p($r), payload@p($x)"));
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].relation, "email");
}

TEST_F(EvalTest, NegatedAtomFiltersPresentTuples) {
  Insert("all", {I(1)});
  Insert("all", {I(2)});
  Insert("banned", {I(2)});
  Collected c = Run(R("h@p($x) :- all@p($x), not banned@p($x)"));
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].args[0], I(1));
}

TEST_F(EvalTest, NegationOverMissingRelationSucceeds) {
  Insert("all", {I(1)});
  Collected c = Run(R("h@p($x) :- all@p($x), not nonexistent@p($x)"));
  EXPECT_EQ(c.local.size(), 1u);
}

TEST_F(EvalTest, NegatedRemoteAtomDelegates) {
  Insert("all", {I(1)});
  Collected c = Run(R("h@p($x) :- all@p($x), not banned@q($x)"));
  ASSERT_EQ(c.delegations.size(), 1u);
  EXPECT_EQ(c.delegations[0].target_peer, "q");
  EXPECT_TRUE(c.delegations[0].rule.body[0].negated);
  EXPECT_TRUE(c.delegations[0].rule.body[0].IsGround());
}

TEST_F(EvalTest, DeltaRestrictionLimitsMatches) {
  Insert("b", {I(1)});
  Insert("b", {I(2)});
  Insert("b", {I(3)});
  DeltaMap delta;
  delta[Symbol::Intern("b")].Insert(Tuple{I(2)});
  Collected c = Run(R("h@p($x) :- b@p($x)"), &delta, 0);
  ASSERT_EQ(c.local.size(), 1u);
  EXPECT_EQ(c.local[0].args[0], I(2));
}

TEST_F(EvalTest, DeltaOnEmptyRelationYieldsNothing) {
  Insert("b", {I(1)});
  DeltaMap delta;  // no entry for "b"
  Collected c = Run(R("h@p($x) :- b@p($x)"), &delta, 0);
  EXPECT_TRUE(c.local.empty());
}

TEST_F(EvalTest, ArityMismatchYieldsNoMatches) {
  Insert("b", {I(1), I(2)});
  Collected c = Run(R("h@p($x) :- b@p($x)"));  // atom arity 1, stored 2
  EXPECT_TRUE(c.local.empty());
}

TEST_F(EvalTest, IndexAndScanModesAgree) {
  for (int64_t i = 0; i < 30; ++i) {
    Insert("e", {I(i % 5), I(i)});
  }
  Rule rule = R("h@p($x, $y) :- e@p(3, $x), e@p($x, $y)");
  Collected with_index = Run(rule);

  RuleEvaluator scan_eval(&catalog_, "p", EvalOptions{false});
  Collected scanned;
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [&](const Fact& f) { scanned.local.push_back(f); };
  scan_eval.Evaluate(BindRule(rule), nullptr, -1, sinks);

  auto key = [](const Fact& f) { return f.ToString(); };
  std::set<std::string> a, b;
  for (const Fact& f : with_index.local) a.insert(key(f));
  for (const Fact& f : scanned.local) b.insert(key(f));
  EXPECT_EQ(a, b);
}

TEST_F(EvalTest, CountersTrackWork) {
  Insert("b", {I(1)});
  Insert("b", {I(2)});
  evaluator_.ResetCounters();
  Run(R("h@p($x) :- b@p($x)"));
  EXPECT_GE(evaluator_.counters().tuples_examined, 2u);
  EXPECT_EQ(evaluator_.counters().bindings_completed, 2u);
}

}  // namespace
}  // namespace wdl
