// The reference evaluator against hand-computed states. Every
// whole-system oracle test trusts it, so its answers are pinned here,
// independently of the engine, including the programs it must refuse.

#include "support/reference_eval.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/builders.h"

namespace wdl {
namespace test {
namespace {

using Rows = std::set<std::vector<Value>>;
using Rules = std::multiset<std::pair<std::string, std::string>>;

LogicalState Evaluate(const ReferenceProgram& program) {
  Result<LogicalState> state = ReferenceEvaluate(program);
  EXPECT_TRUE(state.ok()) << state.status();
  return state.ok() ? *state : LogicalState();
}

TEST(ReferenceEvalTest, TransitiveClosure) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("p", R"(
    collection ext edge@p(x: int, y: int);
    collection int tc@p(x: int, y: int);
    fact edge@p(1, 2); fact edge@p(2, 3); fact edge@p(3, 1);
    rule tc@p($x, $y) :- edge@p($x, $y);
    rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);
  )").ok());
  LogicalState state = Evaluate(program);
  auto& p = state.peers["p"].relations;
  Rows all;  // a 3-cycle: every ordered pair, loops included
  for (int64_t a = 1; a <= 3; ++a) {
    for (int64_t b = 1; b <= 3; ++b) all.insert({I(a), I(b)});
  }
  EXPECT_EQ(p["tc"].tuples, all);
  EXPECT_EQ(p["tc"].kind, RelationKind::kIntensional);
  EXPECT_EQ(p["edge"].tuples.size(), 3u);
}

TEST(ReferenceEvalTest, StratifiedNegation) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("p", R"(
    collection ext all@p(x: int);
    collection ext banned@p(x: int);
    collection int ok@p(x: int);
    collection int flagged@p(x: int);
    fact all@p(1); fact all@p(2); fact all@p(3); fact banned@p(2);
    rule flagged@p($x) :- all@p($x), not ok@p($x);
    rule ok@p($x) :- all@p($x), not banned@p($x);
  )").ok());
  LogicalState state = Evaluate(program);
  // ok needs banned complete; flagged needs ok complete, whatever the
  // rule order in the program.
  EXPECT_EQ(state.peers["p"].relations["ok"].tuples, (Rows{{I(1)}, {I(3)}}));
  EXPECT_EQ(state.peers["p"].relations["flagged"].tuples, (Rows{{I(2)}}));
}

TEST(ReferenceEvalTest, UnstratifiableProgramIsRefused) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("p", "collection ext b@p(x: int);"
                                "rule win@p($x) :- b@p($x), not lose@p($x);"
                                "rule lose@p($x) :- b@p($x), not win@p($x);")
                  .ok());
  EXPECT_FALSE(ReferenceEvaluate(program).ok());
}

TEST(ReferenceEvalTest, LocalDeletionRule) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("p", R"(
    collection ext pending@p(x: int);
    collection ext done@p(x: int);
    collection ext finished@p(x: int);
    fact pending@p(1); fact pending@p(2); fact pending@p(3);
    fact done@p(2); fact finished@p(3);
    rule done@p($x) :- finished@p($x);
    rule -pending@p($x) :- done@p($x), pending@p($x);
  )").ok());
  LogicalState state = Evaluate(program);
  // done(3) is derived into an extensional relation (persistent), and
  // the deletion rule then removes both 2 and 3 from pending.
  EXPECT_EQ(state.peers["p"].relations["done"].tuples, (Rows{{I(2)}, {I(3)}}));
  EXPECT_EQ(state.peers["p"].relations["pending"].tuples, (Rows{{I(1)}}));
}

TEST(ReferenceEvalTest, RelationAndPeerVariables) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("p", R"(
    collection ext names@p(r: string);
    collection ext here@p(q: string);
    collection ext data1@p(x: int);
    collection ext data2@p(x: int);
    collection int gathered@p(x: int);
    collection int local@p(x: int);
    fact names@p("data1"); fact names@p("data2"); fact names@p("absent");
    fact here@p("p");
    fact data1@p(10); fact data2@p(20);
    rule gathered@p($x) :- names@p($r), $r@p($x);
    rule local@p($x) :- here@p($q), data1@$q($x);
    rule $r@p($x) :- names@p($r), data1@p($x);
  )").ok());
  LogicalState state = Evaluate(program);
  auto& p = state.peers["p"].relations;
  // The peer variable resolves to p itself (no delegation); the head
  // variable writes data1's tuple into every named relation.
  EXPECT_EQ(p["gathered"].tuples, (Rows{{I(10)}, {I(20)}}));
  EXPECT_EQ(p["local"].tuples, (Rows{{I(10)}}));
  EXPECT_EQ(p["data2"].tuples, (Rows{{I(10)}, {I(20)}}));
  EXPECT_EQ(p["absent"].tuples, (Rows{{I(10)}}));
  EXPECT_EQ(p["absent"].kind, RelationKind::kExtensional);
  EXPECT_EQ(state.peers["p"].rules.size(), 3u);
}

TEST(ReferenceEvalTest, ThreePeerDelegationChain) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("a", R"(
    collection ext s@a(x: int);
    collection int out@a(x: int, z: int);
    fact s@a(1); fact s@a(2);
    rule out@a($x, $z) :- s@a($x), t@b($x, $y), u@c($y, $z);
  )").ok());
  ASSERT_TRUE(program.Load("b", "collection ext t@b(x: int, y: int);"
                                "fact t@b(1, 10); fact t@b(2, 20);").ok());
  ASSERT_TRUE(program.Load("c", "collection ext u@c(y: int, z: int);"
                                "fact u@c(10, 100);").ok());
  LogicalState state = Evaluate(program);
  auto& a = state.peers["a"].relations;
  EXPECT_EQ(a["out"].tuples, (Rows{{I(1), I(100)}}));
  EXPECT_EQ(state.peers["a"].rules,
            (Rules{{"out@a($x, $z) :- s@a($x), t@b($x, $y), u@c($y, $z)",
                    ""}}));
  // One residual per prefix binding at b, delegated by a...
  EXPECT_EQ(state.peers["b"].rules,
            (Rules{{"out@a(1, $z) :- t@b(1, $y), u@c($y, $z)", "a"},
                   {"out@a(2, $z) :- t@b(2, $y), u@c($y, $z)", "a"}}));
  // ...and b's own evaluation of them delegates the last hop to c.
  EXPECT_EQ(state.peers["c"].rules,
            (Rules{{"out@a(1, $z) :- u@c(10, $z)", "b"},
                   {"out@a(2, $z) :- u@c(20, $z)", "b"}}));
}

TEST(ReferenceEvalTest, ExtensionalVersusIntensionalRemoteHeads) {
  ReferenceProgram program;
  ASSERT_TRUE(program.Load("hub", "collection int view@hub(x: int);"
                                  "collection ext inbox@hub(x: int);").ok());
  ASSERT_TRUE(program.Load("a", R"(
    collection ext d@a(x: int);
    fact d@a(1); fact d@a(2);
    rule view@hub($x) :- d@a($x);
    rule inbox@hub($x) :- d@a($x);
    rule fresh@hub($x) :- d@a($x);
    rule lost@nowhere($x) :- d@a($x);
  )").ok());
  LogicalState state = Evaluate(program);
  auto& hub = state.peers["hub"].relations;
  const Rows both{{I(1)}, {I(2)}};
  EXPECT_EQ(hub["view"].kind, RelationKind::kIntensional);
  EXPECT_EQ(hub["view"].tuples, both);
  EXPECT_EQ(hub["inbox"].kind, RelationKind::kExtensional);
  EXPECT_EQ(hub["inbox"].tuples, both);
  // An undeclared target relation is created extensional, as a peer
  // discovering a new relation does.
  EXPECT_EQ(hub["fresh"].kind, RelationKind::kExtensional);
  EXPECT_EQ(hub["fresh"].tuples, both);
  // Facts for a peer that does not exist go nowhere.
  EXPECT_EQ(state.peers.count("nowhere"), 0u);
}

TEST(ReferenceEvalTest, ProgramsOutsideTheFragmentAreUnimplemented) {
  const char* kPrograms[] = {
      // A deletion head at another peer.
      "collection ext src@p(x: int); rule -inbox@q($x) :- src@p($x);",
      // A deletion rule whose residual would carry its head to q.
      "collection ext pending@p(x: int); fact pending@p(1);"
      "rule -pending@p($x) :- pending@p($x), done@q($x);",
      // Negation over a variable relation.
      "collection ext names@p(r: string); collection ext all@p(x: int);"
      "rule ok@p($x) :- all@p($x), names@p($r), not $r@p($x);",
  };
  for (const char* text : kPrograms) {
    ReferenceProgram program;
    ASSERT_TRUE(program.Load("p", text).ok()) << text;
    program.peers["q"];
    EXPECT_EQ(ReferenceEvaluate(program).status().code(),
              StatusCode::kUnimplemented) << text;
  }
  ReferenceProgram wrapped;  // an external system the reference can't see
  wrapped.peers["p"];
  wrapped.wrappers.push_back("pictures@p");
  EXPECT_EQ(ReferenceEvaluate(wrapped).status().code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace test
}  // namespace wdl
