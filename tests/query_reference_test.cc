// Ad-hoc queries against the reference evaluator (DESIGN.md §10, §12):
// every query must return the rows the reference derives for the same
// query added as a rule at that peer. A body that stays at the query
// peer is answered by one local read of its materialized views; a body
// that reaches another peer takes the scratch-rule path. Each query
// asserts which path answered.

#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/query.h"
#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::I;
using test::QueryPath;

class QueryReferenceTest : public ::testing::Test {
 protected:
  /// Runs `body` at `peer`: answered by `path`, with the reference's
  /// rows.
  QueryResult Query(const std::string& peer, const std::string& body,
                    QueryPath path = QueryPath::kLocalRead) {
    return test::ExpectQueryMatchesReference(&system_, ref_, peer, body,
                                             path);
  }

  void Load(Peer* peer, std::string_view text) {
    test::Load(peer, &ref_, text);
  }
  void Insert(Peer* peer, const Fact& fact) {
    test::Insert(peer, &ref_, fact);
  }
  void Remove(Peer* peer, const Fact& fact) {
    test::Remove(peer, &ref_, fact);
  }

  /// Peer `a` with the linear transitive closure of an `nodes`-chain.
  Peer* ChainPeer(int nodes) {
    Peer* a = system_.CreatePeer("a");
    Load(a, R"(
      collection ext edge@a(x: int, y: int);
      collection int path@a(x: int, y: int);
      rule path@a($x, $y) :- edge@a($x, $y);
      rule path@a($x, $z) :- edge@a($x, $y), path@a($y, $z);
    )");
    for (int i = 0; i + 1 < nodes; ++i) {
      Insert(a, Fact("edge", "a", {I(i), I(i + 1)}));
    }
    EXPECT_TRUE(system_.RunUntilQuiescent().ok());
    return a;
  }

  /// Peers `a` and `b`, each trusting the other's delegations.
  std::pair<Peer*, Peer*> TwoPeers() {
    Peer* a = system_.CreatePeer("a");
    Peer* b = system_.CreatePeer("b");
    a->gate().TrustPeer("b");
    b->gate().TrustPeer("a");
    return {a, b};
  }

  System system_;
  test::ReferenceProgram ref_;
};

TEST_F(QueryReferenceTest, BoundPointQueryReadsLocally) {
  ChainPeer(8);
  QueryResult r = Query("a", "path@a(2, $y)");
  ASSERT_EQ(r.rows.size(), 5u);  // 3..7
  EXPECT_EQ(r.rows.front(), (Tuple{I(3)}));
  EXPECT_EQ(r.rows.back(), (Tuple{I(7)}));
}

TEST_F(QueryReferenceTest, FullyBoundMembershipQuery) {
  ChainPeer(8);
  EXPECT_EQ(Query("a", "path@a(1, 6)").rows.size(), 1u);  // the empty tuple
  EXPECT_TRUE(Query("a", "path@a(6, 1)").rows.empty());
}

TEST_F(QueryReferenceTest, LastPositionBoundQuery) {
  ChainPeer(8);
  // Who reaches node 5?
  EXPECT_EQ(Query("a", "path@a($x, 5)").rows.size(), 5u);  // 0..4
}

TEST_F(QueryReferenceTest, UnboundQueryReadsLocally) {
  ChainPeer(6);
  EXPECT_EQ(Query("a", "path@a($x, $y)").rows.size(), 15u);  // C(6,2)
}

TEST_F(QueryReferenceTest, BoundExtensionalOnlyQuery) {
  ChainPeer(6);
  QueryResult r = Query("a", "edge@a(3, $y)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (Tuple{I(4)}));
}

TEST_F(QueryReferenceTest, JoinThroughIntensionalAndExtensional) {
  ChainPeer(8);
  // y=1, z in 2..7
  EXPECT_EQ(Query("a", "edge@a(0, $y), path@a($y, $z)").rows.size(), 6u);
}

TEST_F(QueryReferenceTest, NonlinearRecursiveViewReadsLocally) {
  // Nonlinear transitive closure: the view is materialized like any
  // other, whichever rule shape derived it.
  Peer* a = system_.CreatePeer("a");
  Load(a, R"(
    collection ext edge@a(x: int, y: int);
    collection int p@a(x: int, y: int);
    rule p@a($x, $y) :- edge@a($x, $y);
    rule p@a($x, $z) :- p@a($x, $y), p@a($y, $z);
  )");
  const int kNodes = 24;
  for (int i = 0; i + 1 < kNodes; ++i) {
    Insert(a, Fact("edge", "a", {I(i), I(i + 1)}));
  }
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  EXPECT_EQ(Query("a", "p@a(0, $y)").rows.size(),
            static_cast<size_t>(kNodes - 1));
  EXPECT_EQ(Query("a", "p@a($x, 23)").rows.size(),
            static_cast<size_t>(kNodes - 1));
  EXPECT_EQ(Query("a", "p@a(3, 19)").rows.size(), 1u);
}

TEST_F(QueryReferenceTest, RecursionOverRemoteContributions) {
  // b's recursive view grows from hop@b, which a's rule feeds across
  // the network (b's slice store): the local read sees the view the
  // contributions built.
  auto [a, b] = TwoPeers();
  Load(a, R"(
    collection ext link@a(x: int, y: int);
    rule hop@b($x, $y) :- link@a($x, $y);
  )");
  Load(b, R"(
    collection int hop@b(x: int, y: int);
    collection int reach@b(x: int, y: int);
    rule reach@b($x, $y) :- hop@b($x, $y);
    rule reach@b($x, $z) :- reach@b($x, $y), reach@b($y, $z);
  )");
  for (int i = 0; i + 1 < 10; ++i) {
    Insert(a, Fact("link", "a", {I(i), I(i + 1)}));
  }
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  EXPECT_EQ(Query("b", "reach@b(0, $y)").rows.size(), 9u);
}

TEST_F(QueryReferenceTest, NegationReadsLocally) {
  Peer* a = system_.CreatePeer("a");
  Load(a, R"(
    collection ext node@a(x: int);
    collection ext blocked@a(x: int);
    collection int open@a(x: int);
    rule open@a($x) :- node@a($x), not blocked@a($x);
    fact node@a(1); fact node@a(2); fact node@a(3);
    fact blocked@a(2);
  )");
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  EXPECT_EQ(Query("a", "open@a(1)").rows.size(), 1u);
  EXPECT_TRUE(Query("a", "open@a(2)").rows.empty());
  // Negation directly in the query body.
  EXPECT_EQ(Query("a", "node@a(3), not blocked@a(3)").rows.size(), 1u);
  EXPECT_EQ(Query("a", "node@a($x), not open@a($x)").rows.size(), 1u);
}

TEST_F(QueryReferenceTest, DeletionRuleReadsLocally) {
  Peer* a = system_.CreatePeer("a");
  Load(a, R"(
    collection ext stock@a(item: string);
    collection ext sold@a(item: string);
    rule -stock@a($i) :- sold@a($i);
    fact stock@a("kept");
    fact stock@a("gone");
    fact sold@a("gone");
  )");
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  // The deletion rule has already fired at quiescence.
  EXPECT_EQ(Query("a", "stock@a(\"kept\")").rows.size(), 1u);
  EXPECT_EQ(Query("a", "stock@a($i)").rows.size(), 1u);
}

TEST_F(QueryReferenceTest, CrossPeerQueryTakesScratchPath) {
  auto [a, b] = TwoPeers();
  Load(a, R"(
    collection ext likes@a(who: string, what: string);
    fact likes@a("a", "jazz");
  )");
  Load(b, R"(
    collection ext likes@b(who: string, what: string);
    fact likes@b("b", "jazz");
  )");
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  QueryResult r = Query("a", "likes@a(\"a\", $x), likes@b($other, $x)",
                        QueryPath::kScratchRule);
  EXPECT_EQ(r.rows.size(), 1u);
  // A body that starts at another peer delegates from its first atom.
  EXPECT_EQ(Query("a", "likes@b($who, $x)", QueryPath::kScratchRule)
                .rows.size(),
            1u);
}

TEST_F(QueryReferenceTest, RemoteContributionsAreRead) {
  // b's view is fed by a rule at a deriving into b: the local read
  // sees those received contributions (slice store).
  auto [a, b] = TwoPeers();
  Load(a, R"(
    collection ext local@a(x: int);
    rule seen@b($x) :- local@a($x);
    fact local@a(1); fact local@a(2);
  )");
  Load(b, R"(
    collection int seen@b(x: int);
    collection int doubled@b(x: int);
    rule doubled@b($x) :- seen@b($x);
  )");
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  EXPECT_EQ(Query("b", "seen@b(2)").rows.size(), 1u);
  EXPECT_EQ(Query("b", "doubled@b(1)").rows.size(), 1u);
}

TEST_F(QueryReferenceTest, LocalReadTouchesOnlyAnswers) {
  // 50 disjoint chains of length 4: a bound query on one chain head
  // probes the view's index and looks at that chain's answers only.
  Peer* a = system_.CreatePeer("a");
  Load(a, R"(
    collection ext edge@a(x: int, y: int);
    collection int path@a(x: int, y: int);
    rule path@a($x, $y) :- edge@a($x, $y);
    rule path@a($x, $z) :- edge@a($x, $y), path@a($y, $z);
  )");
  for (int c = 0; c < 50; ++c) {
    for (int i = 0; i < 4; ++i) {
      int node = c * 10 + i;
      Insert(a, Fact("edge", "a", {I(node), I(node + 1)}));
    }
  }
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  QueryResult r = Query("a", "path@a(0, $y)");
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.tuples_examined, r.rows.size());
  EXPECT_EQ(r.rounds, 0);  // already quiescent
}

TEST_F(QueryReferenceTest, QueriesLeaveNoTraceBehind) {
  Peer* a = ChainPeer(6);
  Query("a", "path@a(0, $y)");
  size_t symbols = Symbol::TableSizeForTesting();
  size_t rules = a->engine().rules().size();
  std::vector<std::string> names = a->engine().catalog().RelationNames();
  for (int i = 0; i < 5; ++i) {
    Query("a", "path@a(0, $y)");
    Query("a", "path@a($x, 3)");
  }
  EXPECT_EQ(Symbol::TableSizeForTesting(), symbols);
  EXPECT_EQ(a->engine().rules().size(), rules);
  EXPECT_EQ(a->engine().catalog().RelationNames(), names);
}

TEST_F(QueryReferenceTest, RandomizedBindingPatternSweep) {
  // Random sparse graph, every binding pattern of path/edge/back
  // queries, random constants (present and absent).
  Peer* a = system_.CreatePeer("a");
  Load(a, R"(
    collection ext edge@a(x: int, y: int);
    collection int path@a(x: int, y: int);
    collection int back@a(x: int, y: int);
    rule path@a($x, $y) :- edge@a($x, $y);
    rule path@a($x, $z) :- edge@a($x, $y), path@a($y, $z);
    rule back@a($y, $x) :- path@a($x, $y);
  )");
  std::mt19937 rng(1234);
  const int kNodes = 24;
  std::uniform_int_distribution<int> node(0, kNodes - 1);
  for (int i = 0; i < 40; ++i) {
    Insert(a, Fact("edge", "a", {I(node(rng)), I(node(rng))}));
  }
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  std::uniform_int_distribution<int> constant(0, kNodes + 3);  // some misses
  const std::vector<std::string> relations = {"edge", "path", "back"};
  std::uniform_int_distribution<size_t> pick(0, relations.size() - 1);
  std::uniform_int_distribution<int> pattern(0, 2);  // 01, 10, 11
  for (int q = 0; q < 60; ++q) {
    const std::string& rel = relations[pick(rng)];
    int pat = pattern(rng);
    std::string first = (pat == 1) ? "$x" : std::to_string(constant(rng));
    std::string second = (pat == 0) ? "$y" : std::to_string(constant(rng));
    Query("a", rel + "@a(" + first + ", " + second + ")");
  }
  // And a handful of random two-atom joins with a bound seed.
  for (int q = 0; q < 20; ++q) {
    Query("a", "edge@a(" + std::to_string(constant(rng)) +
                   ", $y), path@a($y, $z)");
  }
}

TEST_F(QueryReferenceTest, MutateBetweenQueriesStaysConsistent) {
  // Inserts and deletes between queries are converged into the views
  // before the next read.
  Peer* a = ChainPeer(5);
  EXPECT_EQ(Query("a", "path@a(0, $y)").rows.size(), 4u);

  Insert(a, Fact("edge", "a", {I(4), I(5)}));  // extend: 4 -> 5
  QueryResult extended = Query("a", "path@a(0, $y)");
  EXPECT_EQ(extended.rows.size(), 5u);
  EXPECT_GT(extended.rounds, 0);  // the read converged first

  Remove(a, Fact("edge", "a", {I(2), I(3)}));  // cut at 2 -> 3
  EXPECT_EQ(Query("a", "path@a(0, $y)").rows.size(), 2u);
}

}  // namespace
}  // namespace wdl
