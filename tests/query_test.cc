#include "runtime/query.h"

#include <gtest/gtest.h>

#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::ExpectQueryMatchesReference;
using test::QueryPath;
using test::S;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = system_.CreatePeer("alice");
    bob_ = system_.CreatePeer("bob");
    alice_->gate().TrustPeer("bob");
    bob_->gate().TrustPeer("alice");
    test::Load(alice_, &ref_, R"(
      collection ext likes@alice(who: string, what: string);
      fact likes@alice("alice", "jazz");
      fact likes@alice("alice", "rock");
    )");
    test::Load(bob_, &ref_, R"(
      collection ext likes@bob(who: string, what: string);
      fact likes@bob("bob", "jazz");
    )");
    ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  }

  /// Runs `body` at alice: answered by `path`, with the reference's rows.
  QueryResult Query(const std::string& body, QueryPath path) {
    return ExpectQueryMatchesReference(&system_, ref_, "alice", body, path);
  }

  System system_;
  test::ReferenceProgram ref_;
  Peer* alice_ = nullptr;
  Peer* bob_ = nullptr;
};

TEST_F(QueryTest, LocalSingleAtomQuery) {
  QueryResult r = Query("likes@alice($w, $x)", QueryPath::kLocalRead);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"w", "x"}));
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryTest, ConstantsFilterRows) {
  QueryResult r = Query("likes@alice($w, \"jazz\")", QueryPath::kLocalRead);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"w"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], S("alice"));
}

TEST_F(QueryTest, DistributedJoinQuery) {
  // Who shares a taste with alice? Crosses to bob via delegation.
  QueryResult r = Query("likes@alice($me, $x), likes@bob($other, $x)",
                        QueryPath::kScratchRule);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (Tuple{S("alice"), S("jazz"), S("bob")}));
}

TEST_F(QueryTest, QueryCleansUpDelegations) {
  Query("likes@alice($me, $x), likes@bob($other, $x)",
        QueryPath::kScratchRule);
  // After teardown, bob has no leftover delegated rules.
  for (const InstalledRule* ir : bob_->engine().rules()) {
    EXPECT_EQ(ir->delegation_key, 0u)
        << "leftover: " << ir->rule.ToString();
  }
}

TEST_F(QueryTest, RepeatedQueriesDoNotCollide) {
  for (int i = 0; i < 3; ++i) {
    QueryResult r = Query("likes@alice($w, $x)", QueryPath::kLocalRead);
    EXPECT_EQ(r.rows.size(), 2u);
  }
}

TEST_F(QueryTest, ScratchRelationsAreRecycled) {
  // One query of each shape first: the local read interns its one
  // placeholder head, and the first distributed query declares the
  // scratch view of its arity, "__query_3" (one interned symbol each).
  // Every later sequential query must reuse them instead of growing the
  // symbol table and the catalog.
  const std::string wide = "likes@alice($w, $x)";
  const std::string narrow = "likes@alice($w, \"jazz\")";
  const std::string remote = "likes@alice($me, $x), likes@bob($other, $x)";
  Query(wide, QueryPath::kLocalRead);
  Query(remote, QueryPath::kScratchRule);
  size_t symbols_after_first = Symbol::TableSizeForTesting();
  std::vector<std::string> catalog_after_first =
      alice_->engine().catalog().RelationNames();

  for (int i = 0; i < 10; ++i) {
    // Alternate shapes (different arity): local reads declare nothing,
    // and the distributed query finds its view already declared.
    EXPECT_EQ(Query(wide, QueryPath::kLocalRead).rows.size(), 2u);
    EXPECT_EQ(Query(narrow, QueryPath::kLocalRead).rows.size(), 1u);
    // Distributed flavor: delegations still tear down cleanly.
    EXPECT_EQ(Query(remote, QueryPath::kScratchRule).rows.size(), 1u);
  }

  EXPECT_EQ(Symbol::TableSizeForTesting(), symbols_after_first);
  EXPECT_EQ(alice_->engine().catalog().RelationNames(),
            catalog_after_first);
}

TEST_F(QueryTest, RecycledNamesTriggerNoResyncs) {
  // A distributed query makes bob stream a contribution into alice's
  // scratch view. Teardown empties the stream but keeps it, with the
  // view: each later query of the same arity continues it from the
  // version both ends hold, so alice never sees a gap to resync.
  for (int i = 0; i < 4; ++i) {
    QueryResult r = Query("likes@alice($me, $x), likes@bob($other, $x)",
                          QueryPath::kScratchRule);
    ASSERT_EQ(r.rows.size(), 1u);
  }
  EXPECT_EQ(alice_->engine().propagation_counters().resyncs_requested, 0u);
  EXPECT_EQ(bob_->engine().propagation_counters().resyncs_requested, 0u);
}

TEST_F(QueryTest, ForeignScratchViewIsAnError) {
  // An insert auto-declares __query_2@alice as an extensional relation,
  // which is not the query scratch view of arity 2: a distributed query
  // of that arity fails instead of writing into it, and installs
  // nothing.
  ASSERT_TRUE(alice_->Insert(Fact("__query_2", "alice", {S("x"), S("y")}))
                  .ok());
  const size_t rules = alice_->engine().rules().size();
  Result<QueryResult> r = RunQuery(&system_, "alice", "likes@bob($o, $x)");
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists) << r.status();
  EXPECT_EQ(alice_->engine().rules().size(), rules);
  EXPECT_EQ(alice_->engine().catalog().Get("__query_2")->size(), 1u);
}

TEST_F(QueryTest, UnsafeQueryRejected) {
  // $p is a peer variable not bound by a previous atom.
  Result<QueryResult> r = RunQuery(&system_, "alice", "likes@$p($w, $x)");
  EXPECT_FALSE(r.ok());
}

TEST_F(QueryTest, UnknownPeerRejected) {
  EXPECT_EQ(RunQuery(&system_, "ghost", "likes@alice($w, $x)")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(QueryTest, EmptyResultIsOkNotError) {
  QueryResult r = Query("likes@alice($w, \"opera\")", QueryPath::kLocalRead);
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(QueryTest, VariablePeerQueryFansOut) {
  test::Load(alice_, &ref_, R"(
    collection ext friends@alice(p: string);
    fact friends@alice("bob");
  )");
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  const std::string body = "friends@alice($p), likes@$p($who, $what)";
  QueryResult r = Query(body, QueryPath::kScratchRule);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], (Tuple{S("bob"), S("bob"), S("jazz")}));

  // With alice as the only friend, no binding leaves alice: the same
  // body is a local read.
  test::Remove(alice_, &ref_, Fact("friends", "alice", {S("bob")}));
  test::Insert(alice_, &ref_, Fact("friends", "alice", {S("alice")}));
  EXPECT_EQ(Query(body, QueryPath::kLocalRead).rows.size(), 2u);
}

TEST_F(QueryTest, LocalQueryLeavesAnIdlePeerIdle) {
  // carol was never materialized: the peer holds nothing, so a local
  // query there reads no rows and must not build its engine.
  Peer* carol = system_.CreatePeer("carol");
  ASSERT_FALSE(carol->has_engine());
  const size_t materialized = system_.MaterializedPeerCount();
  QueryResult r = ExpectQueryMatchesReference(
      &system_, ref_, "carol", "likes@carol($w, $x)", QueryPath::kLocalRead);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(system_.MaterializedPeerCount(), materialized);
  EXPECT_FALSE(carol->has_engine());
}

TEST_F(QueryTest, ToStringRendersColumnsAndRows) {
  QueryResult r = Query("likes@alice($w, $x)", QueryPath::kLocalRead);
  std::string rendered = r.ToString();
  EXPECT_NE(rendered.find("$w"), std::string::npos);
  EXPECT_NE(rendered.find("jazz"), std::string::npos);
}

}  // namespace
}  // namespace wdl
