#include <gtest/gtest.h>

#include "net/wire.h"
#include "parser/parser.h"
#include "runtime/system.h"

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::S;

TEST(DeletionParseTest, BareAndKeywordForms) {
  Result<Rule> bare = ParseRule("-junk@p($x) :- flagged@p($x)");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_TRUE(bare->head_deletes);

  Result<Program> kw =
      ParseProgram("rule -junk@p($x) :- flagged@p($x);");
  ASSERT_TRUE(kw.ok()) << kw.status();
  ASSERT_EQ(kw->rules.size(), 1u);
  EXPECT_TRUE(kw->rules[0].head_deletes);
}

TEST(DeletionParseTest, MinusBindsToRuleNotNumber) {
  // Negative literals must still lex as numbers.
  Result<Fact> f = ParseFact("r@p(-5)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->args[0], I(-5));
}

TEST(DeletionParseTest, RoundTripsThroughPrinter) {
  Result<Rule> r = ParseRule("-junk@p($x) :- flagged@p($x)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "-junk@p($x) :- flagged@p($x)");
  Result<Rule> again = ParseRule(r->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *r);
}

TEST(DeletionParseTest, DeletionFlagChangesIdentity) {
  Rule ins = *ParseRule("r@p($x) :- b@p($x)");
  Rule del = *ParseRule("-r@p($x) :- b@p($x)");
  EXPECT_NE(ins, del);
  EXPECT_NE(ins.Hash(), del.Hash());
}

TEST(DeletionWireTest, FlagSurvivesRoundTrip) {
  Rule del = *ParseRule("-r@p($x) :- b@p($x)");
  WireEncoder enc;
  enc.PutRule(del);
  WireDecoder dec(enc.buffer());
  Result<Rule> back = dec.GetRule();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->head_deletes);
  EXPECT_EQ(*back, del);
}

TEST(DeletionEngineTest, LocalDeletionAppliesNextStage) {
  System system;
  Peer* p = system.CreatePeer("p");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection ext inbox@p(x: int);
    collection ext junk@p(x: int);
    fact inbox@p(1); fact inbox@p(2); fact inbox@p(3);
    fact junk@p(2);
    rule -inbox@p($x) :- junk@p($x);
  )").ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* inbox = p->engine().catalog().Get("inbox");
  EXPECT_EQ(inbox->size(), 2u);
  EXPECT_FALSE(inbox->Contains({I(2)}));
}

TEST(DeletionEngineTest, RemoteDeletionPropagates) {
  System system;
  Peer* admin = system.CreatePeer("admin");
  Peer* node = system.CreatePeer("node");
  ASSERT_TRUE(node->LoadProgramText(R"(
    collection ext data@node(x: int);
    fact data@node(1); fact data@node(2);
  )").ok());
  ASSERT_TRUE(admin->LoadProgramText(R"(
    collection ext revoked@admin(x: int);
    fact revoked@admin(2);
    rule -data@node($x) :- revoked@admin($x);
  )").ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* data = node->engine().catalog().Get("data");
  EXPECT_EQ(data->size(), 1u);
  EXPECT_TRUE(data->Contains({I(1)}));
}

// Remote deletions ship once per live verdict. A verdict withdrawn (its
// body tuple removed) and later derived again must ship again: the fact
// may have returned at the target in between.
TEST(DeletionEngineTest, WithdrawnVerdictShipsAgainWhenRederived) {
  System system;
  Peer* admin = system.CreatePeer("admin");
  Peer* node = system.CreatePeer("node");
  ASSERT_TRUE(node->LoadProgramText(R"(
    collection ext data@node(x: int);
    fact data@node(1);
  )").ok());
  ASSERT_TRUE(admin->LoadProgramText(R"(
    collection ext revoked@admin(x: int);
    rule -data@node($x) :- revoked@admin($x);
  )").ok());
  const Fact revoked("revoked", "admin", {I(1)});
  const Fact data("data", "node", {I(1)});
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE(testing::Message() << "cycle " << cycle);
    ASSERT_TRUE(admin->Insert(revoked).ok());
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    EXPECT_FALSE(node->engine().catalog().Get("data")->Contains({I(1)}));
    // The verdict lapses, and the fact returns at the target.
    ASSERT_TRUE(admin->Remove(revoked).ok());
    ASSERT_TRUE(node->Insert(data).ok());
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    EXPECT_TRUE(node->engine().catalog().Get("data")->Contains({I(1)}));
  }
}

TEST(DeletionEngineTest, DeletionIntoViewRejectedAtInstall) {
  System system;
  Peer* p = system.CreatePeer("p");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection int view@p(x: int);
    collection ext src@p(x: int);
  )").ok());
  Result<uint64_t> r = p->AddRuleText("-view@p($x) :- src@p($x)");
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DeletionEngineTest, InsertAndDeleteRulesReachSteadyState) {
  // A "retention policy" pair: everything flows into archive, flagged
  // entries get deleted from it. Deletion wins at steady state because
  // the insert rule re-derives only what the *source* still has, and
  // deletes target the archive — this also exercises that insert + its
  // matching delete do not livelock the system.
  System system;
  Peer* p = system.CreatePeer("p");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection ext src@p(x: int);
    collection ext archive@p(x: int);
    collection ext flagged@p(x: int);
    fact src@p(1); fact src@p(2);
    fact flagged@p(2);
    rule archive@p($x) :- src@p($x);
    rule -archive@p($x) :- flagged@p($x), archive@p($x);
  )").ok());
  // This pair oscillates: insert re-adds what delete removed. The run
  // must hit the round cap rather than loop forever silently.
  Result<int> r = system.RunUntilQuiescent(50);
  if (r.ok()) {
    // If it converged, the flagged tuple must be gone.
    EXPECT_FALSE(
        p->engine().catalog().Get("archive")->Contains({I(2)}));
  } else {
    // Oscillation detected and bounded — acceptable, documented
    // semantics for contradictory update rules (Dedalus-style).
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(p->engine().catalog().Get("archive")->Contains({I(1)}));
}

TEST(DeletionEngineTest, DeletionOfAbsentFactIsNoOp) {
  System system;
  Peer* p = system.CreatePeer("p");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection ext data@p(x: int);
    collection ext junk@p(x: int);
    fact junk@p(9);
    rule -data@p($x) :- junk@p($x);
  )").ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(p->engine().catalog().Get("data")->size(), 0u);
}

}  // namespace
}  // namespace wdl
