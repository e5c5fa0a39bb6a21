#include "engine/engine.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::I;
using test::P;
using test::R;
using test::S;
using test::Settle;

constexpr char kTcProgram[] =
    "collection ext edge@p(x: int, y: int);"
    "collection int tc@p(x: int, y: int);"
    "rule tc@p($x, $y) :- edge@p($x, $y);"
    "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);";

// The reference evaluator (support/reference_eval.h) is a naive
// bottom-up fixpoint that shares no code with the engine: a one-peer
// system running the semi-naive engine must converge to exactly its
// state.
void ExpectSemiNaiveMatchesNaive(const std::vector<Fact>& edges) {
  System system;
  test::ReferenceProgram reference;
  Peer* p = system.CreatePeer("p");
  ASSERT_TRUE(p->LoadProgramText(kTcProgram).ok());
  ASSERT_TRUE(reference.Load("p", kTcProgram).ok());
  for (const Fact& f : edges) {
    ASSERT_TRUE(p->Insert(f).ok());
    reference.Insert(f);
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, reference);
}

TEST(EngineTest, TransitiveClosureLocalFixpoint) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext edge@p(x: int, y: int);
    collection int tc@p(x: int, y: int);
    fact edge@p(1, 2); fact edge@p(2, 3); fact edge@p(3, 4);
    rule tc@p($x, $y) :- edge@p($x, $y);
    rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("tc")->size(), 6u);  // all pairs i<j
  EXPECT_TRUE(e.catalog().Get("tc")->Contains({I(1), I(4)}));
}

TEST(EngineTest, NaiveAndSemiNaiveAgreeOnChain) {
  std::vector<Fact> chain;
  for (int64_t i = 0; i < 30; ++i) {
    chain.push_back(Fact("edge", "p", {I(i), I(i + 1)}));
  }
  ExpectSemiNaiveMatchesNaive(chain);
}

// Semi-naive's work bound: each round joins only the previous round's
// Δ, so the first stage over a 40-edge chain examines 1,719 tuples
// (820 derived). Re-joining whole relations every round — the naive
// fixpoint — examined 45,060.
TEST(EngineTest, SemiNaiveWorkStaysBelowCeiling) {
  constexpr uint64_t kCeiling = 1800;
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(kTcProgram)).ok());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(e.InsertFact(Fact("edge", "p", {I(i), I(i + 1)})).ok());
  }
  StageResult r = e.RunStage();
  EXPECT_EQ(e.catalog().Get("tc")->size(), 40u * 41u / 2u);
  EXPECT_LE(r.stats.tuples_examined, kCeiling);
}

TEST(EngineTest, IntensionalRelationsRecomputeAfterBaseDeletion) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext b@p(x: int);
    collection int v@p(x: int);
    fact b@p(1); fact b@p(2);
    rule v@p($x) :- b@p($x);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("v")->size(), 2u);
  ASSERT_TRUE(e.RemoveFact(Fact("b", "p", {I(1)})).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("v")->size(), 1u);
  EXPECT_TRUE(e.catalog().Get("v")->Contains({I(2)}));
}

TEST(EngineTest, InsertIntoIntensionalRelationRejected) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P("collection int v@p(x: int);")).ok());
  EXPECT_EQ(e.InsertFact(Fact("v", "p", {I(1)})).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, StratifiedNegationComplement) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext node@p(x: int);
    collection ext edge@p(x: int, y: int);
    collection int reach@p(x: int);
    collection int unreach@p(x: int);
    fact node@p(1); fact node@p(2); fact node@p(3);
    fact edge@p(1, 2);
    rule reach@p(1) :- node@p(1);
    rule reach@p($y) :- reach@p($x), edge@p($x, $y);
    rule unreach@p($x) :- node@p($x), not reach@p($x);
  )")).ok());
  Settle(&e);
  EXPECT_EQ(e.catalog().Get("reach")->size(), 2u);
  ASSERT_EQ(e.catalog().Get("unreach")->size(), 1u);
  EXPECT_TRUE(e.catalog().Get("unreach")->Contains({I(3)}));
}

TEST(EngineTest, Paper2013DialectRejectsNegatedRule) {
  EngineOptions opts;
  opts.dialect = Dialect::kPaper2013;
  Engine e("p", opts);
  Result<uint64_t> r = e.AddRule(R("h@p($x) :- a@p($x), not b@p($x)"));
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(EngineTest, UnsafeRuleRejected) {
  Engine e("p");
  EXPECT_FALSE(e.AddRule(R("h@p($x, $y) :- a@p($x)")).ok());
}

TEST(EngineTest, UnstratifiableDelegatedRuleRejectedAtInstall) {
  Engine e("p");
  ASSERT_TRUE(
      e.AddRule(R("a@p($x) :- s@p($x), not b@p($x)")).ok());
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "p";
  d.rule = R("b@p($x) :- s@p($x), not a@p($x)");
  EXPECT_FALSE(e.InstallDelegatedRule(d).ok());

  // A positive rule closes the cycle through the installed negation just
  // as well, delegated or local; LoadProgram of the same two rules
  // rejects them too.
  d.rule = R("b@p($x) :- a@p($x)");
  EXPECT_FALSE(e.InstallDelegatedRule(d).ok());
  Result<uint64_t> local = e.AddRule(R("b@p($x) :- a@p($x)"));
  EXPECT_EQ(local.status().code(), StatusCode::kFailedPrecondition)
      << local.status();
  Engine fresh("p");
  EXPECT_EQ(fresh.LoadProgram(P(R"(
    rule a@p($x) :- s@p($x), not b@p($x);
    rule b@p($x) :- a@p($x);
  )")).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(e.rules().size(), 1u);

  // A positive rule that closes no cycle still installs.
  EXPECT_TRUE(e.AddRule(R("c@p($x) :- a@p($x)")).ok());
}

TEST(EngineTest, RemoveRuleRetractsItsDelegationsNextStage) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext sel@p(a: string);
    fact sel@p("q");
  )")).ok());
  Result<uint64_t> id = e.AddRule(R("h@p($x) :- sel@p($a), data@$a($x)"));
  ASSERT_TRUE(id.ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  ASSERT_EQ(first.outbound["q"].delegation_installs.size(), 1u);
  uint64_t key = first.outbound["q"].delegation_installs[0].Key();

  ASSERT_TRUE(e.RemoveRule(*id).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound.count("q"), 1u);
  ASSERT_EQ(second.outbound["q"].delegation_retracts.size(), 1u);
  EXPECT_EQ(second.outbound["q"].delegation_retracts[0], key);
}

TEST(EngineTest, DelegationInstallIsIdempotent) {
  Engine e("p");
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "p";
  d.rule = R("h@q($x) :- data@p($x)");
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  EXPECT_EQ(e.rules().size(), 1u);
}

// A retract that removes nothing — a duplicated retract frame, or one
// for a delegation the gate still holds — leaves no work behind.
TEST(EngineTest, RetractOfUnknownDelegationLeavesEngineIdle) {
  Engine e("p");
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "p";
  d.rule = R("h@q($x) :- data@p($x)");
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  (void)e.RunStage();
  e.RetractDelegatedRule(d.Key());
  EXPECT_TRUE(e.HasPendingWork());
  (void)e.RunStage();
  ASSERT_FALSE(e.HasPendingWork());

  e.RetractDelegatedRule(d.Key());
  EXPECT_FALSE(e.HasPendingWork());
  e.RetractDelegatedRule(d.Key() + 1);
  EXPECT_FALSE(e.HasPendingWork());
}

// A fact edit that changes nothing — a duplicate insert, removing an
// absent fact, an insert the catalog rejects — leaves no work behind.
TEST(EngineTest, NoOpFactEditsLeaveEngineIdle) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext b@p(x: int);
    fact b@p(1);
  )")).ok());
  (void)e.RunStage();
  ASSERT_FALSE(e.HasPendingWork());

  Result<bool> duplicate = e.InsertFact(Fact("b", "p", {I(1)}));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_FALSE(*duplicate);
  EXPECT_FALSE(e.HasPendingWork());
  Result<bool> absent = e.RemoveFact(Fact("b", "p", {I(2)}));
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
  EXPECT_FALSE(e.HasPendingWork());
  EXPECT_FALSE(e.InsertFact(Fact("b", "p", {I(1), I(2)})).ok());  // arity
  EXPECT_FALSE(e.HasPendingWork());

  ASSERT_TRUE(e.InsertFact(Fact("b", "p", {I(2)})).ok());
  EXPECT_TRUE(e.HasPendingWork());
}

TEST(EngineTest, DelegationForWrongTargetRejected) {
  Engine e("p");
  Delegation d;
  d.origin_peer = "q";
  d.target_peer = "r";  // not us
  d.rule = R("h@q($x) :- data@r($x)");
  EXPECT_FALSE(e.InstallDelegatedRule(d).ok());
}

// A versioned contribution update to p: a snapshot (the whole
// contribution) or a delta moving its stream from `base` to `base` + 1.
DerivedDelta Update(const std::string& relation, uint64_t base, bool snapshot,
                    std::vector<Tuple> inserts,
                    std::vector<Tuple> deletes = {}) {
  return DerivedDelta{"p", relation, snapshot ? 0 : base, base + 1,
                      snapshot, std::move(inserts), std::move(deletes)};
}

TEST(EngineTest, SnapshotToExtensionalIsPersistentUnion) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection ext inbox@p(x: int);")).ok());
  e.EnqueueDerivedDelta("q", Update("inbox", 0, true, {{I(1)}, {I(2)}}));
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("inbox")->size(), 2u);

  // A shrunk snapshot, or a delta deleting, does NOT delete: updates
  // are persistent.
  e.EnqueueDerivedDelta("q", Update("inbox", 1, true, {{I(1)}}));
  e.EnqueueDerivedDelta("q", Update("inbox", 2, false, {}, {{I(1)}}));
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("inbox")->size(), 2u);
  EXPECT_EQ(e.slice_store().StreamVersion("inbox", "q"), 3u);
}

TEST(EngineTest, SnapshotToIntensionalReplacesSenderSlice) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());
  e.EnqueueDerivedDelta("q", Update("view", 0, true, {{I(1)}, {I(2)}}));
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);

  e.EnqueueDerivedDelta("q", Update("view", 1, true, {{I(3)}}));
  e.RunStage();
  const Relation* view = e.catalog().Get("view");
  EXPECT_EQ(view->size(), 1u);
  EXPECT_TRUE(view->Contains({I(3)}));
}

TEST(EngineTest, SlicesFromDistinctSendersAreIndependent) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());
  e.EnqueueDerivedDelta("q", Update("view", 0, false, {{I(1)}}));
  e.EnqueueDerivedDelta("r", Update("view", 0, false, {{I(2)}}));
  e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);

  // q empties its slice; r's contribution survives.
  e.EnqueueDerivedDelta("q", Update("view", 1, false, {}, {{I(1)}}));
  e.RunStage();
  const Relation* view = e.catalog().Get("view");
  EXPECT_EQ(view->size(), 1u);
  EXPECT_TRUE(view->Contains({I(2)}));
}

TEST(EngineTest, UnchangedContributionIsNotResent) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  // Force extra stages: nothing new must be shipped.
  e.InsertFact(Fact("data", "p", {I(1)})).value();  // duplicate, no-op
  StageResult second = e.RunStage();
  EXPECT_EQ(second.outbound.count("q"), 0u);
}

TEST(EngineTest, EmptiedContributionIsSentOnceAsEmptySet) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    collection int view@p(x: int);
    fact data@p(1);
    rule view@p($x) :- data@p($x);
    rule mirror@q($x) :- view@p($x);
  )")).ok());
  (void)e.RunStage();
  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  // Ships the delete (see DifferentialEmptiedContributionShipsDeletes).
  (void)e.RunStage();

  // The stream outlives its tuples: a resync is answered with an empty
  // snapshot at the current version, exactly once.
  e.EnqueueResyncRequest("q", "mirror");
  StageResult served = e.RunStage();
  ASSERT_EQ(served.outbound["q"].derived_deltas.size(), 1u);
  const DerivedDelta& dd = served.outbound["q"].derived_deltas[0];
  EXPECT_TRUE(dd.snapshot);
  EXPECT_EQ(dd.version, 2u);
  EXPECT_TRUE(dd.inserts.empty());
  StageResult third = e.RunStage();
  EXPECT_EQ(third.outbound.count("q"), 0u);
}

TEST(EngineTest, DifferentialShipsOnlyTheChange) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  StageResult first = e.RunStage();
  ASSERT_EQ(first.outbound.count("q"), 1u);
  ASSERT_EQ(first.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = first.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 0u);
    EXPECT_EQ(dd.version, 1u);
    EXPECT_EQ(dd.inserts.size(), 1u);
    EXPECT_TRUE(dd.deletes.empty());
  }

  // One more base fact: the delta carries exactly the one new tuple,
  // not the whole two-tuple contribution.
  ASSERT_TRUE(e.InsertFact(Fact("data", "p", {I(2)})).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = second.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 1u);
    EXPECT_EQ(dd.version, 2u);
    ASSERT_EQ(dd.inserts.size(), 1u);
    EXPECT_EQ(dd.inserts[0], Tuple{I(2)});
    EXPECT_TRUE(dd.deletes.empty());
  }

  // Removing one fact ships its deletion only.
  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  StageResult third = e.RunStage();
  ASSERT_EQ(third.outbound["q"].derived_deltas.size(), 1u);
  {
    const DerivedDelta& dd = third.outbound["q"].derived_deltas[0];
    EXPECT_EQ(dd.base_version, 2u);
    EXPECT_EQ(dd.version, 3u);
    EXPECT_TRUE(dd.inserts.empty());
    ASSERT_EQ(dd.deletes.size(), 1u);
    EXPECT_EQ(dd.deletes[0], Tuple{I(1)});
  }

  // Unchanged contribution: silent.
  StageResult fourth = e.RunStage();
  EXPECT_EQ(fourth.outbound.count("q"), 0u);
}

TEST(EngineTest, DifferentialEmptiedContributionShipsDeletes) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    collection int view@p(x: int);
    fact data@p(1);
    rule view@p($x) :- data@p($x);
    rule mirror@q($x) :- view@p($x);
  )")).ok());
  (void)e.RunStage();
  ASSERT_TRUE(e.RemoveFact(Fact("data", "p", {I(1)})).ok());
  StageResult second = e.RunStage();
  ASSERT_EQ(second.outbound["q"].derived_deltas.size(), 1u);
  const DerivedDelta& dd = second.outbound["q"].derived_deltas[0];
  EXPECT_TRUE(dd.inserts.empty());
  ASSERT_EQ(dd.deletes.size(), 1u);

  StageResult third = e.RunStage();
  EXPECT_EQ(third.outbound.count("q"), 0u);
}

TEST(EngineTest, ResyncRequestIsServedWithSnapshot) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext data@p(x: int);
    fact data@p(1); fact data@p(2);
    rule mirror@q($x) :- data@p($x);
  )")).ok());
  (void)e.RunStage();

  // q claims it lost part of the stream; the next stage ships the full
  // contribution as a snapshot at the current version, even though the
  // contribution itself did not change.
  e.EnqueueResyncRequest("q", "mirror");
  ASSERT_TRUE(e.HasPendingWork());
  StageResult served = e.RunStage();
  ASSERT_EQ(served.outbound["q"].derived_deltas.size(), 1u);
  const DerivedDelta& dd = served.outbound["q"].derived_deltas[0];
  EXPECT_TRUE(dd.snapshot);
  EXPECT_EQ(dd.version, 1u);
  EXPECT_EQ(dd.inserts.size(), 2u);
  EXPECT_EQ(e.propagation_counters().snapshots_shipped, 1u);
}

TEST(EngineTest, GappedDeltaTriggersResyncRequest) {
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());

  DerivedDelta d1;
  d1.target_peer = "p";
  d1.relation = "view";
  d1.base_version = 0;
  d1.version = 1;
  d1.inserts = {Tuple{I(1)}};
  e.EnqueueDerivedDelta("q", d1);
  (void)e.RunStage();
  EXPECT_TRUE(e.catalog().Get("view")->Contains({I(1)}));
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 1u);

  // Version 2 is lost; version 3 arrives. The slice must not apply it,
  // and a resync request must go back to q.
  DerivedDelta d3;
  d3.target_peer = "p";
  d3.relation = "view";
  d3.base_version = 2;
  d3.version = 3;
  d3.inserts = {Tuple{I(3)}};
  e.EnqueueDerivedDelta("q", d3);
  StageResult r = e.RunStage();
  EXPECT_FALSE(e.catalog().Get("view")->Contains({I(3)}));
  ASSERT_EQ(r.outbound.count("q"), 1u);
  ASSERT_EQ(r.outbound["q"].resync_requests.size(), 1u);
  EXPECT_EQ(r.outbound["q"].resync_requests[0], "view");
  EXPECT_EQ(e.propagation_counters().resyncs_requested, 1u);

  // The snapshot response repairs the slice wholesale.
  DerivedDelta snap;
  snap.target_peer = "p";
  snap.relation = "view";
  snap.snapshot = true;
  snap.version = 3;
  snap.inserts = {Tuple{I(1)}, Tuple{I(3)}};
  e.EnqueueDerivedDelta("q", snap);
  (void)e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 3u);

  // A late duplicate of the gapped delta is now stale: no double-apply,
  // no new resync.
  e.EnqueueDerivedDelta("q", d3);
  StageResult dup = e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(dup.outbound.count("q"), 0u);
}

TEST(EngineTest, SelfHealedGapDoesNotRequestResync) {
  // A reordered batch [v2, v1, v2-duplicate] momentarily looks gapped,
  // but the stream is whole by the end of input application — no
  // resync (and its O(|view|) snapshot answer) may be requested.
  Engine e("p");
  ASSERT_TRUE(
      e.LoadProgram(P("collection int view@p(x: int);")).ok());

  DerivedDelta d1;
  d1.target_peer = "p";
  d1.relation = "view";
  d1.base_version = 0;
  d1.version = 1;
  d1.inserts = {Tuple{I(1)}};
  DerivedDelta d2;
  d2.target_peer = "p";
  d2.relation = "view";
  d2.base_version = 1;
  d2.version = 2;
  d2.inserts = {Tuple{I(2)}};

  e.EnqueueDerivedDelta("q", d2);  // early copy: gap at arrival time
  e.EnqueueDerivedDelta("q", d1);
  e.EnqueueDerivedDelta("q", d2);  // duplicate heals the stream
  StageResult r = e.RunStage();
  EXPECT_EQ(e.catalog().Get("view")->size(), 2u);
  EXPECT_EQ(e.slice_store().StreamVersion("view", "q"), 2u);
  EXPECT_EQ(r.outbound.count("q"), 0u);
  EXPECT_EQ(e.propagation_counters().resyncs_requested, 0u);
}

TEST(EngineTest, ProgramListingMarksDelegatedRules) {
  Engine e("p");
  ASSERT_TRUE(e.AddRule(R("local@p($x) :- base@p($x)")).ok());
  Delegation d;
  d.origin_peer = "julia";
  d.target_peer = "p";
  d.rule = R("spy@julia($x) :- base@p($x)");
  ASSERT_TRUE(e.InstallDelegatedRule(d).ok());
  std::string listing = e.ProgramListing();
  EXPECT_NE(listing.find("delegated by julia"), std::string::npos);
}

TEST(EngineTest, StageStatsReportRulesAndDerivations) {
  Engine e("p");
  ASSERT_TRUE(e.LoadProgram(P(R"(
    collection ext b@p(x: int);
    collection int v@p(x: int);
    fact b@p(1); fact b@p(2);
    rule v@p($x) :- b@p($x);
  )")).ok());
  StageResult r = e.RunStage();
  EXPECT_EQ(r.stats.active_rules, 1u);
  EXPECT_EQ(r.stats.local_derivations, 2u);
  EXPECT_GE(r.stats.iterations, 1);
}

// Differential property: the semi-naive engine and the naive reference
// evaluator must agree on random graphs of various shapes.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(DifferentialTest, SemiNaiveMatchesNaiveOnRandomGraphs) {
  auto [nodes, edges, seed] = GetParam();
  std::vector<std::pair<int64_t, int64_t>> edge_list;
  uint64_t state = seed;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < edges; ++i) {
    edge_list.emplace_back(next() % nodes, next() % nodes);
  }

  std::vector<Fact> facts;
  for (auto [a, b] : edge_list) {
    facts.push_back(Fact("edge", "p", {I(a), I(b)}));
  }
  ExpectSemiNaiveMatchesNaive(facts);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialTest,
    ::testing::Values(std::make_tuple(5, 8, 1ull),
                      std::make_tuple(10, 20, 2ull),
                      std::make_tuple(20, 60, 3ull),
                      std::make_tuple(8, 30, 4ull),
                      std::make_tuple(30, 45, 5ull)));

}  // namespace
}  // namespace wdl
