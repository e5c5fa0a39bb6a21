// Incremental view maintenance suite (DESIGN.md §6).
//
// Intensional relations persist across stages, and every stage is a Δ
// stage: Δ-sets (local EDB changes, slice-store support transitions,
// rules installed and retracted, changes of relations read under
// negation) drive semi-naive evaluation forward stratum by stratum,
// and deletions retract by support-counted DRed-style over-delete/
// re-derive. Only an engine's first stage evaluates every rule. The
// engine tests pin the Δ path's cost and that rule and negated-relation
// changes stay incremental; the oracle scenarios run multi-peer churn —
// deletions, delegation installs and retracts, negation, randomized
// workloads with rule churn — and expect exactly the state the
// reference evaluator (support/reference_eval.h) computes from the
// scenario's inputs. Where history puts a scenario outside the
// reference (remote deletion heads), it asserts the state directly.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::F;
using test::I;
using test::Insert;
using test::Load;
using test::ReferenceProgram;
using test::Remove;
using test::Settle;

PeerOptions Trusting() {
  PeerOptions o;
  o.trust_all_delegations = true;
  return o;
}

// --- single-engine unit coverage -------------------------------------

void LoadChain(Engine* engine, int nodes) {
  Program p = test::P(R"(
    collection ext edge@a(x: int, y: int);
    collection int tc@a(x: int, y: int);
    rule tc@a($x, $y) :- edge@a($x, $y);
    rule tc@a($x, $z) :- edge@a($x, $y), tc@a($y, $z);
  )");
  ASSERT_TRUE(engine->LoadProgram(p).ok());
  for (int i = 0; i + 1 < nodes; ++i) {
    ASSERT_TRUE(engine->InsertFact(F("edge", "a", {I(i), I(i + 1)})).ok());
  }
  Settle(engine);
}

TEST(IncrementalEngineTest, InsertExtendsRecursiveViewSubLinearly) {
  Engine engine("a");
  LoadChain(&engine, 50);  // tc = 50*49/2 = 1225 tuples
  const Relation* tc = engine.catalog().Get("tc");
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->size(), 1225u);
  ASSERT_GE(engine.eval_counters().stages_full, 1u);

  uint64_t examined_before = engine.eval_counters().tuples_examined;
  uint64_t incr_before = engine.eval_counters().stages_incremental;
  ASSERT_TRUE(engine.InsertFact(F("edge", "a", {I(49), I(50)})).ok());
  Settle(&engine);
  EXPECT_EQ(tc->size(), 1275u);  // +50 pairs ending at 50
  EXPECT_GT(engine.eval_counters().stages_incremental, incr_before);
  // Δ-driven: the stage touches the new chains, not the whole view.
  // A recompute would re-examine >> |view| tuples.
  EXPECT_LT(engine.eval_counters().tuples_examined - examined_before, 1000u);
}

TEST(IncrementalEngineTest, DeleteRetractsCascadeAndReAddRestores) {
  Engine engine("a");
  LoadChain(&engine, 20);
  const Relation* tc = engine.catalog().Get("tc");
  ASSERT_EQ(tc->size(), 190u);

  // Cutting edge (9,10) kills every path crossing it: 10 sources (0..9)
  // times 10 targets (10..19) = 100 pairs.
  ASSERT_TRUE(engine.RemoveFact(F("edge", "a", {I(9), I(10)})).ok());
  Settle(&engine);
  EXPECT_EQ(tc->size(), 90u);
  EXPECT_FALSE(tc->Contains({I(0), I(19)}));
  EXPECT_TRUE(tc->Contains({I(0), I(9)}));
  EXPECT_TRUE(tc->Contains({I(10), I(19)}));
  EXPECT_GE(engine.eval_counters().tuples_retracted, 100u);

  ASSERT_TRUE(engine.InsertFact(F("edge", "a", {I(9), I(10)})).ok());
  Settle(&engine);
  EXPECT_EQ(tc->size(), 190u);
  EXPECT_TRUE(tc->Contains({I(0), I(19)}));
}

TEST(IncrementalEngineTest, AlternativeDerivationSurvivesByRederivation) {
  Engine engine("a");
  Program p = test::P(R"(
    collection ext e1@a(x: int);
    collection ext e2@a(x: int);
    collection int both@a(x: int);
    collection int chained@a(x: int);
    rule both@a($x) :- e1@a($x);
    rule both@a($x) :- e2@a($x);
    rule chained@a($x) :- both@a($x);
  )");
  ASSERT_TRUE(engine.LoadProgram(p).ok());
  ASSERT_TRUE(engine.InsertFact(F("e1", "a", {I(7)})).ok());
  ASSERT_TRUE(engine.InsertFact(F("e2", "a", {I(7)})).ok());
  Settle(&engine);
  const Relation* both = engine.catalog().Get("both");
  ASSERT_TRUE(both->Contains({I(7)}));

  // Deleting one source over-deletes both(7), but re-derivation finds
  // the second rule and nothing downstream churns away.
  ASSERT_TRUE(engine.RemoveFact(F("e1", "a", {I(7)})).ok());
  Settle(&engine);
  EXPECT_TRUE(both->Contains({I(7)}));
  EXPECT_TRUE(engine.catalog().Get("chained")->Contains({I(7)}));
  EXPECT_GE(engine.eval_counters().tuples_rederived, 1u);

  ASSERT_TRUE(engine.RemoveFact(F("e2", "a", {I(7)})).ok());
  Settle(&engine);
  EXPECT_FALSE(both->Contains({I(7)}));
  EXPECT_FALSE(engine.catalog().Get("chained")->Contains({I(7)}));
}

// Only an engine's first stage evaluates every rule: a rule install
// seeds the Δ stage with that rule's own evaluation, and a retract
// over-deletes what the rule derived.
TEST(IncrementalEngineTest, RuleChangesStayIncremental) {
  Engine engine("a");
  LoadChain(&engine, 5);
  const uint64_t full_before = engine.eval_counters().stages_full;
  const uint64_t incr_before = engine.eval_counters().stages_incremental;
  Result<uint64_t> id = engine.AddRule(test::R(
      "rule tc@a($x, $x) :- edge@a($x, $y);"));
  ASSERT_TRUE(id.ok());
  Settle(&engine);
  EXPECT_EQ(engine.eval_counters().stages_full, full_before);
  EXPECT_GT(engine.eval_counters().stages_incremental, incr_before);
  EXPECT_TRUE(engine.catalog().Get("tc")->Contains({I(0), I(0)}));

  ASSERT_TRUE(engine.RemoveRule(*id).ok());
  Settle(&engine);
  EXPECT_EQ(engine.eval_counters().stages_full, full_before);
  EXPECT_FALSE(engine.catalog().Get("tc")->Contains({I(0), I(0)}));
}

TEST(IncrementalEngineTest, NegationTouchingChangeStaysIncremental) {
  Engine engine("a");
  Program p = test::P(R"(
    collection ext item@a(x: int);
    collection ext banned@a(x: int);
    collection int visible@a(x: int);
    rule visible@a($x) :- item@a($x), not banned@a($x);
  )");
  ASSERT_TRUE(engine.LoadProgram(p).ok());
  ASSERT_TRUE(engine.InsertFact(F("item", "a", {I(1)})).ok());
  ASSERT_TRUE(engine.InsertFact(F("item", "a", {I(2)})).ok());
  Settle(&engine);
  const Relation* visible = engine.catalog().Get("visible");
  EXPECT_EQ(visible->size(), 2u);

  // A change to the negated relation seeds the Δ stage through the
  // negated atom: a gain retracts what it held for, a loss derives what
  // it held back.
  const uint64_t full_before = engine.eval_counters().stages_full;
  ASSERT_TRUE(engine.InsertFact(F("banned", "a", {I(1)})).ok());
  Settle(&engine);
  EXPECT_EQ(engine.eval_counters().stages_full, full_before);
  EXPECT_FALSE(visible->Contains({I(1)}));
  EXPECT_TRUE(visible->Contains({I(2)}));

  ASSERT_TRUE(engine.RemoveFact(F("banned", "a", {I(1)})).ok());
  Settle(&engine);
  EXPECT_EQ(engine.eval_counters().stages_full, full_before);
  EXPECT_TRUE(visible->Contains({I(1)}));
}

TEST(IncrementalEngineTest, SupportCountsKeepMultiSourceTuplesAlive) {
  // Two senders contribute overlapping slices into one view; the view
  // peer also derives one overlapping tuple locally. Tuples must leave
  // exactly when their last support (remote or derived) disappears.
  System system;
  Peer* hub = system.CreatePeer("hub");
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  ASSERT_TRUE(hub->LoadProgramText(R"(
    collection ext own@hub(x: int);
    collection int board@hub(x: int);
    rule board@hub($x) :- own@hub($x);
  )").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext data@b(x: int);
    rule board@hub($x) :- data@b($x);
  )").ok());
  ASSERT_TRUE(a->Insert(F("data", "a", {I(1)})).ok());
  ASSERT_TRUE(b->Insert(F("data", "b", {I(1)})).ok());
  ASSERT_TRUE(hub->Insert(F("own", "hub", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* board = hub->engine().catalog().Get("board");
  ASSERT_TRUE(board->Contains({I(1)}));

  // Withdraw supports one at a time: the tuple survives until the last.
  ASSERT_TRUE(a->Remove(F("data", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_TRUE(board->Contains({I(1)}));
  ASSERT_TRUE(hub->Remove(F("own", "hub", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_TRUE(board->Contains({I(1)}));  // b still contributes
  ASSERT_TRUE(b->Remove(F("data", "b", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_FALSE(board->Contains({I(1)}));
}

// --- multi-peer oracle scenarios -------------------------------------

TEST(IncrementalOracleTest, RecursiveViewWithChurn) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a");
  Load(a, &ref, R"(
    collection ext edge@a(x: int, y: int);
    collection int tc@a(x: int, y: int);
    rule tc@a($x, $y) :- edge@a($x, $y);
    rule tc@a($x, $z) :- edge@a($x, $y), tc@a($y, $z);
  )");
  for (int i = 0; i < 12; ++i) {
    Insert(a, &ref, F("edge", "a", {I(i), I(i + 1)}));
  }
  Insert(a, &ref, F("edge", "a", {I(4), I(9)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  Remove(a, &ref, F("edge", "a", {I(6), I(7)}));
  Remove(a, &ref, F("edge", "a", {I(0), I(1)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  Insert(a, &ref, F("edge", "a", {I(6), I(7)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

TEST(IncrementalOracleTest, MultiPeerOverlapAndDownstreamCascade) {
  System system;
  ReferenceProgram ref;
  Peer* hub = system.CreatePeer("hub");
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  Load(hub, &ref, R"(
    collection int board@hub(x: int);
    collection int big@hub(x: int);
    rule big@hub($x) :- board@hub($x), threshold@hub($x);
    collection ext threshold@hub(x: int);
  )");
  Load(a, &ref, R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )");
  Load(b, &ref, R"(
    collection ext data@b(x: int);
    rule board@hub($x) :- data@b($x);
  )");
  for (int i = 0; i < 8; ++i) {
    Insert(a, &ref, F("data", "a", {I(i)}));
    Insert(hub, &ref, F("threshold", "hub", {I(i)}));
  }
  for (int i = 5; i < 12; ++i) Insert(b, &ref, F("data", "b", {I(i)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  // Overlapping deletion (6 survives via b), full deletion (0), and a
  // downstream-view cascade through big@hub.
  Remove(a, &ref, F("data", "a", {I(6)}));
  Remove(a, &ref, F("data", "a", {I(0)}));
  Remove(b, &ref, F("data", "b", {I(11)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  Remove(hub, &ref, F("threshold", "hub", {I(3)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

// The remote body atom delegates one residual per friends binding.
void LoadSpotting(Peer* a, Peer* b, ReferenceProgram* ref) {
  Load(a, ref, R"(
    collection ext friends@a(who: string);
    collection int spotted@a(who: string);
  )");
  Load(b, ref, R"(
    collection ext seen@b(who: string);
    fact seen@b("carol");
    fact seen@b("erin");
  )");
}

TEST(IncrementalOracleTest, DelegationInstallAndRetractOnDeletion) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  system.CreatePeer("c", Trusting());
  LoadSpotting(a, b, &ref);
  Insert(a, &ref, F("friends", "a", {test::S("carol")}));
  Insert(a, &ref, F("friends", "a", {test::S("dave")}));
  Load(a, &ref, "rule spotted@a($w) :- friends@a($w), seen@b($w);");
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  // Deleting a friend must retract its residual at b and drain the
  // contribution; adding one must install a new residual.
  Remove(a, &ref, F("friends", "a", {test::S("carol")}));
  Insert(a, &ref, F("friends", "a", {test::S("erin")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  for (const InstalledRule* ir : system.GetPeer("b")->engine().rules()) {
    EXPECT_EQ(ir->rule.ToString().find("carol"), std::string::npos)
        << ir->rule.ToString();
  }
}

// Regression: two α-equivalent rules at one peer once shared one plan,
// which stamped their residuals with the hash of the variant compiled
// first. After that variant is removed, a deletion must still retract
// the survivor's residual; matching residuals by the surviving rule's
// own hash left `spotted@a("carol") :- seen@b("carol")` at b and carol
// in spotted@a.
TEST(IncrementalOracleTest, AlphaVariantSurvivorRetractsResidual) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  LoadSpotting(a, b, &ref);
  Result<uint64_t> first =
      a->AddRuleText("rule spotted@a($v) :- friends@a($v), seen@b($v);");
  ASSERT_TRUE(first.ok());
  Load(a, &ref, "rule spotted@a($w) :- friends@a($w), seen@b($w);");
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->RemoveRule(*first).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());

  Insert(a, &ref, F("friends", "a", {test::S("carol")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->engine().catalog().Get("spotted")->Contains(
      {test::S("carol")}));
  Remove(a, &ref, F("friends", "a", {test::S("carol")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

// Residuals keep their rule's variable names, so two α-variants whose
// residuals keep a free variable delegate two residuals under one hash.
// Retracting one variant must retract its own residual and leave the
// other's, and the rebuild after a deletion must re-emit the survivor's.
TEST(IncrementalOracleTest, AlphaVariantsKeepTheirOwnResidualSpelling) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  Load(a, &ref, R"(
    collection ext friends@a(who: string);
    collection int pair@a(who: string, n: int);
  )");
  Load(b, &ref, R"(
    collection ext seen@b(who: string, n: int);
    fact seen@b("carol", 1);
    fact seen@b("dave", 2);
  )");
  Insert(a, &ref, F("friends", "a", {test::S("carol")}));
  Insert(a, &ref, F("friends", "a", {test::S("dave")}));
  Result<uint64_t> first =
      a->AddRuleText("rule pair@a($v, $n) :- friends@a($v), seen@b($v, $n);");
  ASSERT_TRUE(first.ok());
  Load(a, &ref, "rule pair@a($w, $m) :- friends@a($w), seen@b($w, $m);");
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(b->engine().rules().size(), 4u);  // two spellings per friend

  ASSERT_TRUE(a->RemoveRule(*first).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);

  Remove(a, &ref, F("friends", "a", {test::S("carol")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

// Two rules, one local and one delegating, are retracted between two
// stages, each after its α-variant was installed and before that
// variant is retracted too. The variant shares the rule's plan but no
// stage ran it, so what the rule derived (known@a("carol"), and the
// residual at b with the contribution it ships) must still go.
TEST(IncrementalOracleTest, AlphaVariantInstalledAndRetractedBetweenStages) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  LoadSpotting(a, b, &ref);
  Load(a, &ref, "collection int known@a(who: string);");
  Insert(a, &ref, F("friends", "a", {test::S("carol")}));
  Result<uint64_t> known = a->AddRuleText("known@a($v) :- friends@a($v)");
  Result<uint64_t> spotted =
      a->AddRuleText("spotted@a($v) :- friends@a($v), seen@b($v)");
  ASSERT_TRUE(known.ok() && spotted.ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->engine().catalog().Get("known")->Contains({test::S("carol")}));
  ASSERT_TRUE(
      a->engine().catalog().Get("spotted")->Contains({test::S("carol")}));

  for (auto [id, variant] :
       {std::pair(*known, "known@a($w) :- friends@a($w)"),
        std::pair(*spotted, "spotted@a($w) :- friends@a($w), seen@b($w)")}) {
    Result<uint64_t> twin = a->AddRuleText(variant);
    ASSERT_TRUE(twin.ok());
    ASSERT_TRUE(a->RemoveRule(id).ok());
    ASSERT_TRUE(a->RemoveRule(*twin).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

// One stage drops a residual and derives it again. Removing root@a("b")
// over-deletes reach@a("b"), so the delegation rebuild drops b's
// residual; the forward pass then derives reach@a("b") again through
// the new root c and emits the same residual. The net change at b is
// nothing: the residual stays installed under the id it had.
TEST(IncrementalOracleTest, DelegationLostAndRegainedInOneStageStays) {
  System system;
  ReferenceProgram ref;
  Peer* a = system.CreatePeer("a", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  Peer* c = system.CreatePeer("c", Trusting());
  Load(a, &ref, R"(
    collection ext root@a(p: string);
    collection ext link@a(p: string, q: string);
    collection int reach@a(p: string);
    collection int got@a(x: int);
    rule reach@a($p) :- root@a($p);
    rule reach@a($q) :- reach@a($p), link@a($p, $q);
    rule got@a($x) :- reach@a($p), data@$p($x);
  )");
  Load(b, &ref, "collection ext data@b(x: int); fact data@b(1);");
  Load(c, &ref, "collection ext data@c(x: int); fact data@c(2);");
  Insert(a, &ref, F("root", "a", {test::S("b")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  auto delegated_ids = [](const Peer* peer) {
    std::vector<uint64_t> ids;
    for (const InstalledRule* ir : peer->engine().rules()) {
      if (ir->delegation_key != 0) ids.push_back(ir->id);
    }
    return ids;
  };
  const std::vector<uint64_t> ids_before = delegated_ids(b);
  ASSERT_EQ(ids_before.size(), 1u);
  const uint64_t incremental_before =
      a->engine().eval_counters().stages_incremental;

  Remove(a, &ref, F("root", "a", {test::S("b")}));
  Insert(a, &ref, F("root", "a", {test::S("c")}));
  Insert(a, &ref, F("link", "a", {test::S("c"), test::S("b")}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  EXPECT_EQ(delegated_ids(b), ids_before);
  EXPECT_EQ(delegated_ids(c).size(), 1u);
  EXPECT_GT(a->engine().eval_counters().stages_incremental,
            incremental_before);
}

// board@hub(1) has mixed support: own@hub(1) derives it locally and a
// contributes it. Withdrawing either support must leave it, its
// downstream view and the contribution fed from that view in place;
// withdrawing the other must retract all three. Both orders.
TEST(IncrementalOracleTest, MixedSupportSurvivesEitherWithdrawal) {
  for (bool remote_first : {true, false}) {
    SCOPED_TRACE(remote_first ? "remote support withdrawn first"
                              : "local support withdrawn first");
    System system;
    ReferenceProgram ref;
    Peer* hub = system.CreatePeer("hub");
    Peer* a = system.CreatePeer("a");
    Peer* out = system.CreatePeer("out");
    Load(hub, &ref, R"(
      collection ext own@hub(x: int);
      collection int board@hub(x: int);
      collection int top@hub(x: int);
      rule board@hub($x) :- own@hub($x);
      rule top@hub($x) :- board@hub($x);
      rule mirror@out($x) :- top@hub($x);
    )");
    Load(a, &ref, R"(
      collection ext data@a(x: int);
      rule board@hub($x) :- data@a($x);
    )");
    Load(out, &ref, "collection int mirror@out(x: int);");
    Insert(hub, &ref, F("own", "hub", {I(1)}));
    Insert(a, &ref, F("data", "a", {I(1)}));
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    test::ExpectMatchesReference(system, ref);

    auto withdraw = [&](bool remote) {
      if (remote) {
        Remove(a, &ref, F("data", "a", {I(1)}));
      } else {
        Remove(hub, &ref, F("own", "hub", {I(1)}));
      }
      ASSERT_TRUE(system.RunUntilQuiescent().ok());
      test::ExpectMatchesReference(system, ref);
    };
    withdraw(remote_first);
    EXPECT_TRUE(out->engine().catalog().Get("mirror")->Contains({I(1)}));
    withdraw(!remote_first);
    EXPECT_FALSE(out->engine().catalog().Get("mirror")->Contains({I(1)}));
  }
}

// a contributes reach@hub(1), and the link cycle 1 -> 2 -> 1 derives
// reach@hub(1) again from reach@hub(2). That derivation exists only
// through the contributed tuple itself, so withdrawing the contribution
// must retract the whole cycle.
TEST(IncrementalOracleTest, SliceLossRetractsSelfSupportingCycle) {
  System system;
  ReferenceProgram ref;
  Peer* hub = system.CreatePeer("hub");
  Peer* a = system.CreatePeer("a");
  Load(hub, &ref, R"(
    collection ext link@hub(x: int, y: int);
    collection int reach@hub(x: int);
    rule reach@hub($y) :- reach@hub($x), link@hub($x, $y);
  )");
  Load(a, &ref, R"(
    collection ext data@a(x: int);
    rule reach@hub($x) :- data@a($x);
  )");
  Insert(hub, &ref, F("link", "hub", {I(1), I(2)}));
  Insert(hub, &ref, F("link", "hub", {I(2), I(1)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  Insert(a, &ref, F("data", "a", {I(1)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  ASSERT_EQ(hub->engine().catalog().Get("reach")->size(), 2u);

  Remove(a, &ref, F("data", "a", {I(1)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  EXPECT_EQ(hub->engine().catalog().Get("reach")->size(), 0u);
}

// The cycle above, with reach's rules lifted to the second stratum by a
// negated rule that also writes reach, and a second support: hub's own
// start rule. Its last support goes as a lost contribution (data@a
// removed) or as the facts of a retracted rule (hub's start rule, after
// a's rule is retracted). Either over-delete closure must run the
// cycle's rules in reach's stratum.
TEST(IncrementalOracleTest, CycleAboveNegationLosesItsLastSupport) {
  for (bool retract_rule : {false, true}) {
    SCOPED_TRACE(retract_rule ? "rule retract" : "slice loss");
    System system;
    ReferenceProgram ref;
    Peer* hub = system.CreatePeer("hub");
    Peer* a = system.CreatePeer("a");
    Load(hub, &ref, R"(
      collection ext link@hub(x: int, y: int);
      collection ext start@hub(x: int);
      collection ext seed@hub(x: int);
      collection ext blocked@hub(x: int);
      collection int reach@hub(x: int);
      rule reach@hub($y) :- reach@hub($x), link@hub($x, $y);
      rule reach@hub($x) :- seed@hub($x), not blocked@hub($x);
    )");
    Load(a, &ref, R"(
      collection ext data@a(x: int);
    )");
    const char* kFromData = "reach@hub($x) :- data@a($x)";
    const char* kFromStart = "reach@hub($x) :- start@hub($x)";
    Result<uint64_t> from_data = a->AddRuleText(kFromData);
    Result<uint64_t> from_start = hub->AddRuleText(kFromStart);
    ASSERT_TRUE(from_data.ok() && from_start.ok());
    ref.peers["a"].rules.push_back(test::R(kFromData));
    ref.peers["hub"].rules.push_back(test::R(kFromStart));
    Insert(hub, &ref, F("link", "hub", {I(1), I(2)}));
    Insert(hub, &ref, F("link", "hub", {I(2), I(1)}));
    Insert(hub, &ref, F("start", "hub", {I(1)}));
    Insert(a, &ref, F("data", "a", {I(1)}));
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    test::ExpectMatchesReference(system, ref);
    ASSERT_EQ(hub->engine().catalog().Get("reach")->size(), 2u);

    // The cycle keeps one of its two supports.
    if (retract_rule) {
      ASSERT_TRUE(a->RemoveRule(*from_data).ok());
      ref.peers["a"].rules.pop_back();
    } else {
      Remove(hub, &ref, F("start", "hub", {I(1)}));
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    test::ExpectMatchesReference(system, ref);
    EXPECT_EQ(hub->engine().catalog().Get("reach")->size(), 2u);

    // Its last support goes.
    if (retract_rule) {
      ASSERT_TRUE(hub->RemoveRule(*from_start).ok());
      ref.peers["hub"].rules.pop_back();
    } else {
      Remove(a, &ref, F("data", "a", {I(1)}));
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    test::ExpectMatchesReference(system, ref);
    EXPECT_EQ(hub->engine().catalog().Get("reach")->size(), 0u);
  }
}

// A deletion rule with a remote head is outside the reference fragment,
// and its effect is history: the deleted fact stays deleted at b after
// the verdict lapses, because the contribution that carried it never
// changed and so never re-ships.
TEST(IncrementalOracleTest, DeletionRulesAgree) {
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext src@a(x: int);
    collection ext kill@a(x: int);
    rule p@b($x) :- src@a($x);
    rule -p@b($x) :- src@a($x), kill@a($x);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText("collection ext p@b(x: int);").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a->Insert(F("src", "a", {I(i)})).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* p = b->engine().catalog().Get("p");
  const std::vector<Tuple> all = {{I(0)}, {I(1)}, {I(2)}, {I(3)}};
  const std::vector<Tuple> without_2 = {{I(0)}, {I(1)}, {I(3)}};
  EXPECT_EQ(p->SortedTuples(), all);
  ASSERT_TRUE(a->Insert(F("kill", "a", {I(2)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(p->SortedTuples(), without_2);
  ASSERT_TRUE(a->Remove(F("kill", "a", {I(2)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(p->SortedTuples(), without_2);
  EXPECT_EQ(a->engine().catalog().Get("src")->size(), 4u);
  EXPECT_EQ(a->engine().catalog().Get("kill")->size(), 0u);
}

TEST(IncrementalOracleTest, StratifiedNegationAgrees) {
  System system;
  ReferenceProgram ref;
  Peer* hub = system.CreatePeer("hub");
  Peer* a = system.CreatePeer("a");
  Load(hub, &ref, R"(
    collection ext blocked@hub(x: int);
    collection int feed@hub(x: int);
    collection int inbox@hub(x: int);
    rule feed@hub($x) :- inbox@hub($x), not blocked@hub($x);
  )");
  Load(a, &ref, R"(
    collection ext posts@a(x: int);
    rule inbox@hub($x) :- posts@a($x);
  )");
  for (int i = 0; i < 6; ++i) Insert(a, &ref, F("posts", "a", {I(i)}));
  Insert(hub, &ref, F("blocked", "hub", {I(2)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  Insert(hub, &ref, F("blocked", "hub", {I(4)}));
  Remove(a, &ref, F("posts", "a", {I(1)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
  Remove(hub, &ref, F("blocked", "hub", {I(2)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, ref);
}

// Randomized multi-peer churn: seeded op sequences (inserts, deletes,
// a delegating rule added and removed), checked against the reference
// after every batch.
TEST(IncrementalOracleTest, RandomizedWorkloadsConvergeIdentically) {
  for (uint64_t seed : {7ull, 21ull, 1234ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    System system;
    ReferenceProgram ref;
    Peer* hub = system.CreatePeer("hub", Trusting());
    Peer* a = system.CreatePeer("a", Trusting());
    Peer* b = system.CreatePeer("b", Trusting());
    Load(hub, &ref, R"(
      collection int board@hub(x: int);
      collection int reach@hub(x: int);
      rule reach@hub($x) :- board@hub($x), links@hub($x, $y);
      rule reach@hub($y) :- reach@hub($x), links@hub($x, $y);
      collection ext links@hub(x: int, y: int);
    )");
    Load(a, &ref, R"(
      collection ext data@a(x: int);
      rule board@hub($x) :- data@a($x);
    )");
    Load(b, &ref, R"(
      collection ext data@b(x: int);
      collection int spotted@b(x: int);
      rule board@hub($x) :- data@b($x);
    )");
    const char* kSpot = "spotted@b($x) :- data@b($x), data@a($x)";
    std::vector<Rule>& b_rules = ref.peers["b"].rules;
    Rng rng(seed);
    uint64_t spot_rule = 0;
    for (int batch = 0; batch < 6; ++batch) {
      for (int op = 0; op < 10; ++op) {
        int v = static_cast<int>(rng.NextBelow(12));
        switch (rng.NextBelow(6)) {
          case 0:
            Insert(a, &ref, F("data", "a", {I(v)}));
            break;
          case 1:
            Insert(b, &ref, F("data", "b", {I(v)}));
            break;
          case 2:
            Remove(a, &ref, F("data", "a", {I(v)}));
            break;
          case 3:
            Remove(b, &ref, F("data", "b", {I(v)}));
            break;
          case 4:
            Insert(hub, &ref, F("links", "hub", {I(v), I((v + 3) % 12)}));
            break;
          case 5:
            Remove(hub, &ref, F("links", "hub", {I(v), I((v + 3) % 12)}));
            break;
        }
      }
      // Churn a delegating rule (installs + retracts).
      if (batch == 2) {
        Result<uint64_t> id = b->AddRuleText(kSpot);
        ASSERT_TRUE(id.ok());
        spot_rule = *id;
        b_rules.push_back(test::R(kSpot));
      }
      if (batch == 4) {
        ASSERT_TRUE(b->engine().RemoveRule(spot_rule).ok());
        b_rules.pop_back();
      }
      ASSERT_TRUE(system.RunUntilQuiescent(5000).ok());
      test::ExpectMatchesReference(system, ref);
    }
    // The run must actually have exercised the Δ path.
    uint64_t incr_stages = 0;
    for (const std::string& name : system.PeerNames()) {
      incr_stages +=
          system.GetPeer(name)->engine().eval_counters().stages_incremental;
    }
    EXPECT_GT(incr_stages, 0u);
  }
}

// Randomized churn where support is mixed: reach@hub is recursive over
// links that form cycles, derived locally from own@hub and contributed
// by a and b; a view and a contribution to b read it, and b's
// variable-peer rule delegates to a or reads locally. Batches of 1-6
// ops land in one stage and are checked against the reference.
TEST(IncrementalOracleTest, RandomizedCyclesWithMixedSupport) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    System system;
    ReferenceProgram ref;
    Peer* hub = system.CreatePeer("hub", Trusting());
    Peer* a = system.CreatePeer("a", Trusting());
    Peer* b = system.CreatePeer("b", Trusting());
    Load(hub, &ref, R"(
      collection ext own@hub(x: int);
      collection ext links@hub(x: int, y: int);
      collection int reach@hub(x: int);
      collection int top@hub(x: int);
      rule reach@hub($x) :- own@hub($x);
      rule reach@hub($y) :- reach@hub($x), links@hub($x, $y);
      rule top@hub($x) :- reach@hub($x), links@hub($x, $x);
      rule mirror@b($x) :- top@hub($x);
      rule mirror@b($x) :- reach@hub($x), own@hub($x);
    )");
    Load(a, &ref, R"(
      collection ext data@a(x: int);
      rule reach@hub($x) :- data@a($x);
    )");
    Load(b, &ref, R"(
      collection ext data@b(x: int);
      collection ext sel@b(p: string);
      collection int mirror@b(x: int);
      collection int got@b(x: int);
      rule reach@hub($x) :- data@b($x);
      rule got@b($x) :- sel@b($p), data@$p($x);
    )");
    Rng rng(seed);
    for (int batch = 0; batch < 16; ++batch) {
      const int ops = 1 + static_cast<int>(rng.NextBelow(6));
      for (int op = 0; op < ops; ++op) {
        const int v = static_cast<int>(rng.NextBelow(5));
        const int w = static_cast<int>(rng.NextBelow(5));
        auto apply = rng.NextBelow(3) != 0 ? Insert : Remove;
        switch (rng.NextBelow(5)) {
          case 0:
            apply(hub, &ref, F("own", "hub", {I(v)}));
            break;
          case 1:
            apply(hub, &ref, F("links", "hub", {I(v), I(w)}));
            break;
          case 2:
            apply(a, &ref, F("data", "a", {I(v)}));
            break;
          case 3:
            apply(b, &ref, F("data", "b", {I(v)}));
            break;
          case 4:
            apply(b, &ref, F("sel", "b", {test::S(v % 2 ? "a" : "b")}));
            break;
        }
      }
      ASSERT_TRUE(system.RunUntilQuiescent(5000).ok());
      test::ExpectMatchesReference(system, ref);
      if (HasFailure()) return;
    }
  }
}

// Randomized churn of rules and facts over stratified negation, checked
// against the reference after every batch. hub's board is derived from
// own@hub and contributed by a and b; hot@hub is derived from it. The
// churned rules negate extensional (banned, muted) and derived (hot,
// visible's, quiet's and reach's) relations over up to three strata,
// one of them twice (quiet negates hot and muted, which a "both" op
// makes gain the same binding in one batch), and one is installed under
// two α-variant spellings. reach@hub is recursive over links that start
// as two cycles; it is contributed by a, fed by a churned rule from
// own@hub, and by a negated rule (tag, not muted) that lifts the
// cycle's rules to the second stratum, so a cycle can lose its last
// support there as a lost contribution or as a retracted rule's facts.
// b's variable-peer rule delegates to a or reads locally, and its
// churned negated variant leaves a residual at a that splits back to b.
// Only each engine's first stage may be full.
TEST(IncrementalOracleTest, RandomizedRuleChurnWithNegation) {
  struct Churned {
    const char* peer;
    const char* text;
  };
  const std::vector<Churned> kRules = {
      {"hub", "visible@hub($x) :- board@hub($x), not banned@hub($x)"},
      {"hub", "visible@hub($y) :- board@hub($y), not banned@hub($y)"},
      {"hub", "quiet@hub($x) :- board@hub($x), not hot@hub($x), "
              "not muted@hub($x)"},
      {"hub", "top@hub($x) :- visible@hub($x), not quiet@hub($x)"},
      {"hub", "reach@hub($x) :- own@hub($x)"},
      {"hub", "lone@hub($x) :- board@hub($x), not reach@hub($x)"},
      {"b", "kept@b($x) :- sel@b($p), data@$p($x), not banned@b($x)"},
  };
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    System system;
    ReferenceProgram ref;
    Peer* hub = system.CreatePeer("hub", Trusting());
    Peer* a = system.CreatePeer("a", Trusting());
    Peer* b = system.CreatePeer("b", Trusting());
    Load(hub, &ref, R"(
      collection ext own@hub(x: int);
      collection ext tag@hub(x: int);
      collection ext banned@hub(x: int);
      collection ext muted@hub(x: int);
      collection int board@hub(x: int);
      collection int hot@hub(x: int);
      collection int visible@hub(x: int);
      collection int quiet@hub(x: int);
      collection int top@hub(x: int);
      collection ext links@hub(x: int, y: int);
      collection int reach@hub(x: int);
      collection int lone@hub(x: int);
      rule board@hub($x) :- own@hub($x);
      rule hot@hub($x) :- board@hub($x), tag@hub($x);
      rule reach@hub($y) :- reach@hub($x), links@hub($x, $y);
      rule reach@hub($x) :- tag@hub($x), not muted@hub($x);
    )");
    Load(a, &ref, R"(
      collection ext data@a(x: int);
      rule board@hub($x) :- data@a($x);
      rule reach@hub($x) :- data@a($x);
    )");
    Load(b, &ref, R"(
      collection ext data@b(x: int);
      collection ext sel@b(p: string);
      collection ext banned@b(x: int);
      collection int got@b(x: int);
      collection int kept@b(x: int);
      rule board@hub($x) :- data@b($x);
      rule got@b($x) :- sel@b($p), data@$p($x);
    )");
    for (int v = 0; v < 4; ++v) {  // two 2-cycles: 0 <-> 1, 2 <-> 3
      Insert(hub, &ref, F("links", "hub", {I(v), I(v ^ 1)}));
    }
    std::vector<uint64_t> ids(kRules.size(), 0);  // 0: not installed
    Rng rng(seed);
    for (int batch = 0; batch < 12; ++batch) {
      const int ops = 1 + static_cast<int>(rng.NextBelow(6));
      for (int op = 0; op < ops; ++op) {
        const int v = static_cast<int>(rng.NextBelow(4));
        auto apply = rng.NextBelow(3) != 0 ? Insert : Remove;
        switch (rng.NextBelow(12)) {
          case 0:
            apply(hub, &ref, F("own", "hub", {I(v)}));
            break;
          case 1:
            apply(hub, &ref, F("tag", "hub", {I(v)}));
            break;
          case 2:
            apply(hub, &ref, F("banned", "hub", {I(v)}));
            break;
          case 3:
            apply(hub, &ref, F("muted", "hub", {I(v)}));
            break;
          case 4:  // hot@hub and muted@hub gain the same binding
            Insert(hub, &ref, F("tag", "hub", {I(v)}));
            Insert(hub, &ref, F("muted", "hub", {I(v)}));
            break;
          case 5:
            apply(a, &ref, F("data", "a", {I(v)}));
            break;
          case 6:
            apply(b, &ref, F("data", "b", {I(v)}));
            break;
          case 7:
            apply(b, &ref, F("sel", "b", {test::S(v % 2 ? "a" : "b")}));
            break;
          case 8:
            apply(b, &ref, F("banned", "b", {I(v)}));
            break;
          case 9: {
            const int w = static_cast<int>(rng.NextBelow(4));
            apply(hub, &ref, F("links", "hub", {I(v), I(w)}));
            break;
          }
          default: {  // install or retract one churned rule
            const size_t k = rng.NextBelow(kRules.size());
            Peer* peer = system.GetPeer(kRules[k].peer);
            std::vector<Rule>& rules = ref.peers[kRules[k].peer].rules;
            const Rule rule = test::R(kRules[k].text);
            if (ids[k] == 0) {
              Result<uint64_t> id = peer->AddRuleText(kRules[k].text);
              ASSERT_TRUE(id.ok()) << id.status();
              ids[k] = *id;
              rules.push_back(rule);
            } else {
              ASSERT_TRUE(peer->RemoveRule(ids[k]).ok());
              ids[k] = 0;
              rules.erase(std::find(rules.begin(), rules.end(), rule));
            }
            break;
          }
        }
      }
      ASSERT_TRUE(system.RunUntilQuiescent(5000).ok());
      test::ExpectMatchesReference(system, ref);
      for (const std::string& name : system.PeerNames()) {
        EXPECT_EQ(system.GetPeer(name)->engine().eval_counters().stages_full,
                  1u)
            << name;
      }
      if (HasFailure()) return;
    }
  }
}

// Scripted multi-peer churn: hub's variable-peer rule re-targets its
// delegation as selections toggle between b and c, pictures and edges
// come and go, and b's local recursion feeds a view at hub. Every step
// is checked against the reference.
TEST(IncrementalOracleTest, DelegationRetargetingChurn) {
  System system;
  ReferenceProgram ref;
  Peer* hub = system.CreatePeer("hub", Trusting());
  Peer* b = system.CreatePeer("b", Trusting());
  Peer* c = system.CreatePeer("c", Trusting());
  Load(hub, &ref, R"(
    collection ext selected@hub(who: string);
    collection int gallery@hub(id: int);
    collection int summary@hub(x: int);
    rule gallery@hub($id) :- selected@hub($w), pictures@$w($id);
  )");
  Load(b, &ref, R"(
    collection ext pictures@b(id: int);
    collection ext edge@b(x: int, y: int);
    collection int tc@b(x: int, y: int);
    rule tc@b($x, $y) :- edge@b($x, $y);
    rule tc@b($x, $z) :- tc@b($x, $y), edge@b($y, $z);
    rule summary@hub($x) :- tc@b($x, $_);
  )");
  Load(c, &ref, "collection ext pictures@c(id: int);");
  for (int i = 0; i < 24; ++i) {
    Insert(b, &ref, F("edge", "b", {I(i), I(i + 1)}));
  }

  uint64_t s = 99;  // an LCG scripts the steps
  auto next = [&s](int mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((s >> 33) % mod);
  };
  const std::vector<std::string> names = {"b", "c"};
  for (int step = 0; step < 10; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const std::string& who = names[next(2)];
    if (next(3) == 0) {
      Remove(hub, &ref, F("selected", "hub", {test::S(who)}));
    } else {
      Insert(hub, &ref, F("selected", "hub", {test::S(who)}));
    }
    Peer* owner = system.GetPeer(who);
    int id = next(16);
    if (next(4) == 0) {
      Remove(owner, &ref, F("pictures", who, {I(id)}));
    } else {
      Insert(owner, &ref, F("pictures", who, {I(id)}));
    }
    int e = next(24);
    if (next(5) == 0) {
      Remove(b, &ref, F("edge", "b", {I(e), I(e + 1)}));
    } else {
      Insert(b, &ref, F("edge", "b", {I(e), I(e + 1)}));
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    test::ExpectMatchesReference(system, ref);
  }
}

}  // namespace
}  // namespace wdl
