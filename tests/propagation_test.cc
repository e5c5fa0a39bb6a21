// Propagation-plane oracle suite. Multi-peer runs over the delta
// protocol (versioned streams with resync, DESIGN.md §5) must converge
// to exactly the state the reference evaluator computes from the
// scenario's inputs — through deletions, delegation retracts, loss
// with healing, and duplication. Scenarios whose outcome depends on
// history (remote deletions re-armed by re-shipped inserts) assert
// the expected state directly.

#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "runtime/query.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/counters.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::I;
using test::Insert;
using test::Load;
using test::NetworkCounters;
using test::ReferenceProgram;
using test::Remove;
using test::S;

using Scenario = std::function<void(System&, ReferenceProgram*)>;

// Runs `scenario` on a fresh system, expects the reference's state,
// and hands the system back for scenario-specific checks.
std::unique_ptr<System> RunAgainstReference(const Scenario& scenario,
                                            SystemOptions sys_opts = {}) {
  auto system = std::make_unique<System>(sys_opts);
  ReferenceProgram reference;
  scenario(*system, &reference);
  test::ExpectMatchesReference(*system, reference);
  return system;
}

// Two senders feed one intensional board with overlapping tuples; facts
// are later deleted, including one whose twin survives at the other
// sender (support counts must keep it alive).
void OverlappingViewScenario(System& system, ReferenceProgram* ref) {
  Peer* hub = system.CreatePeer("hub");
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  Load(hub, ref, "collection int board@hub(x: int);");
  Load(a, ref, R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )");
  Load(b, ref, R"(
    collection ext data@b(x: int);
    rule board@hub($x) :- data@b($x);
  )");
  for (int64_t i = 0; i < 6; ++i) Insert(a, ref, Fact("data", "a", {I(i)}));
  for (int64_t i = 4; i < 10; ++i) {  // 4 and 5 overlap with a
    Insert(b, ref, Fact("data", "b", {I(i)}));
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());

  // Deletions: 4 stays supported by b; 0 vanishes outright; 9 vanishes
  // from b's side.
  Remove(a, ref, Fact("data", "a", {I(4)}));
  Remove(a, ref, Fact("data", "a", {I(0)}));
  Remove(b, ref, Fact("data", "b", {I(9)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
}

TEST(PropagationOracleTest, OverlappingViewsWithDeletions) {
  auto system = RunAgainstReference(OverlappingViewScenario);
  // Sanity on the converged content and its support counts.
  const Engine& hub = system->GetPeer("hub")->engine();
  const Relation* board = hub.catalog().Get("board");
  ASSERT_NE(board, nullptr);
  EXPECT_EQ(board->size(), 8u);                  // 1..8
  EXPECT_TRUE(board->Contains({I(4)}));          // still supported by b
  EXPECT_FALSE(board->Contains({I(0)}));
  EXPECT_FALSE(board->Contains({I(9)}));
  EXPECT_EQ(hub.slice_store().SupportCount("board", {I(4)}), 1u);
}

// A rule whose body crosses to a remote peer delegates a residual; when
// the rule is removed, the delegation retracts and the remote peer's
// contribution must drain from the view.
void DelegationRetractScenario(System& system, ReferenceProgram* ref) {
  Peer* a = system.CreatePeer("a");
  Peer* b = system.CreatePeer("b");
  a->gate().TrustPeer("b");
  b->gate().TrustPeer("a");
  Load(a, ref, R"(
    collection ext friends@a(who: string);
    collection int spotted@a(who: string);
    fact friends@a("carol");
    fact friends@a("dave");
  )");
  Load(b, ref, R"(
    collection ext seen@b(who: string);
    fact seen@b("carol");
    fact seen@b("erin");
  )");
  // The rule comes and goes: its net effect on the inputs is nothing,
  // so the reference never sees it.
  Result<uint64_t> rule = a->AddRuleText(
      "spotted@a($w) :- friends@a($w), seen@b($w)");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(
      a->engine().catalog().Get("spotted")->Contains({S("carol")}));

  ASSERT_TRUE(a->RemoveRule(*rule).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
}

TEST(PropagationOracleTest, DelegationRetractDrainsContribution) {
  auto system = RunAgainstReference(DelegationRetractScenario);
  EXPECT_EQ(system->GetPeer("a")->engine().catalog().Get("spotted")->size(),
            0u);
  // The residual at b is gone too.
  for (const InstalledRule* r : system->GetPeer("b")->engine().rules()) {
    EXPECT_EQ(r->delegation_key, 0u);
  }
}

// Total loss on the propagation path, then heal + touch: the receiver
// detects the version gap and resyncs to the true view.
void LossyThenHealScenario(System& system, ReferenceProgram* ref) {
  Peer* a = system.CreatePeer("a");
  Peer* hub = system.CreatePeer("hub");
  Load(hub, ref, "collection int board@hub(x: int);");
  Load(a, ref, R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
    rule mirror@hub($x) :- data@a($x);
  )");
  ASSERT_TRUE(system.RunUntilQuiescent().ok());

  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  for (int64_t i = 0; i < 8; ++i) Insert(a, ref, Fact("data", "a", {I(i)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* board = hub->engine().catalog().Get("board");
  ASSERT_TRUE(board == nullptr || board->empty());  // everything lost

  system.network().SetLink("a", "hub", LinkConfig{});
  Insert(a, ref, Fact("data", "a", {I(8)}));
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
}

TEST(PropagationOracleTest, LossHealsOnNextChange) {
  auto system = RunAgainstReference(LossyThenHealScenario);
  Peer* hub = system->GetPeer("hub");
  EXPECT_EQ(hub->engine().catalog().Get("board")->size(), 9u);
  // The extensional mirror heals through the same resync snapshot.
  EXPECT_EQ(hub->engine().catalog().Get("mirror")->size(), 9u);
  // And the repair really went through the gap->resync path.
  EXPECT_GE(hub->engine().propagation_counters().resyncs_requested, 1u);
}

// Every message delivered twice: version gates must drop the replayed
// deltas, and install/retract/delete messages are idempotent.
TEST(PropagationOracleTest, DuplicatingLinksConvergeIdentically) {
  SystemOptions duplicating;
  duplicating.default_link.duplicate_probability = 1.0;
  RunAgainstReference(OverlappingViewScenario, duplicating);
  RunAgainstReference(DelegationRetractScenario, duplicating);
}

// The point of the whole protocol: after a large view converged, a
// one-tuple change costs one delta insert and a fixed, small number of
// wire bytes — not O(view). The delta envelope for one int tuple is 81
// bytes on the wire (DESIGN.md §5); the ceiling leaves room for a
// longer relation name, never for a resent view (~6.5 KB here).
constexpr uint64_t kOneTupleDeltaByteCeiling = 128;

TEST(PropagationOracleTest, IncrementalChangeShipsChangeNotView) {
  System system;
  Peer* a = system.CreatePeer("a");
  Peer* hub = system.CreatePeer("hub");
  ASSERT_TRUE(hub->LoadProgramText("collection int board@hub(x: int);").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(a->Insert(Fact("data", "a", {I(i)})).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const PropagationCounters before = a->engine().propagation_counters();
  EXPECT_EQ(before.delta_inserts_shipped, 500u);

  NetworkCounters bytes_before(system.network());
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(1000)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const PropagationCounters& after = a->engine().propagation_counters();
  EXPECT_EQ(after.deltas_shipped - before.deltas_shipped, 1u);
  EXPECT_EQ(after.delta_inserts_shipped - before.delta_inserts_shipped, 1u);
  EXPECT_EQ(after.delta_deletes_shipped, before.delta_deletes_shipped);
  EXPECT_EQ(after.snapshots_shipped, before.snapshots_shipped);
  // One envelope carrying one int tuple; the 501-tuple view would be
  // several kilobytes.
  EXPECT_LE((NetworkCounters(system.network()) - bytes_before).bytes_sent,
            kOneTupleDeltaByteCeiling);
  EXPECT_EQ(hub->engine().catalog().Get("board")->size(), 501u);
}

// Regression (ISSUE PR4): the ship-once suppression of remote deletes
// must lift when the same fact is re-shipped as an insert. Before the
// fix, a fact deleted, re-asserted through a fresh contribution, then
// deleted again never re-shipped the delete — the receiver kept the
// zombie fact forever.
TEST(PropagationOracleTest, RemoteDeleteReshipsAfterInsertReship) {
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
  const Relation* p = b->engine().catalog().Get("p");

  // Ship p(1), then delete it through the deletion rule.
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(p->Contains({I(1)}));
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_FALSE(p->Contains({I(1)}));

  // Drain the contribution, then re-assert: p(1) ships as an insert
  // again, which must clear the delete suppression.
  ASSERT_TRUE(a->Remove(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(a->Remove(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(p->Contains({I(1)}));

  // Second deletion of the same fact: must ship (and delete) again.
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_FALSE(p->Contains({I(1)}));
}

// Companion regression: a resync *snapshot* also re-ships facts as
// inserts, so it must lift delete suppression the same way organic
// contribution traffic does — otherwise a receiver repaired through a
// snapshot keeps a zombie fact whose deletion verdict never re-ships.
TEST(PropagationOracleTest, ResyncSnapshotAlsoLiftsDeleteSuppression) {
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
  const Relation* p = b->engine().catalog().Get("p");

  // p(1) shipped and then deleted; the suppression entry is armed and
  // the contribution still carries p(1) (src(1) holds).
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->Insert(Fact("kill", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_FALSE(p->Contains({I(1)}));

  // Lose a frame, then heal: the next change exposes the gap, b
  // resyncs, and the snapshot re-delivers p(1) among the rest.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "b", dead);
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(2)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  system.network().SetLink("a", "b", LinkConfig{});
  ASSERT_TRUE(a->Insert(Fact("src", "a", {I(3)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());

  // The snapshot resurrected p(1) at b; the re-armed deletion verdict
  // must have shipped right behind it.
  EXPECT_TRUE(p->Contains({I(2)}));
  EXPECT_TRUE(p->Contains({I(3)}));
  EXPECT_FALSE(p->Contains({I(1)}));
  EXPECT_GE(b->engine().propagation_counters().resyncs_requested, 1u);
}

// Stream heartbeats (ROADMAP): a contribution stream that goes silent
// right after a dropped frame stays stale only until the next heartbeat
// — the version-only probe exposes the gap, the receiver requests a
// resync, and the snapshot repairs the view without any organic
// traffic on the stream.
TEST(PropagationOracleTest, HeartbeatBoundsStalenessAfterSilentLoss) {
  SystemOptions opts;
  opts.heartbeat_interval_rounds = 4;
  System system(opts);
  PeerOptions mode;
  Peer* a = system.CreatePeer("a", mode);
  Peer* hub = system.CreatePeer("hub", mode);
  ASSERT_TRUE(hub->LoadProgramText(
      "collection int board@hub(x: int);").ok());
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  const Relation* board = hub->engine().catalog().Get("board");
  ASSERT_EQ(board->size(), 1u);

  // Lose exactly the last frame of the stream, then go silent.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(2)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_EQ(board->size(), 1u);  // receiver is stale and doesn't know
  system.network().SetLink("a", "hub", LinkConfig{});

  // No organic traffic follows. Within one heartbeat interval plus the
  // resync round trip the receiver must repair itself.
  size_t heartbeats = 0;
  for (int round = 0; round < 12 && board->size() != 2u; ++round) {
    heartbeats += system.RunRound().heartbeats_sent;
  }
  EXPECT_EQ(board->size(), 2u);
  EXPECT_GE(heartbeats, 1u);
  EXPECT_GE(hub->engine().propagation_counters().heartbeat_gaps_detected,
            1u);
  EXPECT_GE(a->engine().propagation_counters().heartbeats_shipped, 1u);

  // Heartbeats are pure observation: once the streams agree they create
  // no lasting work — no further resyncs fire and the system keeps
  // reaching quiescence despite the periodic probes.
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  uint64_t resyncs_after_repair =
      hub->engine().propagation_counters().resyncs_requested;
  for (int i = 0; i < 8; ++i) (void)system.RunRound();
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(hub->engine().propagation_counters().resyncs_requested,
            resyncs_after_repair);
  EXPECT_EQ(board->size(), 2u);
}

// Regression: a stream whose every frame was lost and whose
// contribution then netted out to empty repairs through an *empty*
// snapshot to a relation the receiver never learned about. The empty
// snapshot must still commit its version — otherwise the receiver's
// applied version stays behind forever and every heartbeat re-requests
// the same resync, round after round.
TEST(PropagationOracleTest, EmptySnapshotToUnknownRelationCommitsVersion) {
  SystemOptions opts;
  opts.heartbeat_interval_rounds = 3;
  System system(opts);
  Peer* a = system.CreatePeer("a", PeerOptions{});
  Peer* hub = system.CreatePeer("hub", PeerOptions{});
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext data@a(x: int);
    rule board@hub($x) :- data@a($x);
  )").ok());

  // Every frame of the stream is lost; the contribution then empties,
  // so the sender's memory is "version 2, zero tuples" while hub never
  // auto-declared board at all.
  LinkConfig dead;
  dead.drop_probability = 1.0;
  system.network().SetLink("a", "hub", dead);
  ASSERT_TRUE(a->Insert(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  ASSERT_TRUE(a->Remove(Fact("data", "a", {I(1)})).ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  system.network().SetLink("a", "hub", LinkConfig{});
  ASSERT_EQ(hub->engine().catalog().Get("board"), nullptr);

  // First heartbeat exposes the gap; the (empty) snapshot must settle
  // the stream so later heartbeats stay silent.
  for (int i = 0; i < 8; ++i) (void)system.RunRound();
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  uint64_t resyncs_after_repair =
      hub->engine().propagation_counters().resyncs_requested;
  EXPECT_GE(resyncs_after_repair, 1u);
  for (int i = 0; i < 9; ++i) (void)system.RunRound();
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  EXPECT_EQ(hub->engine().propagation_counters().resyncs_requested,
            resyncs_after_repair);
}

}  // namespace
}  // namespace wdl
