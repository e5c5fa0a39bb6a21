#include "runtime/system.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "parser/parser.h"
#include "runtime/query.h"
#include "support/builders.h"
#include "support/counters.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::F;
using test::I;
using test::S;

// The System plus peer/trust boilerplate lives in the shared fixture;
// `system_` and the AddPeer/AddTrustedPeers helpers come from there.
using SystemTest = test::MultiPeerFixture;

TEST_F(SystemTest, SinglePeerLocalView) {
  Peer* p = system_.CreatePeer("alice");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection ext edge@alice(src: string, dst: string);
    collection int reach@alice(src: string, dst: string);
    fact edge@alice("a", "b");
    fact edge@alice("b", "c");
    rule reach@alice($x, $y) :- edge@alice($x, $y);
    rule reach@alice($x, $z) :- reach@alice($x, $y), edge@alice($y, $z);
  )").ok());

  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  const Relation* reach = p->engine().catalog().Get("reach");
  ASSERT_NE(reach, nullptr);
  EXPECT_EQ(reach->size(), 3u);  // ab bc ac
  EXPECT_TRUE(reach->Contains({S("a"), S("c")}));
}

TEST_F(SystemTest, RemoteHeadDerivesPersistentFactsAtTarget) {
  Peer* alice = system_.CreatePeer("alice");
  Peer* bob = system_.CreatePeer("bob");
  ASSERT_TRUE(alice->LoadProgramText(R"(
    collection ext local@alice(x: int);
    fact local@alice(1);
    fact local@alice(2);
    rule copy@bob($x) :- local@alice($x);
  )").ok());

  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  const Relation* copy = bob->engine().catalog().Get("copy");
  ASSERT_NE(copy, nullptr);  // auto-declared on arrival
  EXPECT_EQ(copy->kind(), RelationKind::kExtensional);
  EXPECT_TRUE(copy->Contains({I(1)}));
  EXPECT_TRUE(copy->Contains({I(2)}));
}

TEST_F(SystemTest, DelegationInstallsResidualRuleAtRemotePeer) {
  // The paper's selection rule shape: jules asks each selected attendee
  // for their pictures. The second body atom lives at $attendee, so a
  // residual rule is delegated there.
  // AddTrustedPeers skips the approval queue for this engine-level test.
  auto peers = AddTrustedPeers({"jules", "emilien"});
  Peer* jules = peers[0];
  Peer* emilien = peers[1];

  ASSERT_TRUE(jules->LoadProgramText(R"(
    collection ext selectedAttendee@jules(attendee: string);
    collection int attendeePictures@jules(id: int, name: string);
    fact selectedAttendee@jules("emilien");
    rule attendeePictures@jules($id, $name) :-
      selectedAttendee@jules($attendee), pictures@$attendee($id, $name);
  )").ok());
  ASSERT_TRUE(emilien->LoadProgramText(R"(
    collection ext pictures@emilien(id: int, name: string);
    fact pictures@emilien(1, "sea.jpg");
    fact pictures@emilien(2, "boat.jpg");
  )").ok());

  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  // The residual rule is installed at emilien, marked as delegated.
  bool found_delegated = false;
  for (const InstalledRule* r : emilien->engine().rules()) {
    if (r->delegation_key != 0) {
      found_delegated = true;
      EXPECT_EQ(r->origin_peer, "jules");
    }
  }
  EXPECT_TRUE(found_delegated);

  // And the view at jules contains emilien's pictures.
  const Relation* view = jules->engine().catalog().Get("attendeePictures");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 2u);
  EXPECT_TRUE(view->Contains({I(1), S("sea.jpg")}));
}

TEST_F(SystemTest, NewFactsAtDelegateeFlowWithoutReDelegation) {
  auto peers = AddTrustedPeers({"jules", "emilien"});
  Peer* jules = peers[0];
  Peer* emilien = peers[1];

  ASSERT_TRUE(jules->LoadProgramText(R"(
    collection ext selectedAttendee@jules(attendee: string);
    collection int attendeePictures@jules(id: int, name: string);
    fact selectedAttendee@jules("emilien");
    rule attendeePictures@jules($id, $name) :-
      selectedAttendee@jules($attendee), pictures@$attendee($id, $name);
  )").ok());
  ASSERT_TRUE(emilien->LoadProgramText(R"(
    collection ext pictures@emilien(id: int, name: string);
    fact pictures@emilien(1, "sea.jpg");
  )").ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  // Upload a new picture at emilien only; the already-installed
  // delegated rule must push it to jules' view.
  ASSERT_TRUE(
      emilien->Insert(F("pictures", "emilien", {I(9), S("new.jpg")})).ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  const Relation* view = jules->engine().catalog().Get("attendeePictures");
  EXPECT_EQ(view->size(), 2u);
  EXPECT_TRUE(view->Contains({I(9), S("new.jpg")}));
}

TEST_F(SystemTest, DeselectionRetractsDelegationAndClearsView) {
  auto peers = AddTrustedPeers({"jules", "emilien"});
  Peer* jules = peers[0];
  Peer* emilien = peers[1];

  ASSERT_TRUE(jules->LoadProgramText(R"(
    collection ext selectedAttendee@jules(attendee: string);
    collection int attendeePictures@jules(id: int, name: string);
    fact selectedAttendee@jules("emilien");
    rule attendeePictures@jules($id, $name) :-
      selectedAttendee@jules($attendee), pictures@$attendee($id, $name);
  )").ok());
  ASSERT_TRUE(emilien->LoadProgramText(R"(
    collection ext pictures@emilien(id: int, name: string);
    fact pictures@emilien(1, "sea.jpg");
  )").ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  ASSERT_EQ(jules->engine().catalog().Get("attendeePictures")->size(), 1u);

  // Deselect: the prefix binding disappears, so the delegation must be
  // retracted at emilien and the view must empty at jules.
  ASSERT_TRUE(
      jules->Remove(F("selectedAttendee", "jules", {S("emilien")})).ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  EXPECT_EQ(jules->engine().catalog().Get("attendeePictures")->size(), 0u);
  for (const InstalledRule* r : emilien->engine().rules()) {
    EXPECT_EQ(r->delegation_key, 0u)
        << "stale delegated rule: " << r->rule.ToString();
  }
}

TEST_F(SystemTest, ChainedDelegationAcrossThreePeers) {
  // a's rule walks through b then c: delegation to b, then residual
  // delegation from b to c, with results flowing back to a.
  auto peers = AddTrustedPeers({"a", "b", "c"});
  Peer* a = peers[0];
  Peer* b = peers[1];
  Peer* c = peers[2];
  ASSERT_TRUE(a->LoadProgramText(R"(
    collection ext start@a(x: string);
    collection int out@a(x: string, y: string, z: string);
    fact start@a("s");
    rule out@a($x, $y, $z) :- start@a($x), mid@b($x, $y), end@c($y, $z);
  )").ok());
  ASSERT_TRUE(b->LoadProgramText(R"(
    collection ext mid@b(x: string, y: string);
    fact mid@b("s", "m1");
    fact mid@b("s", "m2");
  )").ok());
  ASSERT_TRUE(c->LoadProgramText(R"(
    collection ext end@c(y: string, z: string);
    fact end@c("m1", "e1");
    fact end@c("m2", "e2");
  )").ok());

  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  const Relation* out = a->engine().catalog().Get("out");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->size(), 2u);
  EXPECT_TRUE(out->Contains({S("s"), S("m1"), S("e1")}));
  EXPECT_TRUE(out->Contains({S("s"), S("m2"), S("e2")}));

  // b holds one delegated rule from a; c holds residuals from b
  // (one per binding of $y).
  size_t delegated_at_c = 0;
  for (const InstalledRule* r : c->engine().rules()) {
    if (r->delegation_key != 0) {
      ++delegated_at_c;
      EXPECT_EQ(r->origin_peer, "b");
    }
  }
  EXPECT_EQ(delegated_at_c, 2u);
}

TEST_F(SystemTest, QuiescentSystemStopsSendingMessages) {
  auto peers = AddTrustedPeers({"alice", "bob"});
  ASSERT_TRUE(peers[0]->LoadProgramText(R"(
    collection ext data@alice(x: int);
    fact data@alice(1);
    rule mirror@bob($x) :- data@alice($x);
  )").ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  test::NetworkCounters before(system_.network());
  // Ten more rounds must produce zero traffic.
  for (int i = 0; i < 10; ++i) system_.RunRound();
  test::NetworkCounters delta =
      test::NetworkCounters(system_.network()) - before;
  EXPECT_EQ(delta.messages_submitted, 0u) << delta;
}

// RunUntilQuiescent counts the rounds of the call, not the system's
// running total.
TEST_F(SystemTest, ConvergeReturnsTheRoundsOfThisCall) {
  Peer* alice = system_.CreatePeer("alice");
  Peer* bob = system_.CreatePeer("bob");
  ASSERT_TRUE(alice->LoadProgramText(R"(
    collection ext src@alice(x: int);
    rule copy@bob($x) :- src@alice($x);
  )").ok());
  ASSERT_TRUE(bob->LoadProgramText("collection ext copy@bob(x: int);").ok());
  // Each insert takes one round at alice and one at bob.
  for (int i = 1; i <= 2; ++i) {
    ASSERT_TRUE(alice->Insert(F("src", "alice", {I(i)})).ok());
    Result<int> rounds = system_.RunUntilQuiescent();
    ASSERT_TRUE(rounds.ok());
    EXPECT_EQ(*rounds, 2) << "converge " << i;
  }
  Result<int> idle = system_.RunUntilQuiescent();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, 0);
  EXPECT_EQ(system_.rounds_run(), 4);
  EXPECT_EQ(bob->engine().catalog().Get("copy")->size(), 2u);
}

TEST_F(SystemTest, UpdateRuleDefersLocalExtensionalInsertToNextStage) {
  Peer* p = system_.CreatePeer("alice");
  ASSERT_TRUE(p->LoadProgramText(R"(
    collection ext a@alice(x: int);
    collection ext b@alice(x: int);
    fact a@alice(7);
    rule b@alice($x) :- a@alice($x);
  )").ok());
  // After one stage, b is still empty (deferred); after convergence it
  // holds the fact.
  system_.RunRound();
  const Relation* b_rel = p->engine().catalog().Get("b");
  EXPECT_EQ(b_rel->size(), 0u);
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  EXPECT_TRUE(b_rel->Contains({I(7)}));
}

TEST_F(SystemTest, PartitionLosesTrafficAndHealsOnNewUpdates) {
  Peer* alice = system_.CreatePeer("alice");
  Peer* bob = system_.CreatePeer("bob");
  (void)bob;
  ASSERT_TRUE(alice->LoadProgramText(R"(
    collection ext data@alice(x: int);
    rule mirror@bob($x) :- data@alice($x);
  )").ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());

  system_.network().SetPartitioned("alice", "bob", true);
  ASSERT_TRUE(alice->Insert(F("data", "alice", {I(1)})).ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  const Relation* mirror =
      system_.GetPeer("bob")->engine().catalog().Get("mirror");
  EXPECT_TRUE(mirror == nullptr || mirror->size() == 0u);
  EXPECT_GT(system_.network().stats().messages_partitioned, 0u);

  // Heal and trigger a re-send with a new fact: the derived set
  // changes, so the full set (both tuples) is retransmitted.
  system_.network().SetPartitioned("alice", "bob", false);
  ASSERT_TRUE(alice->Insert(F("data", "alice", {I(2)})).ok());
  ASSERT_TRUE(system_.RunUntilQuiescent().ok());
  mirror = system_.GetPeer("bob")->engine().catalog().Get("mirror");
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->size(), 2u);
}

/// What IsQuiescent() computed before the ready set: nothing in flight
/// and no registered peer with pending work.
bool QuiescentByFullScan(const System& system) {
  if (system.transport().HasInFlight()) return false;
  for (const std::string& name : system.PeerNames()) {
    if (system.GetPeer(name)->HasPendingWork()) return false;
  }
  return true;
}

/// Inserts queued facts through engine() directly during the round's
/// wrapper sync, the way the Facebook and email wrappers write.
class QueueWrapper : public Wrapper {
 public:
  explicit QueueWrapper(std::string peer) : peer_(std::move(peer)) {}
  const std::string& peer_name() const override { return peer_; }
  Status Setup(Peer*) override { return Status::OK(); }
  Status Sync(Peer* peer) override {
    for (const Fact& f : queued) {
      WDL_RETURN_IF_ERROR(peer->engine().InsertFact(f).status());
    }
    queued.clear();
    return Status::OK();
  }
  std::vector<Fact> queued;

 private:
  std::string peer_;
};

// The ready set (DESIGN.md §2) must hold every peer with pending work,
// whichever way the work arrived, or a round skips it and IsQuiescent()
// reports a system with work as converged. Random mixes of every
// arrival path — Peer API writes and rule edits, direct engine()
// mutators, envelopes (delegation installs, retracts and approvals
// included), link resets, RunQuery (which drops scratch relations) and
// wrapper syncs — must keep IsQuiescent() equal to a full scan after
// every op and every round.
TEST_F(SystemTest, ReadySetQuiescenceMatchesFullScan) {
  const std::vector<std::string> kData = {"a", "b", "d"};
  const std::vector<std::pair<std::string, std::string>> kWrites = {
      {"data", "a"}, {"data", "b"}, {"data", "d"},
      {"ban", "b"},  {"kill", "c"},
  };
  // Rule edits: delegation to the untrusting d, a remote head, a
  // deferred self-update, a local and a remote deletion rule.
  const std::vector<std::pair<std::string, std::string>> kRules = {
      {"a", "rule both@a($x) :- data@a($x), data@d($x);"},
      {"b", "rule mirror2@c($x) :- data@b($x);"},
      {"d", "rule log@d($x) :- data@d($x);"},
      {"b", "rule -data@b($x) :- data@b($x), ban@b($x);"},
      {"c", "rule -data@a($x) :- kill@c($x);"},
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    System system;
    PeerOptions trusting;
    trusting.trust_all_delegations = true;
    for (const char* name : {"a", "b", "c"}) {
      system.CreatePeer(name, trusting);
    }
    system.CreatePeer("d");  // delegations wait for approval
    system.CreatePeer("e");  // idle until an op touches it
    ASSERT_TRUE(system.GetPeer("a")->LoadProgramText(R"(
      collection ext data@a(x: int);
      collection int view@a(x: int);
      collection ext both@a(x: int);
      rule view@a($x) :- data@a($x);
      rule mirror@b($x) :- data@a($x);
    )").ok());
    ASSERT_TRUE(system.GetPeer("b")->LoadProgramText(R"(
      collection ext data@b(x: int);
      collection ext ban@b(x: int);
      collection int mirror@b(x: int);
    )").ok());
    ASSERT_TRUE(system.GetPeer("c")->LoadProgramText(R"(
      collection ext sel@c(p: string);
      collection ext kill@c(x: int);
      collection int got@c(x: int);
      rule got@c($x) :- sel@c($p), data@$p($x);
    )").ok());
    ASSERT_TRUE(system.GetPeer("d")->LoadProgramText(R"(
      collection ext data@d(x: int);
      collection ext log@d(x: int);
    )").ok());
    auto wrapper = std::make_unique<QueueWrapper>("e");
    QueueWrapper* queue = wrapper.get();
    ASSERT_TRUE(system.AttachWrapper(std::move(wrapper)).ok());

    auto pick = [&](const std::vector<std::string>& names) {
      return names[rng.NextBelow(names.size())];
    };
    auto random_fact = [&](const std::string& peer) {
      return F("data", peer, {I(rng.NextInRange(0, 5))});
    };
    auto check = [&](const std::string& what) {
      ASSERT_EQ(system.IsQuiescent(), QuiescentByFullScan(system))
          << "after " << what;
    };
    std::vector<std::pair<std::string, uint64_t>> added;  // (peer, id)
    check("setup");
    for (int step = 0; step < 300; ++step) {
      std::string what;
      switch (rng.NextBelow(12)) {
        case 0: {  // Peer API writes, the deletion rules' triggers too
          const auto& [relation, peer] =
              kWrites[rng.NextBelow(kWrites.size())];
          Peer* p = system.GetPeer(peer);
          what = "Peer::Insert/Remove of " + relation + "@" + peer;
          Fact f(relation, peer, {I(rng.NextInRange(0, 5))});
          if (rng.NextBool(0.7)) {
            ASSERT_TRUE(p->Insert(f).ok());
          } else {
            ASSERT_TRUE(p->Remove(f).ok());
          }
          break;
        }
        case 1: {  // Peer API rule edits
          if (!added.empty() && rng.NextBool(0.5)) {
            size_t i = rng.NextBelow(added.size());
            what = "Peer::RemoveRule at " + added[i].first;
            (void)system.GetPeer(added[i].first)->RemoveRule(added[i].second);
            added.erase(added.begin() + static_cast<ptrdiff_t>(i));
          } else {
            const auto& [peer, text] = kRules[rng.NextBelow(kRules.size())];
            what = "Peer::AddRuleText at " + peer;
            Result<uint64_t> id = system.GetPeer(peer)->AddRuleText(text);
            if (id.ok()) added.emplace_back(peer, *id);
          }
          break;
        }
        case 2: {  // direct engine() mutators, the idle peer included
          std::string peer = pick({"a", "b", "d", "e"});
          what = "engine() write at " + peer;
          Engine& engine = system.GetPeer(peer)->engine();
          switch (rng.NextBelow(3)) {
            case 0:
              (void)engine.InsertFact(random_fact(peer));
              break;
            case 1:
              (void)engine.RemoveFact(random_fact(peer));
              break;
            default:
              engine.EnqueueFactInserts({random_fact(peer)});
              break;
          }
          break;
        }
        case 3: {  // selections at c: delegation installs and retracts
          what = "selection at c";
          Fact f("sel", "c", {S(pick(kData))});
          Peer* c = system.GetPeer("c");
          if (rng.NextBool(0.6)) {
            ASSERT_TRUE(c->Insert(f).ok());
          } else {
            ASSERT_TRUE(c->Remove(f).ok());
          }
          break;
        }
        case 4: {  // approvals and rejections at the untrusting d
          Peer* d = system.GetPeer("d");
          what = "approval at d";
          if (d->gate().pending_count() == 0) break;
          uint64_t key = d->gate().Pending()[0]->Key();
          if (rng.NextBool(0.7)) {
            ASSERT_TRUE(d->ApproveDelegation(key).ok());
          } else {
            ASSERT_TRUE(d->RejectDelegation(key).ok());
          }
          break;
        }
        case 5: {  // envelopes handed to a peer outside a round
          std::string to = pick({"a", "b", "d", "e"});
          what = "HandleEnvelope at " + to;
          Envelope e;
          e.from = "c";
          e.to = to;
          switch (rng.NextBelow(5)) {
            case 0:
              e.message = Message::FactInserts({random_fact(to)});
              break;
            case 1:
              e.message = Message::FactDeletes({random_fact(to)});
              break;
            case 2:
              e.message = Message::ResyncRequest("got");
              break;
            case 3: {
              Delegation d;
              d.origin_peer = "c";
              d.target_peer = to;
              d.rule = test::R("rule got@c($x) :- data@" + to + "($x);");
              e.message = rng.NextBool(0.5)
                              ? Message::DelegationInstall(d)
                              : Message::DelegationRetract(d.Key());
              break;
            }
            default:
              e.message = Message::Hello("c");
              break;
          }
          system.GetPeer(to)->HandleEnvelope(e);
          break;
        }
        case 6: {  // link resets
          std::string peer = pick({"a", "b", "c", "d", "e"});
          std::string remote = pick({"a", "b", "c", "d"});
          what = "NoteLinkReset at " + peer + " for " + remote;
          system.GetPeer(peer)->NoteLinkReset(remote);
          break;
        }
        case 7: {  // queries: local read or cross-peer (scratch drop)
          const bool local = rng.NextBool(0.3);
          std::string at = local ? "a" : "c";
          std::string body =
              local ? "view@a(3)" : "data@" + pick(kData) + "($x)";
          what = "RunQuery " + body + " at " + at;
          (void)RunQuery(&system, at, body);
          break;
        }
        case 8: {  // wrapper sync writes through engine()
          what = "wrapper queue";
          queue->queued.push_back(random_fact("e"));
          break;
        }
        case 9:
        case 10: {
          what = "RunRound";
          system.RunRound();
          break;
        }
        default: {  // converge, checking after every round
          what = "converging round";
          for (int r = 0; r < 200 && !QuiescentByFullScan(system); ++r) {
            system.RunRound();
            check(what);
            if (HasFatalFailure()) return;
          }
          break;
        }
      }
      check(what);
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    check("final convergence");
    EXPECT_TRUE(QuiescentByFullScan(system));
  }
}

}  // namespace
}  // namespace wdl
