#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "runtime/fingerprint.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/fixture.h"
#include "support/rng_check.h"
#include "wepic/wepic.h"

namespace wdl {
namespace {

using test::I;
using test::S;

// Global invariants of the distributed runtime, run against the full
// Wepic workload: determinism across identical runs, idempotence of
// extra rounds, and seed-independence of the *converged state* (the
// network schedule may differ; the fixpoint must not).

// Guard: every seed below is only meaningful while the RNG reproduces
// its golden sequence (the network simulator draws from it).
TEST(DeterminismRngGuard, GeneratorMatchesGoldenSequence) {
  EXPECT_TRUE(test::CheckRngGoldenSequence());
}

std::string GlobalStateFingerprint(WepicApp& app) {
  return wdl::GlobalStateFingerprint(app.system());
}

void RunWorkload(WepicApp& app) {
  ASSERT_TRUE(app.SetupConference().ok());
  ASSERT_TRUE(app.AddAttendee("Emilien").ok());
  ASSERT_TRUE(app.AddAttendee("Jules").ok());
  app.attendee("Emilien")->gate().TrustPeer("Jules");
  app.attendee("Jules")->gate().TrustPeer("Emilien");
  ASSERT_TRUE(app.UploadPicture("Emilien", 1, "sea.jpg", "b1").ok());
  ASSERT_TRUE(app.UploadPicture("Jules", 2, "dinner.jpg", "b2").ok());
  ASSERT_TRUE(app.AuthorizeFacebook("Emilien", 1).ok());
  ASSERT_TRUE(app.SelectAttendee("Jules", "Emilien").ok());
  ASSERT_TRUE(app.RatePicture("Emilien", 1, 5).ok());
  ASSERT_TRUE(app.SetCommunicationProtocol("Emilien", "email").ok());
  ASSERT_TRUE(app.SelectPicture("Jules", "dinner.jpg", 2, "Jules").ok());
  ASSERT_TRUE(app.Converge().ok());
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalGlobalState) {
  WepicApp a(WepicOptions{.network_seed = test::FixedTestSeed(0), .engine = {}});
  WepicApp b(WepicOptions{.network_seed = test::FixedTestSeed(0), .engine = {}});
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_EQ(GlobalStateFingerprint(a), GlobalStateFingerprint(b));
  EXPECT_EQ(a.system().network().stats().messages_submitted,
            b.system().network().stats().messages_submitted);
  EXPECT_EQ(a.system().network().stats().bytes_sent,
            b.system().network().stats().bytes_sent);
}

TEST(DeterminismTest, ConvergedStateIsSeedIndependent) {
  // Different seeds may schedule deliveries differently, but the
  // converged relations and programs must agree (confluence of the
  // monotone core under reordering).
  WepicApp a(WepicOptions{.network_seed = test::FixedTestSeed(1), .engine = {}});
  WepicApp b(WepicOptions{.network_seed = test::FixedTestSeed(2), .engine = {}});
  RunWorkload(a);
  RunWorkload(b);
  EXPECT_EQ(GlobalStateFingerprint(a), GlobalStateFingerprint(b));
}

TEST(DeterminismTest, ExtraRoundsAreIdempotent) {
  WepicApp app;
  RunWorkload(app);
  std::string before = GlobalStateFingerprint(app);
  for (int i = 0; i < 20; ++i) app.system().RunRound();
  EXPECT_EQ(GlobalStateFingerprint(app), before);
}

TEST(DeterminismTest, Paper2013DialectRunsTheFullDemo) {
  // The entire Wepic application is negation-free, so it must run
  // unchanged under the paper-faithful dialect.
  WepicOptions options;
  options.engine.dialect = Dialect::kPaper2013;
  WepicApp app(options);
  RunWorkload(app);
  EXPECT_EQ(app.sigmod()->engine().catalog().Get("pictures")->size(), 2u);
  EXPECT_TRUE(app.facebook().GroupHasPicture(kFacebookGroup, 1));
}

TEST(DeterminismTest, CompiledPlansMatchInterpreterOracle) {
  // The production runtime against the interpreter oracle — the
  // reference evaluator, an independent AST interpreter
  // (support/reference_eval.h) — over the Wepic programs and workload:
  // delegation splits, relation and peer variables, multi-hop
  // residuals, persistent remote updates. Wrappers sync external
  // systems the reference cannot model, so this run has none and
  // SigmodFB is a plain peer; every peer accepts delegations.
  SystemOptions options;
  options.network_seed = test::FixedTestSeed(3);
  System system(options);
  test::ReferenceProgram reference;
  PeerOptions trusting;
  trusting.trust_all_delegations = true;
  for (const auto& [name, program] : std::map<std::string, std::string>{
           {kSigmodPeer, WepicApp::SigmodProgramText()},
           {kSigmodFBPeer, ""},
           {"Emilien", WepicApp::AttendeeProgramText("Emilien")},
           {"Jules", WepicApp::AttendeeProgramText("Jules")}}) {
    Peer* peer = system.CreatePeer(name, trusting);
    ASSERT_TRUE(peer->LoadProgramText(program).ok());
    ASSERT_TRUE(reference.Load(name, program).ok());
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());

  const std::vector<Fact> writes = {
      Fact("attendees", kSigmodPeer, {S("Emilien")}),
      Fact("attendees", kSigmodPeer, {S("Jules")}),
      Fact("pictures", "Emilien",
           {I(1), S("sea.jpg"), S("Emilien"), Value::MakeBlob("b1")}),
      Fact("pictures", "Jules",
           {I(2), S("dinner.jpg"), S("Jules"), Value::MakeBlob("b2")}),
      Fact("authorized", "Emilien", {S("Facebook"), I(1), S("Emilien")}),
      Fact("selectedAttendee", "Jules", {S("Emilien")}),
      Fact("rate", "Emilien", {I(1), I(5)}),
      Fact("communicate", "Emilien", {S("email")}),
      Fact("selectedPictures", "Jules", {S("dinner.jpg"), I(2), S("Jules")}),
  };
  for (size_t i = 0; i < writes.size(); ++i) {
    ASSERT_TRUE(system.GetPeer(writes[i].peer)->Insert(writes[i]).ok());
    reference.Insert(writes[i]);
    if (i % 3 == 2) (void)system.RunRound();  // writes race with stages
  }
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, reference);

  // Not vacuous: the authorized picture reached SigmodFB, and the
  // transfer rule's two-hop residual mailed Jules' selection to Emilien.
  test::LogicalState state = test::LogicalStateOf(system);
  EXPECT_EQ(state.peers[kSigmodFBPeer].relations["pictures"].tuples.size(), 1u);
  EXPECT_EQ(state.peers["Emilien"].relations["email"].tuples.size(), 1u);
}

}  // namespace
}  // namespace wdl
