#include <gtest/gtest.h>

#include "acl/delegation_gate.h"
#include "acl/policy.h"
#include "parser/parser.h"

namespace wdl {
namespace {

Delegation D(const std::string& origin, const std::string& target,
             const std::string& rule_text) {
  Delegation d;
  d.origin_peer = origin;
  d.target_peer = target;
  Result<Rule> r = ParseRule(rule_text);
  EXPECT_TRUE(r.ok()) << r.status();
  d.rule = *r;
  d.origin_rule_hash = d.rule.Hash();
  return d;
}

TEST(DelegationGateTest, UntrustedOriginIsQueued) {
  DelegationGate gate;
  Delegation d = D("julia", "jules", "x@julia($a) :- y@jules($a)");
  EXPECT_EQ(gate.OnArrival(d), DelegationGate::Decision::kPending);
  EXPECT_EQ(gate.pending_count(), 1u);
}

TEST(DelegationGateTest, TrustedOriginPassesThrough) {
  DelegationGate gate;
  gate.TrustPeer("sigmod");
  Delegation d = D("sigmod", "jules", "x@sigmod($a) :- y@jules($a)");
  EXPECT_EQ(gate.OnArrival(d), DelegationGate::Decision::kAccepted);
  EXPECT_EQ(gate.pending_count(), 0u);
}

TEST(DelegationGateTest, BlockedOriginIsRejected) {
  DelegationGate gate;
  gate.BlockPeer("spammer");
  Delegation d = D("spammer", "jules", "x@spammer($a) :- y@jules($a)");
  EXPECT_EQ(gate.OnArrival(d), DelegationGate::Decision::kRejected);
  EXPECT_EQ(gate.pending_count(), 0u);
}

TEST(DelegationGateTest, BlockOverridesTrust) {
  DelegationGate gate;
  gate.TrustPeer("peer");
  gate.BlockPeer("peer");
  EXPECT_FALSE(gate.IsTrusted("peer"));
  EXPECT_TRUE(gate.IsBlocked("peer"));
  gate.TrustPeer("peer");
  EXPECT_TRUE(gate.IsTrusted("peer"));
  EXPECT_FALSE(gate.IsBlocked("peer"));
}

TEST(DelegationGateTest, ApprovePopsAndReturnsDelegation) {
  DelegationGate gate;
  Delegation d = D("julia", "jules", "x@julia($a) :- y@jules($a)");
  gate.OnArrival(d);
  Result<Delegation> approved = gate.Approve(d.Key());
  ASSERT_TRUE(approved.ok());
  EXPECT_EQ(approved->origin_peer, "julia");
  EXPECT_EQ(gate.pending_count(), 0u);
  EXPECT_FALSE(gate.Approve(d.Key()).ok());  // idempotence: gone
}

TEST(DelegationGateTest, RejectDropsWithoutInstalling) {
  DelegationGate gate;
  Delegation d = D("julia", "jules", "x@julia($a) :- y@jules($a)");
  gate.OnArrival(d);
  EXPECT_TRUE(gate.Reject(d.Key()).ok());
  EXPECT_EQ(gate.pending_count(), 0u);
  EXPECT_FALSE(gate.Reject(d.Key()).ok());
}

TEST(DelegationGateTest, RetractionRemovesPendingEntry) {
  DelegationGate gate;
  Delegation d = D("julia", "jules", "x@julia($a) :- y@jules($a)");
  gate.OnArrival(d);
  EXPECT_TRUE(gate.OnRetraction(d.Key()));
  EXPECT_EQ(gate.pending_count(), 0u);
  EXPECT_FALSE(gate.OnRetraction(d.Key()));  // nothing left
}

TEST(DelegationGateTest, DuplicateArrivalQueuedOnce) {
  DelegationGate gate;
  Delegation d = D("julia", "jules", "x@julia($a) :- y@jules($a)");
  gate.OnArrival(d);
  gate.OnArrival(d);
  EXPECT_EQ(gate.pending_count(), 1u);
}

TEST(DelegationGateTest, PendingPreservesArrivalOrder) {
  DelegationGate gate;
  Delegation d1 = D("julia", "jules", "a@julia($x) :- r@jules($x)");
  Delegation d2 = D("emilien", "jules", "b@emilien($x) :- r@jules($x)");
  gate.OnArrival(d1);
  gate.OnArrival(d2);
  std::vector<const Delegation*> pending = gate.Pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0]->origin_peer, "julia");
  EXPECT_EQ(pending[1]->origin_peer, "emilien");
}

TEST(DelegationGateTest, AuditLogRecordsEveryDecision) {
  DelegationGate gate;
  gate.TrustPeer("sigmod");
  gate.BlockPeer("spammer");
  gate.OnArrival(D("sigmod", "j", "a@sigmod($x) :- r@j($x)"));
  gate.OnArrival(D("spammer", "j", "b@spammer($x) :- r@j($x)"));
  Delegation d = D("julia", "j", "c@julia($x) :- r@j($x)");
  gate.OnArrival(d);
  ASSERT_TRUE(gate.Approve(d.Key()).ok());
  ASSERT_EQ(gate.audit_log().size(), 4u);
  EXPECT_EQ(gate.audit_log()[0].decision,
            DelegationGate::Decision::kAccepted);
  EXPECT_EQ(gate.audit_log()[1].decision,
            DelegationGate::Decision::kRejected);
  EXPECT_EQ(gate.audit_log()[2].decision,
            DelegationGate::Decision::kPending);
  EXPECT_EQ(gate.audit_log()[3].decision,
            DelegationGate::Decision::kAccepted);
  // Who and which delegation, by key.
  EXPECT_EQ(gate.audit_log()[1].origin_peer, "spammer");
  EXPECT_EQ(gate.audit_log()[2].delegation_key, d.Key());
  EXPECT_EQ(gate.audit_log()[3].delegation_key, d.Key());
}

TEST(DelegationGateTest, RenderPendingShowsNotification) {
  DelegationGate gate;
  gate.OnArrival(D("Julia", "Jules",
                   "watched@Julia($x) :- pictures@Jules($x, $x)"));
  std::string rendered = gate.RenderPending();
  EXPECT_NE(rendered.find("Julia"), std::string::npos);
  EXPECT_NE(rendered.find("watched@Julia"), std::string::npos);
}

// --- AccessPolicy (the sketched extension model) ----------------------

TEST(PolicyTest, OwnerHoldsAllPrivileges) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("pictures@emilien", "emilien").ok());
  EXPECT_TRUE(policy.CheckDirect("pictures@emilien", "emilien",
                                 Privilege::kRead));
  EXPECT_TRUE(policy.CheckDirect("pictures@emilien", "emilien",
                                 Privilege::kWrite));
  EXPECT_FALSE(policy.CheckDirect("pictures@emilien", "jules",
                                  Privilege::kRead));
}

TEST(PolicyTest, GrantAndRevoke) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("r@a", "a").ok());
  ASSERT_TRUE(policy.Grant("r@a", "a", "b", Privilege::kRead).ok());
  EXPECT_TRUE(policy.CheckDirect("r@a", "b", Privilege::kRead));
  ASSERT_TRUE(policy.Revoke("r@a", "a", "b", Privilege::kRead).ok());
  EXPECT_FALSE(policy.CheckDirect("r@a", "b", Privilege::kRead));
}

TEST(PolicyTest, NonOwnerCannotGrantWithoutGrantPrivilege) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("r@a", "a").ok());
  EXPECT_EQ(policy.Grant("r@a", "b", "c", Privilege::kRead).code(),
            StatusCode::kPermissionDenied);
  // Give b the grant privilege; now it can extend grants.
  ASSERT_TRUE(policy.Grant("r@a", "a", "b", Privilege::kGrant).ok());
  EXPECT_TRUE(policy.Grant("r@a", "b", "c", Privilege::kRead).ok());
  EXPECT_TRUE(policy.CheckDirect("r@a", "c", Privilege::kRead));
}

TEST(PolicyTest, ViewReadIsIntersectionOfBases) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("b1@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("b2@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("v@a", "a").ok());
  ASSERT_TRUE(policy.RegisterView("v@a", {"b1@a", "b2@a"}).ok());

  ASSERT_TRUE(policy.Grant("b1@a", "a", "reader", Privilege::kRead).ok());
  // Read on only one base: view denied.
  EXPECT_FALSE(policy.CheckRead("v@a", "reader"));
  ASSERT_TRUE(policy.Grant("b2@a", "a", "reader", Privilege::kRead).ok());
  EXPECT_TRUE(policy.CheckRead("v@a", "reader"));
}

TEST(PolicyTest, DeclassificationOverridesProvenancePolicy) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("secret@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("v@a", "a").ok());
  ASSERT_TRUE(policy.RegisterView("v@a", {"secret@a"}).ok());
  EXPECT_FALSE(policy.CheckRead("v@a", "public"));
  ASSERT_TRUE(policy.Declassify("v@a", "a", "public").ok());
  EXPECT_TRUE(policy.CheckRead("v@a", "public"));
  // The base stays protected: only the view was declassified.
  EXPECT_FALSE(policy.CheckRead("secret@a", "public"));
}

TEST(PolicyTest, ViewOverViewChainsRecursively) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("base@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("v1@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("v2@a", "a").ok());
  ASSERT_TRUE(policy.RegisterView("v1@a", {"base@a"}).ok());
  ASSERT_TRUE(policy.RegisterView("v2@a", {"v1@a"}).ok());
  EXPECT_FALSE(policy.CheckRead("v2@a", "reader"));
  ASSERT_TRUE(policy.Grant("base@a", "a", "reader", Privilege::kRead).ok());
  EXPECT_TRUE(policy.CheckRead("v2@a", "reader"));
}

TEST(PolicyTest, DeclassifyOnNonViewFails) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("r@a", "a").ok());
  EXPECT_EQ(policy.Declassify("r@a", "a", "b").code(),
            StatusCode::kFailedPrecondition);
}

TEST(PolicyTest, CyclicViewDefinitionDeniesConservatively) {
  AccessPolicy policy;
  ASSERT_TRUE(policy.RegisterRelation("v1@a", "a").ok());
  ASSERT_TRUE(policy.RegisterRelation("v2@a", "a").ok());
  ASSERT_TRUE(policy.RegisterView("v1@a", {"v2@a"}).ok());
  ASSERT_TRUE(policy.RegisterView("v2@a", {"v1@a"}).ok());
  EXPECT_FALSE(policy.CheckRead("v1@a", "reader"));  // no crash, no loop
}

TEST(PolicyTest, UnknownPredicateDenied) {
  AccessPolicy policy;
  EXPECT_FALSE(policy.CheckRead("ghost@a", "anyone"));
  EXPECT_FALSE(policy.CheckDirect("ghost@a", "anyone", Privilege::kRead));
}

}  // namespace
}  // namespace wdl
