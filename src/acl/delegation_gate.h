#ifndef WDL_ACL_DELEGATION_GATE_H_
#define WDL_ACL_DELEGATION_GATE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/result.h"
#include "engine/delegation.h"

namespace wdl {

/// The paper's demonstrated model for control of delegation (§3):
/// "each delegation sent by an untrusted peer will be pending in a
/// queue until the user explicitly accepts it via the Web interface.
/// By default, all peers except the sigmod peer will be considered
/// untrusted."
///
/// The gate screens arriving delegations: trusted origins pass through,
/// untrusted ones are queued for an explicit Approve/Reject decision.
/// Every decision is recorded in an audit log: who, which delegation
/// (its key) and the decision. The rule text is not kept there — a
/// residual can carry whole tuples, and the log is never trimmed;
/// pending delegations keep theirs until decided (Pending()).
class DelegationGate {
 public:
  enum class Decision : uint8_t {
    kAccepted = 0,  // trusted origin: install immediately
    kPending = 1,   // queued, awaiting explicit approval
    kRejected = 2,  // origin is blocked
  };

  struct AuditEntry {
    std::string origin_peer;
    uint64_t delegation_key;
    Decision decision;
  };

  DelegationGate() = default;

  /// Marks `peer` as trusted: its delegations install without approval.
  void TrustPeer(const std::string& peer) {
    trusted_.insert(peer);
    blocked_.erase(peer);
  }
  void UntrustPeer(const std::string& peer) { trusted_.erase(peer); }
  /// Blocks `peer`: its delegations are rejected outright.
  void BlockPeer(const std::string& peer) {
    blocked_.insert(peer);
    trusted_.erase(peer);
  }
  bool IsTrusted(const std::string& peer) const {
    return trusted_.count(peer) > 0;
  }
  bool IsBlocked(const std::string& peer) const {
    return blocked_.count(peer) > 0;
  }

  /// Screens an arriving delegation. kPending stores it in the queue.
  Decision OnArrival(const Delegation& delegation);

  /// Handles a retraction for a delegation that may still be pending;
  /// returns true when a queued entry was removed (nothing to retract
  /// from the engine in that case).
  bool OnRetraction(uint64_t delegation_key);

  /// Pending delegations, oldest first — the paper's Figure 3
  /// notification list.
  std::vector<const Delegation*> Pending() const;
  size_t pending_count() const { return pending_.size(); }

  /// Pops and returns the pending delegation so the caller can install
  /// it. NotFound when the key is not pending.
  Result<Delegation> Approve(uint64_t delegation_key);

  /// Drops the pending delegation without installing.
  Status Reject(uint64_t delegation_key);

  /// Re-enqueues a pending delegation from a durability snapshot —
  /// exactly the queue entry OnArrival would have created, but without
  /// an audit entry (the original arrival was already audited in the
  /// crashed process; recovery is not a new decision). Idempotent by
  /// key.
  void RestorePending(const Delegation& delegation);

  const std::vector<AuditEntry>& audit_log() const { return audit_log_; }

  /// Human-readable queue rendering for the textual UI.
  std::string RenderPending() const;

 private:
  std::set<std::string> trusted_;
  std::set<std::string> blocked_;
  // Keyed by Delegation::Key(); std::map keeps deterministic order,
  // arrival order preserved separately.
  std::map<uint64_t, Delegation> pending_;
  std::vector<uint64_t> pending_order_;
  std::vector<AuditEntry> audit_log_;
};

const char* DecisionToString(DelegationGate::Decision decision);

}  // namespace wdl

#endif  // WDL_ACL_DELEGATION_GATE_H_
