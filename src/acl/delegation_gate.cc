#include "acl/delegation_gate.h"

#include <algorithm>

namespace wdl {

const char* DecisionToString(DelegationGate::Decision decision) {
  switch (decision) {
    case DelegationGate::Decision::kAccepted: return "accepted";
    case DelegationGate::Decision::kPending: return "pending";
    case DelegationGate::Decision::kRejected: return "rejected";
  }
  return "?";
}

DelegationGate::Decision DelegationGate::OnArrival(
    const Delegation& delegation) {
  Decision decision;
  if (IsBlocked(delegation.origin_peer)) {
    decision = Decision::kRejected;
  } else if (IsTrusted(delegation.origin_peer)) {
    decision = Decision::kAccepted;
  } else {
    decision = Decision::kPending;
    uint64_t key = delegation.Key();
    if (pending_.emplace(key, delegation).second) {
      pending_order_.push_back(key);
    }
  }
  audit_log_.push_back(
      AuditEntry{delegation.origin_peer, delegation.Key(), decision});
  return decision;
}

void DelegationGate::RestorePending(const Delegation& delegation) {
  uint64_t key = delegation.Key();
  if (pending_.emplace(key, delegation).second) {
    pending_order_.push_back(key);
  }
}

bool DelegationGate::OnRetraction(uint64_t delegation_key) {
  auto it = pending_.find(delegation_key);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  pending_order_.erase(std::remove(pending_order_.begin(),
                                   pending_order_.end(), delegation_key),
                       pending_order_.end());
  return true;
}

std::vector<const Delegation*> DelegationGate::Pending() const {
  std::vector<const Delegation*> out;
  out.reserve(pending_order_.size());
  for (uint64_t key : pending_order_) {
    auto it = pending_.find(key);
    if (it != pending_.end()) out.push_back(&it->second);
  }
  return out;
}

Result<Delegation> DelegationGate::Approve(uint64_t delegation_key) {
  auto it = pending_.find(delegation_key);
  if (it == pending_.end()) {
    return Status::NotFound("no pending delegation with key " +
                            std::to_string(delegation_key));
  }
  Delegation d = std::move(it->second);
  pending_.erase(it);
  pending_order_.erase(std::remove(pending_order_.begin(),
                                   pending_order_.end(), delegation_key),
                       pending_order_.end());
  audit_log_.push_back(
      AuditEntry{d.origin_peer, delegation_key, Decision::kAccepted});
  return d;
}

Status DelegationGate::Reject(uint64_t delegation_key) {
  auto it = pending_.find(delegation_key);
  if (it == pending_.end()) {
    return Status::NotFound("no pending delegation with key " +
                            std::to_string(delegation_key));
  }
  audit_log_.push_back(
      AuditEntry{it->second.origin_peer, delegation_key, Decision::kRejected});
  pending_.erase(it);
  pending_order_.erase(std::remove(pending_order_.begin(),
                                   pending_order_.end(), delegation_key),
                       pending_order_.end());
  return Status::OK();
}

std::string DelegationGate::RenderPending() const {
  if (pending_order_.empty()) return "(no pending delegations)\n";
  std::string out;
  for (uint64_t key : pending_order_) {
    auto it = pending_.find(key);
    if (it == pending_.end()) continue;
    out += "pending delegation from " + it->second.origin_peer + " (key " +
           std::to_string(key) + "):\n    " + it->second.rule.ToString() +
           "\n";
  }
  return out;
}

}  // namespace wdl
