#include "runtime/peer.h"

#include <algorithm>

#include "base/logging.h"
#include "parser/parser.h"

namespace wdl {

Peer::Peer(std::string name, PeerOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (!options_.durability.dir.empty()) {
    // Durable peers keep their stream versions across restarts, so the
    // link-reset amnesty would only buy redundant full re-sends.
    options_.engine.preserve_streams_on_reset = true;
    Result<std::unique_ptr<PeerDurability>> opened =
        PeerDurability::Open(options_.durability);
    if (!opened.ok()) {
      durability_status_ = opened.status();
      WDL_LOG(Error) << name_ << ": durability disabled: "
                     << durability_status_;
    } else {
      durability_ = std::move(*opened);
      durability_status_ = RecoverFromDurability();
      if (!durability_status_.ok()) {
        WDL_LOG(Error) << name_ << ": recovery failed, durability disabled: "
                       << durability_status_;
        durability_.reset();
      }
    }
  }
}

Status Peer::RecoverFromDurability() {
  if (!durability_->has_recovery()) return Status::OK();
  if (const SnapshotData* snap = durability_->snapshot()) {
    Engine& engine = EnsureEngine();
    for (const SnapshotData::RelationState& rs : snap->relations) {
      WDL_RETURN_IF_ERROR(engine.DeclareRelation(rs.decl));
      if (rs.tuples.empty()) continue;
      Relation* rel = engine.catalog().Get(rs.decl.relation);
      if (rel == nullptr) {
        return Status::Internal("restored relation vanished: " +
                                rs.decl.relation);
      }
      for (const Tuple& t : rs.tuples) {
        WDL_RETURN_IF_ERROR(rel->Insert(t).status());
      }
    }
    for (const SnapshotData::RuleState& rule : snap->rules) {
      WDL_RETURN_IF_ERROR(engine.RestoreInstalledRule(
          rule.id, rule.rule, rule.origin_peer, rule.delegation_key));
    }
    engine.SetNextRuleId(snap->next_rule_id);
    for (const SnapshotData::StreamState& ss : snap->slices) {
      engine.RestoreSliceStream(ss.relation, ss.sender, ss.version,
                                ss.tuples);
    }
    for (const SnapshotData::SentState& sent : snap->sent) {
      engine.RestoreSentContribution(sent.target_peer, sent.relation,
                                     sent.version, sent.tuples);
    }
    for (const Delegation& d : snap->sent_delegations) {
      engine.RestoreSentDelegation(d);
    }
    for (const Delegation& d : snap->pending_delegations) {
      gate_.RestorePending(d);
    }
    for (const std::string& p : snap->known_peers) known_peers_.insert(p);
    next_seq_ = snap->next_seq;
  }
  replaying_ = true;
  for (const WalRecord& record : durability_->recovered_records()) {
    ApplyWalRecord(record);
  }
  replaying_ = false;
  recovered_ = true;
  durability_->FinishRecovery();
  return Status::OK();
}

void Peer::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kEnvelope:
      HandleEnvelope(record.envelope);
      break;
    case WalRecordType::kLocalFactInsert: {
      Result<bool> r = EnsureEngine().InsertFact(record.fact);
      if (!r.ok()) {
        WDL_LOG(Warning) << name_ << ": replayed insert failed: "
                         << r.status();
      }
      break;
    }
    case WalRecordType::kLocalFactDelete:
      (void)EnsureEngine().RemoveFact(record.fact);
      break;
    case WalRecordType::kLocalDecl: {
      Status st = EnsureEngine().DeclareRelation(record.decl);
      // A duplicate declaration means the record also reached the
      // snapshot (re-replay); identical redeclares are harmless.
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) {
        WDL_LOG(Warning) << name_ << ": replayed declare failed: " << st;
      }
      break;
    }
    case WalRecordType::kLocalRuleAdd: {
      Engine& engine = EnsureEngine();
      bool present = false;
      for (const InstalledRule* ir : engine.rules()) {
        present |= ir->id == record.id;
      }
      if (present) break;  // duplicate replay
      Status st = engine.RestoreInstalledRule(record.id, record.rule, name_,
                                              /*delegation_key=*/0);
      if (!st.ok()) {
        WDL_LOG(Warning) << name_ << ": replayed rule add failed: " << st;
      }
      break;
    }
    case WalRecordType::kLocalRuleRemove:
      (void)EnsureEngine().RemoveRule(record.id);
      break;
    case WalRecordType::kStageOutbound: {
      Engine& engine = EnsureEngine();
      for (const DerivedDelta& d : record.shipped_deltas) {
        engine.ApplyShippedDelta(d);
      }
      for (const Delegation& d : record.shipped_delegations) {
        engine.RestoreSentDelegation(d);
      }
      for (uint64_t key : record.shipped_delegation_retracts) {
        engine.ApplyShippedDelegationRetract(key);
      }
      break;
    }
    case WalRecordType::kDelegationApprove:
      (void)ApproveDelegation(record.id);
      break;
    case WalRecordType::kDelegationReject:
      (void)RejectDelegation(record.id);
      break;
  }
}

void Peer::LogDurable(const WalRecord& record) {
  if (durability_ == nullptr || replaying_) return;
  Status st = durability_->Append(record);
  if (!st.ok()) {
    // Keep serving (memory-only semantics) but latch the failure so
    // hosts can see the peer is no longer recoverable past this point.
    WDL_LOG(Error) << name_ << ": WAL append ("
                   << WalRecordTypeToString(record.type)
                   << ") failed, durability degraded: " << st;
    durability_status_ = st;
  }
}

bool Peer::ShouldLogEnvelope(const Envelope& envelope) {
  const Message& m = envelope.message;
  switch (m.type) {
    case MessageType::kHello:
    case MessageType::kResyncRequest:
      // Pure control plane: a recovered peer re-learns names from
      // traffic, and resync serves regenerate from gap detection.
      return false;
    case MessageType::kDerivedDelta:
      // Version-only heartbeats carry no state (see CollectHeartbeats);
      // gap repair after recovery re-detects from live heartbeats.
      return m.delta.snapshot || m.delta.version != m.delta.base_version;
    default:
      return true;
  }
}

Engine& Peer::EnsureEngine() const {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<Engine>(name_, options_.engine);
    // Forwarded, not copied: a durable peer materializes during
    // recovery, before its System installs the listener.
    engine_->set_work_listener([this] {
      if (work_listener_) work_listener_();
    });
    if (work_listener_) work_listener_();
  }
  return *engine_;
}

size_t Peer::ApproxIdleBytes() const {
  auto string_heap = [](const std::string& s) {
    // Strings short enough for the small-string buffer cost no heap.
    return s.capacity() > sizeof(std::string) ? s.capacity() + 1 : 0;
  };
  size_t bytes = sizeof(Peer) + string_heap(name_);
  for (const std::string& p : known_peers_) {
    // One red-black tree node: three pointers + color word + the key.
    bytes += 4 * sizeof(void*) + sizeof(std::string) + string_heap(p);
  }
  return bytes;
}

Status Peer::LoadProgramText(std::string_view source) {
  WDL_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  return LoadProgram(program);
}

Status Peer::LoadProgram(const Program& program) {
  std::vector<uint64_t> rule_ids;
  WDL_RETURN_IF_ERROR(EnsureEngine().LoadProgram(program, &rule_ids));
  if (durability_ != nullptr && !replaying_) {
    // Log the program decomposed into its records, in apply order, so
    // replay retraces exactly what LoadProgram did.
    for (const RelationDecl& decl : program.declarations) {
      WalRecord record;
      record.type = WalRecordType::kLocalDecl;
      record.decl = decl;
      LogDurable(record);
    }
    for (const Fact& fact : program.facts) {
      WalRecord record;
      record.type = WalRecordType::kLocalFactInsert;
      record.fact = fact;
      LogDurable(record);
    }
    for (size_t i = 0; i < program.rules.size(); ++i) {
      WalRecord record;
      record.type = WalRecordType::kLocalRuleAdd;
      record.id = rule_ids[i];
      record.rule = program.rules[i];
      LogDurable(record);
    }
    (void)durability_->EndBatch();
  }
  return Status::OK();
}

Result<bool> Peer::Insert(const Fact& fact) {
  Result<bool> r = EnsureEngine().InsertFact(fact);
  if (r.ok() && *r) {
    WalRecord record;
    record.type = WalRecordType::kLocalFactInsert;
    record.fact = fact;
    LogDurable(record);
  }
  return r;
}

Result<bool> Peer::Remove(const Fact& fact) {
  Result<bool> r = EnsureEngine().RemoveFact(fact);
  if (r.ok() && *r) {
    WalRecord record;
    record.type = WalRecordType::kLocalFactDelete;
    record.fact = fact;
    LogDurable(record);
  }
  return r;
}

Result<uint64_t> Peer::AddRuleText(std::string_view rule_text) {
  WDL_ASSIGN_OR_RETURN(Rule rule, ParseRule(rule_text));
  return AddRule(rule);
}

Result<uint64_t> Peer::AddRule(const Rule& rule) {
  WDL_ASSIGN_OR_RETURN(uint64_t id, EnsureEngine().AddRule(rule));
  WalRecord record;
  record.type = WalRecordType::kLocalRuleAdd;
  record.id = id;
  record.rule = rule;
  LogDurable(record);
  return id;
}

Status Peer::RemoveRule(uint64_t rule_id) {
  WDL_RETURN_IF_ERROR(EnsureEngine().RemoveRule(rule_id));
  WalRecord record;
  record.type = WalRecordType::kLocalRuleRemove;
  record.id = rule_id;
  LogDurable(record);
  return Status::OK();
}

void Peer::HandleEnvelope(const Envelope& envelope) {
  // Log-before-apply: once an envelope is accepted it must survive a
  // crash, because the sender's stream version has moved past it and a
  // plain restart will never see it again.
  if (durability_ != nullptr && !replaying_ && ShouldLogEnvelope(envelope)) {
    WalRecord record;
    record.type = WalRecordType::kEnvelope;
    record.envelope = envelope;
    LogDurable(record);
  }
  known_peers_.insert(envelope.from);
  const Message& m = envelope.message;
  // Inbound frames that carry engine work materialize a lazy engine
  // ("first inbound frame"); pure control-plane traffic (Hello, a
  // retraction of something never installed) must not — a peer that
  // only ever hears greetings stays idle-cheap.
  switch (m.type) {
    case MessageType::kFactInserts:
      EnsureEngine().EnqueueFactInserts(m.facts);
      break;
    case MessageType::kFactDeletes:
      EnsureEngine().EnqueueFactDeletes(m.facts);
      break;
    case MessageType::kDerivedDelta:
      EnsureEngine().EnqueueDerivedDelta(envelope.from, m.delta);
      break;
    case MessageType::kResyncRequest:
      EnsureEngine().EnqueueResyncRequest(envelope.from, m.text);
      break;
    case MessageType::kDelegationInstall: {
      DelegationGate::Decision decision =
          options_.trust_all_delegations
              ? DelegationGate::Decision::kAccepted
              : gate_.OnArrival(m.delegation);
      if (decision == DelegationGate::Decision::kAccepted) {
        Status st = EnsureEngine().InstallDelegatedRule(m.delegation);
        if (!st.ok()) {
          WDL_LOG(Warning) << name_ << ": rejected delegation from "
                           << m.delegation.origin_peer << ": " << st;
        }
      }
      break;
    }
    case MessageType::kDelegationRetract:
      if (!gate_.OnRetraction(m.delegation_key) && engine_ != nullptr) {
        engine_->RetractDelegatedRule(m.delegation_key);
      }
      break;
    case MessageType::kHello:
      known_peers_.insert(m.text);
      break;
  }
}

std::vector<Envelope> Peer::RunStage() {
  if (engine_ == nullptr) return {};
  StageResult result = engine_->RunStage();
  if (durability_ != nullptr) {
    // Log what this stage shipped before the envelope builder below
    // moves the payloads out. Shipped deltas and resync snapshots
    // advance the emission diff bases on replay, so a recovered peer
    // diffs against what receivers actually hold instead of re-shipping
    // its whole view.
    WalRecord record;
    record.type = WalRecordType::kStageOutbound;
    for (const auto& [target, outbound] : result.outbound) {
      record.shipped_deltas.insert(record.shipped_deltas.end(),
                                   outbound.derived_deltas.begin(),
                                   outbound.derived_deltas.end());
      for (const Delegation& d : outbound.delegation_installs) {
        record.shipped_delegations.push_back(d);
      }
      for (uint64_t key : outbound.delegation_retracts) {
        record.shipped_delegation_retracts.push_back(key);
      }
    }
    if (!record.shipped_deltas.empty() ||
        !record.shipped_delegations.empty() ||
        !record.shipped_delegation_retracts.empty()) {
      LogDurable(record);
    }
  }
  std::vector<Envelope> out;
  for (auto& [target, outbound] : result.outbound) {
    auto make_envelope = [&](Message message) {
      Envelope e;
      e.from = name_;
      e.to = target;
      e.seq = next_seq_++;
      e.message = std::move(message);
      out.push_back(std::move(e));
    };
    for (DerivedDelta& dd : outbound.derived_deltas) {
      make_envelope(Message::MakeDerivedDelta(std::move(dd)));
    }
    for (std::string& relation : outbound.resync_requests) {
      make_envelope(Message::ResyncRequest(std::move(relation)));
    }
    if (!outbound.fact_deletes.empty()) {
      make_envelope(Message::FactDeletes(std::move(outbound.fact_deletes)));
    }
    for (Delegation& d : outbound.delegation_installs) {
      make_envelope(Message::DelegationInstall(std::move(d)));
    }
    for (uint64_t key : outbound.delegation_retracts) {
      make_envelope(Message::DelegationRetract(key));
    }
  }
  FinishDurableStage();
  return out;
}

void Peer::FinishDurableStage() {
  if (durability_ == nullptr || replaying_) return;
  Status st = durability_->EndBatch();
  if (!st.ok()) {
    WDL_LOG(Error) << name_ << ": WAL sync failed: " << st;
    durability_status_ = st;
    return;
  }
  if (!durability_->ShouldSnapshot()) return;
  // A stage boundary is the safe point: inbound queues were drained at
  // stage start and the emission diffs above are settled.
  st = durability_->WriteSnapshot(MakeSnapshot());
  if (!st.ok()) {
    WDL_LOG(Error) << name_ << ": snapshot failed: " << st;
    durability_status_ = st;
  }
}

SnapshotData Peer::MakeSnapshot() const {
  SnapshotData snap;
  snap.peer = name_;
  snap.next_seq = next_seq_;
  snap.known_peers.assign(known_peers_.begin(), known_peers_.end());
  if (engine_ != nullptr) {
    snap.next_rule_id = engine_->next_rule_id();
    const Catalog& catalog = engine_->catalog();
    for (const std::string& name : catalog.RelationNames()) {
      const Relation* rel = catalog.Get(name);
      if (rel == nullptr) continue;
      SnapshotData::RelationState rs;
      rs.decl = rel->decl();
      // Intensional views rebuild from slices on the first recovered
      // stage; only base tuples are durable.
      if (rel->kind() == RelationKind::kExtensional) {
        rs.tuples = rel->SortedTuples();
      }
      snap.relations.push_back(std::move(rs));
    }
    for (const InstalledRule* ir : engine_->rules()) {
      SnapshotData::RuleState rule;
      rule.id = ir->id;
      rule.origin_peer = ir->origin_peer;
      rule.delegation_key = ir->delegation_key;
      rule.rule = ir->rule;
      snap.rules.push_back(std::move(rule));
    }
    engine_->slice_store().ForEachStream(
        [&](const std::string& relation, const std::string& sender,
            uint64_t version, const SliceStore::TupleSet& slice) {
          SnapshotData::StreamState ss;
          ss.relation = relation;
          ss.sender = sender;
          ss.version = version;
          ss.tuples.assign(slice.begin(), slice.end());
          std::sort(ss.tuples.begin(), ss.tuples.end());
          snap.slices.push_back(std::move(ss));
        });
    engine_->ForEachSentContribution(
        [&](const std::string& target, const std::string& relation,
            const std::unordered_set<Tuple, TupleHasher>& tuples,
            uint64_t version) {
          SnapshotData::SentState sent;
          sent.target_peer = target;
          sent.relation = relation;
          sent.version = version;
          sent.tuples.assign(tuples.begin(), tuples.end());
          std::sort(sent.tuples.begin(), sent.tuples.end());
          snap.sent.push_back(std::move(sent));
        });
    engine_->ForEachSentDelegation(
        [&](const Delegation& d) { snap.sent_delegations.push_back(d); });
  }
  for (const Delegation* d : gate_.Pending()) {
    snap.pending_delegations.push_back(*d);
  }
  return snap;
}

std::vector<Envelope> Peer::MakeHeartbeats() {
  if (engine_ == nullptr) return {};
  std::vector<Envelope> out;
  for (DerivedDelta& dd : engine_->CollectHeartbeats()) {
    Envelope e;
    e.from = name_;
    e.to = dd.target_peer;
    e.seq = next_seq_++;
    e.message = Message::MakeDerivedDelta(std::move(dd));
    out.push_back(std::move(e));
  }
  return out;
}

Status Peer::ApproveDelegation(uint64_t delegation_key) {
  WDL_ASSIGN_OR_RETURN(Delegation d, gate_.Approve(delegation_key));
  WDL_RETURN_IF_ERROR(EnsureEngine().InstallDelegatedRule(d));
  WalRecord record;
  record.type = WalRecordType::kDelegationApprove;
  record.id = delegation_key;
  LogDurable(record);
  return Status::OK();
}

Status Peer::RejectDelegation(uint64_t delegation_key) {
  WDL_RETURN_IF_ERROR(gate_.Reject(delegation_key));
  WalRecord record;
  record.type = WalRecordType::kDelegationReject;
  record.id = delegation_key;
  LogDurable(record);
  return Status::OK();
}

std::string Peer::RenderProgramView() const {
  std::string out = "=== " + name_ + " ===\n";
  // Rendering is inspection; an idle peer renders as empty without
  // being materialized by the act of looking at it.
  if (engine_ != nullptr) out += engine_->ProgramListing();
  out += gate_.RenderPending();
  return out;
}

std::string Peer::RenderRelation(const std::string& relation) const {
  const Relation* rel =
      engine_ == nullptr ? nullptr : engine_->catalog().Get(relation);
  std::string out = relation + "@" + name_;
  if (rel == nullptr) {
    return out + ": (not declared)\n";
  }
  out += " [" + std::string(RelationKindToString(rel->kind())) + ", " +
         std::to_string(rel->size()) + " tuples]\n";
  for (const Tuple& t : rel->SortedTuples()) {
    out += "  " + TupleToString(t) + "\n";
  }
  return out;
}

}  // namespace wdl
