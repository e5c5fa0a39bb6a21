#include "engine/engine.h"

#include <algorithm>

#include "base/logging.h"
#include "base/string_util.h"
#include "engine/plan_cache.h"

namespace wdl {
namespace {

// Safety net for the semi-naive round loop; datalog terminates.
constexpr int kMaxFixpointRounds = 1 << 20;

/// Evaluates `rule` once per positive (or, with `negated`, negated)
/// body position, each time with that position restricted to `delta`:
/// one semi-naive round of one rule. A negated atom restricted to a Δ
/// holds for the Δ's tuples instead of for those absent from its
/// relation.
void EvaluateDeltaPositions(RuleEvaluator* evaluator,
                            const ConcreteRule& rule, const DeltaMap& delta,
                            const RuleEvaluator::Sinks& sinks,
                            bool negated = false) {
  const std::vector<PlanAtom>& body = rule.plan->atoms;
  for (size_t pos = 0; pos < body.size(); ++pos) {
    if (body[pos].negated == negated) {
      evaluator->Evaluate(rule, &delta, static_cast<int>(pos), sinks);
    }
  }
}

/// True when `delta` holds tuples of a relation `touches` (a
/// PlanStaticInfo predicate: BodyReads, Negates, HeadCanWrite) accepts.
/// A rule none of whose body atoms reads the Δ finds nothing new in it.
bool Touches(const DeltaMap& delta, const PlanStaticInfo& info,
             bool (PlanStaticInfo::*touches)(Symbol) const) {
  for (const auto& [sym, ds] : delta) {
    if (!ds.empty() && (info.*touches)(sym)) return true;
  }
  return false;
}

/// The tuples of `changes` (one side of a StageChangeLog) whose
/// relation `keep` accepts, if given, as a Δ; relations the catalog
/// does not know are skipped.
DeltaMap ToDelta(Catalog& catalog, const StageChangeLog::PerRelation& changes,
                 const std::function<bool(const Relation&)>& keep = nullptr) {
  DeltaMap delta;
  for (const auto& [name, tuples] : changes) {
    Relation* rel = catalog.Get(name);
    if (rel == nullptr || tuples.empty() || (keep && !keep(*rel))) continue;
    DeltaSet& ds = delta[rel->symbol()];
    for (const Tuple& t : tuples) ds.Insert(t);
  }
  return delta;
}

/// Puts back, for its lifetime, the state before the changes in `log`
/// that over-delete marking must not see: removed tuples are
/// ghost-reinserted (a derivation joining two removed tuples is still
/// found from either Δ⁻ position), and added tuples of the relations
/// `hide` accepts are taken out (a rule negating two relations that
/// both gained a binding still finds the derivation they ended).
/// Positive atoms read a superset of the earlier state; negated atoms
/// of hidden relations read it exactly.
class EarlierState {
 public:
  EarlierState(Catalog* catalog, const StageChangeLog& log,
               const std::function<bool(const Relation&)>& hide) {
    for (const auto& [name, tuples] : log.removed()) {
      Relation* rel = catalog->Get(name);
      if (rel == nullptr) continue;
      for (const Tuple& t : tuples) {
        Result<bool> r = rel->Insert(t);
        if (r.ok() && *r) ghosts_.emplace_back(rel, &t);
      }
    }
    for (const auto& [name, tuples] : log.added()) {
      Relation* rel = catalog->Get(name);
      if (rel == nullptr || !hide(*rel)) continue;
      for (const Tuple& t : tuples) {
        Result<bool> r = rel->Remove(t);
        if (r.ok() && *r) hidden_.emplace_back(rel, &t);
      }
    }
  }
  ~EarlierState() {
    for (auto& [rel, tuple] : ghosts_) (void)rel->Remove(*tuple);
    for (auto& [rel, tuple] : hidden_) (void)rel->Insert(*tuple);
  }
  EarlierState(const EarlierState&) = delete;
  EarlierState& operator=(const EarlierState&) = delete;

 private:
  std::vector<std::pair<Relation*, const Tuple*>> ghosts_;
  std::vector<std::pair<Relation*, const Tuple*>> hidden_;
};

/// The head-bound plan of `ir`, acquired on first use.
const RulePlan& HeadBoundPlan(InstalledRule* ir) {
  if (ir->head_bound_plan == nullptr) {
    ir->head_bound_plan =
        SharedPlanCache::Instance().AcquireHeadBound(ir->rule);
  }
  return *ir->head_bound_plan;
}

}  // namespace

Engine::Engine(std::string self_peer, EngineOptions options)
    : self_peer_(std::move(self_peer)),
      self_sym_(Symbol::Intern(self_peer_)),
      options_(options),
      catalog_(self_peer_),
      evaluator_(&catalog_, self_peer_, EvalOptions{}) {}

Status Engine::LoadProgram(const Program& program,
                           std::vector<uint64_t>* rule_ids) {
  WDL_RETURN_IF_ERROR(ValidateProgram(program, options_.dialect));
  for (const RelationDecl& d : program.declarations) {
    WDL_RETURN_IF_ERROR(DeclareRelation(d));
  }
  for (const Fact& f : program.facts) {
    WDL_RETURN_IF_ERROR(InsertFact(f).status());
  }
  for (const Rule& r : program.rules) {
    WDL_ASSIGN_OR_RETURN(uint64_t id, AddRule(r));
    if (rule_ids != nullptr) rule_ids->push_back(id);
  }
  return Status::OK();
}

Status Engine::DeclareRelation(const RelationDecl& decl) {
  return catalog_.Declare(decl);
}

Result<ConcreteRule> Engine::PrepareRule(const Rule& rule) const {
  WDL_RETURN_IF_ERROR(CheckRuleSafety(rule));
  if (rule.head_deletes && rule.head.HasConcreteLocation() &&
      rule.head.peer.name() == self_peer_) {
    const Relation* rel = catalog_.Get(rule.head.relation.name());
    if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
      return Status::FailedPrecondition(
          "deletion rule targets intensional relation " +
          rule.head.PredicateId() + "; views cannot be deleted from");
    }
  }
  ConcreteRule bound = BindRule(rule);
  const bool negated = bound.plan->info.HasNegation();
  if (negated && options_.dialect == Dialect::kPaper2013) {
    return Status::Unimplemented(
        "negation is not implemented in the 2013 system (rule: " +
        rule.ToString() + ")");
  }
  // The program must stay stratifiable whenever it holds a negated atom
  // — in the new rule or in an installed one, since a positive rule can
  // close a cycle through an installed negation.
  if (negated || std::any_of(rules_.begin(), rules_.end(),
                             [](const InstalledRule& ir) {
                               return ir.plan->info.HasNegation();
                             })) {
    std::vector<Rule> all;
    all.reserve(rules_.size() + 1);
    for (const InstalledRule& ir : rules_) all.push_back(ir.rule);
    all.push_back(rule);
    WDL_RETURN_IF_ERROR(Stratify(all).status());
  }
  return bound;
}

uint64_t Engine::InstallRule(uint64_t id, ConcreteRule rule,
                             const std::string& origin_peer,
                             uint64_t delegation_key) {
  InstalledRule ir;
  static_cast<ConcreteRule&>(ir) = std::move(rule);
  ir.id = id;
  ir.origin_peer = origin_peer;
  ir.delegation_key = delegation_key;
  ir.can_delegate = ir.CanDelegate(self_sym_);
  if (delegation_key != 0) delegated_rule_ids_[delegation_key] = id;
  // Only a restore (before the first stage, when every rule counts as
  // new) can land before the end.
  auto at = std::upper_bound(
      rules_.begin(), rules_.end(), id,
      [](uint64_t key, const InstalledRule& r) { return key < r.id; });
  rules_.insert(at, std::move(ir));
  ++new_rules_;
  if (id >= next_rule_id_) next_rule_id_ = id + 1;
  NoteRuleSetChanged();
  return id;
}

std::vector<InstalledRule>::iterator Engine::FindRule(uint64_t id) {
  auto it = std::lower_bound(
      rules_.begin(), rules_.end(), id,
      [](const InstalledRule& r, uint64_t key) { return r.id < key; });
  return it != rules_.end() && it->id == id ? it : rules_.end();
}

void Engine::EraseRule(std::vector<InstalledRule>::iterator it) {
  const bool derived = static_cast<size_t>(it - rules_.begin()) <
                       rules_.size() - new_rules_;
  if (it->delegation_key != 0) delegated_rule_ids_.erase(it->delegation_key);
  const bool can_delegate = it->can_delegate;
  const ConcreteRule rule = std::move(*it);
  rules_.erase(it);
  NoteRuleSetChanged();
  if (!derived) {
    --new_rules_;
    return;
  }
  // Its residuals go, unless an α-variant emits them again (the next
  // stage re-runs the rules of its hash).
  if (can_delegate) removed_rule_hashes_.push_back(rule.rule_hash);
  // An α-variant that the last stage also ran derives the same facts.
  // (One installed since may yet go before the stage.)
  if (std::any_of(rules_.begin(), rules_.end() - new_rules_,
                  [&](const InstalledRule& ir) { return ir.SameAs(rule); })) {
    return;
  }
  // What it derives in the state the last stage left: the direct edits
  // since are undone for the evaluation.
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [&](const Fact& f) { removed_facts_.insert(f); };
  sinks.on_remote_fact = sinks.on_local_fact;
  EarlierState earlier(&catalog_, direct_changes_, [&](const Relation& rel) {
    return rule.plan->info.Negates(rel.symbol());
  });
  evaluator_.Evaluate(rule, nullptr, -1, sinks);
}

void Engine::NoteWork() {
  dirty_ = true;
  if (work_listener_) work_listener_();
}

void Engine::NoteRuleSetChanged() {
  NoteWork();
  rules_changed_ = true;
}

Result<uint64_t> Engine::AddRule(const Rule& rule) {
  WDL_ASSIGN_OR_RETURN(ConcreteRule bound, PrepareRule(rule));
  return InstallRule(next_rule_id_, std::move(bound), self_peer_, 0);
}

Status Engine::RemoveRule(uint64_t id) {
  auto it = FindRule(id);
  if (it == rules_.end()) {
    return Status::NotFound("no rule with id " + std::to_string(id));
  }
  EraseRule(it);
  return Status::OK();
}

Status Engine::InstallDelegatedRule(const Delegation& delegation) {
  if (delegation.target_peer != self_peer_) {
    return Status::InvalidArgument(StrFormat(
        "delegation targets peer '%s', not '%s'",
        delegation.target_peer.c_str(), self_peer_.c_str()));
  }
  uint64_t key = delegation.Key();
  if (delegated_rule_ids_.count(key) > 0) return Status::OK();  // idempotent
  WDL_ASSIGN_OR_RETURN(ConcreteRule bound, PrepareRule(delegation.rule));
  InstallRule(next_rule_id_, std::move(bound), delegation.origin_peer, key);
  return Status::OK();
}

void Engine::RetractDelegatedRule(uint64_t delegation_key) {
  auto found = delegated_rule_ids_.find(delegation_key);
  if (found != delegated_rule_ids_.end()) EraseRule(FindRule(found->second));
}

Status Engine::RestoreInstalledRule(uint64_t id, const Rule& rule,
                                    const std::string& origin_peer,
                                    uint64_t delegation_key) {
  WDL_ASSIGN_OR_RETURN(ConcreteRule bound, PrepareRule(rule));
  InstallRule(id, std::move(bound), origin_peer, delegation_key);
  return Status::OK();
}

void Engine::SetNextRuleId(uint64_t id) {
  if (id > next_rule_id_) next_rule_id_ = id;
}

void Engine::RestoreSliceStream(const std::string& relation,
                                const std::string& sender, uint64_t version,
                                const std::vector<Tuple>& tuples) {
  TupleSet slice;
  slice.reserve(tuples.size());
  for (const Tuple& t : tuples) slice.insert(t);
  slice_store_.RestoreStream(relation, sender, version, std::move(slice));
}

void Engine::RestoreSentContribution(const std::string& target_peer,
                                     const std::string& relation,
                                     uint64_t version,
                                     const std::vector<Tuple>& tuples) {
  SentContribution& sent =
      sent_contributions_[ContributionKey{target_peer, relation}];
  sent.version = version;
  sent.tuples.clear();
  sent.tuples.reserve(tuples.size());
  for (const Tuple& t : tuples) sent.tuples.insert(t);
}

void Engine::RestoreSentDelegation(const Delegation& delegation) {
  sent_delegations_[delegation.Key()] = delegation;
}

void Engine::ApplyShippedDelta(const DerivedDelta& delta) {
  SentContribution& sent = sent_contributions_[ContributionKey{
      delta.target_peer, delta.relation}];
  if (delta.snapshot) {
    // Resync snapshots re-ship the current set at the current version;
    // only a snapshot at-or-ahead of the restored state replaces it.
    if (delta.version < sent.version) return;
    sent.version = delta.version;
    sent.tuples.clear();
    for (const Tuple& t : delta.inserts) sent.tuples.insert(t);
    return;
  }
  // Deltas move the stream base_version -> version; a replayed
  // duplicate (version already reached) must not re-apply.
  if (delta.version <= sent.version) return;
  sent.version = delta.version;
  for (const Tuple& t : delta.deletes) sent.tuples.erase(t);
  for (const Tuple& t : delta.inserts) sent.tuples.insert(t);
}

void Engine::ApplyShippedDelegationRetract(uint64_t delegation_key) {
  sent_delegations_.erase(delegation_key);
}

Result<bool> Engine::InsertFact(const Fact& fact) {
  if (fact.peer != self_peer_) {
    return Status::InvalidArgument("InsertFact of remote fact " +
                                   fact.ToString() +
                                   "; route it through the runtime");
  }
  const Relation* rel = catalog_.Get(fact.relation);
  if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
    return Status::FailedPrecondition(
        "relation " + fact.PredicateId() +
        " is intensional (a view); base updates are not allowed");
  }
  Result<bool> r = catalog_.InsertFact(fact);
  if (r.ok() && *r) {
    direct_changes_.RecordInsert(fact.relation, fact.args);
    NoteWork();
  }
  return r;
}

Result<bool> Engine::RemoveFact(const Fact& fact) {
  if (fact.peer != self_peer_) {
    return Status::InvalidArgument("RemoveFact of remote fact " +
                                   fact.ToString());
  }
  const Relation* rel = catalog_.Get(fact.relation);
  if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
    return Status::FailedPrecondition(
        "relation " + fact.PredicateId() +
        " is intensional (a view); base updates are not allowed");
  }
  Result<bool> r = catalog_.RemoveFact(fact);
  if (r.ok() && *r) {
    direct_changes_.RecordRemove(fact.relation, fact.args);
    NoteWork();
  }
  return r;
}

void Engine::EnqueueFactInserts(std::vector<Fact> facts) {
  if (facts.empty()) return;
  for (Fact& f : facts) inbound_inserts_.push_back(std::move(f));
  NoteWork();
}

void Engine::EnqueueFactDeletes(std::vector<Fact> facts) {
  if (facts.empty()) return;
  for (Fact& f : facts) inbound_deletes_.push_back(std::move(f));
  NoteWork();
}

void Engine::EnqueueDerivedDelta(const std::string& sender,
                                 DerivedDelta delta) {
  inbound_derived_.push_back(InboundDerived{sender, std::move(delta)});
  NoteWork();
}

void Engine::EnqueueResyncRequest(const std::string& peer,
                                  const std::string& relation) {
  pending_resync_serves_.emplace(peer, relation);
  NoteWork();  // the snapshot must go out even with no local change
}

void Engine::NoteLinkReset(const std::string& peer) {
  if (peer == self_peer_) return;
  if (options_.preserve_streams_on_reset) {
    // Durable-peer mode: stream versions on both sides survived the
    // restart, so the amnesty below would only buy redundant full
    // snapshots. Delegations still re-ship (installs are idempotent by
    // key and the receiver may genuinely lack one), and any real gap —
    // deltas shipped while the link was down — surfaces through
    // heartbeats and is repaired per stream.
    for (const auto& [dkey, d] : sent_delegations_) {
      if (d.target_peer == peer) pending_delegation_reships_.insert(dkey);
    }
    NoteWork();
    return;
  }
  // Outbound: re-ship every stream and delegation held for `peer`, as
  // if it had requested a resync of each.
  for (const auto& [key, sent] : sent_contributions_) {
    if (key.target_peer == peer) {
      pending_resync_serves_.emplace(peer, key.relation);
    }
  }
  for (const auto& [dkey, d] : sent_delegations_) {
    if (d.target_peer == peer) pending_delegation_reships_.insert(dkey);
  }
  // Inbound: version continuity of `peer`'s streams is gone. Forget the
  // positions and ask for fresh snapshots; any snapshot that arrives
  // before the request goes out (version >= 1 against the reset
  // position) heals the stream and suppresses the request.
  for (const std::string& relation :
       slice_store_.RelationsFromSender(peer)) {
    uint64_t& missing = resync_needed_[{peer, relation}];
    missing = std::max<uint64_t>(missing, 1);
  }
  slice_store_.ResetStreamVersions(peer);
  NoteWork();  // the re-ships and requests must go out in a stage
}

void Engine::ApplyInputs(StageChangeLog* log) {
  // Deferred self-updates from the previous stage land first.
  for (const Fact& f : pending_self_updates_) {
    Result<bool> r = catalog_.InsertFact(f);
    if (!r.ok()) {
      WDL_LOG(Error) << "self-update " << f.ToString()
                     << " failed: " << r.status();
    } else if (*r) {
      log->RecordInsert(f.relation, f.args);
    }
  }
  pending_self_updates_.clear();

  for (const Fact& f : pending_self_deletes_) {
    Result<bool> r = catalog_.RemoveFact(f);
    if (r.ok() && *r) log->RecordRemove(f.relation, f.args);
  }
  pending_self_deletes_.clear();

  for (const Fact& f : inbound_inserts_) {
    const Relation* rel = catalog_.Get(f.relation);
    if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
      WDL_LOG(Warning) << "dropping base insert into intensional relation "
                       << f.PredicateId();
      continue;
    }
    Result<bool> r = catalog_.InsertFact(f);
    if (!r.ok()) {
      WDL_LOG(Error) << "inbound insert " << f.ToString()
                     << " failed: " << r.status();
    } else if (*r) {
      log->RecordInsert(f.relation, f.args);
    }
  }
  inbound_inserts_.clear();

  for (const Fact& f : inbound_deletes_) {
    // A base delete aimed at a view has no durable effect (a view holds
    // exactly what its supports derive): skip it instead of corrupting
    // the persistent view state.
    const Relation* rel = catalog_.Get(f.relation);
    if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
      continue;
    }
    Result<bool> r = catalog_.RemoveFact(f);
    if (r.ok() && *r) log->RecordRemove(f.relation, f.args);
  }
  inbound_deletes_.clear();

  for (InboundDerived& in : inbound_derived_) {
    ApplyInboundDerived(in, log);
  }
  inbound_derived_.clear();
}

void Engine::ApplyInboundDerived(InboundDerived& in, StageChangeLog* log) {
  DerivedDelta& d = in.delta;

  // Version-only heartbeat (version == base_version, no payload): the
  // sender is telling us where its stream stands. If we have applied
  // less, a frame was lost and no later traffic repaired it — ask for a
  // resync; otherwise ignore. Never commits a version or applies data.
  if (!d.snapshot && d.version == d.base_version) {
    if (slice_store_.StreamVersion(d.relation, in.sender) < d.version) {
      uint64_t& missing = resync_needed_[{in.sender, d.relation}];
      missing = std::max(missing, d.version);
      ++prop_counters_.heartbeat_gaps_detected;
    }
    return;
  }

  // Every update passes its stream's version gate (DESIGN.md §5). A
  // gap means a predecessor was lost: applying would corrupt the slice,
  // so ask the sender for a snapshot instead (step 3 ships the request).
  SliceStore::Gate gate =
      d.snapshot
          ? slice_store_.CheckSnapshot(d.relation, in.sender, d.version)
          : slice_store_.CheckDelta(d.relation, in.sender, d.base_version,
                                    d.version);
  if (gate == SliceStore::Gate::kGap) {
    uint64_t& missing = resync_needed_[{in.sender, d.relation}];
    missing = std::max(missing, d.version);
  }
  if (gate == SliceStore::Gate::kApply && d.snapshot) {
    ++prop_counters_.snapshots_applied;
  }
  // Streams that keep no slice only move their version.
  auto commit_version = [&] {
    if (gate == SliceStore::Gate::kApply) {
      slice_store_.CommitVersion(d.relation, in.sender, d.version);
    }
  };

  Relation* rel = catalog_.Get(d.relation);
  if (rel == nullptr) {
    // A peer is telling us about a relation we do not know yet: the
    // paper's "peers may discover new relations". Create it as
    // extensional with inferred arity. A tuple-less update to an
    // unknown relation has nothing to create or apply — but it still
    // moves the stream: without the commit, an empty resync snapshot
    // would leave the applied version behind and every later heartbeat
    // would re-request the same resync forever.
    if (d.inserts.empty()) {
      commit_version();
      return;
    }
    RelationDecl decl;
    decl.relation = d.relation;
    decl.peer = self_peer_;
    decl.kind = RelationKind::kExtensional;
    decl.columns.resize(d.inserts[0].size());
    for (size_t i = 0; i < decl.columns.size(); ++i) {
      decl.columns[i].name = StrFormat("c%zu", i);
    }
    Status st = catalog_.Declare(decl);
    if (!st.ok()) {
      WDL_LOG(Error) << "auto-declare failed: " << st;
      return;
    }
    rel = catalog_.Get(d.relation);
  }

  if (rel->kind() == RelationKind::kExtensional) {
    // Updates are persistent: union-insert, never delete. Inserts apply
    // regardless of stream position (monotone, so replays and gapped
    // deltas can only add facts the sender really derived); the version
    // gate only decides bookkeeping and gap repair.
    for (const Tuple& t : d.inserts) {
      // Copy, not move: the change log records the tuple after a
      // successful insert.
      Result<bool> r = rel->Insert(t);
      if (!r.ok()) {
        WDL_LOG(Error) << "inbound derived tuple rejected by "
                       << rel->decl().PredicateId() << ": " << r.status();
      } else if (*r) {
        log->RecordInsert(d.relation, t);
      }
    }
    commit_version();
    return;
  }

  // View semantics: the update targets this sender's slice. Only
  // schema-valid tuples enter the slice (invalid ones could never seed
  // the view anyway).
  auto filtered = [&](std::vector<Tuple>& tuples) {
    TupleSet set;
    set.reserve(tuples.size());
    for (Tuple& t : tuples) {
      if (rel->CheckTuple(t).ok()) set.insert(std::move(t));
    }
    return set;
  };

  // Support transitions (view membership gained/lost) feed the stage's
  // change log.
  std::vector<Tuple> gained, lost;

  // A stale update (duplicate or reordered-old) is already reflected.
  if (gate != SliceStore::Gate::kApply) return;
  if (d.snapshot) {
    slice_store_.ApplySnapshot(d.relation, in.sender, filtered(d.inserts),
                               d.version, &gained, &lost);
  } else {
    // Validate in place; ApplyDelta dedups per tuple itself.
    d.inserts.erase(std::remove_if(d.inserts.begin(), d.inserts.end(),
                                   [&](const Tuple& t) {
                                     return !rel->CheckTuple(t).ok();
                                   }),
                    d.inserts.end());
    slice_store_.ApplyDelta(d.relation, in.sender, std::move(d.inserts),
                            d.deletes, d.version, &gained, &lost);
  }
  for (const Tuple& t : gained) log->RecordSliceGain(d.relation, t);
  for (const Tuple& t : lost) log->RecordSliceLoss(d.relation, t);
}

void Engine::SeedIntensionalFromContributions() {
  slice_store_.ForEachContributedRelation([&](const std::string& name) {
    Relation* rel = catalog_.Get(name);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) return;
    slice_store_.ForEachContribution(name, [&](const Tuple& t) {
      Result<bool> r = rel->Insert(t);
      if (!r.ok()) {
        WDL_LOG(Warning) << "contribution tuple rejected: " << r.status();
      }
    });
  });
}

/// One stage's evaluation (DESIGN.md §2, §6): the sinks rule heads
/// derive through, and everything they collect. Contributions and
/// delegations go straight into the sent state, and the pass records
/// the net per-key changes against the start of the stage for its
/// O(change) emission: a tuple or residual the deletion phase removed
/// and the forward phase derived again ships nothing.
struct Engine::StagePass {
  StagePass(Engine* owner, StageStats* stage_stats)
      : engine(owner),
        stats(stage_stats),
        tuples_before(owner->evaluator_.counters().tuples_examined) {
    derive.on_local_fact = [this](const Fact& f) {
      Relation* rel = engine->catalog_.Get(f.relation);
      if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
        Result<bool> r = rel->Insert(f.args);
        if (r.ok() && *r) {
          next_delta[rel->symbol()].Insert(f.args);
          if (changes != nullptr) changes->RecordInsert(f.relation, f.args);
          ++stats->local_derivations;
        }
      } else if (rel == nullptr || !rel->Contains(f.args)) {
        self_updates.insert(f);  // local update rule: next stage, Bud's <+
      }
    };
    derive.on_remote_fact = [this](const Fact& f) {
      AddContribution(ContributionKey{f.peer, f.relation}, f.args);
    };
    derive.on_delegation = [this](const Delegation& d) {
      AddDelegation(d.Key(), d);
    };
    remove.on_local_fact = [this](const Fact& f) {
      Relation* rel = engine->catalog_.Get(f.relation);
      if (rel != nullptr && rel->kind() == RelationKind::kIntensional) {
        WDL_LOG(Warning) << "deletion rule derived into view "
                         << f.PredicateId() << "; dropped";
      } else if (rel != nullptr && rel->Contains(f.args)) {
        self_deletes.insert(f);  // deferred, Bud's <-
      }
    };
    remove.on_remote_fact = [this](const Fact& f) {
      remote_deletes.insert(f);
    };
    remove.on_delegation = derive.on_delegation;
  }
  StagePass(const StagePass&) = delete;  // the sinks capture `this`
  StagePass& operator=(const StagePass&) = delete;

  /// Deletion rules' heads remove; every other rule's head derives.
  const RuleEvaluator::Sinks& SinksFor(const ConcreteRule& rule) const {
    return rule.rule.head_deletes ? remove : derive;
  }

  // Sent-state edits, netted per key against the state at the start of
  // the stage.
  void AddContribution(const ContributionKey& key, const Tuple& t) {
    if (!engine->sent_contributions_[key].tuples.insert(t).second) return;
    ContributionChange& c = contribution_changes[key];
    if (c.removed.erase(t) == 0) c.added.insert(t);
  }
  void RemoveContribution(SentContribution* sent, const ContributionKey& key,
                          const Tuple& t) {
    sent->tuples.erase(t);
    ContributionChange& c = contribution_changes[key];
    if (c.added.erase(t) == 0) c.removed.insert(t);
  }
  void AddDelegation(uint64_t key, const Delegation& d) {
    if (!engine->sent_delegations_.try_emplace(key, d).second) return;
    if (delegations_retracted.erase(key) == 0) {
      delegations_installed.insert(key);
    }
  }
  void RemoveDelegation(uint64_t key) {
    auto it = engine->sent_delegations_.find(key);
    if (it == engine->sent_delegations_.end()) return;
    if (delegations_installed.erase(key) == 0) {
      delegations_retracted.emplace(key, it->second.target_peer);
    }
    engine->sent_delegations_.erase(it);
  }

  struct ContributionChange {
    TupleSet added;
    TupleSet removed;
  };

  Engine* const engine;
  StageStats* stats;
  const uint64_t tuples_before;
  RuleEvaluator::Sinks derive;
  RuleEvaluator::Sinks remove;
  DeltaMap next_delta;  // local tuples new in the current round
  // Where the view tuples a stratum derives are recorded for the strata
  // above it; null when no stratum above reads them.
  StageChangeLog* changes = nullptr;
  std::unordered_set<Fact, FactHasher> self_updates;
  std::unordered_set<Fact, FactHasher> self_deletes;
  std::unordered_set<Fact, FactHasher> remote_deletes;
  // Shipped remote deletions whose verdict a removal may have ended.
  std::unordered_set<Fact, FactHasher> lapsed_deletes;
  std::map<ContributionKey, ContributionChange> contribution_changes;
  std::set<uint64_t> delegations_installed;
  std::map<uint64_t, std::string> delegations_retracted;  // -> target peer
};

int Engine::RunRounds(const std::vector<const InstalledRule*>& rules,
                      DeltaMap delta, StagePass* pass) {
  int rounds = 0;
  while (!delta.empty() && rounds < kMaxFixpointRounds) {
    ++rounds;
    // A rule whose body reads nothing in the Δ has nothing new to find.
    for (const InstalledRule* rule : rules) {
      if (Touches(delta, rule->plan->info, &PlanStaticInfo::BodyReads)) {
        EvaluateDeltaPositions(&evaluator_, *rule, delta,
                               pass->SinksFor(*rule));
      }
    }
    delta = std::move(pass->next_delta);
    pass->next_delta = DeltaMap();
  }
  if (rounds >= kMaxFixpointRounds) {
    WDL_LOG(Error) << "fixpoint round limit reached at peer " << self_peer_;
  }
  return rounds;
}

namespace {
std::vector<Tuple> SortedVector(
    const std::unordered_set<Tuple, TupleHasher>& set) {
  std::vector<Tuple> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());  // deterministic wire
  return out;
}
}  // namespace

void Engine::ClearDeleteSuppression(const std::string& relation,
                                    const std::string& peer,
                                    const Tuple& tuple) {
  Fact f(relation, peer, tuple);
  if (sent_remote_deletes_.erase(f) == 0) return;
  // The fact went out as an insert after we had shipped its deletion:
  // if a deletion rule still derives it, the deletion must ship again.
  // The next stage re-checks exactly the queued facts. (This runs
  // inside a stage, whose FinishStage raises the work notice.)
  pending_delete_rechecks_.insert(std::move(f));
}

/// Ships `dd` (payload only) as the next delta of `key`'s stream: fills
/// in the stream versions, sorts the payload for a deterministic wire,
/// and lifts delete suppression for every re-shipped insert. The caller
/// has already moved `sent->tuples` to the post-delta state.
void Engine::ShipDelta(const ContributionKey& key, SentContribution* sent,
                       DerivedDelta dd, StageResult* result) {
  dd.target_peer = key.target_peer;
  dd.relation = key.relation;
  dd.base_version = sent->version;
  dd.version = ++sent->version;
  std::sort(dd.inserts.begin(), dd.inserts.end());
  std::sort(dd.deletes.begin(), dd.deletes.end());
  for (const Tuple& t : dd.inserts) {
    ClearDeleteSuppression(key.relation, key.target_peer, t);
  }
  prop_counters_.delta_inserts_shipped += dd.inserts.size();
  prop_counters_.delta_deletes_shipped += dd.deletes.size();
  ++prop_counters_.deltas_shipped;
  result->outbound[key.target_peer].derived_deltas.push_back(std::move(dd));
}

/// Contributions ship only when they changed, as a delta of the net
/// inserts and deletes the stage recorded against what was last sent.
/// An emptied contribution ships its remainder as deletes, so the
/// receiver clears its slice.
void Engine::EmitContributions(StagePass* pass, StageResult* result) {
  for (auto& [key, change] : pass->contribution_changes) {
    if (change.added.empty() && change.removed.empty()) continue;
    DerivedDelta dd;
    dd.inserts.assign(change.added.begin(), change.added.end());
    dd.deletes.assign(change.removed.begin(), change.removed.end());
    ShipDelta(key, &sent_contributions_[key], std::move(dd), result);
  }
}

void Engine::ServeResyncs(StageResult* result) {
  // Serve resync requests: a full snapshot of the current contribution
  // at its current version (possibly just updated by contribution
  // emission — if a regular delta for the same key also shipped this
  // stage, the snapshot subsumes it at the receiver).
  for (const auto& [peer, relation] : pending_resync_serves_) {
    ContributionKey key{peer, relation};
    DerivedDelta dd;
    dd.snapshot = true;
    dd.target_peer = peer;
    dd.relation = relation;
    auto it = sent_contributions_.find(key);
    if (it != sent_contributions_.end()) {
      dd.version = it->second.version;
      dd.inserts = SortedVector(it->second.tuples);
    }
    // A snapshot re-ships every tuple as an insert: each one lands at
    // the receiver again and lifts any pending delete suppression for
    // that fact.
    for (const Tuple& t : dd.inserts) {
      ClearDeleteSuppression(relation, peer, t);
    }
    ++prop_counters_.snapshots_shipped;
    result->outbound[peer].derived_deltas.push_back(std::move(dd));
  }
  pending_resync_serves_.clear();

  // And raise our own: gaps detected while applying inbound deltas —
  // unless a later message of the same batch (duplicate, reordered
  // original, snapshot) already advanced the stream past the missing
  // update, in which case the gap healed itself.
  for (const auto& [key, missing_version] : resync_needed_) {
    const auto& [sender, relation] = key;
    if (slice_store_.StreamVersion(relation, sender) >= missing_version) {
      continue;
    }
    result->outbound[sender].resync_requests.push_back(relation);
    ++prop_counters_.resyncs_requested;
  }
  resync_needed_.clear();
}

void Engine::ReshipDelegations(StageResult* result) {
  // The target may have restarted and lost the installed rule. Installs
  // are idempotent by delegation key, so a target that kept the rule is
  // unaffected.
  for (uint64_t key : pending_delegation_reships_) {
    auto it = sent_delegations_.find(key);
    if (it == sent_delegations_.end()) continue;  // retracted since
    result->outbound[it->second.target_peer].delegation_installs.push_back(
        it->second);
  }
  pending_delegation_reships_.clear();
}

void Engine::EmitDelegations(StagePass* pass, StageResult* result) {
  // The sent set already moved; ship the net changes.
  for (uint64_t key : pass->delegations_installed) {
    const Delegation& d = sent_delegations_.at(key);
    result->outbound[d.target_peer].delegation_installs.push_back(d);
  }
  for (const auto& [key, target] : pass->delegations_retracted) {
    result->outbound[target].delegation_retracts.push_back(key);
  }
}

void Engine::RefreshStrata() {
  num_strata_ = 1;
  rule_strata_.assign(rules_.size(), 0);
  // Installs keep the rule set stratifiable (PrepareRule), and a
  // negation-free program is one stratum.
  if (std::none_of(rules_.begin(), rules_.end(), [](const InstalledRule& ir) {
        return ir.plan->info.HasNegation();
      })) {
    return;
  }
  std::vector<Rule> all;
  all.reserve(rules_.size());
  for (const InstalledRule& ir : rules_) all.push_back(ir.rule);
  Result<Stratification> strat = Stratify(all);
  if (!strat.ok()) {
    WDL_LOG(Error) << "stratification failed; evaluating in one stratum: "
                   << strat.status();
    return;
  }
  num_strata_ = strat->num_strata;
  rule_strata_ = std::move(strat->rule_stratum);
}

bool Engine::HasLocalDerivation(const Fact& target, bool deletion) {
  const Symbol relation = Symbol::Find(target.relation);
  const Symbol peer = Symbol::Find(target.peer);
  for (InstalledRule& ir : rules_) {
    // A rule whose head cannot name the target needs no head-bound plan.
    if (ir.rule.head_deletes != deletion || !ir.HeadCanMatch(relation, peer)) {
      continue;
    }
    if (evaluator_.ExistsDerivation(ir, HeadBoundPlan(&ir), target)) {
      return true;
    }
  }
  return false;
}

StageResult Engine::RunStage() {
  StageResult result;
  result.stats.active_rules = rules_.size();
  dirty_ = false;
  if (rules_changed_) {
    RefreshStrata();
    rules_changed_ = false;
  }

  // Step 1: load inputs received since the previous stage.
  StageChangeLog log = std::move(direct_changes_);
  direct_changes_ = StageChangeLog();
  ApplyInputs(&log);
  ReshipDelegations(&result);

  StagePass pass(this, &result.stats);
  const bool first = first_stage_;
  if (first) {
    // Every rule counts as installed and the views start from the slice
    // store. A recovered peer's restored sent state is withdrawn first,
    // so only what its receivers lack or hold in excess ships.
    ++evaluator_.mutable_counters()->stages_full;
    first_stage_ = false;
    new_rules_ = rules_.size();
    pending_delete_rechecks_.clear();  // every deletion rule fires in full
    for (auto& [key, sent] : sent_contributions_) {
      if (sent.tuples.empty()) continue;
      pass.contribution_changes[key].removed = std::move(sent.tuples);
      sent.tuples = TupleSet();
    }
    for (const auto& [key, d] : sent_delegations_) {
      pass.delegations_retracted.emplace(key, d.target_peer);
    }
    sent_delegations_.clear();
    SeedIntensionalFromContributions();
  } else {
    ++evaluator_.mutable_counters()->stages_incremental;
    // Deletion-verdict rechecks queued by insert re-ships.
    for (const Fact& f : pending_delete_rechecks_) {
      if (HasLocalDerivation(f, /*deletion=*/true)) {
        pass.remote_deletes.insert(f);
      }
    }
    pending_delete_rechecks_.clear();
    // Removed rules' residuals go, unless a surviving α-variant the last
    // stage ran emits them again; the rules installed since re-emit
    // theirs below (one emitted again nets out).
    std::vector<const InstalledRule*> variants;
    for (uint64_t hash : removed_rule_hashes_) {
      variants.clear();
      for (auto it = rules_.begin(); it != rules_.end() - new_rules_; ++it) {
        if (it->rule_hash == hash) variants.push_back(&*it);
      }
      RebuildDelegations(hash, variants, &pass);
    }
  }

  // Step 2, stratum by stratum: the deletion phase, then the forward
  // phase (DESIGN.md §6).
  std::vector<const InstalledRule*> rules;
  for (int stratum = 0; stratum < num_strata_; ++stratum) {
    rules.clear();
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (rule_strata_[i] == stratum) rules.push_back(&rules_[i]);
    }
    pass.changes = first || stratum + 1 == num_strata_ ? nullptr : &log;
    if (!first) RetractStratum(stratum, rules, &log, &pass);
    DeriveStratum(stratum, rules, &log, &pass, first);
  }
  new_rules_ = 0;
  removed_facts_.clear();
  removed_rule_hashes_.clear();

  // A shipped verdict no deletion rule derives any more leaves the
  // suppression set, so it ships again if it returns.
  for (const Fact& f : pass.lapsed_deletes) {
    if (pass.remote_deletes.count(f) == 0 &&
        !HasLocalDerivation(f, /*deletion=*/true)) {
      sent_remote_deletes_.erase(f);
    }
  }
  FinishStage(&pass, &result);
  return result;
}

void Engine::RetractStratum(int stratum,
                            const std::vector<const InstalledRule*>& rules,
                            StageChangeLog* log, StagePass* pass) {
  EvalCounters* counters = evaluator_.mutable_counters();
  std::map<std::string, TupleSet> marked;
  std::map<ContributionKey, TupleSet> marked_contrib;
  DeltaMap next_frontier;
  RuleEvaluator::Sinks del_sinks;
  del_sinks.on_local_fact = [&](const Fact& f) {
    Relation* rel = catalog_.Get(f.relation);
    if (rel == nullptr || rel->kind() != RelationKind::kIntensional) {
      return;  // extensional updates persist; never retract them
    }
    if (!rel->Contains(f.args)) return;
    TupleSet& m = marked[f.relation];
    if (m.count(f.args) > 0) return;
    // A tuple another peer still contributes stays, and shields what it
    // supports: the cascade stops here.
    if (slice_store_.SupportCount(f.relation, f.args) > 0) return;
    m.insert(f.args);
    next_frontier[rel->symbol()].Insert(f.args);
  };
  del_sinks.on_remote_fact = [&](const Fact& f) {
    ContributionKey key{f.peer, f.relation};
    auto it = sent_contributions_.find(key);
    if (it == sent_contributions_.end() ||
        it->second.tuples.count(f.args) == 0) {
      return;
    }
    marked_contrib[key].insert(f.args);  // leaf: nothing local reads it
  };
  // Deletion rules sustain nothing; they run only to find the shipped
  // verdicts a removal may have ended.
  RuleEvaluator::Sinks verdict_sinks;
  verdict_sinks.on_remote_fact = [&](const Fact& f) {
    if (sent_remote_deletes_.count(f) > 0) pass->lapsed_deletes.insert(f);
  };
  const bool track_verdicts = !sent_remote_deletes_.empty();

  // ---- Seeds ------------------------------------------------------
  // Δ⁻ of what this stratum reads: extensional removals and lower
  // strata's retractions; Δ⁺ of what it reads under negation.
  DeltaMap frontier = ToDelta(catalog_, log->removed());
  const bool negation =
      std::any_of(rules.begin(), rules.end(), [](const InstalledRule* rule) {
        return rule->plan->info.HasNegation();
      });
  auto negated_here = [&](const Relation& rel) {
    return negation && std::any_of(rules.begin(), rules.end(),
                                   [&](const InstalledRule* rule) {
                                     return rule->plan->info.Negates(
                                         rel.symbol());
                                   });
  };
  DeltaMap added_negated = ToDelta(catalog_, log->added(), negated_here);
  // View tuples that lost their last remote contribution, and what the
  // removed rules derived, are over-deleted like any other candidate:
  // re-derivation returns what a local rule still derives. Each seeds
  // every stratum whose rules can write it (the first if none can), so
  // the closure below runs the rules of any cycle through it before
  // that check; higher strata see the outcome as a lower stratum's
  // change.
  auto seeds_here = [&](const std::string& relation,
                        const std::string& peer) {
    if (num_strata_ == 1) return true;
    const Symbol rel = Symbol::Find(relation);
    const Symbol at = Symbol::Find(peer);
    bool written = false;
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (!rules_[i].HeadCanMatch(rel, at)) continue;
      if (rule_strata_[i] == stratum) return true;
      written = true;
    }
    return stratum == 0 && !written;
  };
  for (const auto& [rel_name, tuples] : log->slice_lost()) {
    if (!seeds_here(rel_name, self_peer_)) continue;
    for (const Tuple& t : tuples) {
      del_sinks.on_local_fact(Fact(rel_name, self_peer_, t));
    }
  }
  for (const Fact& f : removed_facts_) {
    if (!seeds_here(f.relation, f.peer)) continue;
    if (f.peer == self_peer_) {
      del_sinks.on_local_fact(f);
    } else {
      del_sinks.on_remote_fact(f);
      verdict_sinks.on_remote_fact(f);
    }
  }
  if (frontier.empty() && next_frontier.empty() && added_negated.empty() &&
      marked_contrib.empty()) {
    return;
  }

  // ---- Over-delete closure (marking; nothing removed yet) -----------
  {
    EarlierState earlier(&catalog_, *log, negated_here);
    // A gain of a relation read under negation ends the derivations the
    // atom held for: restricted to the gains, the atom finds them. (A
    // deletion verdict ended this way may stay suppressed.)
    for (const InstalledRule* rule : rules) {
      if (!rule->rule.head_deletes &&
          Touches(added_negated, rule->plan->info, &PlanStaticInfo::Negates)) {
        EvaluateDeltaPositions(&evaluator_, *rule, added_negated, del_sinks,
                               /*negated=*/true);
      }
    }
    while (!frontier.empty() || !next_frontier.empty()) {
      for (const InstalledRule* rule : rules) {
        if (!Touches(frontier, rule->plan->info, &PlanStaticInfo::BodyReads)) {
          continue;
        }
        if (!rule->rule.head_deletes) {
          EvaluateDeltaPositions(&evaluator_, *rule, frontier, del_sinks);
        } else if (track_verdicts) {
          EvaluateDeltaPositions(&evaluator_, *rule, frontier, verdict_sinks);
        }
      }
      frontier = std::move(next_frontier);
      next_frontier = DeltaMap();
    }
  }

  // ---- Apply deletions, then re-derive survivors --------------------
  struct Candidate {
    const std::string* relation;
    Relation* rel;
    const Tuple* tuple;
  };
  std::vector<Candidate> candidates;
  for (auto& [rel_name, tuples] : marked) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr) continue;
    for (const Tuple& t : tuples) {
      Result<bool> r = rel->Remove(t);
      if (!r.ok() || !*r) continue;
      candidates.push_back(Candidate{&rel_name, rel, &t});
    }
  }

  // DRed re-derivation loop: a candidate with an alternative derivation
  // over the post-deletion database returns; returned tuples can in
  // turn sustain other candidates, so iterate to a fixpoint. Everything
  // here is bounded by the over-deleted set, not the view.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = candidates.begin(); it != candidates.end();) {
      Fact f(*it->relation, self_peer_, *it->tuple);
      if (HasLocalDerivation(f)) {
        (void)it->rel->Insert(*it->tuple);
        ++counters->tuples_rederived;
        it = candidates.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  counters->tuples_retracted += candidates.size();
  if (pass->changes != nullptr) {
    for (const Candidate& c : candidates) {
      pass->changes->RecordRemove(*c.relation, *c.tuple);
    }
  }

  // Contribution candidates re-derive against the settled local state.
  for (const auto& [key, tuples] : marked_contrib) {
    SentContribution& sent = sent_contributions_.at(key);
    for (const Tuple& t : tuples) {
      Fact f(key.relation, key.target_peer, t);
      if (HasLocalDerivation(f)) {
        ++counters->tuples_rederived;
        continue;
      }
      pass->RemoveContribution(&sent, key, t);
      ++counters->tuples_retracted;
    }
  }

  // ---- Delegation rebuild -------------------------------------------
  // A deletion, or a gain of a relation read under negation, can
  // invalidate the prefix binding a delegation was emitted from, and
  // emitted residuals carry no back-pointers to their prefix tuples.
  // Rules that can delegate and may read such a change rebuild their
  // delegation output from scratch; everything else keeps its entries.
  DeltaMap deleted = ToDelta(catalog_, log->removed());
  for (const auto& [rel_name, tuples] : marked) {
    Relation* rel = catalog_.Get(rel_name);
    if (rel == nullptr) continue;
    for (const Tuple& t : tuples) deleted[rel->symbol()].Insert(t);
  }
  // Residuals carry their rule's hash, which every α-variant of the
  // rule at this peer shares: the variants rebuild together.
  std::map<uint64_t, std::vector<const InstalledRule*>> rebuilds;
  for (const InstalledRule* rule : rules) {
    const PlanStaticInfo& info = rule->plan->info;
    if (rule->can_delegate &&
        (Touches(deleted, info, &PlanStaticInfo::BodyReads) ||
         Touches(added_negated, info, &PlanStaticInfo::Negates))) {
      rebuilds[rule->rule_hash].push_back(rule);
    }
  }
  for (const auto& [hash, variants] : rebuilds) {
    RebuildDelegations(hash, variants, pass);
  }
}

void Engine::RebuildDelegations(uint64_t hash,
                                const std::vector<const InstalledRule*>& rules,
                                StagePass* pass) {
  // The entries that no re-evaluation emits again are gone; the ones
  // one does emit again stay where they are, uncopied.
  std::unordered_set<uint64_t> stale;
  for (const auto& [key, d] : sent_delegations_) {
    if (d.origin_rule_hash == hash) stale.insert(key);
  }
  RuleEvaluator::Sinks rebuild;
  rebuild.on_delegation = [&](const Delegation& d) {
    const uint64_t key = d.Key();
    stale.erase(key);
    pass->AddDelegation(key, d);
  };
  for (const InstalledRule* rule : rules) {
    evaluator_.Evaluate(*rule, nullptr, -1, rebuild);
  }
  for (uint64_t key : stale) pass->RemoveDelegation(key);
}

void Engine::DeriveStratum(int stratum,
                           const std::vector<const InstalledRule*>& rules,
                           StageChangeLog* log, StagePass* pass,
                           bool first) {
  // The rounds start from everything the seeds below derive.
  DeltaMap& delta = pass->next_delta;
  if (!first) {
    // ---- Δ⁺ seeds: net additions of the inputs and lower strata, and
    // (in the first stratum) the views' new remote support.
    delta = ToDelta(catalog_, log->added());
    for (const auto& [rel_name, tuples] : log->slice_gained()) {
      Relation* rel = catalog_.Get(rel_name);
      if (stratum > 0 || rel == nullptr ||
          rel->kind() != RelationKind::kIntensional) {
        continue;
      }
      for (const Tuple& t : tuples) {
        Result<bool> r = rel->Insert(t);  // false: already derived
        if (!r.ok() || !*r) continue;
        delta[rel->symbol()].Insert(t);
        if (pass->changes != nullptr) pass->changes->RecordInsert(rel_name, t);
      }
    }
    const DeltaMap lost = ToDelta(catalog_, log->removed());
    for (const InstalledRule* rule : rules) {
      const RuleEvaluator::Sinks& sinks = pass->SinksFor(*rule);
      // A loss of a relation read under negation starts the derivations
      // the atom held back: restricted to the losses, the atom finds
      // them.
      if (Touches(lost, rule->plan->info, &PlanStaticInfo::Negates)) {
        EvaluateDeltaPositions(&evaluator_, *rule, lost, sinks,
                               /*negated=*/true);
      }
      // Continuous-enforcement re-fires: a deletion rule whose head
      // relation regained tuples must delete them again, and an update
      // rule whose local extensional head relation lost tuples must
      // re-assert them. (Remote heads are receiver-persistent, and view
      // heads were handled by the cascade.)
      const PlanStaticInfo& info = rule->plan->info;
      bool refire;
      if (rule->rule.head_deletes) {
        refire = Touches(delta, info, &PlanStaticInfo::HeadCanWrite);
      } else {
        const Relation* head =
            info.head_relation_var ? nullptr : catalog_.Get(info.head_relation);
        refire = (info.head_peer_var || rule->head_peer == self_sym_) &&
                 (head == nullptr ||
                  head->kind() == RelationKind::kExtensional) &&
                 Touches(lost, info, &PlanStaticInfo::HeadCanWrite);
      }
      if (refire) evaluator_.Evaluate(*rule, nullptr, -1, sinks);
    }
  }

  // Rules installed since the last stage (every rule, in the first)
  // evaluate in full; the rounds continue from what they derived.
  for (size_t i = rules_.size() - new_rules_; i < rules_.size(); ++i) {
    if (rule_strata_[i] != stratum) continue;
    evaluator_.Evaluate(rules_[i], nullptr, -1, pass->SinksFor(rules_[i]));
  }
  DeltaMap seeds = std::move(delta);
  delta = DeltaMap();
  pass->stats->iterations += (first && !rules.empty() ? 1 : 0) +
                             RunRounds(rules, std::move(seeds), pass);
}

void Engine::FinishStage(StagePass* pass, StageResult* result) {
  pending_self_updates_ = std::move(pass->self_updates);
  pending_self_deletes_ = std::move(pass->self_deletes);
  // Remote deletions ship once per live verdict (idempotent at the
  // receiver; re-sending is pure waste).
  for (const Fact& f : pass->remote_deletes) {
    if (sent_remote_deletes_.insert(f).second) {
      result->outbound[f.peer].fact_deletes.push_back(f);
    }
  }
  EmitContributions(pass, result);
  ServeResyncs(result);
  EmitDelegations(pass, result);

  result->stats.tuples_examined =
      evaluator_.counters().tuples_examined - pass->tuples_before;
  if (!pending_self_updates_.empty() || !pending_self_deletes_.empty() ||
      !pending_delete_rechecks_.empty()) {
    NoteWork();
  }
}

std::vector<DerivedDelta> Engine::CollectHeartbeats() {
  std::vector<DerivedDelta> out;
  for (const auto& [key, sent] : sent_contributions_) {
    if (sent.version == 0) continue;  // nothing ever shipped
    DerivedDelta dd;
    dd.target_peer = key.target_peer;
    dd.relation = key.relation;
    dd.base_version = sent.version;
    dd.version = sent.version;
    out.push_back(std::move(dd));
    ++prop_counters_.heartbeats_shipped;
  }
  return out;
}

std::string Engine::DumpAsProgramText() const {
  Program program;
  for (const std::string& name : catalog_.RelationNames()) {
    const Relation* rel = catalog_.Get(name);
    if (StartsWith(name, "__query_")) continue;  // query scratch views
    program.declarations.push_back(rel->decl());
    if (rel->kind() == RelationKind::kExtensional) {
      for (Tuple& t : rel->SortedTuples()) {
        program.facts.emplace_back(name, self_peer_, std::move(t));
      }
    }
  }
  for (const InstalledRule& ir : rules_) {
    if (ir.delegation_key == 0) program.rules.push_back(ir.rule);
  }
  return program.ToString();
}

std::vector<const InstalledRule*> Engine::rules() const {
  std::vector<const InstalledRule*> out;
  out.reserve(rules_.size());
  for (const InstalledRule& ir : rules_) out.push_back(&ir);
  return out;
}

std::string Engine::ProgramListing() const {
  std::string out = "program of peer " + self_peer_ + ":\n";
  for (const InstalledRule& ir : rules_) {
    out += "  [" + std::to_string(ir.id) + "] ";
    out += ir.rule.ToString();
    if (ir.delegation_key != 0) {
      out += "   (delegated by " + ir.origin_peer + ")";
    }
    out += "\n";
  }
  if (rules_.empty()) out += "  (no rules)\n";
  return out;
}

}  // namespace wdl
