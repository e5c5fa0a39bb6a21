#ifndef WDL_ENGINE_ENGINE_H_
#define WDL_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "ast/program.h"
#include "base/result.h"
#include "engine/delegation.h"
#include "engine/derivation.h"
#include "engine/eval.h"
#include "storage/catalog.h"
#include "storage/slice_store.h"

namespace wdl {

struct EngineOptions {
  Dialect dialect = Dialect::kExtended;
  /// Durable-peer mode (DESIGN.md §11): on a link reset, keep the
  /// inbound stream versions and skip the blanket outbound contribution
  /// re-serve. A durable peer restarts with its stream state intact, so
  /// the first reconnect needs no amnesty — gaps that do exist (deltas
  /// shipped while this peer was down) surface through heartbeats and
  /// are repaired by per-stream resyncs, which is exactly the narrow
  /// recovery the WAL buys. Only sound when every peer in the cluster
  /// is durable too (a memory-only peer that restarts really has lost
  /// its state and needs the amnesty); see OPERATIONS.md.
  bool preserve_streams_on_reset = false;
};

/// One differential update of a sender's contribution to a remote
/// relation (DESIGN.md §5). Versions order one (sender, target,
/// relation) stream: the delta moves it `base_version -> version`, so a
/// receiver can drop duplicates and detect lost predecessors (and then
/// ask for a resync). A `snapshot` carries the whole contribution in
/// `inserts` (deletes empty) and repairs any gap. Receivers apply it by
/// relation kind: extensional targets union-insert the inserts (updates
/// are persistent); intensional targets update the sender's slice
/// (continuous view maintenance).
struct DerivedDelta {
  std::string target_peer;
  std::string relation;
  uint64_t base_version = 0;
  uint64_t version = 0;
  bool snapshot = false;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

/// Everything a stage wants delivered to one remote peer.
struct Outbound {
  std::vector<DerivedDelta> derived_deltas;
  /// Relations whose contribution *from the target peer* must be re-sent
  /// in full (this peer detected a gap in the inbound delta stream).
  std::vector<std::string> resync_requests;
  std::vector<Fact> fact_deletes;  // from deletion rules (-head :- body)
  std::vector<Delegation> delegation_installs;
  std::vector<uint64_t> delegation_retracts;  // Delegation::Key()s
};

struct StageStats {
  int iterations = 0;            // fixpoint iterations across strata
  uint64_t tuples_examined = 0;  // join work
  uint64_t local_derivations = 0;  // intensional tuples inserted
  size_t active_rules = 0;
};

/// Cumulative propagation-plane telemetry of one engine, across every
/// stage it has run. Benches surface these next to EvalCounters so perf
/// work can attribute wire-cost wins (ISSUE: bytes/delta telemetry).
struct PropagationCounters {
  uint64_t deltas_shipped = 0;        // DerivedDelta messages
  uint64_t delta_inserts_shipped = 0;
  uint64_t delta_deletes_shipped = 0;
  uint64_t snapshots_shipped = 0;     // resync responses served
  uint64_t resyncs_requested = 0;     // gaps this engine detected
  uint64_t heartbeats_shipped = 0;    // version-only stream heartbeats
  uint64_t heartbeat_gaps_detected = 0;  // resyncs triggered by heartbeats
  /// Inbound versioned snapshots applied (i.e. full re-sends this engine
  /// accepted). The durability acceptance metric: a cleanly recovered
  /// peer converges with zero of these — every stream resumes from its
  /// restored version.
  uint64_t snapshots_applied = 0;
};

struct StageResult {
  // By target peer; only targets with something to ship have an entry.
  std::map<std::string, Outbound> outbound;
  StageStats stats;
};

/// A rule active at this peer, either authored locally or installed by
/// a remote peer through delegation. The rule owns its compiled plans
/// (DESIGN.md §4): its shape's plans, shared with every rule of that
/// shape in the process, are acquired from the SharedPlanCache at
/// install and released with the rule, so the evaluator holds none.
/// Its parameters, hash and peers (ConcreteRule) are its own.
struct InstalledRule : ConcreteRule {
  uint64_t id = 0;             // engine-local handle
  std::string origin_peer;     // == self for locally authored rules
  uint64_t delegation_key = 0; // nonzero iff installed via delegation
  /// CanDelegate(self), fixed at install: whether a removal or a
  /// deletion it reads can leave residuals to retract.
  bool can_delegate = false;
  /// The head-bound plan of DRed existence checks, acquired by the
  /// first check against this rule.
  std::shared_ptr<const RulePlan> head_bound_plan;
};

/// The WebdamLog engine of a single peer: catalog + active rule set +
/// the three-step stage of §2 — (1) load inputs received since the
/// previous stage, (2) run a local fixpoint, (3) emit facts (updates)
/// and rules (delegations) for other peers.
///
/// Intensional relations are maintained incrementally across stages
/// (DESIGN.md §6): views persist, and every stage is one kind of Δ
/// stage. Per stratum, deletions retract by DRed-style over-delete/
/// re-derive, then semi-naive evaluation runs forward from the changed
/// tuples only. The cascade stops at a view tuple another peer still
/// contributes (its slice-store support count); local support is
/// whatever re-derivation finds. The seeds are the stage's net changes
/// (local EDB changes, slice-store support transitions, what lower
/// strata changed), the rules installed and retracted since the last
/// stage, and the changes of relations read under negation. The first
/// stage counts every rule as installed.
///
/// Derived state is kept once: the views in the catalog, remote
/// contributions in the slice store, and what this peer derives for
/// others in the sent state that diffs its next emission.
///
/// Not thread-safe; one Engine per peer, driven by the runtime.
class Engine {
 public:
  explicit Engine(std::string self_peer, EngineOptions options = {});

  // Neither copyable nor movable: evaluator_ holds &catalog_, so a
  // moved Engine would evaluate against the moved-from catalog. (The
  // deleted copy already suppressed implicit moves; spelling the move
  // deletions out documents the self-reference.)
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  const std::string& self_peer() const { return self_peer_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  const EngineOptions& options() const { return options_; }

  /// Declares relations, loads base facts, installs rules; validates the
  /// whole program under the configured dialect first. When `rule_ids`
  /// is non-null it receives the engine-local id of each installed rule
  /// in program order (durable peers log the decomposed program as
  /// individual WAL records and need the ids the rules landed on).
  Status LoadProgram(const Program& program,
                     std::vector<uint64_t>* rule_ids = nullptr);

  Status DeclareRelation(const RelationDecl& decl);

  /// Installs a locally authored rule after safety/dialect validation.
  /// Returns an engine-local id usable with RemoveRule.
  Result<uint64_t> AddRule(const Rule& rule);
  /// The checks AddRule runs, without installing anything: safety, the
  /// dialect, and stratifiability together with the installed rules.
  /// Returns the rule bound to its shape's plan; ad-hoc queries
  /// evaluate it once (runtime/query.h).
  Result<ConcreteRule> PrepareRule(const Rule& rule) const;
  Status RemoveRule(uint64_t id);

  /// Installs a rule delegated by a remote peer (access control happens
  /// above the engine, in the runtime's DelegationGate).
  Status InstallDelegatedRule(const Delegation& delegation);
  /// Removes the rule installed for `delegation_key`; idempotent.
  void RetractDelegatedRule(uint64_t delegation_key);

  /// Immediate base-fact update of a local extensional relation (the
  /// user API: "Upload a picture", ratings, annotations...).
  Result<bool> InsertFact(const Fact& fact);
  Result<bool> RemoveFact(const Fact& fact);

  // --- Step-1 inputs, queued by the runtime between stages -----------
  void EnqueueFactInserts(std::vector<Fact> facts);
  void EnqueueFactDeletes(std::vector<Fact> facts);
  void EnqueueDerivedDelta(const std::string& sender, DerivedDelta delta);
  /// `peer` lost part of our contribution stream to `relation`@peer and
  /// asks for a full snapshot; served in the next stage's step 3.
  void EnqueueResyncRequest(const std::string& peer,
                            const std::string& relation);

  /// The transport link to `peer` was reset (connection dropped and/or
  /// re-established — on a real network that usually means `peer`
  /// crashed, restarted, or was unreachable for a while). Heals both
  /// directions through the existing resync machinery:
  ///  - outbound: every contribution stream and delegation we hold for
  ///    `peer` is re-shipped (snapshots / idempotent installs), exactly
  ///    as if `peer` had sent a resync request per stream;
  ///  - inbound: the stream positions of everything `peer` sends us are
  ///    forgotten (a restarted sender renumbers from 1, which the gate
  ///    would otherwise drop as stale) and a resync request per stream
  ///    goes out.
  void NoteLinkReset(const std::string& peer);

  /// Runs one computation stage and returns what must be shipped.
  StageResult RunStage();

  /// Version-only DerivedDelta heartbeats for every contribution stream
  /// this engine has shipped: the receiver
  /// compares the carried version against its applied stream version
  /// and requests a resync on mismatch, bounding the staleness window
  /// of a stream that went silent right after a dropped frame. Pure
  /// observation — emitting heartbeats neither changes state nor marks
  /// the engine dirty; the runtime schedules them periodically.
  std::vector<DerivedDelta> CollectHeartbeats();

  /// True when the next stage has work: the work notice (below) has
  /// been raised since the last stage began.
  bool HasPendingWork() const { return dirty_; }

  /// Installs the callback told whenever the next stage has work: by
  /// every public entry point that creates some (fact and rule edits,
  /// delegation install, a retract that removes a rule, the Enqueue*
  /// inputs, NoteLinkReset), and by a stage that leaves some behind
  /// (deferred self-updates and self-deletes, delete rechecks). After
  /// it fires HasPendingWork() is true. The owning Peer forwards it to
  /// the System's ready set (DESIGN.md §2).
  void set_work_listener(std::function<void()> listener) {
    work_listener_ = std::move(listener);
  }

  /// Active rules in installation order (stable ids).
  std::vector<const InstalledRule*> rules() const;

  /// Evaluator telemetry accumulated across every stage this engine has
  /// run: access-path choices, join work, stage kinds. Benches surface
  /// these in their JSON so perf work can attribute wins.
  const EvalCounters& eval_counters() const { return evaluator_.counters(); }

  /// Propagation-plane telemetry (deltas and snapshots shipped, resync
  /// traffic), accumulated like eval_counters().
  const PropagationCounters& propagation_counters() const {
    return prop_counters_;
  }

  /// Receiver-side contribution store (observability for tests: slices,
  /// support counts, stream versions).
  const SliceStore& slice_store() const { return slice_store_; }

  // --- durability restore / WAL replay (DESIGN.md §11) ----------------
  // Called only by a recovering Peer, between construction and its
  // first stage. Restore* methods rebuild state verbatim from a
  // snapshot (no validation beyond structural checks, no dirty-marking
  // beyond what a fresh engine already carries — a fresh engine's first
  // stage evaluates every rule, seeds the views from the restored
  // slices, and ships only what differs from the restored sent state).
  // ApplyShipped* methods replay kStageOutbound
  // WAL records, advancing the emission diff bases to what receivers
  // actually hold; they are idempotent under re-replay because versions
  // only move forward.

  /// Reinstalls a rule under a fixed engine-local id (bumps the id
  /// allocator past it). `delegation_key` nonzero marks a rule that
  /// arrived via delegation.
  Status RestoreInstalledRule(uint64_t id, const Rule& rule,
                              const std::string& origin_peer,
                              uint64_t delegation_key);
  void SetNextRuleId(uint64_t id);
  uint64_t next_rule_id() const { return next_rule_id_; }
  /// Rebuilds one inbound contribution stream: the sender's slice and
  /// its applied version.
  void RestoreSliceStream(const std::string& relation,
                          const std::string& sender, uint64_t version,
                          const std::vector<Tuple>& tuples);
  /// Rebuilds one outbound diff base: what `target_peer` holds of our
  /// contribution to `relation`, at `version`.
  void RestoreSentContribution(const std::string& target_peer,
                               const std::string& relation, uint64_t version,
                               const std::vector<Tuple>& tuples);
  void RestoreSentDelegation(const Delegation& delegation);
  /// Replays one shipped delta from a kStageOutbound WAL record against
  /// the sent-contribution state (never against local relations — the
  /// receiver holds those tuples, not us).
  void ApplyShippedDelta(const DerivedDelta& delta);
  void ApplyShippedDelegationRetract(uint64_t delegation_key);
  /// Visits every outbound contribution stream as (target_peer,
  /// relation, tuple set, version) — snapshot writers iterate this.
  template <typename Fn>
  void ForEachSentContribution(Fn&& fn) const {
    for (const auto& [key, sent] : sent_contributions_) {
      fn(key.target_peer, key.relation, sent.tuples, sent.version);
    }
  }
  template <typename Fn>
  void ForEachSentDelegation(Fn&& fn) const {
    for (const auto& [key, d] : sent_delegations_) fn(d);
  }

  /// Human-readable program listing with provenance markers — the
  /// per-peer program view of the paper's Figure 3.
  std::string ProgramListing() const;

  /// Serializes this peer's durable state — declarations, extensional
  /// facts, and locally authored rules — as parseable WebdamLog source.
  /// Loading the text into a fresh Engine reproduces the peer (views
  /// rebuild on the first stage; delegated rules re-arrive from their
  /// origins). This is how "users launch their customized peers on
  /// their machines with their own personal data" persists across runs.
  std::string DumpAsProgramText() const;

 private:
  struct ContributionKey {
    std::string target_peer;
    std::string relation;
    bool operator<(const ContributionKey& o) const {
      if (target_peer != o.target_peer) return target_peer < o.target_peer;
      return relation < o.relation;
    }
  };
  using TupleSet = std::unordered_set<Tuple, TupleHasher>;

  /// What we last shipped for one (target peer, relation): the full
  /// tuple set (the diffing base of the next delta, compared directly —
  /// hashes are never trusted for suppression) plus the stream version.
  struct SentContribution {
    TupleSet tuples;
    uint64_t version = 0;
  };

  /// One queued inbound contribution update, applied in arrival order.
  struct InboundDerived {
    std::string sender;
    DerivedDelta delta;
  };

  /// One stage's evaluation: the sinks rule heads derive through and
  /// what they collect (engine.cc).
  struct StagePass;

  /// Installs `rule` under `id`, keeping rules_ in id order.
  uint64_t InstallRule(uint64_t id, ConcreteRule rule,
                       const std::string& origin_peer,
                       uint64_t delegation_key);
  /// The installed rule with `id`, or rules_.end().
  std::vector<InstalledRule>::iterator FindRule(uint64_t id);
  /// Removes an installed rule. One installed since the last stage has
  /// derived nothing and leaves no trace. What any other derived,
  /// unless an α-variant (same shape and parameters) that the last
  /// stage also ran derives the same, is recorded for the next stage to
  /// retract, and so is its hash, whose residuals the next stage
  /// retracts unless a rule of that hash emits them again.
  void EraseRule(std::vector<InstalledRule>::iterator it);
  /// Marks the next stage as needed and tells the work listener.
  void NoteWork();
  void NoteRuleSetChanged();
  void RefreshStrata();
  void ApplyInputs(StageChangeLog* log);
  void ApplyInboundDerived(InboundDerived& in, StageChangeLog* log);
  void SeedIntensionalFromContributions();
  /// Erases the ship-once suppression entry for a fact this stage
  /// re-ships as an insert, and schedules the next stage to re-derive
  /// (and re-ship) any deletion-rule verdict on it.
  void ClearDeleteSuppression(const std::string& relation,
                              const std::string& peer, const Tuple& tuple);
  void ShipDelta(const ContributionKey& key, SentContribution* sent,
                 DerivedDelta dd, StageResult* result);
  void EmitContributions(StagePass* pass, StageResult* result);
  void ServeResyncs(StageResult* result);
  /// Re-ships the delegations queued by link resets, as the sent state
  /// holds them when the stage starts; the stage's own installs and
  /// retracts follow them.
  void ReshipDelegations(StageResult* result);
  void EmitDelegations(StagePass* pass, StageResult* result);
  /// Semi-naive rounds from `delta` until no rule derives a new local
  /// tuple (DESIGN.md §6). Returns the number of rounds run.
  int RunRounds(const std::vector<const InstalledRule*>& rules,
                DeltaMap delta, StagePass* pass);
  /// The deletion phase of one stratum: over-delete from the Δ⁻ seeds,
  /// re-derive, retract contributions and rebuild delegations.
  void RetractStratum(int stratum,
                      const std::vector<const InstalledRule*>& rules,
                      StageChangeLog* log, StagePass* pass);
  /// The forward phase of one stratum: semi-naive rounds from the Δ⁺
  /// seeds and the rules installed since the last stage.
  void DeriveStratum(int stratum,
                     const std::vector<const InstalledRule*>& rules,
                     StageChangeLog* log, StagePass* pass, bool first);
  /// Re-emits the residuals of `rules`, the installed rules stamping
  /// `hash` (α-variants of one rule), and retracts the sent residuals
  /// stamped `hash` that none of them emits again.
  void RebuildDelegations(uint64_t hash,
                          const std::vector<const InstalledRule*>& rules,
                          StagePass* pass);
  /// Step 3: deferred self-updates, remote deletions, contribution and
  /// delegation emission. Raises a work notice when it leaves work for
  /// the next stage.
  void FinishStage(StagePass* pass, StageResult* result);
  /// True when an installed derivation rule (or, with `deletion`, a
  /// deletion rule) derives `target` from the current local state.
  bool HasLocalDerivation(const Fact& target, bool deletion = false);

  std::string self_peer_;
  Symbol self_sym_;  // interned self name (delegation-capability checks)
  EngineOptions options_;
  Catalog catalog_;
  // Owned across stages: its counters accumulate and its scratch
  // buffers keep their capacity.
  RuleEvaluator evaluator_;

  // In id order: installs take ids above every installed one, except a
  // restore, which runs before the first stage.
  std::vector<InstalledRule> rules_;
  uint64_t next_rule_id_ = 1;
  // Delegation key -> id of the rule installed for it.
  std::unordered_map<uint64_t, uint64_t> delegated_rule_ids_;

  // Step-1 queues.
  std::vector<Fact> inbound_inserts_;
  std::vector<Fact> inbound_deletes_;
  std::vector<InboundDerived> inbound_derived_;
  // Resync requests received from peers, served next stage.
  std::set<std::pair<std::string, std::string>> pending_resync_serves_;
  // Delegation keys to re-ship next stage (link reset to their target;
  // installs are idempotent by key at the receiver).
  std::set<uint64_t> pending_delegation_reships_;
  // Gaps detected while applying inbound deltas this stage: (sender,
  // relation) -> highest update version we failed to apply. Turned into
  // outbound resync requests in step 3, unless a later message in the
  // batch (duplicate, reordered original, snapshot) already moved the
  // stream to that version — then the gap healed itself and a request
  // would only buy a redundant full snapshot.
  std::map<std::pair<std::string, std::string>, uint64_t> resync_needed_;

  // Deferred local extensional derivations (visible next stage, like
  // Bud's deferred <+ operator), and deferred deletions from deletion
  // rules (Bud's <- operator).
  std::unordered_set<Fact, FactHasher> pending_self_updates_;
  std::unordered_set<Fact, FactHasher> pending_self_deletes_;

  // Remote contributions to local intensional relations: per-sender
  // slices with support counts and delta-stream versions. The first
  // stage seeds the views from them; later stages feed the views only
  // the support transitions.
  SliceStore slice_store_;

  // What we already shipped: the diff base of the next emission. A
  // stage updates it in place and ships the net changes.
  std::map<ContributionKey, SentContribution> sent_contributions_;
  std::map<uint64_t, Delegation> sent_delegations_;
  // Remote deletions shipped while a deletion rule still derives them
  // (deletion is idempotent; ship once). An entry leaves when a stage
  // finds no deletion rule deriving the fact any more, or when the same
  // fact re-ships as an insert; a later verdict then ships again.
  std::unordered_set<Fact, FactHasher> sent_remote_deletes_;

  // --- incremental-maintenance state (DESIGN.md §6) -------------------
  // Net direct InsertFact/RemoveFact changes since the last stage.
  StageChangeLog direct_changes_;
  // Facts whose delete-suppression entry was cleared by an insert
  // re-ship: next stage re-checks active deletion rules against them.
  std::unordered_set<Fact, FactHasher> pending_delete_rechecks_;
  // The last new_rules_ entries of rules_ were installed since the last
  // stage, which evaluates them in full.
  size_t new_rules_ = 0;
  // What the rules removed since the last stage derived, found at
  // removal (the plan is not kept, so it can leave the process-wide
  // cache at once), and the hashes they stamped on residuals. The next
  // stage retracts both.
  std::unordered_set<Fact, FactHasher> removed_facts_;
  std::vector<uint64_t> removed_rule_hashes_;
  // The next stage is the first: every rule counts as installed.
  bool first_stage_ = true;
  // Rule set changed since the last stage: the next stage stratifies it
  // again. rule_strata_[i] is the stratum of rules_[i].
  bool rules_changed_ = true;
  int num_strata_ = 1;
  std::vector<int> rule_strata_;

  PropagationCounters prop_counters_;

  // Set by NoteWork wherever work for the next stage is created, so
  // the runtime knows a stage is needed; cleared by RunStage. Starts
  // true: the first stage builds the views.
  bool dirty_ = true;
  std::function<void()> work_listener_;
};

}  // namespace wdl

#endif  // WDL_ENGINE_ENGINE_H_
