#ifndef WDL_ENGINE_EVAL_H_
#define WDL_ENGINE_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/fact.h"
#include "ast/rule.h"
#include "base/symbol.h"
#include "engine/delegation.h"
#include "engine/plan.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"

namespace wdl {

/// The Δ of one relation: tuples newly derived in the previous fixpoint
/// iteration, with lazily built per-column hash indexes. A Δ-restricted
/// atom whose access-path column is bound probes the index instead of
/// scanning the whole set — the difference between O(|outer|·|Δ|) and
/// O(|outer|) per iteration on bushy recursions like same-generation.
///
/// A DeltaSet is filled first (the engine inserts into the *next* Δ)
/// and probed afterwards (as the *previous* Δ), never both at once, so
/// probes iterate matches directly without snapshotting.
class DeltaSet {
 public:
  bool Insert(Tuple t) {
    auto [it, inserted] = tuples_.insert(std::move(t));
    if (inserted) indexes_.OnInsert(&*it);
    return inserted;
  }

  bool Contains(const Tuple& t) const { return tuples_.count(t) != 0; }

  const std::unordered_set<Tuple, TupleHasher>& tuples() const {
    return tuples_;
  }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Invokes `fn` on tuples whose `column`-th value equals `value`
  /// (tuples too short for the column never match). `fn` must not
  /// mutate this DeltaSet.
  template <typename Fn>
  void LookupEqual(size_t column, const Value& value, Fn&& fn) const {
    LazyColumnIndexes::ProbeEqual(indexes_.Ensure(column, tuples_), column,
                                  value, fn);
  }

 private:
  std::unordered_set<Tuple, TupleHasher> tuples_;
  // Shared build-on-first-probe helper (also used by Relation); mutable
  // because a probe through the const read path may build the index.
  mutable LazyColumnIndexes indexes_;
};

/// Newly derived tuples per relation in the previous fixpoint iteration
/// — the Δ of semi-naive evaluation. Keyed by interned relation symbol:
/// the per-iteration lookup in the join loop is an integer hash, not a
/// string hash.
using DeltaMap = std::unordered_map<Symbol, DeltaSet, SymbolHasher>;

struct EvalOptions {
  /// When false, every atom match scans the full relation; used by the
  /// join ablation (bench_join) to quantify what the indexes buy.
  bool use_indexes = true;
};

/// Per-evaluation counters (observability and bench instrumentation).
struct EvalCounters {
  uint64_t tuples_examined = 0;
  uint64_t bindings_completed = 0;
  uint64_t delegations_emitted = 0;
  // Access-path telemetry, surfaced in the bench JSON so perf PRs can
  // attribute wins. (Plan compiles and reuse are process-wide:
  // SharedPlanCache::stats().)
  uint64_t slot_bindings = 0;    // slots bound during unification
  uint64_t index_lookups = 0;    // atoms matched via a column-index probe
  uint64_t full_scans = 0;       // atoms matched via a full relation scan
  uint64_t delta_index_probes = 0;  // Δ-restricted atoms using the Δ index
  uint64_t delta_scans = 0;         // Δ-restricted atoms scanning the Δ
  uint64_t negation_probes = 0;  // ground negated-atom containment checks
  // Incremental-maintenance telemetry (DESIGN.md §6), accumulated by
  // the engine's stage driver: proof in bench JSON that per-stage work
  // tracks the change size, not the view size.
  uint64_t stages_incremental = 0;  // stages after an engine's first
  uint64_t stages_full = 0;      // first stages: every rule evaluated
  uint64_t tuples_retracted = 0;  // over-deleted and not re-derived
  uint64_t tuples_rederived = 0;  // over-deleted, alternative found
  uint64_t rederive_checks = 0;   // head-bound existence probes run

  /// Accumulates `o` into this: one total over several engines'
  /// counters.
  void MergeFrom(const EvalCounters& o) {
    tuples_examined += o.tuples_examined;
    bindings_completed += o.bindings_completed;
    delegations_emitted += o.delegations_emitted;
    slot_bindings += o.slot_bindings;
    index_lookups += o.index_lookups;
    full_scans += o.full_scans;
    delta_index_probes += o.delta_index_probes;
    delta_scans += o.delta_scans;
    negation_probes += o.negation_probes;
    stages_incremental += o.stages_incremental;
    stages_full += o.stages_full;
    tuples_retracted += o.tuples_retracted;
    tuples_rederived += o.tuples_rederived;
    rederive_checks += o.rederive_checks;
  }
};

/// Evaluates single rules against a peer's local catalog, left to right,
/// producing head instantiations and delegation splits.
///
/// Routing of results follows the WebdamLog stage semantics:
///  - a completed body with a head located at this peer derives a local
///    fact (`on_local_fact`);
///  - a completed body with a remote head contributes to the derived set
///    shipped to that peer (`on_remote_fact`);
///  - hitting a body atom located at a *remote* peer stops local
///    evaluation and emits the residual rule as a Delegation
///    (`on_delegation`) — the paper's signature feature.
///
/// The evaluator executes concrete rules — a shape's compiled RulePlan
/// (slot bindings, interned symbols, static access paths) with the
/// rule's parameters seeded — with zero heap allocation per tuple in
/// the steady-state join loop; it holds no plans itself. Facts passed
/// to sinks are reused scratch storage — copy them to keep them, as the
/// engine does.
///
/// Not reentrant: sinks must not call back into Evaluate on the same
/// evaluator (slot bindings and scratch buffers are instance state).
class RuleEvaluator {
 public:
  struct Sinks {
    std::function<void(const Fact&)> on_local_fact;
    std::function<void(const Fact&)> on_remote_fact;
    std::function<void(const Delegation&)> on_delegation;
  };

  RuleEvaluator(Catalog* catalog, std::string self_peer, EvalOptions options)
      : catalog_(catalog),
        self_peer_(std::move(self_peer)),
        self_sym_(Symbol::Intern(self_peer_)),
        options_(options) {}

  /// Evaluates a concrete rule: its shape's plan, with the parameter
  /// slots seeded from the rule (the caller owns both; an installed
  /// rule holds its plan from install to removal). When `delta` is
  /// non-null and `delta_pos >= 0`, the body atom at index `delta_pos`
  /// matches only tuples in the Δ-set of its resolved relation
  /// (semi-naive restriction; a negated atom there holds exactly for
  /// the Δ's tuples instead of for those absent from the relation); all
  /// other atoms match full relations. Pass delta == nullptr for a full
  /// evaluation.
  void Evaluate(const ConcreteRule& rule, const DeltaMap* delta,
                int delta_pos, const Sinks& sinks);

  /// True when `rule` has at least one complete *local* body match
  /// under the bindings obtained by unifying its head with `target` —
  /// i.e. the rule currently derives exactly `target`. `head_bound` is
  /// the head-bound plan of the rule's shape (CompileRuleHeadBound).
  /// The re-derive existence check of DRed-style retraction (DESIGN.md
  /// §6): the parameter slots are seeded from the rule and every head
  /// variable's slot from `target`, so body occurrences are checks and
  /// index probes and the cost is one selective body evaluation,
  /// independent of view size. Evaluation short-circuits on the first
  /// match, emits nothing, and never delegates (a body that reaches a
  /// remote atom does not derive locally).
  bool ExistsDerivation(const ConcreteRule& rule, const RulePlan& head_bound,
                        const Fact& target);

  const EvalCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = EvalCounters(); }
  /// Writable counters for the engine's stage driver (the incremental
  /// stage/retraction tallies live next to the join telemetry so one
  /// JSON block tells the whole per-change-cost story).
  EvalCounters* mutable_counters() { return &counters_; }

 private:
  // --- compiled-plan execution ---------------------------------------
  /// Points the parameter slots of `plan` at `rule`'s values and clears
  /// the rest; `rule` is the rule under evaluation from here on.
  void SeedParams(const ConcreteRule& rule, const RulePlan& plan);
  /// Executes `atoms[atom_index..]`. `order` is null for the natural
  /// body order; for a Δ-first variant it maps each position back to
  /// its original body index (diagnostics) and the Δ restriction
  /// applies at position 0. Delegation can only arise under the natural
  /// order — variants are compiled only for single-peer bodies and run
  /// only when that peer is the evaluator.
  void ExecFrom(const RulePlan& plan, const std::vector<PlanAtom>& atoms,
                const uint16_t* order, size_t atom_index,
                const DeltaMap* delta, int delta_pos, const Sinks& sinks);
  bool UnifyTuple(const PlanAtom& atom, const Tuple& tuple);
  void EmitHeadPlan(const RulePlan& plan, const Sinks& sinks);
  void EmitDelegationPlan(const RulePlan& plan, size_t split_index,
                          const std::string& target, const Sinks& sinks);

  Catalog* catalog_;
  std::string self_peer_;
  Symbol self_sym_;
  EvalOptions options_;
  EvalCounters counters_;
  // The rule under evaluation: residuals and diagnostics substitute
  // from its source rule and stamp its hash.
  const ConcreteRule* rule_ = nullptr;

  // ExistsDerivation state: when exists_mode_ is set, ExecFrom
  // short-circuits on the first complete match (exists_found_) and
  // treats remote atoms as dead branches instead of delegating. It runs
  // the head-bound plan flavor (plan.h), whose bind/check op split was
  // fixed at compile time for a *seeded* head — ExistsDerivation fills
  // the seed slots from the target fact.
  bool exists_mode_ = false;
  bool exists_found_ = false;
  // Owned storage for seeded slot values (slots point into resident
  // tuple storage everywhere else; a target fact's values need a home
  // for the duration of the check). Reserved up front so pushes never
  // reallocate under live slot pointers.
  std::vector<Value> seed_values_;

  // Reusable execution scratch (capacity persists across Evaluate
  // calls; steady state performs no heap allocation).
  std::vector<const Value*> slots_;  // slot -> bound value, or nullptr
  Tuple probe_scratch_;              // ground negation probe
  Fact fact_scratch_;                // head emission
};

}  // namespace wdl

#endif  // WDL_ENGINE_EVAL_H_
