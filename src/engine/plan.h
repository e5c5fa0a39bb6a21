#ifndef WDL_ENGINE_PLAN_H_
#define WDL_ENGINE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/fact.h"
#include "ast/rule.h"
#include "base/symbol.h"

namespace wdl {

/// Compiled rule plans (DESIGN.md §4). A Rule is compiled once, at
/// install time, into a RulePlan that the evaluator executes directly:
///
///  - every variable is numbered into a dense *slot*, so the runtime
///    binding is a flat array of `const Value*` (O(1) indexed access,
///    no name comparison, no value copies — slots point at resident
///    tuple storage);
///  - constant relation/peer names are pre-resolved to interned Symbols
///    (integer compare against the evaluating peer, O(1) catalog and
///    Δ-set lookup by id);
///  - each atom's unification is a fixed op sequence (compare-constant,
///    compare-slot, bind-slot), and its access path — which column can
///    drive an index probe — is chosen at compile time, because
///    left-to-right evaluation makes "which slots are bound before atom
///    k" a static property.
///
/// Plans are immutable once compiled and self-contained (they own a
/// copy of the source rule, from which delegation residuals are
/// substituted). They are peer-agnostic: the same plan is valid for any
/// evaluating peer; remoteness of an atom is an id compare at runtime.

/// One argument position of a compiled atom.
struct PlanTerm {
  enum class Op : uint8_t {
    kConst,  // tuple value must equal `value`
    kCheck,  // tuple value must equal the value bound in `slot`
    kBind,   // first occurrence: bind `slot` to the tuple's value
  };

  static PlanTerm Const(Value v) {
    PlanTerm t;
    t.op = Op::kConst;
    t.value = std::move(v);
    return t;
  }
  static PlanTerm Check(uint16_t slot) {
    PlanTerm t;
    t.op = Op::kCheck;
    t.slot = slot;
    return t;
  }
  static PlanTerm Bind(uint16_t slot) {
    PlanTerm t;
    t.op = Op::kBind;
    t.slot = slot;
    return t;
  }

  Op op = Op::kConst;
  uint16_t slot = 0;  // kCheck/kBind
  Value value;        // kConst
};

/// A relation- or peer-position reference: a pre-interned constant name
/// or a slot holding the (string) name at runtime. The constant's text
/// is duplicated into the plan so hot paths (head emission, remoteness
/// checks) never touch the symbol table's lock.
struct PlanSym {
  bool is_const = true;
  Symbol sym;         // is_const
  std::string text;   // is_const: == sym.str()
  uint16_t slot = 0;  // !is_const

  static PlanSym Const(Symbol s) {
    PlanSym p;
    p.is_const = true;
    p.sym = s;
    p.text = s.str();
    return p;
  }
  static PlanSym Slot(uint16_t slot) {
    PlanSym p;
    p.is_const = false;
    p.slot = slot;
    return p;
  }
};

/// One compiled body atom.
struct PlanAtom {
  PlanSym relation;
  PlanSym peer;
  bool negated = false;
  /// Statically detected dead branch: a negated atom containing a
  /// variable no positive atom can ever bind is never ground at
  /// evaluation time; the plan knows it up front.
  bool negated_unbound = false;

  std::vector<PlanTerm> terms;
  /// Slots this atom's kBind ops fill — nulled after the atom's match
  /// loop returns (the entire backtracking "trail").
  std::vector<uint16_t> bound_slots;

  /// Access path: the first column whose key value is known before the
  /// atom runs (a constant, or a slot bound by an earlier atom) drives
  /// an index probe; -1 means full scan. Chosen at compile time.
  int index_column = -1;
  bool index_key_is_const = false;
  Value index_const;       // index_key_is_const
  uint16_t index_slot = 0; // !index_key_is_const
};

/// The compiled head: same shape as an atom minus matching concerns.
struct PlanHead {
  PlanSym relation;
  PlanSym peer;
  std::vector<PlanTerm> terms;  // kConst / kCheck only (heads never bind)
  /// True when a head variable (argument, relation, or peer position)
  /// can never be bound by the body — every emission would fail its
  /// runtime unbound check, so emission is skipped entirely. Only
  /// unsafe rules compile to dead heads; residual delegation still
  /// substitutes whatever is bound.
  bool dead = false;
};

/// Compile-time facts about a rule that the incremental-maintenance
/// driver (DESIGN.md §6) needs to route deltas: which relations the
/// body reads (so a rule is skipped when a stage's Δ cannot touch it),
/// which relation the head writes (so delete/re-derive candidate tuples
/// are checked only against rules that could have produced them), and
/// whether the rule can split into a delegation (so deletions that may
/// invalidate a prefix binding trigger a delegation rebuild).
struct PlanStaticInfo {
  Symbol head_relation;         // invalid when the head relation is a var
  bool head_relation_var = false;
  Symbol head_peer;             // invalid when the head peer is a var
  bool head_peer_var = false;
  /// Distinct positive body atom relation symbols (constant names only).
  std::vector<Symbol> body_relations;
  /// Some positive body atom names its relation with a variable: the
  /// body can read *any* relation, so delta filtering must assume a hit.
  bool body_relation_var = false;
  /// Distinct negated body atom relation symbols (constant names only).
  std::vector<Symbol> negated_relations;
  bool negated_relation_var = false;
  /// Some body atom names its peer with a variable: remoteness (and
  /// hence delegation) is decided per binding at run time.
  bool body_peer_var = false;
  /// Distinct constant body peer symbols. The rule can delegate iff
  /// body_peer_var or any of these differs from the evaluating peer.
  std::vector<Symbol> body_peers;

  bool BodyReads(Symbol relation) const {
    if (body_relation_var) return true;
    for (Symbol s : body_relations) {
      if (s == relation) return true;
    }
    return false;
  }
  bool HeadCanWrite(Symbol relation) const {
    return head_relation_var || head_relation == relation;
  }
  /// False when the head cannot derive a fact of `relation` at `peer`
  /// (an invalid symbol names nothing a constant head can write).
  bool HeadCanMatch(Symbol relation, Symbol peer) const {
    return HeadCanWrite(relation) && (head_peer_var || head_peer == peer);
  }
  bool Negates(Symbol relation) const {
    if (negated_relation_var) return true;
    for (Symbol s : negated_relations) {
      if (s == relation) return true;
    }
    return false;
  }
  bool HasNegation() const {
    return negated_relation_var || !negated_relations.empty();
  }
  bool CanDelegate(Symbol self_peer) const {
    if (body_peer_var) return true;
    for (Symbol s : body_peers) {
      if (!(s == self_peer)) return true;
    }
    return false;
  }
};

/// An alternative body execution order for one Δ-restricted position:
/// the Δ atom runs first (so the iteration's work is proportional to
/// |Δ|, with every later atom index-probed through the bindings the Δ
/// tuple provides) and the remaining atoms follow in their original
/// relative order (so negated atoms still run after their binders).
/// A negated position restricted to a Δ holds for the Δ's tuples, so
/// its variant runs the atom first as a positive match over the Δ.
/// Only compiled when join order carries no semantics — every body atom
/// names its relation and peer with constants and all atoms live at one
/// common peer, so no delegation split can depend on the order. The
/// evaluator additionally checks at run time that the common peer *is*
/// the evaluating peer; otherwise atom 0 delegates under the original
/// order as always.
struct DeltaVariant {
  bool valid = false;
  std::vector<uint16_t> order;  // variant position -> original body index
  std::vector<PlanAtom> atoms;  // recompiled (bind/check/access) for order
};

/// A fully compiled rule.
struct RulePlan {
  Rule rule;  // owned source; delegation residuals substitute from it
  uint64_t rule_hash = 0;  // rule.Hash(), precomputed
  PlanHead head;
  std::vector<PlanAtom> atoms;
  uint16_t num_slots = 0;
  std::vector<std::string> slot_vars;  // slot -> variable name
  PlanStaticInfo info;
  /// Δ-first body orders, one per body position (all invalid for
  /// non-rotatable bodies). Indexed by the delta_pos the stage
  /// evaluates.
  std::vector<DeltaVariant> delta_variants;
  /// The single constant peer every body atom names, when rotatable.
  Symbol common_body_peer;

  /// Compiled by CompileRuleHeadBound: every head variable is seeded
  /// before the body runs.
  bool head_bound = false;

  /// Human-readable plan listing (slots, per-atom ops and access path);
  /// for tests and diagnostics.
  std::string DebugString() const;
};

/// Compiles `rule` into an executable plan. Never fails: rules that
/// safety analysis would reject compile to plans with dead branches
/// (unbound head -> no emission, never-ground negation -> logged dead
/// branch).
RulePlan CompileRule(const Rule& rule);

/// Compiles `rule` with every head variable (arguments, relation, and
/// peer positions) pre-seeded as bound: the caller supplies their
/// values before executing the body, so first occurrences in the body
/// compile to checks and drive index probes instead of binding. This is
/// the DRed re-derive existence check as a compiled plan — seed the
/// slots from the target fact, then ask whether any body match reaches
/// the end. No Δ variants are compiled (existence checks run the
/// natural order).
RulePlan CompileRuleHeadBound(const Rule& rule);

/// Applies the current slot bindings to `src` (the source atom the
/// compiled `rel`/`peer`/`terms` were built from): bound slots become
/// constants (string bindings in sym position become names), unbound
/// variables stay. Returns false when a sym-position slot holds a
/// non-string value — such a residual cannot name a relation or peer.
/// Used for delegation residuals.
bool SubstituteCompiled(const PlanSym& rel, const PlanSym& peer,
                        const std::vector<PlanTerm>& terms, const Atom& src,
                        const Value* const* slots, Atom* out);

}  // namespace wdl

#endif  // WDL_ENGINE_PLAN_H_
