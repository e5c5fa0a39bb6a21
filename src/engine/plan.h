#ifndef WDL_ENGINE_PLAN_H_
#define WDL_ENGINE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/fact.h"
#include "ast/rule.h"
#include "base/symbol.h"

namespace wdl {

/// Compiled rule plans (DESIGN.md §4). A plan is compiled once per rule
/// *shape*: the rule with every constant in an argument, head or peer
/// position replaced by a *parameter*. Parameters are numbered by first
/// occurrence (ShapeParams), equal constants share one, and relation
/// names, negation and the deletion flag stay in the shape. So the
/// rules one per-peer program installs at every peer, and the residuals
/// one delegating rule leaves at its targets, all share one plan. The
/// evaluator executes a plan directly:
///
///  - parameters and variables are numbered into dense *slots*, so the
///    runtime binding is a flat array of `const Value*` (O(1) indexed
///    access, no name comparison, no value copies). The first
///    `num_params` slots are the parameters, seeded from the concrete
///    rule before execution (ConcreteRule below); variable slots point
///    at resident tuple storage once bound;
///  - constant relation names are pre-resolved to interned Symbols
///    (O(1) catalog and Δ-set lookup by id);
///  - each atom's unification is a fixed op sequence (compare-slot,
///    bind-slot), and its access path — which column can drive an
///    index probe — is chosen at compile time, because left-to-right
///    evaluation makes "which slots are bound before atom k" a static
///    property. A parameter is bound before every atom, so it keys a
///    probe exactly as its constant would.
///
/// Plans are immutable once compiled and peer-agnostic: the same plan
/// is valid for any evaluating peer and any parameter values;
/// remoteness of an atom is a compare at runtime.

/// One argument position of a compiled atom or head, by slot.
struct PlanTerm {
  enum class Op : uint8_t {
    kCheck,  // tuple value must equal the value bound in `slot`
    kBind,   // first occurrence: bind `slot` to the tuple's value
  };

  static PlanTerm Check(uint16_t slot) { return PlanTerm{Op::kCheck, slot}; }
  static PlanTerm Bind(uint16_t slot) { return PlanTerm{Op::kBind, slot}; }

  Op op = Op::kCheck;
  uint16_t slot = 0;
};

/// A relation- or peer-position reference: a pre-interned relation name,
/// or a slot holding the (string) name at runtime — a variable's, or a
/// parameter's for a constant peer. The relation name's text is
/// duplicated into the plan so hot paths (head emission) never touch the
/// symbol table's lock.
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

  /// Access path: the first column whose key value is bound before the
  /// atom runs (a parameter, or a slot bound by an earlier atom) drives
  /// an index probe keyed by `index_slot`; -1 means full scan. Chosen
  /// at compile time.
  int index_column = -1;
  uint16_t index_slot = 0;
};

/// The compiled head: same shape as an atom minus matching concerns.
struct PlanHead {
  PlanSym relation;
  PlanSym peer;
  std::vector<PlanTerm> terms;  // kCheck only (heads never bind)
  /// True when a head variable (argument, relation, or peer position)
  /// can never be bound by the body — every emission would fail its
  /// runtime unbound check, so emission is skipped entirely. Only
  /// unsafe rules compile to dead heads; residual delegation still
  /// substitutes whatever is bound.
  bool dead = false;
};

/// Compile-time facts about a shape that the incremental-maintenance
/// driver (DESIGN.md §6) needs to route deltas: which relations the
/// body reads (so a rule is skipped when a stage's Δ cannot touch it),
/// which relation the head writes (so delete/re-derive candidate tuples
/// are checked only against rules that could have produced them), and
/// which peer positions are variables. The peers a constant names are
/// parameters, so what depends on them is the concrete rule's
/// (ConcreteRule::HeadCanMatch, CanDelegate).
struct PlanStaticInfo {
  Symbol head_relation;         // invalid when the head relation is a var
  bool head_relation_var = false;
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
};

/// An alternative body execution order for one Δ-restricted position:
/// the Δ atom runs first (so the iteration's work is proportional to
/// |Δ|, with every later atom index-probed through the bindings the Δ
/// tuple provides) and the remaining atoms follow in their original
/// relative order (so negated atoms still run after their binders).
/// A negated position restricted to a Δ holds for the Δ's tuples, so
/// its variant runs the atom first as a positive match over the Δ.
/// Only compiled when join order carries no semantics — every body atom
/// names its relation with a constant and all atoms name one constant
/// peer (one parameter), so no delegation split can depend on the
/// order. The evaluator additionally checks at run time that the
/// concrete rule's common peer *is* the evaluating peer; otherwise atom
/// 0 delegates under the original order as always.
struct DeltaVariant {
  bool valid = false;
  std::vector<uint16_t> order;  // variant position -> original body index
  std::vector<PlanAtom> atoms;  // recompiled (bind/check/access) for order
};

/// A fully compiled shape.
struct RulePlan {
  /// The first rule compiled to this shape: the plan cache matches new
  /// rules against it (SameShape, plan_cache.h). Evaluation never reads
  /// it — a concrete rule's constants are its parameters, and residuals
  /// substitute from the concrete rule.
  Rule compiled_from;
  PlanHead head;
  std::vector<PlanAtom> atoms;
  /// Slots [0, num_params) are the parameters, in ShapeParams order.
  uint16_t num_params = 0;
  uint16_t num_slots = 0;
  std::vector<std::string> slot_vars;  // slot -> variable name ("" for
                                       // a parameter)
  PlanStaticInfo info;
  /// Δ-first body orders, one per body position (empty for
  /// non-rotatable bodies). Indexed by the delta_pos the stage
  /// evaluates.
  std::vector<DeltaVariant> delta_variants;
  /// The parameter slot naming every body atom's peer, when rotatable;
  /// -1 otherwise.
  int common_peer_param = -1;
  /// The parameter slots that name a peer (of a body atom or the head).
  std::vector<uint16_t> peer_params;

  /// Compiled by CompileRuleHeadBound: every head variable is seeded
  /// before the body runs.
  bool head_bound = false;

  /// Human-readable plan listing (slots, per-atom ops and access path);
  /// for tests and diagnostics.
  std::string DebugString() const;
};

/// True when two constants share one parameter: equal values, with
/// doubles compared bit for bit (so NaN numbers like any other value,
/// and -0.0 keeps its own parameter).
bool SameConstant(const Value& a, const Value& b);

/// The parameter values of `rule`'s shape, in slot order: its distinct
/// constants (SameConstant) in argument, head and peer positions, peer
/// names as strings, by first occurrence — body atoms left to right,
/// then the head, each atom's peer before its arguments.
std::vector<Value> ShapeParams(const Rule& rule);

/// Compiles the shape of `rule` into an executable plan. Never fails:
/// rules that safety analysis would reject compile to plans with dead
/// branches (unbound head -> no emission, never-ground negation ->
/// logged dead branch).
RulePlan CompileRule(const Rule& rule);

/// Compiles the shape of `rule` with every head variable (arguments,
/// relation, and peer positions) pre-seeded as bound: the caller
/// supplies their values before executing the body, so first
/// occurrences in the body compile to checks and drive index probes
/// instead of binding. This is the DRed re-derive existence check as a
/// compiled plan — seed the slots from the target fact, then ask
/// whether any body match reaches the end. No Δ variants are compiled
/// (existence checks run the natural order).
RulePlan CompileRuleHeadBound(const Rule& rule);

/// A concrete rule as the evaluator runs it: the shared plan of its
/// shape, and what is the rule's own — the parameter values that seed
/// the plan's parameter slots, the rule that delegation residuals
/// substitute from (so they keep its variable names), the hash that
/// stamps them, and the peers its parameters name. BindRule
/// (plan_cache.h) builds one.
struct ConcreteRule {
  Rule rule;
  std::shared_ptr<const RulePlan> plan;
  std::vector<Value> params;  // ShapeParams(rule)
  /// CanonicalRuleHash(rule) (plan_cache.h): α-variants share it, and
  /// rules that differ in a constant do not. Stamps the delegations the
  /// rule emits, so a retraction by hash reaches the residuals of the
  /// rule and its α-variants, never a sibling's.
  uint64_t rule_hash = 0;
  /// Parameter slot -> the peer it names, interned, for the plan's
  /// `peer_params` (invalid for the others): remoteness is a symbol
  /// compare.
  std::vector<Symbol> param_peers;
  /// The head's peer; invalid when a variable names it.
  Symbol head_peer;

  /// False when the head cannot derive a fact of `relation` at `peer`
  /// (an invalid symbol names nothing a constant head can write).
  bool HeadCanMatch(Symbol relation, Symbol peer) const {
    return plan->info.HeadCanWrite(relation) &&
           (plan->info.head_peer_var || head_peer == peer);
  }
  /// True when a body atom may name a peer other than `self_peer`: a
  /// variable peer, or a parameter naming another peer.
  bool CanDelegate(Symbol self_peer) const;
  /// Same shape and same parameters: `o` is this rule up to variable
  /// names, and derives the same facts.
  bool SameAs(const ConcreteRule& o) const {
    return rule_hash == o.rule_hash && plan == o.plan && params == o.params;
  }
};

/// Applies the current slot bindings to `src` (the source atom the
/// compiled `rel`/`peer`/`terms` were built from): bound slots —
/// parameters always — become constants (string bindings in sym
/// position become names), unbound variables stay. Returns false when
/// a sym-position slot holds a non-string value — such a residual
/// cannot name a relation or peer. Used for delegation residuals.
bool SubstituteCompiled(const PlanSym& rel, const PlanSym& peer,
                        const std::vector<PlanTerm>& terms, const Atom& src,
                        const Value* const* slots, Atom* out);

}  // namespace wdl

#endif  // WDL_ENGINE_PLAN_H_
