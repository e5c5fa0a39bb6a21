#include "engine/plan.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "base/string_util.h"

namespace wdl {
namespace {

/// Appends `v` to `params` unless a SameConstant value is there already;
/// returns its index.
uint16_t ParamIndex(std::vector<Value>* params, const Value& v) {
  for (size_t i = 0; i < params->size(); ++i) {
    if (SameConstant((*params)[i], v)) return static_cast<uint16_t>(i);
  }
  params->push_back(v);
  return static_cast<uint16_t>(params->size() - 1);
}

void AddAtomParams(const Atom& atom, std::vector<Value>* params) {
  if (atom.peer.is_name()) {
    ParamIndex(params, Value::String(atom.peer.name()));
  }
  for (const Term& t : atom.args) {
    if (t.is_constant()) ParamIndex(params, t.value());
  }
}

/// Compile-time state: parameter and variable -> slot numbering plus
/// which slots are statically bound. Left-to-right evaluation binds
/// exactly the same slots on every path that reaches atom k, so
/// boundness before an atom is a static property of the rule, not of
/// the data. Parameters are bound before any atom runs.
struct Compiler {
  Compiler(RulePlan* p, const Rule& rule)
      : plan(p), params(ShapeParams(rule)) {
    plan->compiled_from = rule;
    plan->num_params = static_cast<uint16_t>(params.size());
    plan->slot_vars.assign(params.size(), std::string());
    bound = InitialBound();
  }

  RulePlan* plan;
  std::vector<Value> params;  // this rule's values, to number positions
  std::unordered_map<std::string, uint16_t> slot_of;
  std::vector<bool> bound;

  /// Boundness before the body runs: the parameters only.
  std::vector<bool> InitialBound() const {
    std::vector<bool> b(plan->slot_vars.size(), false);
    for (uint16_t i = 0; i < plan->num_params; ++i) b[i] = true;
    return b;
  }

  uint16_t SlotFor(const std::string& var) {
    auto [it, inserted] =
        slot_of.try_emplace(var, static_cast<uint16_t>(plan->slot_vars.size()));
    if (inserted) {
      plan->slot_vars.push_back(var);
      bound.push_back(false);
    }
    return it->second;
  }

  uint16_t TermSlot(const Term& t) {
    return t.is_constant() ? ParamIndex(&params, t.value()) : SlotFor(t.var());
  }

  PlanSym CompileRelation(const SymTerm& sym) {
    if (sym.is_name()) return PlanSym::Const(Symbol::Intern(sym.name()));
    return PlanSym::Slot(SlotFor(sym.var()));
  }

  PlanSym CompilePeer(const SymTerm& sym) {
    if (sym.is_name()) {
      return PlanSym::Slot(ParamIndex(&params, Value::String(sym.name())));
    }
    return PlanSym::Slot(SlotFor(sym.var()));
  }
};

/// Appends `sym` to `out` once (the vectors stay tiny — rule bodies
/// read a handful of relations — so linear dedup beats a set).
void AddUnique(std::vector<Symbol>* out, Symbol sym) {
  for (Symbol s : *out) {
    if (s == sym) return;
  }
  out->push_back(sym);
}

/// Compiles one body atom under the boundness state `bound`, advancing
/// it. Shared by the natural-order pass, the Δ-first variants, and the
/// head-bound flavor: slot numbering lives in `c` and is identical
/// everywhere; only which occurrence binds vs checks (and hence the
/// access path) depends on the order atoms execute in and on which
/// slots were pre-seeded.
PlanAtom CompileAtom(Compiler& c, const Atom& atom,
                     std::vector<bool>* bound) {
  PlanAtom pa;
  pa.relation = c.CompileRelation(atom.relation);
  pa.peer = c.CompilePeer(atom.peer);
  pa.negated = atom.negated;

  // Snapshot of boundness before this atom: in-atom binds (repeated
  // variables) satisfy later positions of the same atom but cannot
  // seed its access path — the key must exist before the tuple loop
  // starts.
  std::vector<bool> bound_before = *bound;

  pa.terms.reserve(atom.args.size());
  for (size_t j = 0; j < atom.args.size(); ++j) {
    uint16_t s = c.TermSlot(atom.args[j]);
    if (s >= bound->size()) {
      bound->resize(s + 1, false);
      bound_before.resize(s + 1, false);
    }
    if ((*bound)[s]) {
      // SlotFor may have grown `bound` (natural order) past the snapshot.
      const bool key_ready = s < bound_before.size() && bound_before[s];
      if (key_ready && pa.index_column < 0) {
        pa.index_column = static_cast<int>(j);
        pa.index_slot = s;
      }
      pa.terms.push_back(PlanTerm::Check(s));
    } else if (atom.negated) {
      // Negated atoms never bind; a variable that reaches one unbound
      // can never become ground — statically dead branch.
      pa.negated_unbound = true;
      pa.terms.push_back(PlanTerm::Check(s));
    } else {
      (*bound)[s] = true;
      pa.bound_slots.push_back(s);
      pa.terms.push_back(PlanTerm::Bind(s));
    }
  }
  return pa;
}

/// What the shape can read and write, read off its AST.
PlanStaticInfo ComputeStaticInfo(const Rule& rule) {
  PlanStaticInfo info;
  if (rule.head.relation.is_name()) {
    info.head_relation = Symbol::Intern(rule.head.relation.name());
  } else {
    info.head_relation_var = true;
  }
  info.head_peer_var = rule.head.peer.is_variable();
  for (const Atom& atom : rule.body) {
    if (atom.relation.is_name()) {
      Symbol s = Symbol::Intern(atom.relation.name());
      AddUnique(atom.negated ? &info.negated_relations
                             : &info.body_relations,
                s);
    } else if (atom.negated) {
      info.negated_relation_var = true;
    } else {
      info.body_relation_var = true;
    }
    info.body_peer_var |= atom.peer.is_variable();
  }
  return info;
}

/// Compiles the head under the current boundness state and finalizes
/// the slot count and static info.
void CompileHead(Compiler& c, const Rule& rule) {
  RulePlan& plan = *c.plan;
  plan.head.relation = c.CompileRelation(rule.head.relation);
  plan.head.peer = c.CompilePeer(rule.head.peer);
  plan.head.terms.reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    uint16_t s = c.TermSlot(t);
    if (!c.bound[s]) plan.head.dead = true;
    plan.head.terms.push_back(PlanTerm::Check(s));
  }
  if (!plan.head.relation.is_const && !c.bound[plan.head.relation.slot]) {
    plan.head.dead = true;
  }
  if (!c.bound[plan.head.peer.slot]) plan.head.dead = true;
  plan.num_slots = static_cast<uint16_t>(plan.slot_vars.size());
  plan.info = ComputeStaticInfo(rule);
  auto note_peer = [&](const PlanSym& peer) {
    if (peer.slot < plan.num_params &&
        std::find(plan.peer_params.begin(), plan.peer_params.end(),
                  peer.slot) == plan.peer_params.end()) {
      plan.peer_params.push_back(peer.slot);
    }
  };
  for (const PlanAtom& atom : plan.atoms) note_peer(atom.peer);
  note_peer(plan.head.peer);
}

/// True when every body atom names its relation with a constant and all
/// atoms name one peer parameter; sets `common_peer_param`. Join order
/// then carries no semantics, so Δ-first variants may reorder the body.
bool BodyRotatable(RulePlan* plan) {
  if (plan->atoms.empty()) return false;
  const uint16_t peer = plan->atoms[0].peer.slot;
  if (peer >= plan->num_params) return false;
  for (const PlanAtom& atom : plan->atoms) {
    if (!atom.relation.is_const || atom.peer.slot != peer) return false;
  }
  plan->common_peer_param = peer;
  return true;
}

}  // namespace

bool SameConstant(const Value& a, const Value& b) {
  if (!a.is_double() || !b.is_double()) return a == b;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

std::vector<Value> ShapeParams(const Rule& rule) {
  std::vector<Value> params;
  for (const Atom& atom : rule.body) AddAtomParams(atom, &params);
  AddAtomParams(rule.head, &params);
  return params;
}

RulePlan CompileRule(const Rule& rule) {
  RulePlan plan;
  Compiler c(&plan, rule);

  plan.atoms.reserve(rule.body.size());
  for (const Atom& atom : rule.body) {
    plan.atoms.push_back(CompileAtom(c, atom, &c.bound));
  }
  CompileHead(c, rule);

  // Δ-first variants: only when join order is provably semantics-free —
  // every body atom names its relation with a constant and all atoms
  // name one peer parameter (no delegation split can move, no name
  // resolution depends on binding order). The order keeps the non-Δ
  // atoms in their original relative sequence, so every negated atom
  // still runs after the positive atoms that ground it. A negated Δ
  // position runs first as a positive atom: restricted to a Δ, it
  // holds for the Δ's tuples.
  if (BodyRotatable(&plan) && rule.body.size() > 1) {
    plan.delta_variants.resize(rule.body.size());
    for (size_t pos = 0; pos < rule.body.size(); ++pos) {
      DeltaVariant& v = plan.delta_variants[pos];
      v.order.push_back(static_cast<uint16_t>(pos));
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (i != pos) v.order.push_back(static_cast<uint16_t>(i));
      }
      std::vector<bool> bound = c.InitialBound();
      v.atoms.reserve(v.order.size());
      Atom first = rule.body[pos];
      first.negated = false;
      v.atoms.push_back(CompileAtom(c, first, &bound));
      for (size_t i = 1; i < v.order.size(); ++i) {
        v.atoms.push_back(CompileAtom(c, rule.body[v.order[i]], &bound));
      }
      v.valid = true;
    }
  }
  return plan;
}

RulePlan CompileRuleHeadBound(const Rule& rule) {
  RulePlan plan;
  plan.head_bound = true;
  Compiler c(&plan, rule);

  // Every head variable is seeded by the caller before execution, so
  // body occurrences compile to checks and index probes.
  auto seed = [&](const std::string& var) { c.bound[c.SlotFor(var)] = true; };
  if (!rule.head.relation.is_name()) seed(rule.head.relation.var());
  if (!rule.head.peer.is_name()) seed(rule.head.peer.var());
  for (const Term& t : rule.head.args) {
    if (!t.is_constant()) seed(t.var());
  }

  plan.atoms.reserve(rule.body.size());
  for (const Atom& atom : rule.body) {
    plan.atoms.push_back(CompileAtom(c, atom, &c.bound));
  }
  CompileHead(c, rule);
  return plan;  // existence checks run the natural order: no Δ variants
}

bool ConcreteRule::CanDelegate(Symbol self_peer) const {
  if (plan->info.body_peer_var) return true;
  for (const PlanAtom& atom : plan->atoms) {
    if (param_peers[atom.peer.slot] != self_peer) return true;
  }
  return false;
}

bool SubstituteCompiled(const PlanSym& rel, const PlanSym& peer,
                        const std::vector<PlanTerm>& terms, const Atom& src,
                        const Value* const* slots, Atom* out) {
  auto sub_sym = [&](const PlanSym& ps, const SymTerm& src_sym,
                     SymTerm* dst) {
    if (ps.is_const) {
      *dst = src_sym;
      return true;
    }
    const Value* v = slots[ps.slot];
    if (v == nullptr) {
      *dst = src_sym;  // unbound: variable stays
      return true;
    }
    if (!v->is_string()) return false;
    *dst = SymTerm::Name(v->AsString());
    return true;
  };

  Atom result;
  result.negated = src.negated;
  if (!sub_sym(rel, src.relation, &result.relation)) return false;
  if (!sub_sym(peer, src.peer, &result.peer)) return false;
  result.args.reserve(terms.size());
  for (size_t j = 0; j < terms.size(); ++j) {
    const Value* v = slots[terms[j].slot];
    result.args.push_back(v != nullptr ? Term::Constant(*v) : src.args[j]);
  }
  *out = std::move(result);
  return true;
}

std::string RulePlan::DebugString() const {
  std::string out = head_bound ? "head-bound plan\nslots:" : "plan\nslots:";
  for (size_t s = 0; s < slot_vars.size(); ++s) {
    out += s < num_params ? StrFormat(" %zu=?%zu", s, s)
                          : StrFormat(" %zu=$%s", s, slot_vars[s].c_str());
  }
  out += "\n";

  auto sym_str = [](const PlanSym& ps) {
    return ps.is_const ? ps.sym.str() : StrFormat("s%u", ps.slot);
  };
  auto ops_str = [](const std::vector<PlanTerm>& terms) {
    std::string s = "[";
    for (size_t j = 0; j < terms.size(); ++j) {
      s += StrFormat("%s%s s%u", j > 0 ? ", " : "",
                     terms[j].op == PlanTerm::Op::kCheck ? "check" : "bind",
                     terms[j].slot);
    }
    return s + "]";
  };

  for (size_t i = 0; i < atoms.size(); ++i) {
    const PlanAtom& a = atoms[i];
    out += StrFormat("atom %zu: %s%s@%s ops=%s", i, a.negated ? "not " : "",
                     sym_str(a.relation).c_str(), sym_str(a.peer).c_str(),
                     ops_str(a.terms).c_str());
    if (a.negated) {
      out += a.negated_unbound ? " probe=never-ground" : " probe=contains";
    } else if (a.index_column >= 0) {
      out += StrFormat(" access=index col %d key=s%u", a.index_column,
                       a.index_slot);
    } else {
      out += " access=scan";
    }
    out += "\n";
  }

  out += StrFormat("head: %s@%s ops=%s", sym_str(head.relation).c_str(),
                   sym_str(head.peer).c_str(), ops_str(head.terms).c_str());
  if (head.dead) out += " (dead: unbound head variable)";
  out += "\n";
  return out;
}

}  // namespace wdl
