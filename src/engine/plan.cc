#include "engine/plan.h"

#include <unordered_map>

namespace wdl {
namespace {

/// Compile-time state: variable -> slot numbering plus which slots are
/// statically bound. Left-to-right evaluation binds exactly the same
/// slots on every path that reaches atom k, so boundness before an atom
/// is a static property of the rule, not of the data.
struct Compiler {
  RulePlan* plan;
  std::unordered_map<std::string, uint16_t> slot_of;
  std::vector<bool> bound;

  uint16_t SlotFor(const std::string& var) {
    auto [it, inserted] =
        slot_of.try_emplace(var, static_cast<uint16_t>(plan->slot_vars.size()));
    if (inserted) {
      plan->slot_vars.push_back(var);
      bound.push_back(false);
    }
    return it->second;
  }

  PlanSym CompileSym(const SymTerm& sym) {
    if (sym.is_name()) return PlanSym::Const(Symbol::Intern(sym.name()));
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
  pa.relation = c.CompileSym(atom.relation);
  pa.peer = c.CompileSym(atom.peer);
  pa.negated = atom.negated;

  // Snapshot of boundness before this atom: in-atom binds (repeated
  // variables) satisfy later positions of the same atom but cannot
  // seed its access path — the key must exist before the tuple loop
  // starts.
  std::vector<bool> bound_before = *bound;

  pa.terms.reserve(atom.args.size());
  for (size_t j = 0; j < atom.args.size(); ++j) {
    const Term& t = atom.args[j];
    if (t.is_constant()) {
      if (pa.index_column < 0) {
        pa.index_column = static_cast<int>(j);
        pa.index_key_is_const = true;
        pa.index_const = t.value();
      }
      pa.terms.push_back(PlanTerm::Const(t.value()));
      continue;
    }
    uint16_t s = c.SlotFor(t.var());
    if (s >= bound->size()) {
      bound->resize(s + 1, false);
      bound_before.resize(s + 1, false);
    }
    if ((*bound)[s]) {
      if (s < bound_before.size() && bound_before[s]) {
        if (pa.index_column < 0) {
          pa.index_column = static_cast<int>(j);
          pa.index_key_is_const = false;
          pa.index_slot = s;
        }
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

/// What the rule can read, write and delegate, read off its AST.
PlanStaticInfo ComputeStaticInfo(const Rule& rule) {
  PlanStaticInfo info;
  if (rule.head.relation.is_name()) {
    info.head_relation = Symbol::Intern(rule.head.relation.name());
  } else {
    info.head_relation_var = true;
  }
  if (rule.head.peer.is_name()) {
    info.head_peer = Symbol::Intern(rule.head.peer.name());
  } else {
    info.head_peer_var = true;
  }
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
    if (atom.peer.is_name()) {
      AddUnique(&info.body_peers, Symbol::Intern(atom.peer.name()));
    } else {
      info.body_peer_var = true;
    }
  }
  return info;
}

/// Compiles the head under the current boundness state and finalizes
/// the slot count and static info.
void CompileHead(Compiler& c, const Rule& rule) {
  RulePlan& plan = *c.plan;
  plan.head.relation = c.CompileSym(rule.head.relation);
  plan.head.peer = c.CompileSym(rule.head.peer);
  plan.head.terms.reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    if (t.is_constant()) {
      plan.head.terms.push_back(PlanTerm::Const(t.value()));
      continue;
    }
    uint16_t s = c.SlotFor(t.var());
    if (!c.bound[s]) plan.head.dead = true;
    plan.head.terms.push_back(PlanTerm::Check(s));
  }
  if (!plan.head.relation.is_const && !c.bound[plan.head.relation.slot]) {
    plan.head.dead = true;
  }
  if (!plan.head.peer.is_const && !c.bound[plan.head.peer.slot]) {
    plan.head.dead = true;
  }
  plan.num_slots = static_cast<uint16_t>(plan.slot_vars.size());
  plan.info = ComputeStaticInfo(rule);
}

/// True when every body atom names relation and peer with constants and
/// all atoms share one peer; sets `common_body_peer`. Join order then
/// carries no semantics, so Δ-first variants may reorder the body.
bool BodyRotatable(const Rule& rule, RulePlan* plan) {
  if (rule.body.empty()) return false;
  for (const Atom& atom : rule.body) {
    if (!atom.relation.is_name() || !atom.peer.is_name()) return false;
    Symbol peer_sym = Symbol::Intern(atom.peer.name());
    if (!plan->common_body_peer.valid()) {
      plan->common_body_peer = peer_sym;
    } else if (!(plan->common_body_peer == peer_sym)) {
      return false;
    }
  }
  return true;
}

}  // namespace

RulePlan CompileRule(const Rule& rule) {
  RulePlan plan;
  plan.rule = rule;
  plan.rule_hash = rule.Hash();
  Compiler c{&plan, {}, {}};

  plan.atoms.reserve(rule.body.size());
  for (const Atom& atom : rule.body) {
    plan.atoms.push_back(CompileAtom(c, atom, &c.bound));
  }
  CompileHead(c, rule);

  // Δ-first variants: only when join order is provably semantics-free —
  // every body atom names relation and peer with constants and all
  // atoms live at one common peer (no delegation split can move, no
  // name resolution depends on binding order). The order keeps the
  // non-Δ atoms in their original relative sequence, so every negated
  // atom still runs after the positive atoms that ground it. A negated
  // Δ position runs first as a positive atom: restricted to a Δ, it
  // holds for the Δ's tuples.
  if (BodyRotatable(rule, &plan) && rule.body.size() > 1) {
    plan.delta_variants.resize(rule.body.size());
    for (size_t pos = 0; pos < rule.body.size(); ++pos) {
      DeltaVariant& v = plan.delta_variants[pos];
      v.order.push_back(static_cast<uint16_t>(pos));
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (i != pos) v.order.push_back(static_cast<uint16_t>(i));
      }
      std::vector<bool> bound(plan.slot_vars.size(), false);
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
  plan.rule = rule;
  plan.rule_hash = rule.Hash();
  plan.head_bound = true;
  Compiler c{&plan, {}, {}};

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
    const PlanTerm& pt = terms[j];
    if (pt.op == PlanTerm::Op::kConst) {
      result.args.push_back(src.args[j]);
      continue;
    }
    const Value* v = slots[pt.slot];
    result.args.push_back(v != nullptr ? Term::Constant(*v) : src.args[j]);
  }
  *out = std::move(result);
  return true;
}

std::string RulePlan::DebugString() const {
  std::string out = "plan for: " + rule.ToString() + "\n";
  if (head_bound) out += "head-bound\n";
  out += "slots:";
  for (size_t s = 0; s < slot_vars.size(); ++s) {
    out += " " + std::to_string(s) + "=$" + slot_vars[s];
  }
  out += "\n";

  auto sym_str = [](const PlanSym& ps) {
    return ps.is_const ? ps.sym.str() : "s" + std::to_string(ps.slot);
  };
  auto ops_str = [](const std::vector<PlanTerm>& terms) {
    std::string s = "[";
    for (size_t j = 0; j < terms.size(); ++j) {
      if (j > 0) s += ", ";
      const PlanTerm& pt = terms[j];
      switch (pt.op) {
        case PlanTerm::Op::kConst:
          s += "const " + pt.value.ToString();
          break;
        case PlanTerm::Op::kCheck:
          s += "check s" + std::to_string(pt.slot);
          break;
        case PlanTerm::Op::kBind:
          s += "bind s" + std::to_string(pt.slot);
          break;
      }
    }
    return s + "]";
  };

  for (size_t i = 0; i < atoms.size(); ++i) {
    const PlanAtom& a = atoms[i];
    out += "atom " + std::to_string(i) + ": ";
    if (a.negated) out += "not ";
    out += sym_str(a.relation) + "@" + sym_str(a.peer);
    out += " ops=" + ops_str(a.terms);
    if (a.negated) {
      out += a.negated_unbound ? " probe=never-ground" : " probe=contains";
    } else if (a.index_column >= 0) {
      out += " access=index col " + std::to_string(a.index_column) +
             (a.index_key_is_const
                  ? " key=" + a.index_const.ToString()
                  : " key=s" + std::to_string(a.index_slot));
    } else {
      out += " access=scan";
    }
    out += "\n";
  }

  out += "head: " + sym_str(head.relation) + "@" + sym_str(head.peer) +
         " ops=" + ops_str(head.terms);
  if (head.dead) out += " (dead: unbound head variable)";
  out += "\n";
  return out;
}

}  // namespace wdl
