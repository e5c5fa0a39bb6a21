#include "engine/eval.h"

#include "base/logging.h"

namespace wdl {

void RuleEvaluator::SeedParams(const ConcreteRule& rule,
                               const RulePlan& plan) {
  rule_ = &rule;
  slots_.assign(plan.num_slots, nullptr);
  for (uint16_t i = 0; i < plan.num_params; ++i) slots_[i] = &rule.params[i];
}

void RuleEvaluator::Evaluate(const ConcreteRule& rule, const DeltaMap* delta,
                             int delta_pos, const Sinks& sinks) {
  const RulePlan& plan = *rule.plan;
  SeedParams(rule, plan);
  // A Δ-restricted evaluation prefers the Δ-first variant: the
  // iteration's work becomes proportional to |Δ| (later atoms probe
  // indexes through the Δ tuple's bindings) instead of a scan of the
  // leading atom. Valid only when the body's one peer is this
  // evaluator — otherwise atom 0 delegates and order is semantics.
  if (delta != nullptr && delta_pos >= 0 &&
      static_cast<size_t>(delta_pos) < plan.delta_variants.size()) {
    const DeltaVariant& v = plan.delta_variants[delta_pos];
    if (v.valid && rule.param_peers[plan.common_peer_param] == self_sym_) {
      ExecFrom(plan, v.atoms, v.order.data(), 0, delta, 0, sinks);
      return;
    }
  }
  ExecFrom(plan, plan.atoms, nullptr, 0, delta, delta_pos, sinks);
}

bool RuleEvaluator::ExistsDerivation(const ConcreteRule& rule,
                                     const RulePlan& plan,
                                     const Fact& target) {
  // Callers decide what a match *means*: for derivation rules it
  // sustains the tuple (re-derivation), for deletion rules it re-arms a
  // deletion verdict. Both need the raw body-match answer.
  if (plan.head.terms.size() != target.args.size()) return false;
  SeedParams(rule, plan);
  seed_values_.clear();
  seed_values_.reserve(target.args.size() + 2);

  // Unify the head with the target: bound slots (parameters, repeated
  // variables) compare, first occurrences seed their slot.
  auto seed_slot = [&](uint16_t slot, const Value& v) {
    if (slots_[slot] != nullptr) return *slots_[slot] == v;
    seed_values_.push_back(v);
    slots_[slot] = &seed_values_.back();
    return true;
  };
  auto seed_sym = [&](const PlanSym& ps, const std::string& name) {
    if (ps.is_const) return ps.text == name;
    const Value* v = slots_[ps.slot];
    if (v != nullptr) return v->is_string() && v->AsString() == name;
    seed_values_.push_back(Value::String(name));
    slots_[ps.slot] = &seed_values_.back();
    return true;
  };
  if (!seed_sym(plan.head.relation, target.relation)) return false;
  if (!seed_sym(plan.head.peer, target.peer)) return false;
  for (size_t i = 0; i < target.args.size(); ++i) {
    if (!seed_slot(plan.head.terms[i].slot, target.args[i])) return false;
  }

  ++counters_.rederive_checks;
  exists_mode_ = true;
  exists_found_ = false;
  static const Sinks kNoSinks;
  ExecFrom(plan, plan.atoms, nullptr, 0, nullptr, -1, kNoSinks);
  exists_mode_ = false;
  return exists_found_;
}

// Unifies one stored tuple against the atom's compiled op sequence.
// Bind ops store pointers into resident tuple storage — no Value copy,
// no allocation. On failure, slots bound so far stay set; the caller
// unconditionally nulls `atom.bound_slots` after the attempt.
bool RuleEvaluator::UnifyTuple(const PlanAtom& atom, const Tuple& tuple) {
  const PlanTerm* terms = atom.terms.data();
  const size_t n = atom.terms.size();
  for (size_t i = 0; i < n; ++i) {
    const PlanTerm& pt = terms[i];
    switch (pt.op) {
      case PlanTerm::Op::kCheck:
        if (!(*slots_[pt.slot] == tuple[i])) return false;
        break;
      case PlanTerm::Op::kBind:
        slots_[pt.slot] = &tuple[i];
        break;
    }
  }
  return true;
}

void RuleEvaluator::ExecFrom(const RulePlan& plan,
                             const std::vector<PlanAtom>& atoms,
                             const uint16_t* order, size_t atom_index,
                             const DeltaMap* delta, int delta_pos,
                             const Sinks& sinks) {
  if (exists_mode_ && exists_found_) return;  // short-circuit: answered
  if (atom_index == atoms.size()) {
    if (exists_mode_) {
      exists_found_ = true;
      return;
    }
    EmitHeadPlan(plan, sinks);
    return;
  }
  const PlanAtom& atom = atoms[atom_index];
  const size_t source_index =
      order != nullptr ? order[atom_index] : atom_index;

  // Resolve the atom's location. Constant relation names were interned
  // at compile time; a peer (a parameter or a variable) and a variable
  // relation are read out of their slot. A slot that is unbound (unsafe
  // rule) or holds a non-string value makes the branch dead.
  Symbol rel_sym;  // invalid when a variable name is not interned
  if (atom.relation.is_const) {
    rel_sym = atom.relation.sym;
  } else {
    const Value* v = slots_[atom.relation.slot];
    if (v == nullptr || !v->is_string()) return;
    // Find, not Intern: a data string that names nothing must neither
    // match nor grow the symbol table.
    rel_sym = Symbol::Find(v->AsString());
  }

  const std::string* remote_peer = nullptr;
  if (atom.peer.slot < plan.num_params) {
    if (rule_->param_peers[atom.peer.slot] != self_sym_) {
      remote_peer = &slots_[atom.peer.slot]->AsString();
    }
  } else {
    const Value* v = slots_[atom.peer.slot];
    if (v == nullptr || !v->is_string()) return;
    if (v->AsString() != self_peer_) remote_peer = &v->AsString();
  }
  if (remote_peer != nullptr) {
    // Remote atom: delegate the residual rule to that peer. Never
    // reached under a Δ-first variant (single-peer body, evaluated at
    // that peer) or an existence check (local-only by definition).
    if (order == nullptr && !exists_mode_) {
      EmitDelegationPlan(plan, atom_index, *remote_peer, sinks);
    }
    return;
  }

  Relation* relation = rel_sym.valid() ? catalog_->Get(rel_sym) : nullptr;

  if (atom.negated) {
    if (atom.negated_unbound) {
      // Statically never ground: log the substituted atom, then drop
      // the branch.
      Atom substituted;
      if (SubstituteCompiled(atom.relation, atom.peer, atom.terms,
                             rule_->rule.body[source_index], slots_.data(),
                             &substituted)) {
        WDL_LOG(Error) << "negated atom not ground at evaluation time: "
                       << substituted.ToString();
      }
      return;
    }
    // Safety guarantees every slot read here was bound by the prefix.
    probe_scratch_.clear();
    for (const PlanTerm& pt : atom.terms) {
      probe_scratch_.push_back(*slots_[pt.slot]);
    }
    ++counters_.negation_probes;
    if (delta != nullptr && delta_pos == static_cast<int>(atom_index)) {
      // Restricted to its Δ, the atom holds for the Δ's tuples.
      auto it = rel_sym.valid() ? delta->find(rel_sym) : delta->end();
      if (it != delta->end() && it->second.Contains(probe_scratch_)) {
        ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
      }
      return;
    }
    bool present = relation != nullptr &&
                   probe_scratch_.size() == relation->arity() &&
                   relation->Contains(probe_scratch_);
    if (!present) {
      ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
    }
    return;
  }

  // Unify one stored tuple with the atom's compiled ops, recurse on
  // success, then undo this atom's bindings. `visit` is passed to the
  // storage layer as a template parameter — no std::function, and with
  // the relation's reusable snapshot buffers the steady-state loop
  // performs no per-tuple heap allocation.
  auto visit = [&](const Tuple& tuple) {
    if (exists_mode_ && exists_found_) return;  // drain remaining probes
    ++counters_.tuples_examined;
    if (UnifyTuple(atom, tuple)) {
      counters_.slot_bindings += atom.bound_slots.size();
      ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
    }
    for (uint16_t s : atom.bound_slots) slots_[s] = nullptr;
  };

  // Semi-naive: this atom is restricted to the Δ of its relation. The
  // compile-time access path applies here too — a bound key column
  // probes the Δ's lazy index instead of scanning the whole set.
  if (delta != nullptr && delta_pos == static_cast<int>(atom_index)) {
    if (!rel_sym.valid()) return;  // never derived: empty Δ
    auto it = delta->find(rel_sym);
    if (it == delta->end()) return;
    const DeltaSet& ds = it->second;
    if (options_.use_indexes && atom.index_column >= 0) {
      ++counters_.delta_index_probes;
      ds.LookupEqual(static_cast<size_t>(atom.index_column),
                     *slots_[atom.index_slot],
                     [&](const Tuple& tuple) {
                       if (tuple.size() == atom.terms.size()) visit(tuple);
                     });
      return;
    }
    ++counters_.delta_scans;
    for (const Tuple& tuple : ds.tuples()) {
      if (tuple.size() == atom.terms.size()) visit(tuple);
    }
    return;
  }

  if (relation == nullptr) return;  // empty: no matches
  if (atom.terms.size() != relation->arity()) return;  // arity mismatch

  // Existence checks usually arrive with the atom fully ground (the
  // seeded head bound every variable, so the atom has no bind ops):
  // answer with one O(1) membership probe instead of walking an index
  // bucket.
  if (exists_mode_ && atom.bound_slots.empty()) {
    probe_scratch_.clear();
    bool ground = true;
    for (const PlanTerm& pt : atom.terms) {
      const Value* v = slots_[pt.slot];
      if (v == nullptr) {
        ground = false;
        break;
      }
      probe_scratch_.push_back(*v);
    }
    if (ground) {
      ++counters_.tuples_examined;
      if (relation->Contains(probe_scratch_)) {
        ExecFrom(plan, atoms, order, atom_index + 1, delta, delta_pos, sinks);
      }
      return;
    }
  }

  // Access path was chosen at compile time: the first column whose key
  // is known before the atom runs drives an index probe.
  if (options_.use_indexes && atom.index_column >= 0) {
    ++counters_.index_lookups;
    relation->LookupEqual(static_cast<size_t>(atom.index_column),
                          *slots_[atom.index_slot], visit);
    return;
  }
  ++counters_.full_scans;
  relation->ForEach(visit);
}

void RuleEvaluator::EmitHeadPlan(const RulePlan& plan, const Sinks& sinks) {
  const PlanHead& head = plan.head;
  if (head.dead) return;  // unsafe rule: a head variable never binds

  Fact& fact = fact_scratch_;
  if (head.relation.is_const) {
    fact.relation = head.relation.text;
  } else {
    const Value* v = slots_[head.relation.slot];
    if (v == nullptr || !v->is_string()) return;  // non-string name: dead
    fact.relation = v->AsString();
  }
  {
    const Value* v = slots_[head.peer.slot];
    if (v == nullptr || !v->is_string()) return;
    fact.peer = v->AsString();
  }

  fact.args.clear();
  for (const PlanTerm& pt : head.terms) {
    const Value* v = slots_[pt.slot];
    if (v == nullptr) return;  // unreachable for safe rules
    fact.args.push_back(*v);
  }
  ++counters_.bindings_completed;
  if (fact.peer == self_peer_) {
    if (sinks.on_local_fact) sinks.on_local_fact(fact);
  } else {
    if (sinks.on_remote_fact) sinks.on_remote_fact(fact);
  }
}

void RuleEvaluator::EmitDelegationPlan(const RulePlan& plan,
                                       size_t split_index,
                                       const std::string& target,
                                       const Sinks& sinks) {
  // The residual substitutes from the concrete rule, so it keeps that
  // rule's variable names, and carries its hash.
  const Rule& source = rule_->rule;
  Delegation d;
  d.origin_peer = self_peer_;
  d.target_peer = target;
  d.origin_rule_hash = rule_->rule_hash;
  // The residual must keep the deletion flag: a split "-head :- body"
  // still deletes when its head finally derives at the target.
  d.rule.head_deletes = source.head_deletes;
  if (!SubstituteCompiled(plan.head.relation, plan.head.peer,
                          plan.head.terms, source.head, slots_.data(),
                          &d.rule.head)) {
    return;
  }
  d.rule.body.reserve(plan.atoms.size() - split_index);
  for (size_t i = split_index; i < plan.atoms.size(); ++i) {
    const PlanAtom& atom = plan.atoms[i];
    Atom substituted;
    if (!SubstituteCompiled(atom.relation, atom.peer, atom.terms,
                            source.body[i], slots_.data(), &substituted)) {
      return;
    }
    d.rule.body.push_back(std::move(substituted));
  }
  ++counters_.delegations_emitted;
  if (sinks.on_delegation) sinks.on_delegation(d);
}

}  // namespace wdl
