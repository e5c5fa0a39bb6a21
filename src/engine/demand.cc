#include "engine/demand.h"

#include <algorithm>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "engine/plan_cache.h"

namespace wdl {

Status DemandEvaluator::Prepare(const Rule& query_rule) {
  catalog_ = &engine_->catalog();
  const std::string& self = engine_->self_peer();
  self_sym_ = Symbol::Intern(self);
  query_rule_ = query_rule;

  if (query_rule.body.empty()) {
    return Status::FailedPrecondition("demand: empty query body");
  }
  bool any_bound = false;
  for (const Atom& atom : query_rule.body) {
    if (atom.negated) {
      return Status::FailedPrecondition("demand: negated query atom");
    }
    if (atom.relation.is_variable()) {
      return Status::FailedPrecondition("demand: variable query relation");
    }
    if (atom.peer.is_variable() || atom.peer.name() != self) {
      return Status::FailedPrecondition("demand: query atom not local");
    }
    for (const Term& t : atom.args) {
      if (t.is_constant()) any_bound = true;
    }
  }
  if (!any_bound) {
    return Status::FailedPrecondition("demand: no bound argument");
  }

  // Walk the local rule graph from the query's relations. Extensional
  // relations terminate a branch (their catalog content is complete at
  // quiescence — deferred self-inserts and deletion-rule effects have
  // all been applied). Intensional relations get a fragment and pull in
  // their local writers, which must stay inside the fragment model:
  // insert-only, positive, every atom constant-named and local.
  const std::vector<const InstalledRule*> rules = engine_->rules();
  std::vector<Symbol> work;
  std::set<Symbol> visited;
  auto enqueue = [&](Symbol s) {
    if (visited.insert(s).second) work.push_back(s);
  };
  for (const Atom& atom : query_rule.body) {
    enqueue(Symbol::Intern(atom.relation.name()));
  }
  while (!work.empty()) {
    const Symbol rel = work.back();
    work.pop_back();
    const Relation* existing =
        static_cast<const Catalog&>(*catalog_).Get(rel);
    if (existing != nullptr &&
        existing->kind() == RelationKind::kExtensional) {
      continue;
    }
    fragments_[rel];
    for (const InstalledRule* installed : rules) {
      const PlanStaticInfo& info = installed->plan->info;
      if (!info.HeadCanWrite(rel)) continue;
      const bool writes_here =
          info.head_peer_var || info.head_peer == self_sym_;
      if (!writes_here) continue;
      if (info.head_relation_var) {
        return Status::FailedPrecondition(
            "demand: variable head relation writes " + rel.str());
      }
      if (info.head_peer_var) {
        return Status::FailedPrecondition(
            "demand: variable head peer may write " + rel.str());
      }
      if (installed->rule.head_deletes) {
        return Status::FailedPrecondition(
            "demand: deletion rule targets " + rel.str());
      }
      for (const Atom& a : installed->rule.body) {
        if (a.negated) {
          return Status::FailedPrecondition(
              "demand: negation in a rule deriving " + rel.str());
        }
        if (a.relation.is_variable()) {
          return Status::FailedPrecondition(
              "demand: variable body relation in a rule deriving " +
              rel.str());
        }
        if (a.peer.is_variable() || a.peer.name() != self) {
          return Status::FailedPrecondition(
              "demand: a rule deriving " + rel.str() +
              " reads a remote atom");
        }
      }
      writers_[rel].push_back(&installed->rule);
      for (const Atom& a : installed->rule.body) {
        enqueue(Symbol::Intern(a.relation.name()));
      }
    }
  }

  root_plan_ = CompileRule(query_rule_);
  return Status::OK();
}

std::vector<Tuple> DemandEvaluator::Run() {
  // The root pass joins extensional atoms directly and registers the
  // query's initial demands. Fragments are empty at this point, so
  // intensional atoms contribute bindings only through later Δ rounds.
  Activation root;
  root.plan = &root_plan_;
  root.is_root = true;
  activations_.push_back(std::move(root));
  for (size_t i = 0; i < root_plan_.atoms.size(); ++i) {
    const PlanAtom& a = root_plan_.atoms[i];
    if (a.relation.is_const && fragments_.count(a.relation.sym) != 0) {
      subs_[a.relation.sym].emplace_back(0, i);
    }
  }
  ExecActivation(0, -1, nullptr);

  // Seed fragments with cross-peer contributions (remote derived sets
  // and delegation results materialized in the slice store) — received
  // state the local writers cannot recompute.
  for (auto it = fragments_.begin(); it != fragments_.end(); ++it) {
    Fragment& frag = it->second;
    engine_->slice_store().ForEachContribution(
        it->first.str(), [&](const Tuple& t) {
          if (frag.pending.Insert(t)) ++stats_.fragment_tuples;
        });
  }

  while (true) {
    // New (relation, adornment) pairs activate their writers' demand
    // plans before the rotation, so the first Δ pass over the new
    // demand set already runs them.
    for (const MagicKey& key : pending_activations_) EnsureActivations(key);
    pending_activations_.clear();

    // The rotation is the only place `all` grows (EmitHead and
    // RegisterDemand checked membership without inserting), so no pass
    // ever mutates a DeltaSet it may be iterating or probing.
    bool any_delta = false;
    auto rotate = [&](Fragment& f) {
      f.delta = std::move(f.pending);
      f.pending = DeltaSet();
      for (const Tuple& t : f.delta.tuples()) f.all.Insert(t);
      if (!f.delta.empty()) any_delta = true;
    };
    for (auto it = fragments_.begin(); it != fragments_.end(); ++it) {
      rotate(it->second);
    }
    for (auto it = magic_.begin(); it != magic_.end(); ++it) {
      rotate(it->second);
    }
    if (!any_delta) break;
    ++stats_.rounds;

    for (auto it = magic_.begin(); it != magic_.end(); ++it) {
      if (it->second.delta.empty()) continue;
      auto subs = magic_subs_.find(it->first);
      if (subs == magic_subs_.end()) continue;
      for (size_t index : subs->second) {
        ExecActivation(index, 0, &it->second.delta);
      }
    }
    for (auto it = fragments_.begin(); it != fragments_.end(); ++it) {
      if (it->second.delta.empty()) continue;
      auto subs = subs_.find(it->first);
      if (subs == subs_.end()) continue;
      for (const std::pair<size_t, size_t>& sub : subs->second) {
        ExecActivation(sub.first, static_cast<int>(sub.second),
                       &it->second.delta);
      }
    }
  }
  return std::vector<Tuple>(results_.begin(), results_.end());
}

void DemandEvaluator::EnsureActivations(const MagicKey& key) {
  auto w = writers_.find(key.first);
  if (w == writers_.end()) return;
  for (const Rule* rule : w->second) {
    const size_t arity = rule->head.args.size();
    // A demand binding positions this head does not have can never
    // match a tuple this rule derives.
    if (arity < 64 && (key.second >> arity) != 0) continue;
    Activation act;
    act.shared_plan = SharedPlanCache::Instance().AcquireDemand(*rule,
                                                               key.second);
    act.plan = act.shared_plan.get();
    act.head_relation = key.first;
    act.magic_key = key;
    const size_t index = activations_.size();
    activations_.push_back(std::move(act));
    ++stats_.activations;
    magic_subs_[key].push_back(index);
    const RulePlan& plan = *activations_[index].plan;
    for (size_t i = 1; i < plan.atoms.size(); ++i) {
      const PlanAtom& a = plan.atoms[i];
      if (a.relation.is_const && fragments_.count(a.relation.sym) != 0) {
        subs_[a.relation.sym].emplace_back(index, i);
      }
    }
  }
}

void DemandEvaluator::ExecActivation(size_t index, int delta_orig,
                                     const DeltaSet* delta_set) {
  const Activation& act = activations_[index];
  const RulePlan& plan = *act.plan;
  slots_.assign(plan.num_slots, nullptr);
  if (delta_orig >= 0 &&
      static_cast<size_t>(delta_orig) < plan.delta_variants.size() &&
      plan.delta_variants[delta_orig].valid) {
    const DeltaVariant& v = plan.delta_variants[delta_orig];
    ExecStep(act, v.atoms, &v.order, 0, delta_orig, delta_set);
  } else {
    ExecStep(act, plan.atoms, nullptr, 0, delta_orig, delta_set);
  }
}

void DemandEvaluator::ExecStep(const Activation& act,
                               const std::vector<PlanAtom>& atoms,
                               const std::vector<uint16_t>* order,
                               size_t atom_index, int delta_orig,
                               const DeltaSet* delta_set) {
  if (atom_index == atoms.size()) {
    EmitHead(act);
    return;
  }
  const PlanAtom& atom = atoms[atom_index];
  const size_t orig = order != nullptr ? (*order)[atom_index] : atom_index;
  const bool is_delta =
      delta_orig >= 0 && orig == static_cast<size_t>(delta_orig);

  auto visit = [&](const Tuple& tuple) {
    if (tuple.size() == atom.terms.size()) {
      ++stats_.tuples_examined;
      if (UnifyTuple(atom, tuple)) {
        ExecStep(act, atoms, order, atom_index + 1, delta_orig, delta_set);
      }
    }
    for (uint16_t s : atom.bound_slots) slots_[s] = nullptr;
  };
  auto probe_set = [&](const DeltaSet& src) {
    if (atom.index_column >= 0) {
      const Value* key = atom.index_key_is_const ? &atom.index_const
                                                 : slots_[atom.index_slot];
      if (key != nullptr) {
        src.LookupEqual(static_cast<size_t>(atom.index_column), *key, visit);
        return;
      }
    }
    for (const Tuple& t : src.tuples()) visit(t);
  };

  if (act.plan->has_demand_atom && orig == 0) {
    const Fragment& magic = magic_.find(act.magic_key)->second;
    probe_set(is_delta ? *delta_set : magic.all);
    return;
  }
  const Symbol rel = atom.relation.sym;  // constant-named by eligibility
  auto frag = fragments_.find(rel);
  if (frag != fragments_.end()) {
    if (is_delta) {
      // Δ tuples are given, not demanded — registering a demand here
      // would be mask-of-constants broad and defeat the restriction.
      probe_set(*delta_set);
      return;
    }
    RegisterDemand(rel, atom);
    probe_set(frag->second.all);
    return;
  }
  if (is_delta) return;  // extensional atoms have no Δ subscriptions
  Relation* relation = catalog_->Get(rel);
  if (relation == nullptr) return;
  if (atom.index_column >= 0) {
    const Value* key = atom.index_key_is_const ? &atom.index_const
                                               : slots_[atom.index_slot];
    if (key != nullptr) {
      relation->LookupEqual(static_cast<size_t>(atom.index_column), *key,
                            visit);
      return;
    }
  }
  relation->ForEach(visit);
}

bool DemandEvaluator::UnifyTuple(const PlanAtom& atom, const Tuple& tuple) {
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const PlanTerm& pt = atom.terms[i];
    switch (pt.op) {
      case PlanTerm::Op::kConst:
        if (!(tuple[i] == pt.value)) return false;
        break;
      case PlanTerm::Op::kCheck: {
        const Value* v = slots_[pt.slot];
        if (v == nullptr || !(tuple[i] == *v)) return false;
        break;
      }
      case PlanTerm::Op::kBind:
        slots_[pt.slot] = &tuple[i];
        break;
    }
  }
  return true;
}

void DemandEvaluator::EmitHead(const Activation& act) {
  const PlanHead& head = act.plan->head;
  if (head.dead) return;
  Tuple out;
  out.reserve(head.terms.size());
  for (const PlanTerm& pt : head.terms) {
    if (pt.op == PlanTerm::Op::kConst) {
      out.push_back(pt.value);
    } else {
      const Value* v = slots_[pt.slot];
      if (v == nullptr) return;
      out.push_back(*v);
    }
  }
  if (act.is_root) {
    results_.insert(std::move(out));
    return;
  }
  // Semi-naive discipline: a pass may be iterating (or holding a lazy
  // index into) frag.all right now — e.g. nonlinear recursion probing
  // its own head's fragment — so only the membership check touches it;
  // the insert lands in `pending` and reaches `all` at the rotation.
  Fragment& frag = fragments_[act.head_relation];
  if (!frag.all.Contains(out) && frag.pending.Insert(std::move(out))) {
    ++stats_.fragment_tuples;
  }
}

void DemandEvaluator::RegisterDemand(Symbol relation, const PlanAtom& atom) {
  uint64_t mask = 0;
  Tuple keys;
  const size_t limit = std::min<size_t>(atom.terms.size(), 64);
  for (size_t j = 0; j < limit; ++j) {
    if (((atom.prebound_args >> j) & 1) == 0) continue;
    const PlanTerm& pt = atom.terms[j];
    if (pt.op == PlanTerm::Op::kConst) {
      keys.push_back(pt.value);
    } else {
      const Value* v = slots_[pt.slot];
      if (v == nullptr) continue;  // defensively widen the demand
      keys.push_back(*v);
    }
    mask |= uint64_t{1} << j;
  }
  const MagicKey key{relation, mask};
  // Same no-mutation discipline as EmitHead: the demand-atom probe of
  // `magic.all` may be live on the stack (a writer's body demanding its
  // own head's adornment), so new demands go to `pending` only.
  Fragment& magic = magic_[key];
  if (magic.all.Contains(keys)) return;  // already demanded
  if (!magic.pending.Insert(std::move(keys))) return;
  ++stats_.demands_registered;
  if (activated_.insert(key).second) pending_activations_.push_back(key);
}

}  // namespace wdl
