#include "engine/plan_cache.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "base/hash.h"

namespace wdl {
namespace {

/// Numbers variables, and with `shape` the constants of argument and
/// peer positions, by first occurrence. Traversal order is fixed (head,
/// then body atoms left to right, relation and peer before args), so
/// α-renamed rules — and, with `shape`, rules of one shape — produce
/// identical numberings.
class Canonicalizer {
 public:
  explicit Canonicalizer(bool shape) : shape_(shape) {}

  uint64_t HashAtom(const Atom& a) {
    uint64_t h = a.negated ? 0x6e65676174656421ULL : 0x61746f6d00000000ULL;
    h = HashCombine(h, a.relation.is_variable()
                           ? HashCombine(3, Var(a.relation.var()))
                           : HashCombine(4, HashString(a.relation.name())));
    if (a.peer.is_variable()) {
      h = HashCombine(h, HashCombine(3, Var(a.peer.var())));
    } else {
      h = HashCombine(h, shape_ ? Param(Value::String(a.peer.name()))
                                : HashCombine(4, HashString(a.peer.name())));
    }
    h = HashCombine(h, a.args.size());
    for (const Term& t : a.args) {
      if (t.is_variable()) {
        h = HashCombine(h, HashCombine(1, Var(t.var())));
      } else {
        h = HashCombine(h, shape_ ? Param(t.value())
                                  : HashCombine(2, t.value().Hash()));
      }
    }
    return h;
  }

 private:
  uint64_t Var(const std::string& name) {
    return vars_.try_emplace(name, vars_.size()).first->second;
  }
  uint64_t Param(const Value& v) {
    size_t i = 0;
    while (i < params_.size() && !SameConstant(params_[i], v)) ++i;
    if (i == params_.size()) params_.push_back(v);
    return HashCombine(5, i);
  }

  const bool shape_;
  std::unordered_map<std::string, uint64_t> vars_;
  std::vector<Value> params_;
};

uint64_t HashRule(const Rule& rule, bool shape) {
  Canonicalizer canon(shape);
  uint64_t h = canon.HashAtom(rule.head);
  if (rule.head_deletes) h = HashCombine(h, 0xde1e7e0000000001ULL);
  h = HashCombine(h, rule.body.size());
  for (const Atom& a : rule.body) h = HashCombine(h, canon.HashAtom(a));
  return h;
}

/// Incremental bijections for SameShape: every pairing of variables,
/// and of constants, is recorded both ways, so "x↦y" and "z↦y" cannot
/// coexist.
class ShapeBijection {
 public:
  bool Vars(const std::string& a, const std::string& b) {
    auto [ita, ins_a] = a_to_b_.try_emplace(a, b);
    auto [itb, ins_b] = b_to_a_.try_emplace(b, a);
    return ita->second == b && itb->second == a;
  }
  bool Consts(const Value& a, const Value& b) {
    for (const auto& [pa, pb] : consts_) {
      const bool same_a = SameConstant(pa, a);
      if (same_a || SameConstant(pb, b)) return same_a && SameConstant(pb, b);
    }
    consts_.emplace_back(a, b);
    return true;
  }

 private:
  std::unordered_map<std::string, std::string> a_to_b_;
  std::unordered_map<std::string, std::string> b_to_a_;
  std::vector<std::pair<Value, Value>> consts_;
};

bool AtomsSameShape(const Atom& a, const Atom& b, ShapeBijection* bij) {
  if (a.negated != b.negated || a.args.size() != b.args.size()) return false;
  if (a.relation.is_variable() != b.relation.is_variable() ||
      a.peer.is_variable() != b.peer.is_variable()) {
    return false;
  }
  if (a.relation.is_variable()
          ? !bij->Vars(a.relation.var(), b.relation.var())
          : a.relation.name() != b.relation.name()) {
    return false;
  }
  if (a.peer.is_variable()
          ? !bij->Vars(a.peer.var(), b.peer.var())
          : !bij->Consts(Value::String(a.peer.name()),
                         Value::String(b.peer.name()))) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    const Term& ta = a.args[i];
    const Term& tb = b.args[i];
    if (ta.is_variable() != tb.is_variable()) return false;
    if (ta.is_variable() ? !bij->Vars(ta.var(), tb.var())
                         : !bij->Consts(ta.value(), tb.value())) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t CanonicalRuleHash(const Rule& rule) {
  return HashRule(rule, /*shape=*/false);
}

uint64_t ShapeHash(const Rule& rule) { return HashRule(rule, /*shape=*/true); }

bool SameShape(const Rule& a, const Rule& b) {
  if (a.head_deletes != b.head_deletes) return false;
  if (a.body.size() != b.body.size()) return false;
  ShapeBijection bij;
  if (!AtomsSameShape(a.head, b.head, &bij)) return false;
  for (size_t i = 0; i < a.body.size(); ++i) {
    if (!AtomsSameShape(a.body[i], b.body[i], &bij)) return false;
  }
  return true;
}

SharedPlanCache& SharedPlanCache::Instance() {
  // Intentionally leaked: evaluators anywhere in the process (including
  // static-storage test fixtures) may hold plan references at exit.
  static SharedPlanCache* instance = new SharedPlanCache();
  return *instance;
}

std::shared_ptr<const RulePlan> SharedPlanCache::Acquire(const Rule& rule) {
  return AcquireVariant(rule, /*head_bound=*/false);
}

std::shared_ptr<const RulePlan> SharedPlanCache::AcquireHeadBound(
    const Rule& rule) {
  return AcquireVariant(rule, /*head_bound=*/true);
}

std::shared_ptr<const RulePlan> SharedPlanCache::AcquireVariant(
    const Rule& rule, bool head_bound) {
  uint64_t key = ShapeHash(rule);
  if (head_bound) key = HashCombine(key, 1);
  auto matches = [&](const RulePlan& plan) {
    return plan.head_bound == head_bound &&
           SameShape(plan.compiled_from, rule);
  };
  auto compile = [&]() {
    return head_bound ? CompileRuleHeadBound(rule) : CompileRule(rule);
  };
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      for (const std::weak_ptr<const RulePlan>& weak : it->second) {
        std::shared_ptr<const RulePlan> plan = weak.lock();
        if (plan != nullptr && matches(*plan)) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return plan;
        }
      }
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::weak_ptr<const RulePlan>>& bucket = entries_[key];
  // Re-check under the exclusive lock (another evaluator may have
  // compiled the same shape between the two lock scopes) and prune this
  // bucket's expired entries while here.
  for (auto it = bucket.begin(); it != bucket.end();) {
    std::shared_ptr<const RulePlan> plan = it->lock();
    if (plan == nullptr) {
      it = bucket.erase(it);
      continue;
    }
    if (matches(*plan)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return plan;
    }
    ++it;
  }
  auto plan = std::make_shared<const RulePlan>(compile());
  bucket.push_back(plan);
  compiles_.fetch_add(1, std::memory_order_relaxed);
  if (++inserts_since_sweep_ >= kSweepInterval) {
    inserts_since_sweep_ = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      std::vector<std::weak_ptr<const RulePlan>>& b = it->second;
      b.erase(std::remove_if(b.begin(), b.end(),
                             [](const std::weak_ptr<const RulePlan>& w) {
                               return w.expired();
                             }),
              b.end());
      it = b.empty() ? entries_.erase(it) : std::next(it);
    }
  }
  return plan;
}

SharedPlanCache::Stats SharedPlanCache::stats() const {
  Stats s;
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  return s;
}

size_t SharedPlanCache::LiveCountForTesting() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [key, bucket] : entries_) {
    for (const std::weak_ptr<const RulePlan>& w : bucket) {
      if (!w.expired()) ++live;
    }
  }
  return live;
}

void SharedPlanCache::ResetStatsForTesting() {
  compiles_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
}

ConcreteRule BindRule(const Rule& rule) {
  ConcreteRule out;
  out.rule = rule;
  out.plan = SharedPlanCache::Instance().Acquire(rule);
  out.params = ShapeParams(rule);
  out.rule_hash = CanonicalRuleHash(rule);
  out.param_peers.resize(out.params.size());
  for (uint16_t p : out.plan->peer_params) {
    out.param_peers[p] = Symbol::Intern(out.params[p].AsString());
  }
  if (rule.head.peer.is_name()) {
    out.head_peer = out.param_peers[out.plan->head.peer.slot];
  }
  return out;
}

}  // namespace wdl
