#include "engine/plan_cache.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "base/hash.h"

namespace wdl {
namespace {

/// Numbers variables by first occurrence. Traversal order is fixed
/// (head, then body atoms left to right, relation/peer before args), so
/// α-renamed rules produce identical numberings.
class VarNumbering {
 public:
  uint64_t IdFor(const std::string& name) {
    auto [it, inserted] = ids_.try_emplace(name, ids_.size());
    return it->second;
  }

 private:
  std::unordered_map<std::string, uint64_t> ids_;
};

uint64_t HashTermCanon(const Term& t, VarNumbering* vars) {
  return t.is_variable() ? HashCombine(1, vars->IdFor(t.var()))
                         : HashCombine(2, t.value().Hash());
}

uint64_t HashSymCanon(const SymTerm& s, VarNumbering* vars) {
  return s.is_variable() ? HashCombine(3, vars->IdFor(s.var()))
                         : HashCombine(4, HashString(s.name()));
}

uint64_t HashAtomCanon(const Atom& a, VarNumbering* vars) {
  uint64_t h = a.negated ? 0x6e65676174656421ULL : 0x61746f6d00000000ULL;
  h = HashCombine(h, HashSymCanon(a.relation, vars));
  h = HashCombine(h, HashSymCanon(a.peer, vars));
  h = HashCombine(h, a.args.size());
  for (const Term& t : a.args) h = HashCombine(h, HashTermCanon(t, vars));
  return h;
}

/// Incremental variable bijection for AlphaEquivalent: every pairing is
/// recorded both ways, so "x↦y" and "z↦y" cannot coexist.
class VarBijection {
 public:
  bool Match(const std::string& a, const std::string& b) {
    auto [ita, ins_a] = a_to_b_.try_emplace(a, b);
    auto [itb, ins_b] = b_to_a_.try_emplace(b, a);
    return ita->second == b && itb->second == a;
  }

 private:
  std::unordered_map<std::string, std::string> a_to_b_;
  std::unordered_map<std::string, std::string> b_to_a_;
};

bool TermsAlphaEqual(const Term& a, const Term& b, VarBijection* vars) {
  if (a.is_variable() != b.is_variable()) return false;
  if (!a.is_variable()) return a.value() == b.value();
  return vars->Match(a.var(), b.var());
}

bool SymsAlphaEqual(const SymTerm& a, const SymTerm& b, VarBijection* vars) {
  if (a.is_variable() != b.is_variable()) return false;
  if (!a.is_variable()) return a.name() == b.name();
  return vars->Match(a.var(), b.var());
}

bool AtomsAlphaEqual(const Atom& a, const Atom& b, VarBijection* vars) {
  if (a.negated != b.negated || a.args.size() != b.args.size()) return false;
  if (!SymsAlphaEqual(a.relation, b.relation, vars)) return false;
  if (!SymsAlphaEqual(a.peer, b.peer, vars)) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!TermsAlphaEqual(a.args[i], b.args[i], vars)) return false;
  }
  return true;
}

}  // namespace

uint64_t CanonicalRuleHash(const Rule& rule) {
  VarNumbering vars;
  uint64_t h = HashAtomCanon(rule.head, &vars);
  if (rule.head_deletes) h = HashCombine(h, 0xde1e7e0000000001ULL);
  h = HashCombine(h, rule.body.size());
  for (const Atom& a : rule.body) h = HashCombine(h, HashAtomCanon(a, &vars));
  return h;
}

bool AlphaEquivalent(const Rule& a, const Rule& b) {
  if (a.head_deletes != b.head_deletes) return false;
  if (a.body.size() != b.body.size()) return false;
  VarBijection vars;
  if (!AtomsAlphaEqual(a.head, b.head, &vars)) return false;
  for (size_t i = 0; i < a.body.size(); ++i) {
    if (!AtomsAlphaEqual(a.body[i], b.body[i], &vars)) return false;
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
  uint64_t key = CanonicalRuleHash(rule);
  if (head_bound) key = HashCombine(key, 1);
  auto matches = [&](const RulePlan& plan) {
    return plan.head_bound == head_bound && AlphaEquivalent(plan.rule, rule);
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
  // compiled the same rule between the two lock scopes) and prune this
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

}  // namespace wdl
