#ifndef WDL_ENGINE_PLAN_CACHE_H_
#define WDL_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ast/rule.h"
#include "engine/plan.h"

namespace wdl {

/// α-invariant content hash of `rule`: variables are renamed to their
/// first-occurrence index (head first, then body left to right, term by
/// term), so two rules that differ only in variable names hash equal.
/// Constants — including peer and relation names — hash by content, so
/// rules that differ in a constant hash apart. A concrete rule's
/// `rule_hash` (plan.h), which stamps its delegations.
uint64_t CanonicalRuleHash(const Rule& rule);

/// Hash of `rule`'s shape (plan.h): variables and constants are each
/// numbered by first occurrence (equal constants alike), relation names
/// hash by content. Rules of one shape hash equal.
uint64_t ShapeHash(const Rule& rule);

/// True when `a` and `b` have one shape: equal up to a bijective
/// renaming of their variables (argument, relation, and peer positions
/// alike) and a bijective replacement of the constants in their
/// argument and peer positions.
bool SameShape(const Rule& a, const Rule& b);

/// Process-global compiled-plan cache, shared by every engine in the
/// process (DESIGN.md §4, §9). Plans are compiled per rule shape and are
/// peer-agnostic and immutable once compiled (see plan.h), so the rules
/// a per-peer program installs at 100k peers — and the residuals its
/// delegations leave at their targets — compile once per shape. Each
/// installed rule holds a strong reference to its shape's plans
/// (ConcreteRule, plan.h), as does a local query read for the span of
/// its run; this cache holds only weak references — a shape's plan dies
/// with the last rule of that shape, so churning ad-hoc rules (scratch
/// queries, delegation residuals) do not accumulate for the process
/// lifetime.
///
/// Keyed by ShapeHash with per-entry SameShape verification against the
/// rule each plan was compiled from. The plan holds no constant of any
/// rule: each concrete rule keeps its own parameter values, hash and
/// peers, and delegation residuals substitute from the concrete rule.
///
/// Thread-safety follows the global Symbol table's pattern (base/
/// symbol.h): a shared_mutex with shared-locked lookups and an
/// exclusive-locked first-time compile; an engine calls Acquire once
/// per installed rule and then evaluates lock-free off the rule's
/// strong reference.
class SharedPlanCache {
 public:
  struct Stats {
    uint64_t compiles = 0;  // plans compiled process-wide
    uint64_t hits = 0;      // Acquire calls served by a live plan
  };

  static SharedPlanCache& Instance();

  /// The compiled plan of `rule`'s shape, compiling on first
  /// acquisition. Rules of one shape return the same plan object.
  std::shared_ptr<const RulePlan> Acquire(const Rule& rule);

  /// The head-bound plan of `rule`'s shape: every head variable
  /// pre-seeded bound, for DRed existence checks. Cached alongside the
  /// natural plans but never aliased with them.
  std::shared_ptr<const RulePlan> AcquireHeadBound(const Rule& rule);

  /// Global compile/hit tallies (the "one compile per shape at N peers"
  /// acceptance instrument).
  Stats stats() const;

  /// Number of live (non-expired) cached plans. Expired weak entries
  /// are pruned opportunistically on the exclusive-locked miss path.
  size_t LiveCountForTesting() const;

  void ResetStatsForTesting();

 private:
  SharedPlanCache() = default;

  // The natural and head-bound flavors of a shape live in one map but
  // never alias: the flavor is mixed into the bucket key and
  // re-verified on the plan itself at match time.
  std::shared_ptr<const RulePlan> AcquireVariant(const Rule& rule,
                                                 bool head_bound);

  // Full expired-entry sweeps run every this-many insertions, bounding
  // the map's tombstone growth under plan churn.
  static constexpr size_t kSweepInterval = 1024;

  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, std::vector<std::weak_ptr<const RulePlan>>>
      entries_;
  size_t inserts_since_sweep_ = 0;  // guarded by mu_ (exclusive)
  // Relaxed atomics: tallies only, never synchronize anything.
  std::atomic<uint64_t> compiles_{0};
  std::atomic<uint64_t> hits_{0};
};

/// `rule` bound to its shape's shared plan (acquired from the cache),
/// with its parameter values, hash and peers: what the evaluator runs.
ConcreteRule BindRule(const Rule& rule);

}  // namespace wdl

#endif  // WDL_ENGINE_PLAN_CACHE_H_
