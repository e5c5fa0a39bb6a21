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
/// per-peer rule instantiations ("feed@alice(...)") remain distinct.
uint64_t CanonicalRuleHash(const Rule& rule);

/// True when `a` and `b` are equal up to a bijective renaming of their
/// variables (argument, relation, and peer positions alike).
bool AlphaEquivalent(const Rule& a, const Rule& b);

/// Process-global compiled-plan cache, shared by every engine in the
/// process (DESIGN.md §4, §9). Plans are peer-agnostic and immutable
/// once compiled (see plan.h), so the identical rule set installed at
/// 100k peers compiles exactly once. Each installed rule holds a strong
/// reference to its plans (InstalledRule, engine.h), as does a local
/// query read for the span of its run; this cache holds only weak
/// references — a plan's storage dies with the last rule using it, so
/// churning ad-hoc rules (scratch queries, delegation residuals) do not
/// accumulate for the process lifetime.
///
/// Keyed by CanonicalRuleHash with per-entry AlphaEquivalent
/// verification, so α-renamed copies of one rule (delegation residuals
/// regenerated with fresh variable names, user-written variants) share
/// one plan. The shared plan's owned `rule` is the first-compiled
/// variant; delegation residuals substitute from it, so residual
/// variable names are canonical-per-process rather than
/// per-installing-peer — semantically identical, and deterministic for
/// a deterministic installation order.
///
/// Thread-safety follows the global Symbol table's pattern (base/
/// symbol.h): a shared_mutex with shared-locked lookups and an
/// exclusive-locked first-time compile; an engine calls Acquire once
/// per installed rule and then evaluates lock-free off the rule's
/// strong reference.
class SharedPlanCache {
 public:
  struct Stats {
    uint64_t compiles = 0;  // distinct rules compiled process-wide
    uint64_t hits = 0;      // Acquire calls served by an existing plan
  };

  static SharedPlanCache& Instance();

  /// The compiled plan for `rule`, compiling on first acquisition.
  /// α-equivalent rules return the same plan object.
  std::shared_ptr<const RulePlan> Acquire(const Rule& rule);

  /// The head-bound plan for `rule`: every head variable pre-seeded
  /// bound, for DRed existence checks. Cached alongside the natural
  /// plans but never aliased with them.
  std::shared_ptr<const RulePlan> AcquireHeadBound(const Rule& rule);

  /// Global compile/hit tallies (the "one compile per distinct rule at
  /// N peers" acceptance instrument).
  Stats stats() const;

  /// Number of live (non-expired) cached plans. Expired weak entries
  /// are pruned opportunistically on the exclusive-locked miss path.
  size_t LiveCountForTesting() const;

  void ResetStatsForTesting();

 private:
  SharedPlanCache() = default;

  // The natural and head-bound flavors of a rule live in one map but
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

}  // namespace wdl

#endif  // WDL_ENGINE_PLAN_CACHE_H_
