#ifndef WDL_ENGINE_DERIVATION_H_
#define WDL_ENGINE_DERIVATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "storage/tuple.h"

namespace wdl {

/// Per-tuple support record of one resident derived tuple (DESIGN.md
/// §6). Support is counted at *source* granularity:
///
///  - `external`: at least one remote sender currently contributes the
///    tuple through the slice store (whose per-sender counts make this
///    bit exact);
///  - `derived`: at least one local rule derivation currently exists.
///
/// The count is the number of live sources. Retraction cascades only
/// when it reaches zero: a view tuple that loses its last remote
/// contribution but is still rule-derivable (or vice versa) stays put
/// and its consumers are never disturbed. The `derived` bit is kept
/// honest by the DRed-style over-delete/re-derive pass — counting
/// individual rule derivations exactly is unsound under multi-Δ
/// semi-naive evaluation (one new derivation joining two Δ tuples fires
/// once per Δ position), so the engine counts sources and re-checks
/// derivability only for tuples the deletion cascade actually reaches.
struct TupleSupport {
  bool derived = false;
  bool external = false;
};

/// Support records for every resident derived tuple, per relation —
/// the persistent state that lets intensional relations survive across
/// stages. Owned by the engine; rebuilt wholesale on full (init or
/// fallback) stages, maintained tuple-by-tuple on incremental ones.
class DerivationTracker {
 public:
  using SupportMap = std::unordered_map<Tuple, TupleSupport, TupleHasher>;

  TupleSupport& Ensure(const std::string& relation, const Tuple& tuple) {
    return by_relation_[relation][tuple];
  }

  /// nullptr when the tuple has no record.
  TupleSupport* Find(const std::string& relation, const Tuple& tuple) {
    auto rel_it = by_relation_.find(relation);
    if (rel_it == by_relation_.end()) return nullptr;
    auto it = rel_it->second.find(tuple);
    return it == rel_it->second.end() ? nullptr : &it->second;
  }

  void Erase(const std::string& relation, const Tuple& tuple) {
    auto rel_it = by_relation_.find(relation);
    if (rel_it == by_relation_.end()) return;
    rel_it->second.erase(tuple);
  }

  void Clear() { by_relation_.clear(); }
  void DropRelation(const std::string& relation) {
    by_relation_.erase(relation);
  }

 private:
  std::map<std::string, SupportMap> by_relation_;
};

/// The net state changes one stage must react to: extensional tuples
/// that actually entered/left relations (queued inserts and deletes,
/// deferred self-updates, direct InsertFact/RemoveFact calls between
/// stages), and view tuples whose slice-store support crossed zero.
/// Everything is netted — an insert that revokes a recorded remove (or
/// vice versa) cancels instead of recording both — so the Δ-seeds built
/// from a log are minimal and a no-op batch yields an empty log.
class StageChangeLog {
 public:
  using TupleSet = std::unordered_set<Tuple, TupleHasher>;
  using PerRelation = std::map<std::string, TupleSet>;

  void RecordInsert(const std::string& relation, const Tuple& tuple) {
    RecordNet(&removed_, &added_, relation, tuple);
  }
  void RecordRemove(const std::string& relation, const Tuple& tuple) {
    RecordNet(&added_, &removed_, relation, tuple);
  }
  void RecordSliceGain(const std::string& relation, const Tuple& tuple) {
    RecordNet(&slice_lost_, &slice_gained_, relation, tuple);
  }
  void RecordSliceLoss(const std::string& relation, const Tuple& tuple) {
    RecordNet(&slice_gained_, &slice_lost_, relation, tuple);
  }

  const PerRelation& added() const { return added_; }
  const PerRelation& removed() const { return removed_; }
  const PerRelation& slice_gained() const { return slice_gained_; }
  const PerRelation& slice_lost() const { return slice_lost_; }

  bool empty() const {
    return Empty(added_) && Empty(removed_) && Empty(slice_gained_) &&
           Empty(slice_lost_);
  }

  /// Invokes `fn` once per relation name with a recorded net change.
  template <typename Fn>
  void ForEachChangedRelation(Fn&& fn) const {
    for (const PerRelation* m :
         {&added_, &removed_, &slice_gained_, &slice_lost_}) {
      for (const auto& [relation, tuples] : *m) {
        if (!tuples.empty()) fn(relation);
      }
    }
  }

  void Clear() {
    added_.clear();
    removed_.clear();
    slice_gained_.clear();
    slice_lost_.clear();
  }

 private:
  static bool Empty(const PerRelation& m) {
    for (const auto& [relation, tuples] : m) {
      if (!tuples.empty()) return false;
    }
    return true;
  }

  /// Nets a change: revoking an opposite-direction record cancels it;
  /// otherwise the change is recorded.
  static void RecordNet(PerRelation* opposite, PerRelation* target,
                        const std::string& relation, const Tuple& tuple) {
    auto it = opposite->find(relation);
    if (it != opposite->end() && it->second.erase(tuple) > 0) return;
    (*target)[relation].insert(tuple);
  }

  PerRelation added_;
  PerRelation removed_;
  PerRelation slice_gained_;
  PerRelation slice_lost_;
};

}  // namespace wdl

#endif  // WDL_ENGINE_DERIVATION_H_
