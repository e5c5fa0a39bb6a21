#ifndef WDL_ENGINE_DERIVATION_H_
#define WDL_ENGINE_DERIVATION_H_

// The input side of incremental view maintenance (DESIGN.md §6): the
// net changes a stage derives from. Support needs no record of its own:
// remote support is the slice store's per-tuple count, and local
// support is what DRed re-derivation finds.

#include <map>
#include <string>
#include <unordered_set>

#include "storage/tuple.h"

namespace wdl {

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
