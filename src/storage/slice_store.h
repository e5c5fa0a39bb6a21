#ifndef WDL_STORAGE_SLICE_STORE_H_
#define WDL_STORAGE_SLICE_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/tuple.h"

namespace wdl {

/// Receiver-side store of remote contributions to local relations.
///
/// A WebdamLog peer's intensional relations are views fed by several
/// remote senders at once: each sender continuously maintains its own
/// *slice* (the tuples it currently derives into the relation), and the
/// view is the union of all slices. The store keeps, per (relation,
/// sender):
///
///  - the sender's current slice,
///  - the applied *stream version* of the differential-propagation
///    protocol (see DESIGN.md §5) — how many updates of that sender's
///    contribution have been applied here;
///
/// and per relation an aggregate **support count** per tuple (how many
/// senders currently contribute it). Seeding a view iterates the
/// support map once, so multi-sender overlap costs one insert instead
/// of one per sender, and a tuple leaves the view exactly when its last
/// supporter withdraws it — the counting flavor of DRed-style deletion
/// handling, without rederivation.
///
/// Mutations are idempotent at the tuple level (an insert already in
/// the slice, or a delete of an absent tuple, changes nothing and does
/// not disturb support counts), so replayed messages cannot skew the
/// union. Ordering across messages is the caller's job via the version
/// gate below.
///
/// Not thread-safe; one store per engine, like everything per-peer.
class SliceStore {
 public:
  using TupleSet = std::unordered_set<Tuple, TupleHasher>;

  /// Version-gate verdict for one arriving versioned message.
  enum class Gate : uint8_t {
    kApply = 0,  // in-order: apply and commit the new version
    kStale = 1,  // duplicate or reordered-old: drop silently
    kGap = 2,    // a preceding update was lost: request a resync
  };

  /// Gates a differential update moving the stream `base_version ->
  /// version`. Pure check; commit happens in the Apply* calls (or
  /// CommitVersion for slice-less streams).
  Gate CheckDelta(const std::string& relation, const std::string& sender,
                  uint64_t base_version, uint64_t version) const;

  /// Gates a full snapshot stamped `version`. A snapshot repairs gaps,
  /// so anything at-or-ahead-of the current stream applies; only a
  /// reordered old snapshot is stale.
  Gate CheckSnapshot(const std::string& relation, const std::string& sender,
                     uint64_t version) const;

  /// Advances the stream version without touching slice content — the
  /// bookkeeping path for extensional targets, where arriving tuples
  /// union-insert straight into the relation and no slice is kept.
  void CommitVersion(const std::string& relation, const std::string& sender,
                     uint64_t version);

  /// Replaces `sender`'s slice wholesale, without touching its stream
  /// version (ApplySnapshot commits one). Returns true when the slice
  /// actually changed — decided by direct set comparison, never by
  /// hash.
  ///
  /// When non-null, `gained`/`lost` receive the tuples whose aggregate
  /// support crossed zero (0 -> 1 senders, last sender withdrew): the
  /// per-tuple view-membership transitions that drive incremental view
  /// maintenance (DESIGN.md §6). Tuples whose support merely moved
  /// between positive counts are not reported.
  bool ReplaceSlice(const std::string& relation, const std::string& sender,
                    TupleSet slice, std::vector<Tuple>* gained = nullptr,
                    std::vector<Tuple>* lost = nullptr);

  /// Replaces the slice and commits `version` (a differential-protocol
  /// snapshot / resync response). Transition reporting as ReplaceSlice.
  bool ApplySnapshot(const std::string& relation, const std::string& sender,
                     TupleSet slice, uint64_t version,
                     std::vector<Tuple>* gained = nullptr,
                     std::vector<Tuple>* lost = nullptr);

  /// Applies one differential update to `sender`'s slice and commits
  /// `version`; the inserts are consumed (moved into the slice).
  /// Returns true when any tuple was actually added or removed.
  /// Transition reporting as ReplaceSlice.
  bool ApplyDelta(const std::string& relation, const std::string& sender,
                  std::vector<Tuple> inserts,
                  const std::vector<Tuple>& deletes, uint64_t version,
                  std::vector<Tuple>* gained = nullptr,
                  std::vector<Tuple>* lost = nullptr);

  /// Invokes `fn(const Tuple&)` on every tuple contributed by at least
  /// one sender to `relation` (each distinct tuple once).
  template <typename Fn>
  void ForEachContribution(const std::string& relation, Fn&& fn) const {
    auto it = support_.find(relation);
    if (it == support_.end()) return;
    for (const auto& [tuple, count] : it->second) fn(tuple);
  }

  /// Invokes `fn(const std::string&)` for every relation with at least
  /// one contributed tuple, in name order.
  template <typename Fn>
  void ForEachContributedRelation(Fn&& fn) const {
    for (const auto& [relation, tuples] : support_) {
      if (!tuples.empty()) fn(relation);
    }
  }

  /// Relations for which `sender` has a stream here, in name order.
  std::vector<std::string> RelationsFromSender(
      const std::string& sender) const;

  /// Forgets the stream *positions* of every stream from `sender`
  /// (slices stay). After a transport link reset the sender may have
  /// restarted and begun renumbering its streams from 1; resetting to
  /// version 0 lets its fresh snapshots pass the version gate instead
  /// of being dropped as stale.
  void ResetStreamVersions(const std::string& sender);

  /// Rebuilds one stream verbatim from a durability snapshot: slice
  /// content and applied version, with support counts re-derived.
  /// Restore-only — replaces whatever stream exists, reporting no
  /// transitions (the recovering engine's first stage seeds its views
  /// from every slice).
  void RestoreStream(const std::string& relation, const std::string& sender,
                     uint64_t version, TupleSet slice);

  /// Visits every stream as fn(relation, sender, version, slice) in
  /// (relation, sender) order — durability snapshot writers iterate
  /// this, so determinism matters.
  template <typename Fn>
  void ForEachStream(Fn&& fn) const {
    for (const auto& [relation, senders] : streams_) {
      for (const auto& [sender, stream] : senders) {
        fn(relation, sender, stream.version, stream.slice);
      }
    }
  }

  // --- observability (tests, listings) -------------------------------
  uint64_t StreamVersion(const std::string& relation,
                         const std::string& sender) const;
  /// Senders currently contributing at least one tuple to `relation`.
  size_t ContributorCount(const std::string& relation) const;
  /// How many senders currently contribute `tuple` to `relation`. Not
  /// only observability: the engine's deletion cascade stops at a tuple
  /// whose count is positive (DESIGN.md §6).
  uint32_t SupportCount(const std::string& relation,
                        const Tuple& tuple) const;
  /// nullptr when the sender has no stream for `relation`.
  const TupleSet* Slice(const std::string& relation,
                        const std::string& sender) const;

 private:
  struct Stream {
    TupleSet slice;
    uint64_t version = 0;
  };
  using SupportMap = std::unordered_map<Tuple, uint32_t, TupleHasher>;

  /// Returns true when the tuple's aggregate support crossed zero.
  bool AddSupport(const std::string& relation, const Tuple& tuple);
  bool DropSupport(const std::string& relation, const Tuple& tuple);

  // Outer maps are ordered so relation/sender iteration is
  // deterministic; the per-relation SupportMap is hash-ordered, so
  // ForEachContribution visits tuples in unspecified order (consumers
  // feed sets, where order is immaterial — don't add order-sensitive
  // logic on top of it).
  std::map<std::string, std::map<std::string, Stream>> streams_;
  std::map<std::string, SupportMap> support_;
};

}  // namespace wdl

#endif  // WDL_STORAGE_SLICE_STORE_H_
