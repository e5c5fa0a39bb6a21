#include "storage/slice_store.h"

#include <gtest/gtest.h>

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;

using Gate = SliceStore::Gate;
using TupleSet = SliceStore::TupleSet;

TupleSet Set(std::initializer_list<int64_t> xs) {
  TupleSet s;
  for (int64_t x : xs) s.insert(Tuple{I(x)});
  return s;
}

std::vector<Tuple> Vec(std::initializer_list<int64_t> xs) {
  std::vector<Tuple> v;
  for (int64_t x : xs) v.push_back(Tuple{I(x)});
  return v;
}

std::vector<Tuple> Union(const SliceStore& store,
                         const std::string& relation) {
  std::vector<Tuple> out;
  store.ForEachContribution(relation, [&](const Tuple& t) {
    out.push_back(t);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SliceStoreTest, ReplaceSliceDetectsRealChangesOnly) {
  SliceStore store;
  EXPECT_TRUE(store.ReplaceSlice("v", "q", Set({1, 2})));
  EXPECT_FALSE(store.ReplaceSlice("v", "q", Set({1, 2})));  // no-op
  EXPECT_TRUE(store.ReplaceSlice("v", "q", Set({2, 3})));
  EXPECT_EQ(Union(store, "v"), Vec({2, 3}));
  EXPECT_TRUE(store.ReplaceSlice("v", "q", Set({})));
  EXPECT_TRUE(Union(store, "v").empty());
}

TEST(SliceStoreTest, MultiSenderSupportCountsResolveOverlap) {
  SliceStore store;
  store.ReplaceSlice("v", "q", Set({1, 2}));
  store.ReplaceSlice("v", "r", Set({2, 3}));
  EXPECT_EQ(store.SupportCount("v", Tuple{I(1)}), 1u);
  EXPECT_EQ(store.SupportCount("v", Tuple{I(2)}), 2u);
  EXPECT_EQ(store.ContributorCount("v"), 2u);
  EXPECT_EQ(Union(store, "v"), Vec({1, 2, 3}));

  // q withdraws tuple 2: r still supports it, so the union keeps it.
  store.ReplaceSlice("v", "q", Set({1}));
  EXPECT_EQ(store.SupportCount("v", Tuple{I(2)}), 1u);
  EXPECT_EQ(Union(store, "v"), Vec({1, 2, 3}));

  // r withdraws it too: the last supporter is gone.
  store.ReplaceSlice("v", "r", Set({3}));
  EXPECT_EQ(store.SupportCount("v", Tuple{I(2)}), 0u);
  EXPECT_EQ(Union(store, "v"), Vec({1, 3}));
}

TEST(SliceStoreTest, ApplyDeltaIsIdempotentPerTuple) {
  SliceStore store;
  EXPECT_TRUE(store.ApplyDelta("v", "q", Vec({1, 2}), {}, 1));
  // Replaying the same inserts must not double-count support.
  EXPECT_FALSE(store.ApplyDelta("v", "q", Vec({1, 2}), {}, 1));
  EXPECT_EQ(store.SupportCount("v", Tuple{I(1)}), 1u);
  // Deleting an absent tuple is a no-op.
  EXPECT_FALSE(store.ApplyDelta("v", "q", {}, Vec({9}), 2));
  EXPECT_TRUE(store.ApplyDelta("v", "q", {}, Vec({1}), 3));
  EXPECT_EQ(Union(store, "v"), Vec({2}));
  EXPECT_EQ(store.StreamVersion("v", "q"), 3u);
}

TEST(SliceStoreTest, VersionGateOrdersOneStream) {
  SliceStore store;
  // Fresh stream is at version 0.
  EXPECT_EQ(store.CheckDelta("v", "q", 0, 1), Gate::kApply);
  store.ApplyDelta("v", "q", Vec({1}), {}, 1);

  EXPECT_EQ(store.CheckDelta("v", "q", 1, 2), Gate::kApply);
  EXPECT_EQ(store.CheckDelta("v", "q", 0, 1), Gate::kStale);  // duplicate
  EXPECT_EQ(store.CheckDelta("v", "q", 2, 3), Gate::kGap);    // lost v2
  // Malformed (non-increasing) deltas never commit a version backwards.
  EXPECT_EQ(store.CheckDelta("v", "q", 1, 0), Gate::kStale);
  EXPECT_EQ(store.CheckDelta("v", "q", 1, 1), Gate::kStale);

  // Snapshots repair gaps: anything at-or-ahead applies, older is stale.
  EXPECT_EQ(store.CheckSnapshot("v", "q", 0), Gate::kStale);
  EXPECT_EQ(store.CheckSnapshot("v", "q", 1), Gate::kApply);
  EXPECT_EQ(store.CheckSnapshot("v", "q", 5), Gate::kApply);

  // Streams are independent per sender and per relation.
  EXPECT_EQ(store.CheckDelta("v", "r", 0, 1), Gate::kApply);
  EXPECT_EQ(store.CheckDelta("w", "q", 0, 1), Gate::kApply);
}

TEST(SliceStoreTest, SnapshotReplacesSliceAndCommitsVersion) {
  SliceStore store;
  store.ApplyDelta("v", "q", Vec({1, 2}), {}, 1);
  EXPECT_TRUE(store.ApplySnapshot("v", "q", Set({2, 3}), 7));
  EXPECT_EQ(Union(store, "v"), Vec({2, 3}));
  EXPECT_EQ(store.StreamVersion("v", "q"), 7u);
  // Identical snapshot: version moves, content does not.
  EXPECT_FALSE(store.ApplySnapshot("v", "q", Set({2, 3}), 8));
  EXPECT_EQ(store.StreamVersion("v", "q"), 8u);
}

TEST(SliceStoreTest, CommitVersionTracksSliceLessStreams) {
  // Extensional targets keep no slice; only the stream position.
  SliceStore store;
  store.CommitVersion("inbox", "q", 4);
  EXPECT_EQ(store.StreamVersion("inbox", "q"), 4u);
  EXPECT_TRUE(Union(store, "inbox").empty());
  EXPECT_EQ(store.CheckDelta("inbox", "q", 4, 5), Gate::kApply);
}

}  // namespace
}  // namespace wdl
