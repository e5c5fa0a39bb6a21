#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/relation.h"

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::S;

RelationDecl Decl(const std::string& rel, const std::string& peer,
                  std::vector<ColumnSpec> cols,
                  RelationKind kind = RelationKind::kExtensional) {
  RelationDecl d;
  d.relation = rel;
  d.peer = peer;
  d.kind = kind;
  d.columns = std::move(cols);
  return d;
}

TEST(RelationTest, InsertAndContains) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  Result<bool> inserted = r.Insert({I(1)});
  ASSERT_TRUE(inserted.ok());
  EXPECT_TRUE(*inserted);
  EXPECT_TRUE(r.Contains({I(1)}));
  EXPECT_FALSE(r.Contains({I(2)}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, DuplicateInsertReturnsFalse) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  ASSERT_TRUE(*r.Insert({I(1)}));
  Result<bool> again = r.Insert({I(1)});
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, ArityViolationRejected) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  EXPECT_EQ(r.Insert({I(1), I(2)}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(RelationTest, TypeViolationRejected) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  EXPECT_EQ(r.Insert({S("nope")}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RelationTest, AnyColumnsAcceptMixedKinds) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kAny}}));
  EXPECT_TRUE(r.Insert({I(1)}).ok());
  EXPECT_TRUE(r.Insert({S("s")}).ok());
  EXPECT_TRUE(r.Insert({Value::Double(0.5)}).ok());
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationTest, RemoveWorksAndReportsAbsence) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  ASSERT_TRUE(r.Insert({I(1)}).ok());
  EXPECT_TRUE(*r.Remove({I(1)}));
  EXPECT_FALSE(*r.Remove({I(1)}));
  EXPECT_EQ(r.size(), 0u);
}

TEST(RelationTest, LookupEqualBuildsIndexLazily) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}, {"y", ValueKind::kInt}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(r.Insert({I(i % 10), I(i)}).ok());
  }
  EXPECT_FALSE(r.HasIndex(0));
  int hits = 0;
  r.LookupEqual(0, I(3), [&](const Tuple& t) {
    EXPECT_EQ(t[0], I(3));
    ++hits;
  });
  EXPECT_EQ(hits, 10);
  EXPECT_TRUE(r.HasIndex(0));
}

TEST(RelationTest, IndexStaysConsistentAcrossInsertAndRemove) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}, {"y", ValueKind::kInt}}));
  ASSERT_TRUE(r.Insert({I(1), I(10)}).ok());
  // Build the index, then mutate.
  r.LookupEqual(0, I(1), [](const Tuple&) {});
  ASSERT_TRUE(r.Insert({I(1), I(11)}).ok());
  ASSERT_TRUE(*r.Remove({I(1), I(10)}));

  std::vector<Tuple> found;
  r.LookupEqual(0, I(1), [&](const Tuple& t) { found.push_back(t); });
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0][1], I(11));
}

TEST(RelationTest, ScanEqualMatchesLookupEqual) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}, {"y", ValueKind::kInt}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(r.Insert({I(i % 7), I(i)}).ok());
  }
  for (int64_t key = 0; key < 7; ++key) {
    size_t scan_hits = 0, lookup_hits = 0;
    r.ScanEqual(0, I(key), [&](const Tuple&) { ++scan_hits; });
    r.LookupEqual(0, I(key), [&](const Tuple&) { ++lookup_hits; });
    EXPECT_EQ(scan_hits, lookup_hits) << "key " << key;
  }
}

TEST(RelationTest, SortedTuplesIsCanonical) {
  Relation r(Decl("r", "p", {{"x", ValueKind::kInt}}));
  for (int64_t v : {5, 1, 3, 2, 4}) ASSERT_TRUE(r.Insert({I(v)}).ok());
  std::vector<Tuple> sorted = r.SortedTuples();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_TRUE(sorted[i - 1] < sorted[i]);
  }
}

TEST(CatalogTest, DeclareAndGet) {
  Catalog c("alice");
  ASSERT_TRUE(c.Declare(Decl("r", "alice", {{"x", ValueKind::kInt}})).ok());
  EXPECT_TRUE(c.Has("r"));
  EXPECT_NE(c.Get("r"), nullptr);
  EXPECT_EQ(c.Get("missing"), nullptr);
}

TEST(CatalogTest, DeclareForOtherPeerRejected) {
  Catalog c("alice");
  EXPECT_FALSE(c.Declare(Decl("r", "bob", {{"x", ValueKind::kInt}})).ok());
}

TEST(CatalogTest, RedeclareSameSchemaIsIdempotent) {
  Catalog c("alice");
  RelationDecl d = Decl("r", "alice", {{"x", ValueKind::kInt}});
  ASSERT_TRUE(c.Declare(d).ok());
  EXPECT_TRUE(c.Declare(d).ok());
}

TEST(CatalogTest, RedeclareDifferentSchemaRejected) {
  Catalog c("alice");
  ASSERT_TRUE(c.Declare(Decl("r", "alice", {{"x", ValueKind::kInt}})).ok());
  EXPECT_EQ(c.Declare(Decl("r", "alice", {{"x", ValueKind::kString}})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, AutoDeclareOnInsert) {
  Catalog c("alice");
  Result<bool> r = c.InsertFact(Fact("fresh", "alice", {I(1), S("a")}));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(*r);
  const Relation* rel = c.Get("fresh");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->kind(), RelationKind::kExtensional);
  EXPECT_EQ(rel->arity(), 2u);
}

TEST(CatalogTest, AutoDeclareDisabled) {
  Catalog c("alice", /*auto_declare=*/false);
  EXPECT_EQ(c.InsertFact(Fact("fresh", "alice", {I(1)})).status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, InsertForWrongPeerRejected) {
  Catalog c("alice");
  EXPECT_FALSE(c.InsertFact(Fact("r", "bob", {I(1)})).ok());
}

TEST(CatalogTest, SnapshotReturnsSortedFacts) {
  Catalog c("alice");
  ASSERT_TRUE(c.InsertFact(Fact("r", "alice", {I(2)})).ok());
  ASSERT_TRUE(c.InsertFact(Fact("r", "alice", {I(1)})).ok());
  Result<std::vector<Fact>> snap = c.Snapshot("r");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);
  EXPECT_EQ((*snap)[0].args[0], I(1));
  EXPECT_EQ((*snap)[1].args[0], I(2));
}

TEST(CatalogTest, TotalTuplesSumsAllRelations) {
  Catalog c("alice");
  ASSERT_TRUE(c.InsertFact(Fact("a", "alice", {I(1)})).ok());
  ASSERT_TRUE(c.InsertFact(Fact("b", "alice", {I(1)})).ok());
  ASSERT_TRUE(c.InsertFact(Fact("b", "alice", {I(2)})).ok());
  EXPECT_EQ(c.TotalTuples(), 3u);
}

// Property sweep: insert N distinct tuples, then every one is found by
// point lookup on each column, for various N.
class RelationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(RelationSweepTest, AllTuplesFindableByEveryColumn) {
  int n = GetParam();
  Relation r(Decl("r", "p", {{"a", ValueKind::kInt}, {"b", ValueKind::kInt}}));
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(r.Insert({I(i), I(i * 2)}).ok());
  }
  for (int64_t i = 0; i < n; ++i) {
    bool found0 = false, found1 = false;
    r.LookupEqual(0, I(i), [&](const Tuple& t) {
      found0 |= t[1] == I(i * 2);
    });
    r.LookupEqual(1, I(i * 2), [&](const Tuple& t) {
      found1 |= t[0] == I(i);
    });
    EXPECT_TRUE(found0) << "column 0, key " << i;
    EXPECT_TRUE(found1) << "column 1, key " << i * 2;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelationSweepTest,
                         ::testing::Values(1, 2, 16, 100, 1000));

// The column indexes (and the tuple set itself) are keyed by value
// *hash* only; distinct values may collide. Forced-equal hashes drive
// both values into the same index chain and hash bucket, and every
// lookup path must still discriminate by equality. (Forced hashes must
// be consistent on both sides of any comparison — see Value::Hash.)
TEST(RelationTest, HashCollidingValuesNeverCrossMatch) {
  const uint64_t kSharedHash = 0x1234567890abcdefull;
  Value alpha = Value::WithHashForTesting(S("alpha"), kSharedHash);
  Value beta = Value::WithHashForTesting(S("beta"), kSharedHash);
  ASSERT_EQ(alpha.Hash(), beta.Hash());
  ASSERT_FALSE(alpha == beta);

  Relation r(Decl("r", "p",
                  {{"k", ValueKind::kString}, {"v", ValueKind::kInt}}));
  ASSERT_TRUE(*r.Insert({alpha, I(1)}));
  ASSERT_TRUE(*r.Insert({beta, I(2)}));
  EXPECT_EQ(r.size(), 2u);

  // Indexed lookup on the colliding column surfaces only exact matches.
  std::vector<Tuple> hits;
  r.LookupEqual(0, alpha, [&](const Tuple& t) { hits.push_back(t); });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][1], I(1));
  hits.clear();
  r.LookupEqual(0, beta, [&](const Tuple& t) { hits.push_back(t); });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][1], I(2));

  // Scan path agrees.
  hits.clear();
  r.ScanEqual(0, alpha, [&](const Tuple& t) { hits.push_back(t); });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][1], I(1));

  // Containment discriminates within the shared hash bucket.
  EXPECT_TRUE(r.Contains({alpha, I(1)}));
  EXPECT_TRUE(r.Contains({beta, I(2)}));
  EXPECT_FALSE(r.Contains({alpha, I(2)}));

  // Removing one colliding tuple must not disturb the other's index
  // chain entry.
  ASSERT_TRUE(*r.Remove({alpha, I(1)}));
  hits.clear();
  r.LookupEqual(0, beta, [&](const Tuple& t) { hits.push_back(t); });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][1], I(2));
  hits.clear();
  r.LookupEqual(0, alpha, [&](const Tuple& t) { hits.push_back(t); });
  EXPECT_TRUE(hits.empty());
}

// HashIndex itself: chains per hash key, removal unlinks exactly one
// entry, and entry storage is recycled across remove/insert cycles.
TEST(HashIndexTest, ChainsRemoveAndRecycle) {
  // Backing tuples; the index stores pointers.
  std::vector<Tuple> tuples;
  tuples.reserve(300);
  for (int64_t i = 0; i < 300; ++i) tuples.push_back({I(i)});

  HashIndex index;
  for (int i = 0; i < 200; ++i) {
    index.Insert(static_cast<uint64_t>(i % 50), &tuples[i]);  // 4-long chains
  }
  size_t count = 0;
  index.ForEachWithHash(7, [&](const Tuple*) { ++count; });
  EXPECT_EQ(count, 4u);
  index.ForEachWithHash(777, [&](const Tuple*) { FAIL(); });

  index.Remove(7, &tuples[7]);
  count = 0;
  bool saw_removed = false;
  index.ForEachWithHash(7, [&](const Tuple* t) {
    ++count;
    saw_removed |= t == &tuples[7];
  });
  EXPECT_EQ(count, 3u);
  EXPECT_FALSE(saw_removed);

  // Empty a whole chain, then reuse its key.
  for (int i : {3, 53, 103, 153}) index.Remove(3, &tuples[i]);
  index.ForEachWithHash(3, [&](const Tuple*) { FAIL(); });
  index.Insert(3, &tuples[250]);
  count = 0;
  index.ForEachWithHash(3, [&](const Tuple* t) {
    ++count;
    EXPECT_EQ(t, &tuples[250]);
  });
  EXPECT_EQ(count, 1u);
}

TEST(HashIndexTest, InsertRemoveChurnDoesNotRatchetCapacity) {
  // Sustained churn of mostly-distinct keys leaves dead key slots
  // behind; rehashes must size from *live* keys so capacity stays
  // bounded by the live working set, not by total operations ever.
  Tuple t{I(0)};
  HashIndex index;
  for (uint64_t i = 0; i < 100000; ++i) {
    index.Insert(i, &t);
    index.Remove(i, &t);
    ASSERT_LE(index.SlotCapacityForTesting(), 64u) << "at op " << i;
  }
  // Still fully functional afterwards.
  index.Insert(42, &t);
  size_t hits = 0;
  index.ForEachWithHash(42, [&](const Tuple*) { ++hits; });
  EXPECT_EQ(hits, 1u);
}

TEST(HashIndexTest, SurvivesRehashGrowth) {
  std::vector<Tuple> tuples;
  tuples.reserve(5000);
  for (int64_t i = 0; i < 5000; ++i) tuples.push_back({I(i)});
  HashIndex index;  // no Reserve: forces repeated rehashing
  for (int i = 0; i < 5000; ++i) {
    index.Insert(static_cast<uint64_t>(i), &tuples[i]);
  }
  for (int i = 0; i < 5000; i += 97) {
    const Tuple* hit = nullptr;
    index.ForEachWithHash(static_cast<uint64_t>(i),
                          [&](const Tuple* t) { hit = t; });
    EXPECT_EQ(hit, &tuples[i]) << i;
  }
}

}  // namespace
}  // namespace wdl
