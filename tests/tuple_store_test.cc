// Unit tests for the flat tuple arena (logic/tuple_store.h) and its
// integration into Instance: growth, dedup, id stability, index consistency.
#include "logic/tuple_store.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "logic/instance.h"
#include "logic/schema.h"
#include "util/rng.h"
#include "util/simd.h"

namespace tdlib {
namespace {

TEST(TupleStoreTest, InsertAssignsDenseIdsAndDedups) {
  TupleStore store(3);
  std::int32_t a[] = {1, 2, 3};
  std::int32_t b[] = {1, 2, 4};
  auto [id_a, new_a] = store.Insert(a);
  EXPECT_EQ(id_a, 0);
  EXPECT_TRUE(new_a);
  auto [id_b, new_b] = store.Insert(b);
  EXPECT_EQ(id_b, 1);
  EXPECT_TRUE(new_b);
  auto [id_dup, new_dup] = store.Insert(a);
  EXPECT_EQ(id_dup, 0);
  EXPECT_FALSE(new_dup);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.CheckInvariants(), "");
}

TEST(TupleStoreTest, FindLocatesStoredTuplesOnly) {
  TupleStore store(2);
  std::int32_t a[] = {5, 7};
  std::int32_t b[] = {7, 5};
  store.Insert(a);
  EXPECT_EQ(store.Find(a), 0);
  EXPECT_EQ(store.Find(b), -1);
}

TEST(TupleStoreTest, RefsReadBackExactComponents) {
  TupleStore store(4);
  std::int32_t row[] = {9, 0, -0, 123456};
  store.Insert(row);
  TupleRef ref = store[0];
  ASSERT_EQ(ref.arity(), 4);
  EXPECT_EQ(ref[0], 9);
  EXPECT_EQ(ref[3], 123456);
  EXPECT_TRUE(ref == store[0]);
  std::int32_t other[] = {9, 0, 0, 123457};
  store.Insert(other);
  EXPECT_TRUE(store[0] != store[1]);
}

TEST(TupleStoreTest, GrowthKeepsEveryTupleFindableAtItsId) {
  // Push far past the initial table size; every id must remain findable and
  // hold its original components through arena/table growth.
  TupleStore store(2);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    std::int32_t row[] = {i / 100, i % 100 + i / 100};
    auto [id, inserted] = store.Insert(row);
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(id, i);
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(store.CheckInvariants(), "");
  for (int i = 0; i < n; ++i) {
    std::int32_t row[] = {i / 100, i % 100 + i / 100};
    EXPECT_EQ(store.Find(row), i);
    EXPECT_EQ(store[i][0], i / 100);
  }
}

TEST(TupleStoreTest, SelfInsertionFromOwnArenaIsSafe) {
  // Inserting a row viewed from the store's own arena must not read freed
  // memory when the append reallocates (the SubInstance pattern).
  TupleStore store(3);
  for (int i = 0; i < 100; ++i) {
    std::int32_t row[] = {i, i + 1, i + 2};
    store.Insert(row);
  }
  TupleStore copy(3);
  for (std::size_t i = 0; i < store.size(); ++i) {
    auto [id, inserted] = copy.Insert(store[i].data());
    EXPECT_TRUE(inserted);
    EXPECT_EQ(static_cast<std::size_t>(id), i);
  }
  EXPECT_EQ(copy.CheckInvariants(), "");
  // And genuinely self-referential: re-inserting our own tuple 0 is a dup.
  auto [id, inserted] = store.Insert(store[0].data());
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id, 0);
}

TEST(TupleStoreTest, ReserveDoesNotDisturbContents) {
  TupleStore store(2);
  std::int32_t a[] = {1, 2};
  store.Insert(a);
  store.Reserve(10000);
  EXPECT_EQ(store.Find(a), 0);
  EXPECT_EQ(store.CheckInvariants(), "");
  std::int32_t b[] = {3, 4};
  EXPECT_TRUE(store.Insert(b).second);
  EXPECT_EQ(store.size(), 2u);
}

TEST(TupleStoreTest, RandomizedAgainstReferenceSet) {
  Rng rng(20260730);
  TupleStore store(3);
  std::vector<std::vector<std::int32_t>> reference;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::int32_t> row = {
        static_cast<std::int32_t>(rng.Below(12)),
        static_cast<std::int32_t>(rng.Below(12)),
        static_cast<std::int32_t>(rng.Below(12))};
    auto [id, inserted] = store.Insert(row.data());
    bool expected_new = true;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      if (reference[r] == row) {
        expected_new = false;
        EXPECT_EQ(id, static_cast<int>(r));
        break;
      }
    }
    EXPECT_EQ(inserted, expected_new);
    if (inserted) reference.push_back(row);
  }
  EXPECT_EQ(store.size(), reference.size());
  EXPECT_EQ(store.CheckInvariants(), "");
}

// ---- Instance integration ---------------------------------------------------

TEST(InstanceStoreTest, AddTupleMaintainsIndexAndInvariants) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Instance inst(schema);
  for (int v = 0; v < 4; ++v) {
    inst.AddValue(0);
    inst.AddValue(1);
  }
  EXPECT_TRUE(inst.AddTuple({0, 1}));
  EXPECT_TRUE(inst.AddTuple({0, 2}));
  EXPECT_FALSE(inst.AddTuple({0, 1}));
  EXPECT_EQ(inst.NumTuples(), 2u);
  EXPECT_EQ(inst.CheckInvariants(), "");
  EXPECT_EQ(inst.TuplesWith(0, 0).size(), 2u);
  EXPECT_EQ(inst.TuplesWith(1, 1).size(), 1u);
  EXPECT_EQ(inst.FindTuple({0, 2}), 1);
  EXPECT_EQ(inst.FindTuple({2, 2}), -1);
  EXPECT_TRUE(inst.Contains({0, 1}));
}

TEST(InstanceStoreTest, TupleRefViewMatchesInsertionOrder) {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Instance inst(schema);
  inst.Reserve(8, 8);
  for (int v = 0; v < 8; ++v) {
    for (int a = 0; a < 3; ++a) inst.AddValue(a);
  }
  inst.AddTuple({3, 1, 4});
  inst.AddTuple({1, 5, 2});
  TupleRef t0 = inst.tuple(0);
  EXPECT_EQ(t0[0], 3);
  EXPECT_EQ(t0[2], 4);
  EXPECT_EQ(inst.tuple(1)[1], 5);
  EXPECT_EQ(inst.CheckInvariants(), "");
}

TEST(InstanceStoreTest, CrossInstanceAddTupleByRef) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Instance a(schema);
  Instance b(schema);
  for (int v = 0; v < 3; ++v) {
    a.AddValue(0);
    a.AddValue(1);
    b.AddValue(0);
    b.AddValue(1);
  }
  a.AddTuple({2, 1});
  a.AddTuple({0, 0});
  for (std::size_t i = 0; i < a.NumTuples(); ++i) {
    EXPECT_TRUE(b.AddTuple(a.tuple(static_cast<int>(i))));
  }
  EXPECT_EQ(b.NumTuples(), 2u);
  EXPECT_EQ(b.tuple(0), a.tuple(0));
  EXPECT_EQ(b.CheckInvariants(), "");
}

TEST(InstanceStoreTest, ReserveThenBulkLoadStaysConsistent) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Instance inst(schema);
  inst.Reserve(2000, 50);
  for (int v = 0; v < 50; ++v) {
    inst.AddValue(0);
    inst.AddValue(1);
  }
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    inst.AddTuple({static_cast<int>(rng.Below(50)),
                   static_cast<int>(rng.Below(50))});
  }
  EXPECT_EQ(inst.CheckInvariants(), "");
}

// ---- Wide rows --------------------------------------------------------------

TEST(TupleStoreTest, WideAritySelfAliasingInsertAcrossDispatchLevels) {
  // Arity >= 8 takes the vectorized hash's wide path; the dedup table built
  // under one dispatch level must probe correctly under any other (the hash
  // is bit-identical across levels), including for self-aliasing
  // re-insertions that stage out of the store's own slab mid-growth.
  TupleStore store(12);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    std::int32_t row[12];
    for (int a = 0; a < 12; ++a) {
      row[a] = static_cast<std::int32_t>(rng.Below(1u << 20));
    }
    auto [id, inserted] = store.Insert(row);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, i);
  }
  // Re-insert views of the store's own slab — duplicates, every one.
  for (int i = 0; i < 200; i += 17) {
    auto [id, inserted] =
        store.Insert(store[static_cast<std::size_t>(i)].data());
    EXPECT_FALSE(inserted) << i;
    EXPECT_EQ(id, i);
  }
  // The table must stay probeable with the hash capped at scalar: a single
  // hash bit differing between levels would break every Find below.
  SetSimdLevelForTesting(SimdLevel::kScalar);
  EXPECT_EQ(store.CheckInvariants(), "");
  auto [id, inserted] = store.Insert(store[5].data());
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id, 5);
  SetSimdLevelForTesting(DetectedSimdLevel());
  EXPECT_EQ(store.CheckInvariants(), "");
}

// ---- CSR inverted index -----------------------------------------------------

TEST(CsrIndexTest, MatchesNestedReferenceOverRandomInstances) {
  // The CSR base + tail view must equal the naive nested-map reference at
  // every point of a random insertion stream — across the automatic
  // geometric rebuilds and an explicit CompactIndex.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 6151);
    SchemaPtr schema = MakeSchema({"A", "B"});
    Instance inst(schema);
    const int domain = 8;
    for (int v = 0; v < domain; ++v) {
      inst.AddValue(0);
      inst.AddValue(1);
    }
    // reference[attr][value] -> ids, maintained the pre-CSR way.
    std::vector<std::vector<std::vector<int>>> reference(
        2, std::vector<std::vector<int>>(domain));
    for (int i = 0; i < 800; ++i) {
      Tuple t = {static_cast<int>(rng.Below(domain)),
                 static_cast<int>(rng.Below(domain))};
      std::size_t before = inst.NumTuples();
      if (inst.AddTuple(t)) {
        reference[0][t[0]].push_back(static_cast<int>(before));
        reference[1][t[1]].push_back(static_cast<int>(before));
      }
      if (i % 97 == 0) {
        for (int a = 0; a < 2; ++a) {
          for (int v = 0; v < domain; ++v) {
            ASSERT_EQ(inst.TuplesWith(a, v).ToVector(), reference[a][v])
                << "seed " << seed << " step " << i;
          }
        }
      }
    }
    ASSERT_EQ(inst.CheckInvariants(), "");
    inst.CompactIndex();
    ASSERT_EQ(inst.CheckInvariants(), "");
    for (int a = 0; a < 2; ++a) {
      for (int v = 0; v < domain; ++v) {
        EXPECT_EQ(inst.TuplesWith(a, v).ToVector(), reference[a][v]);
        // After a compact, every posting list is one contiguous base run.
        EXPECT_TRUE(inst.TuplesWith(a, v).tail().empty());
      }
    }
  }
}

TEST(CsrIndexTest, CandidateListRunsSplitAtTheRebuildFrontier) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Instance inst(schema);
  inst.AddValue(0);
  for (int v = 0; v < 4; ++v) inst.AddValue(1);
  // Force a known frontier: compact, then append a fresh id into the tails.
  for (int v = 0; v < 4; ++v) inst.AddTuple({0, v});
  inst.CompactIndex();
  inst.AddValue(1);       // value 4
  inst.AddTuple({0, 4});  // id 4, lands in the tails of (0,0) and (1,4)
  CandidateList list = inst.TuplesWith(0, 0);
  EXPECT_EQ(list.base().size(), 4u);
  EXPECT_EQ(list.tail().size(), 1u);
  EXPECT_EQ(list.ToVector(), (std::vector<int>{0, 1, 2, 3, 4}));
  // Ascending across the run boundary; SuffixFrom cuts inside either run.
  EXPECT_EQ(list.base().SuffixFrom(2).size(), 2u);
  EXPECT_EQ(list.tail().SuffixFrom(2).size(), 1u);
  EXPECT_EQ(inst.CheckInvariants(), "");
}

}  // namespace
}  // namespace tdlib
