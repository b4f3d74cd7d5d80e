// Unit tests for the util substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/csv_writer.h"
#include "util/hash.h"
#include "util/interner.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace tdlib {
namespace {

TEST(UnionFind, SingletonsAtStart) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4u);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(uf.Connected(i, j), i == j);
    }
  }
}

TEST(UnionFind, UnionMergesAndReportsNovelty) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already merged
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
}

TEST(UnionFind, AddElementGrows) {
  UnionFind uf(1);
  int id = uf.AddElement();
  EXPECT_EQ(id, 1);
  EXPECT_EQ(uf.num_sets(), 2u);
  uf.Union(0, id);
  EXPECT_EQ(uf.num_sets(), 1u);
}

TEST(UnionFind, DenseClassIdsAreFirstAppearanceOrdered) {
  UnionFind uf(6);
  uf.Union(1, 3);
  uf.Union(4, 5);
  std::vector<int> ids = uf.DenseClassIds();
  // Element 0 appears first -> class 0; element 1 -> class 1; 2 -> class 2;
  // 3 joins 1's class; 4 -> class 3; 5 joins 4.
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 1, 3, 3}));
}

TEST(UnionFind, DeepChainsCompress) {
  const int n = 1000;
  UnionFind uf(n);
  for (int i = 0; i + 1 < n; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_TRUE(uf.Connected(0, n - 1));
}

TEST(Interner, RoundTrip) {
  Interner interner;
  int a = interner.Intern("alpha");
  int b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.Lookup("beta"), b);
  EXPECT_EQ(interner.Lookup("gamma"), -1);
  EXPECT_TRUE(interner.Contains("alpha"));
  EXPECT_FALSE(interner.Contains("gamma"));
}

TEST(ParallelFor, NullPoolRunsSeriallyInIndexOrder) {
  // The serial fallback is the contract --naive-chase and single-thread
  // ablations rely on: no pool, no threads, plain in-order loop.
  std::vector<std::size_t> order;
  ParallelFor(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ZeroTasksIsANoop) {
  bool ran = false;
  ParallelFor(nullptr, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Interner, ConcurrentInterningYieldsDenseUniqueIds) {
  // The sharded interner must hand out dense ids exactly once per distinct
  // name under contention. 8 threads intern an overlapping window of names
  // (thread t covers [t*8, t*8 + 32)), so most names are interned by
  // several threads at once across many shards.
  Interner interner;
  constexpr int kThreads = 8;
  constexpr int kNames = (kThreads - 1) * 8 + 32;  // union of the windows
  std::vector<std::vector<int>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner, &ids, t] {
      for (int i = t * 8; i < t * 8 + 32; ++i) {
        ids[t].push_back(interner.Intern("name" + std::to_string(i)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kNames));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 32; ++i) {
      const std::string name = "name" + std::to_string(t * 8 + i);
      // Every thread that interned `name` got the same id, and the id
      // round-trips through both directions of the map.
      EXPECT_EQ(ids[t][static_cast<std::size_t>(i)], interner.Lookup(name));
      EXPECT_EQ(interner.NameOf(ids[t][static_cast<std::size_t>(i)]), name);
    }
  }
  // Dense: the ids are exactly 0..kNames-1.
  std::set<int> seen;
  for (int i = 0; i < kNames; ++i) {
    seen.insert(interner.Lookup("name" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNames));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), kNames - 1);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(Rng, IntInRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.IntIn(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Strings, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(SplitAndTrim(" a , b ,c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitAndTrim("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(SplitAndTrim("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, TrimAndStartsWith) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_TRUE(StartsWith("schema A B", "schema"));
  EXPECT_FALSE(StartsWith("sch", "schema"));
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "n"});
  t.AddRow({"long-name", "1"});
  t.AddRow({"x", "12345"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("name       n"), std::string::npos);
  EXPECT_NE(out.find("long-name  1"), std::string::npos);
}

TEST(TablePrinter, AddRowValuesFormats) {
  TablePrinter t({"a", "b"});
  t.AddRowValues("x", 42);
  EXPECT_NE(t.ToString().find("42"), std::string::npos);
}

TEST(CsvWriter, QuotesOnlyWhenNeeded) {
  std::ostringstream oss;
  CsvWriter csv(oss, {"a", "b"});
  csv.WriteRow({"plain", "has,comma"});
  csv.WriteRow({"has\"quote", "ok"});
  EXPECT_EQ(oss.str(),
            "a,b\n"
            "plain,\"has,comma\"\n"
            "\"has\"\"quote\",ok\n");
}

TEST(Hash, CombineDiffersByOrder) {
  std::size_t s1 = 0, s2 = 0;
  HashCombine(&s1, 1);
  HashCombine(&s1, 2);
  HashCombine(&s2, 2);
  HashCombine(&s2, 1);
  EXPECT_NE(s1, s2);
}

TEST(Hash, VectorHashDistinguishes) {
  VectorHash h;
  EXPECT_NE(h(std::vector<int>{1, 2}), h(std::vector<int>{2, 1}));
  EXPECT_EQ(h(std::vector<int>{1, 2}), h(std::vector<int>{1, 2}));
}

TEST(Hash, Hasher128OverEverySplitEqualsHashBytes128) {
  std::string buffer;
  for (int i = 0; i < 97; ++i) buffer.push_back(static_cast<char>(i * 37 + 11));
  const Hash128 whole = HashBytes128(buffer.data(), buffer.size());
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    Hasher128 hasher;
    hasher.Update(buffer.data(), split);
    hasher.Update(buffer.data() + split, buffer.size() - split);
    const Hash128 streamed = hasher.Finish();
    EXPECT_EQ(streamed.hi, whole.hi) << "split at " << split;
    EXPECT_EQ(streamed.lo, whole.lo) << "split at " << split;
  }
  // Byte-at-a-time is the finest split of all.
  Hasher128 bytewise;
  for (char c : buffer) bytewise.Update(&c, 1);
  EXPECT_EQ(bytewise.Finish().hi, whole.hi);
  EXPECT_EQ(bytewise.Finish().lo, whole.lo);
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err = Result<int>::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "boom");
}

TEST(Timer, DeadlineWithoutBudgetNeverExpires) {
  Deadline d(0);
  EXPECT_FALSE(d.Expired());
  Deadline d2(-1);
  EXPECT_FALSE(d2.Expired());
}

TEST(Timer, ElapsedIsMonotone) {
  Timer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace tdlib
