// Tests for the homomorphism search engine, including the ablation knobs
// (index, dynamic ordering) that the EXP-CHASE benches sweep.
#include "logic/homomorphism.h"

#include <gtest/gtest.h>

#include <vector>

namespace tdlib {
namespace {

// Schema {A, B}; instance with a small "join graph".
class HomTest : public ::testing::Test {
 protected:
  HomTest() : schema_(MakeSchema({"A", "B"})), inst_(schema_) {
    // Domain A: 0,1,2; Domain B: 0,1.
    for (int i = 0; i < 3; ++i) inst_.AddValue(0);
    for (int i = 0; i < 2; ++i) inst_.AddValue(1);
    inst_.AddTuple({0, 0});
    inst_.AddTuple({1, 0});
    inst_.AddTuple({1, 1});
    inst_.AddTuple({2, 1});
  }
  SchemaPtr schema_;
  Instance inst_;
};

TEST_F(HomTest, SingleRowMatchesAnyTuple) {
  Tableau t(schema_);
  t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  int count = 0;
  HomomorphismSearch search(t, inst_);
  EXPECT_EQ(search.ForEach([&](const Valuation&) {
    ++count;
    return true;
  }),
            HomSearchStatus::kExhausted);
  EXPECT_EQ(count, 4);  // one hom per tuple
}

TEST_F(HomTest, JoinThroughSharedVariable) {
  // R(a, b) & R(a', b): pairs of tuples agreeing on B.
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int a2 = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  t.AddRow({a2, b});
  int count = 0;
  HomomorphismSearch search(t, inst_);
  search.ForEach([&](const Valuation&) {
    ++count;
    return true;
  });
  // B=0 has 2 tuples -> 4 ordered pairs; B=1 has 2 tuples -> 4 pairs.
  EXPECT_EQ(count, 8);
}

TEST_F(HomTest, InitialValuationRestricts) {
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  Valuation initial = Valuation::For(t);
  initial.Set(t.VarIndex(0, a), 1);  // pin A-variable to value 1
  HomomorphismSearch search(t, inst_);
  search.SetInitial(initial);
  int count = 0;
  search.ForEach([&](const Valuation& v) {
    EXPECT_EQ(v.Get(t.VarIndex(0, a)), 1);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2);  // tuples (1,0) and (1,1)
}

TEST_F(HomTest, UnsatisfiablePinExhausts) {
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int b = t.NewVariable(1);
  t.AddRow({a, b});
  t.AddRow({a, b});  // same row twice is fine
  Valuation initial = Valuation::For(t);
  initial.Set(t.VarIndex(0, a), 0);
  initial.Set(t.VarIndex(1, b), 1);  // (0,1) is not a tuple
  HomomorphismSearch search(t, inst_);
  search.SetInitial(initial);
  EXPECT_EQ(search.FindAny(nullptr), HomSearchStatus::kExhausted);
}

TEST_F(HomTest, FindAnyStopsEarly) {
  Tableau t(schema_);
  t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  Valuation found = Valuation::For(t);
  HomomorphismSearch search(t, inst_);
  EXPECT_EQ(search.FindAny(&found), HomSearchStatus::kFound);
  // The returned valuation maps the row onto an actual tuple.
  Tuple image{found.Get(t.VarIndex(0, t.row(0)[0])),
              found.Get(t.VarIndex(1, t.row(0)[1]))};
  EXPECT_TRUE(inst_.Contains(image));
}

TEST_F(HomTest, BudgetIsReported) {
  Tableau t(schema_);
  for (int i = 0; i < 4; ++i) {
    t.AddRow({t.NewVariable(0), t.NewVariable(1)});
  }
  HomSearchOptions options;
  options.max_nodes = 2;
  HomomorphismSearch search(t, inst_);
  int count = 0;
  HomomorphismSearch budgeted(t, inst_, options);
  EXPECT_EQ(budgeted.ForEach([&](const Valuation&) {
    ++count;
    return true;
  }),
            HomSearchStatus::kBudget);
}

TEST_F(HomTest, AblationKnobsAgreeOnCounts) {
  // The index and dynamic-order options are performance knobs; they must
  // not change the set of homomorphisms found.
  Tableau t(schema_);
  int a = t.NewVariable(0);
  int b = t.NewVariable(1);
  int b2 = t.NewVariable(1);
  t.AddRow({a, b});
  t.AddRow({a, b2});
  auto count_with = [&](bool use_index, bool use_order) {
    HomSearchOptions options;
    options.use_index = use_index;
    options.use_dynamic_order = use_order;
    HomomorphismSearch search(t, inst_, options);
    int count = 0;
    search.ForEach([&](const Valuation&) {
      ++count;
      return true;
    });
    return count;
  };
  int baseline = count_with(true, true);
  EXPECT_EQ(baseline, count_with(false, true));
  EXPECT_EQ(baseline, count_with(true, false));
  EXPECT_EQ(baseline, count_with(false, false));
}

TEST(MapsInto, TableauContainment) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  // t1: R(a, b)  — maps into anything with a row.
  Tableau t1(schema);
  t1.AddRow({t1.NewVariable(0), t1.NewVariable(1)});
  // t2: R(a, b) & R(a, b') — two rows sharing A.
  Tableau t2(schema);
  int a = t2.NewVariable(0);
  t2.AddRow({a, t2.NewVariable(1)});
  t2.AddRow({a, t2.NewVariable(1)});
  EXPECT_EQ(MapsInto(t1, t2), HomSearchStatus::kFound);
  EXPECT_EQ(MapsInto(t2, t1), HomSearchStatus::kFound);  // collapse both rows
  // t3: two rows with DIFFERENT A-variables that must stay different? They
  // need not: homomorphisms may merge variables, so t3 -> t1 also succeeds.
  Tableau t3(schema);
  t3.AddRow({t3.NewVariable(0), t3.NewVariable(1)});
  t3.AddRow({t3.NewVariable(0), t3.NewVariable(1)});
  EXPECT_EQ(MapsInto(t3, t1), HomSearchStatus::kFound);
}

TEST(MapsInto, RespectsTyping) {
  // A tableau whose B-variable pattern cannot be realized: R(a,b) & R(a,b')
  // with b != b' CAN map by merging b and b' — homomorphisms are free to
  // merge. What cannot happen is mapping across attributes; the type system
  // makes that unrepresentable, which this test documents.
  SchemaPtr schema = MakeSchema({"A", "B"});
  Tableau from(schema);
  int a = from.NewVariable(0);
  from.AddRow({a, from.NewVariable(1)});
  Tableau to(schema);
  to.AddRow({to.NewVariable(0), to.NewVariable(1)});
  EXPECT_EQ(MapsInto(from, to), HomSearchStatus::kFound);
}

TEST(HomSearchNodes, NodesAreCounted) {
  SchemaPtr schema = MakeSchema({"A"});
  Instance inst(schema);
  inst.AddValue(0);
  inst.AddTuple({0});
  Tableau t(schema);
  t.AddRow({t.NewVariable(0)});
  HomomorphismSearch search(t, inst);
  search.FindAny(nullptr);
  EXPECT_GT(search.nodes_explored(), 0u);
}

}  // namespace
}  // namespace tdlib
