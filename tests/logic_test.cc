// Unit tests for schemas, instances and tableaux.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "logic/instance.h"
#include "logic/schema.h"
#include "logic/tableau.h"

namespace tdlib {
namespace {

TEST(Schema, ValidateCatchesProblems) {
  EXPECT_NE(Schema(std::vector<std::string>{}).Validate(), "");
  EXPECT_NE(Schema({"A", ""}).Validate(), "");
  EXPECT_NE(Schema({"A", "A"}).Validate(), "");
  EXPECT_EQ(Schema({"A", "B"}).Validate(), "");
}

TEST(Schema, IndexOfAndNumbered) {
  Schema s = Schema::Numbered(3, "X");
  EXPECT_EQ(s.arity(), 3);
  EXPECT_EQ(s.name(1), "X1");
  EXPECT_EQ(s.IndexOf("X2"), 2);
  EXPECT_EQ(s.IndexOf("nope"), -1);
  EXPECT_TRUE(s == Schema({"X0", "X1", "X2"}));
}

class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest() : schema_(MakeSchema({"A", "B"})), inst_(schema_) {}
  SchemaPtr schema_;
  Instance inst_;
};

TEST_F(InstanceTest, DomainsAreIndependentPerAttribute) {
  int a0 = inst_.AddValue(0, "x");
  int b0 = inst_.AddValue(1, "y");
  EXPECT_EQ(a0, 0);
  EXPECT_EQ(b0, 0);  // same id, different attribute: typing is structural
  EXPECT_EQ(inst_.DomainSize(0), 1);
  EXPECT_EQ(inst_.DomainSize(1), 1);
  EXPECT_EQ(inst_.ValueName(0, 0), "x");
  EXPECT_EQ(inst_.ValueName(1, 0), "y");
}

TEST_F(InstanceTest, InternValueIsIdempotent) {
  int v1 = inst_.InternValue(0, "v");
  int v2 = inst_.InternValue(0, "v");
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(inst_.DomainSize(0), 1);
}

TEST_F(InstanceTest, TuplesDeduplicate) {
  inst_.AddValue(0);
  inst_.AddValue(1);
  EXPECT_TRUE(inst_.AddTuple({0, 0}));
  EXPECT_FALSE(inst_.AddTuple({0, 0}));
  EXPECT_EQ(inst_.NumTuples(), 1u);
  EXPECT_TRUE(inst_.Contains({0, 0}));
}

TEST_F(InstanceTest, IndexTracksTuples) {
  inst_.AddValue(0);
  inst_.AddValue(0);
  inst_.AddValue(1);
  inst_.AddTuple({0, 0});
  inst_.AddTuple({1, 0});
  EXPECT_EQ(inst_.TuplesWith(0, 0).ToVector(), (std::vector<int>{0}));
  EXPECT_EQ(inst_.TuplesWith(0, 1).ToVector(), (std::vector<int>{1}));
  EXPECT_EQ(inst_.TuplesWith(1, 0).ToVector(), (std::vector<int>{0, 1}));
  EXPECT_EQ(inst_.CheckInvariants(), "");
}

TEST_F(InstanceTest, FindTuple) {
  inst_.AddValue(0);
  inst_.AddValue(0);
  inst_.AddValue(1);
  inst_.AddTuple({0, 0});
  inst_.AddTuple({1, 0});
  EXPECT_EQ(inst_.FindTuple({0, 0}), 0);
  EXPECT_EQ(inst_.FindTuple({1, 0}), 1);
  EXPECT_EQ(inst_.FindTuple({0, 1}), -1);
}

TEST_F(InstanceTest, LabeledNullsAreCounted) {
  inst_.AddValue(0, "", true);
  inst_.AddValue(0, "c");
  inst_.AddValue(1, "", true);
  EXPECT_EQ(inst_.NullCount(), 2);
  EXPECT_TRUE(inst_.IsLabeledNull(0, 0));
  EXPECT_FALSE(inst_.IsLabeledNull(0, 1));
}

TEST_F(InstanceTest, ToStringShowsValueNames) {
  inst_.InternValue(0, "acme");
  inst_.InternValue(1, "brief");
  inst_.AddTuple({0, 0});
  std::string s = inst_.ToString();
  EXPECT_NE(s.find("acme"), std::string::npos);
  EXPECT_NE(s.find("brief"), std::string::npos);
}

TEST(Tableau, FreezeMakesOneConstantPerVariable) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Tableau t(schema);
  int a0 = t.NewVariable(0);
  int a1 = t.NewVariable(0);
  int b0 = t.NewVariable(1);
  t.AddRow({a0, b0});
  t.AddRow({a1, b0});
  Instance frozen = t.Freeze();
  EXPECT_EQ(frozen.DomainSize(0), 2);
  EXPECT_EQ(frozen.DomainSize(1), 1);
  EXPECT_EQ(frozen.NumTuples(), 2u);
  EXPECT_TRUE(frozen.Contains({0, 0}));
  EXPECT_TRUE(frozen.Contains({1, 0}));
}

TEST(Tableau, InvariantsCatchBadRows) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Tableau t(schema);
  t.NewVariable(0);
  t.NewVariable(1);
  t.AddRow({0, 5});  // variable 5 does not exist for B
  EXPECT_NE(t.CheckInvariants(), "");
}

TEST(Tableau, DuplicateVariableNamesRejected) {
  SchemaPtr schema = MakeSchema({"A"});
  Tableau t(schema);
  t.NewVariable(0, "x");
  t.NewVariable(0, "x");
  EXPECT_NE(t.CheckInvariants(), "");
}

TEST(Tableau, DefaultNamesAreLowercasedAttribute) {
  SchemaPtr schema = MakeSchema({"SUPPLIER"});
  Tableau t(schema);
  t.NewVariable(0);
  EXPECT_EQ(t.VarName(0, 0), "supplier0");
}

TEST(Tableau, TotalVarsSumsAttributes) {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Tableau t(schema);
  t.NewVariable(0);
  t.NewVariable(0);
  t.NewVariable(2);
  EXPECT_EQ(t.TotalVars(), 3);
  t.EnsureVariables(1, 2);
  EXPECT_EQ(t.TotalVars(), 5);
}

// ---- Flat variable storage -------------------------------------------------

TEST(TableauStorage, InterleavedNewVariableKeepsIdsDensePerAttribute) {
  Tableau t(MakeSchema({"A", "B", "C"}));
  std::vector<std::vector<std::string>> expected(3);
  // Later attributes first, then back and forth, so most inserts land in
  // front of another attribute's slots.
  const int kOrder[] = {2, 2, 0, 1, 2, 0, 0, 1, 2, 1, 0, 2};
  for (int step = 0; step < 12; ++step) {
    const int attr = kOrder[step];
    // Every other variable keeps its default name.
    const std::string name = step % 2 == 0 ? "" : "v" + std::to_string(step);
    const int id = t.NewVariable(attr, name);
    ASSERT_EQ(id, static_cast<int>(expected[attr].size()));
    expected[attr].push_back(
        name.empty() ? std::string(1, static_cast<char>('a' + attr)) +
                           std::to_string(id)
                     : name);
    int total = 0;
    for (int a = 0; a < 3; ++a) {
      ASSERT_EQ(t.NumVars(a), static_cast<int>(expected[a].size()));
      for (int v = 0; v < t.NumVars(a); ++v) {
        EXPECT_EQ(t.VarIndex(a, v), total + v) << "step " << step;
        EXPECT_EQ(t.VarName(a, v), expected[a][v]) << "step " << step;
      }
      total += t.NumVars(a);
    }
    EXPECT_EQ(t.TotalVars(), total);
  }
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(TableauStorage, SetVarNameSurvivesLaterGrowth) {
  Tableau t(MakeSchema({"A", "B"}));
  t.NewVariable(1, "y");
  t.NewVariable(1);
  t.SetVarName(1, 0, "renamed");
  // Growth of A shifts B's slots; growth of both reallocates the arena.
  for (int i = 0; i < 50; ++i) {
    t.NewVariable(0);
    t.NewVariable(1);
  }
  EXPECT_EQ(t.VarName(1, 0), "renamed");
  EXPECT_EQ(t.VarName(1, 1), "b1");
  EXPECT_EQ(t.VarName(0, 49), "a49");
  // A name viewed from the tableau's own arena is a valid source.
  t.SetVarName(0, 3, t.VarName(1, 0));
  EXPECT_EQ(t.VarName(0, 3), "renamed");
  EXPECT_EQ(t.VarName(1, 0), "renamed");
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(TableauStorage, CopyRendersIdenticallyAndIsIndependent) {
  Tableau t(MakeSchema({"A", "B"}));
  const int b = t.NewVariable(1, "shared");
  const int a0 = t.NewVariable(0);
  const int a1 = t.NewVariable(0, "x");
  t.AddRow({a0, b});
  t.AddRow({a1, b});
  Tableau copy = t;
  EXPECT_EQ(copy.ToString(), t.ToString());
  EXPECT_EQ(copy.TotalVars(), t.TotalVars());

  copy.SetVarName(1, b, "other");
  copy.NewVariable(0);
  EXPECT_EQ(t.VarName(1, b), "shared");
  EXPECT_EQ(t.NumVars(0), 2);
  EXPECT_NE(copy.ToString(), t.ToString());
}

}  // namespace
}  // namespace tdlib
