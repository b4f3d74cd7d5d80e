// Tests for the chase engine proper: firing, fixpoints, limits, traces.
#include "chase/chase.h"

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/satisfaction.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"

namespace tdlib {
namespace {

SchemaPtr Ab() { return MakeSchema({"A", "B"}); }

Dependency Parse(const SchemaPtr& schema, const std::string& text) {
  Result<Dependency> d = ParseDependency(schema, text);
  EXPECT_TRUE(d.ok()) << d.error();
  return std::move(d).value();
}

// The cross-product full TD: R(a,b) & R(a2,b2) => R(a,b2). Chasing any
// instance with it closes the tuple set under A x B recombination.
DependencySet CrossProduct(const SchemaPtr& schema) {
  DependencySet deps;
  deps.Add(Parse(schema, "R(a,b) & R(a2,b2) => R(a,b2)"), "cross");
  return deps;
}

// A dependency set whose chase does NOT terminate. The equation
// "A A0 = A0" has A0 as its right-hand side, so the expansion gadget D2
// applies to D0's own frozen A0-triangle, spawns a fresh midpoint, and the
// resulting new A0-triangle feeds D2 again: the chase pumps forever. (With
// absorption equations alone nothing fires — no equation's rhs is A0 — and
// the chase reaches a fixpoint immediately; see the implication tests.)
struct Pumping {
  DependencySet deps;
  Dependency goal;
};
Pumping MakePumping() {
  Presentation p;
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  EXPECT_TRUE(red.ok());
  return Pumping{red.value().dependencies(), red.value().goal()};
}

TEST(Chase, FixpointSatisfiesAllDependencies) {
  SchemaPtr schema = Ab();
  DependencySet deps = CrossProduct(schema);
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  db.AddTuple({0, 0});
  db.AddTuple({1, 1});
  ChaseResult result = RunChase(&db, deps, ChaseConfig{});
  EXPECT_EQ(result.status, ChaseStatus::kFixpoint);
  EXPECT_EQ(db.NumTuples(), 4u);  // full 2x2 grid
  for (const Dependency& d : deps.items) EXPECT_TRUE(Satisfies(db, d));
  EXPECT_EQ(result.steps, 2u);
}

TEST(Chase, SingleAtomBodyTdsAreSelfWitnessed) {
  // With one body atom, every head row's universal variables come from that
  // single row, so the matched tuple itself witnesses the head: such TDs
  // are trivial and the chase never fires them. (This is why non-trivial
  // typed TDs need at least two antecedents — compare the paper's gadgets,
  // which have 3 or 5.)
  SchemaPtr schema = Ab();
  DependencySet deps;
  deps.Add(Parse(schema, "R(a,b) => R(a,b2)"), "self-witnessed-1");
  deps.Add(Parse(schema, "R(a,b) => R(a2,b)"), "self-witnessed-2");
  deps.Add(Parse(schema, "R(a,b) => R(a2,b2)"), "self-witnessed-3");
  for (const Dependency& d : deps.items) EXPECT_TRUE(d.IsTrivial());
  Instance db(schema);
  db.AddValue(0);
  db.AddValue(1);
  db.AddTuple({0, 0});
  ChaseResult result = RunChase(&db, deps, ChaseConfig{});
  EXPECT_EQ(result.status, ChaseStatus::kFixpoint);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(db.NumTuples(), 1u);
}

TEST(Chase, EmbeddedGadgetsPumpForever) {
  Pumping pumping = MakePumping();
  const DependencySet& deps = pumping.deps;
  Instance db = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.max_steps = 40;
  ChaseResult result = RunChase(&db, deps, config);
  EXPECT_EQ(result.status, ChaseStatus::kStepLimit);
  EXPECT_GT(db.NullCount(), 0);
}

TEST(Chase, TupleLimitTrips) {
  Pumping pumping = MakePumping();
  const DependencySet& deps = pumping.deps;
  Instance db = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = db.NumTuples() + 5;
  ChaseResult result = RunChase(&db, deps, config);
  EXPECT_EQ(result.status, ChaseStatus::kTupleLimit);
  EXPECT_GE(db.NumTuples(), config.max_tuples);
}

TEST(Chase, DeadlineTrips) {
  Pumping pumping = MakePumping();
  const DependencySet& deps = pumping.deps;
  Instance db = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = 0;
  config.deadline_seconds = 0.05;
  ChaseResult result = RunChase(&db, deps, config);
  EXPECT_EQ(result.status, ChaseStatus::kTimeout);
}

TEST(Chase, GoalStopsEarly) {
  SchemaPtr schema = Ab();
  DependencySet deps = CrossProduct(schema);
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  db.AddTuple({0, 0});
  db.AddTuple({1, 1});
  ChaseGoal goal = [](const Instance& i) { return i.Contains({0, 1}); };
  ChaseResult result = RunChase(&db, deps, ChaseConfig{}, goal);
  EXPECT_EQ(result.status, ChaseStatus::kGoal);
  EXPECT_TRUE(db.Contains({0, 1}));
}

TEST(Chase, GoalAlreadyTrueMeansZeroSteps) {
  SchemaPtr schema = Ab();
  DependencySet deps = CrossProduct(schema);
  Instance db(schema);
  db.AddValue(0);
  db.AddValue(1);
  db.AddTuple({0, 0});
  ChaseGoal goal = [](const Instance&) { return true; };
  ChaseResult result = RunChase(&db, deps, ChaseConfig{}, goal);
  EXPECT_EQ(result.status, ChaseStatus::kGoal);
  EXPECT_EQ(result.steps, 0u);
}

TEST(Chase, TraceRecordsFires) {
  SchemaPtr schema = Ab();
  DependencySet deps = CrossProduct(schema);
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  db.AddTuple({0, 0});
  db.AddTuple({1, 1});
  ChaseConfig config;
  config.record_trace = true;
  ChaseResult result = RunChase(&db, deps, config);
  EXPECT_EQ(result.trace.size(), result.steps);
  for (const ChaseStep& step : result.trace) {
    EXPECT_EQ(step.dependency_index, 0);
    EXPECT_EQ(step.new_tuples.size(), 1u);
  }
}

TEST(Chase, HasApplicableStepMatchesSatisfaction) {
  SchemaPtr schema = Ab();
  Dependency cross = Parse(schema, "R(a,b) & R(a2,b2) => R(a,b2)");
  Instance empty(schema);
  EXPECT_FALSE(HasApplicableStep(cross, empty));
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  db.AddTuple({0, 0});
  db.AddTuple({1, 1});
  EXPECT_TRUE(HasApplicableStep(cross, db));
  EXPECT_EQ(HasApplicableStep(cross, db), !Satisfies(db, cross));
  db.AddTuple({0, 1});
  db.AddTuple({1, 0});
  EXPECT_FALSE(HasApplicableStep(cross, db));
}

TEST(Chase, GoalIsCheckedAfterEveryFire) {
  // The cross product's first pass has two applicable steps; the goal holds
  // after the first fire, so the chase stops there instead of finishing the
  // pass.
  SchemaPtr schema = Ab();
  DependencySet deps = CrossProduct(schema);
  Instance db(schema);
  for (int i = 0; i < 2; ++i) db.AddValue(0);
  for (int i = 0; i < 2; ++i) db.AddValue(1);
  db.AddTuple({0, 0});
  db.AddTuple({1, 1});
  ChaseGoal goal = [](const Instance& i) { return i.NumTuples() >= 3; };
  ChaseResult result = RunChase(&db, deps, ChaseConfig{}, goal);
  EXPECT_EQ(result.status, ChaseStatus::kGoal);
  EXPECT_EQ(result.steps, 1u);
  EXPECT_EQ(db.NumTuples(), 3u);
}

TEST(Chase, StatusNames) {
  EXPECT_EQ(ChaseStatusName(ChaseStatus::kFixpoint), "fixpoint");
  EXPECT_EQ(ChaseStatusName(ChaseStatus::kGoal), "goal");
  ChaseResult r;
  r.status = ChaseStatus::kStepLimit;
  EXPECT_NE(r.ToString().find("step-limit"), std::string::npos);
}

}  // namespace
}  // namespace tdlib
