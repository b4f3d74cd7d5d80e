// Tests for Dependency: construction, classification (full/embedded,
// TD/EID, trivial), renaming and rendering.
#include "core/dependency.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/parser.h"
#include "engine/workload.h"
#include "fuzz/fuzz.h"

namespace tdlib {
namespace {

SchemaPtr GarmentSchema() { return MakeSchema({"SUPPLIER", "STYLE", "SIZE"}); }

// The paper's Fig. 1 dependency:
//   R(a,b,c) & R(a,b',c') => R(a*, b, c').
Dependency Fig1() {
  Result<Dependency> d = ParseDependency(
      GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  EXPECT_TRUE(d.ok()) << d.error();
  return std::move(d).value();
}

TEST(Dependency, BuilderRejectsEmptyBodyOrHead) {
  {
    Dependency::Builder b(GarmentSchema());
    b.AddHeadRow({b.Var(0), b.Var(1), b.Var(2)});
    EXPECT_FALSE(std::move(b).Build().ok());
  }
  {
    Dependency::Builder b(GarmentSchema());
    b.AddBodyRow({b.Var(0), b.Var(1), b.Var(2)});
    EXPECT_FALSE(std::move(b).Build().ok());
  }
}

TEST(Dependency, Fig1IsEmbeddedTd) {
  Dependency d = Fig1();
  EXPECT_TRUE(d.IsTd());
  EXPECT_FALSE(d.IsFull());  // a* is existential
  EXPECT_FALSE(d.IsTrivial());
  EXPECT_EQ(d.CheckInvariants(), "");
}

TEST(Dependency, FullWhenConclusionVarsAppearInBody) {
  Result<Dependency> d = ParseDependency(
      GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsFull());
}

TEST(Dependency, UniversalityFollowsBodyOccurrence) {
  Dependency d = Fig1();
  // Variable a (attr 0, id 0) occurs in the body; a9 (the existential) not.
  EXPECT_TRUE(d.IsUniversal(0, 0));
  bool some_existential = false;
  for (int v = 0; v < d.head().NumVars(0); ++v) {
    some_existential = some_existential || !d.IsUniversal(0, v);
  }
  EXPECT_TRUE(some_existential);
}

TEST(Dependency, TrivialWhenConclusionIsAnAntecedent) {
  Result<Dependency> d =
      ParseDependency(GarmentSchema(), "R(a,b,c) & R(a,b2,c2) => R(a,b,c)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsTrivial());
}

TEST(Dependency, TrivialWithExistentialCollapse) {
  // R(a,b,c) => R(a, b*, c): b* existential can map onto b.
  Result<Dependency> d =
      ParseDependency(GarmentSchema(), "R(a,b,c) => R(a,b9,c)");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().IsTrivial());
}

TEST(Dependency, EidWithConjunctiveConclusion) {
  // The EID example from the paper:
  //   R(a,b,c) & R(a,b',c') => R(a*,b,c) & R(a*,b,c').
  Result<Dependency> d = ParseDependency(
      GarmentSchema(),
      "R(a,b,c) & R(a,b2,c2) => R(a9,b,c) & R(a9,b,c2)");
  ASSERT_TRUE(d.ok()) << d.error();
  EXPECT_FALSE(d.value().IsTd());
  EXPECT_EQ(d.value().head().num_rows(), 2);
  // The shared existential a* makes this NOT expressible as two separate
  // TDs; it is also non-trivial.
  EXPECT_FALSE(d.value().IsTrivial());
}

TEST(Dependency, RenameVariablesPreservesStructure) {
  Dependency d = Fig1();
  Dependency renamed = d.RenameVariables("_copy");
  EXPECT_EQ(renamed.CheckInvariants(), "");
  EXPECT_EQ(renamed.body().num_rows(), d.body().num_rows());
  EXPECT_EQ(renamed.head().num_rows(), d.head().num_rows());
  EXPECT_TRUE(renamed.IsTd());
  EXPECT_FALSE(renamed.IsFull());
  EXPECT_NE(renamed.ToString(), d.ToString());  // names differ
}

TEST(Dependency, ToStringRoundTripsThroughParser) {
  Dependency d = Fig1();
  Result<Dependency> reparsed =
      ParseDependency(GarmentSchema(), d.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  EXPECT_EQ(reparsed.value().ToString(), d.ToString());
}

TEST(DependencySet, NamesTravelWithItems) {
  DependencySet set;
  set.Add(Fig1(), "fig1");
  EXPECT_EQ(set.items.size(), 1u);
  EXPECT_NE(set.ToString().find("fig1:"), std::string::npos);
}

// ---- Flat variable storage -------------------------------------------------

// The fuzz generator's programs (two rounds of six cases) and the reduction
// sweep at pads 0-1 (implied/refuted/gap each).
std::vector<Job> StorageCorpus() {
  FuzzOptions fuzz;
  fuzz.cases_per_round = 6;
  std::vector<Job> jobs;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (Job& job : GenerateFuzzCases(fuzz, round)) {
      jobs.push_back(std::move(job));
    }
  }
  WorkloadOptions sweep;
  sweep.size = 6;
  for (Job& job : ReductionSweepWorkload(sweep)) jobs.push_back(std::move(job));
  return jobs;
}

// Premises first, goal last.
std::vector<const Dependency*> AllDependencies(const Job& job) {
  std::vector<const Dependency*> deps;
  for (const Dependency& d : job.dependencies.items) deps.push_back(&d);
  deps.push_back(&job.goal);
  return deps;
}

// Renders a parsed program back into the program grammar.
std::string RenderProgram(const Schema& schema, const DependencySet& set) {
  std::string out = "schema";
  for (int attr = 0; attr < schema.arity(); ++attr) {
    out += ' ' + schema.name(attr);
  }
  out += '\n';
  for (std::size_t i = 0; i < set.items.size(); ++i) {
    out += "td " + set.names[i] + ": " + FormatDependency(set.items[i]) + '\n';
  }
  return out;
}

TEST(DependencyStorage, IsUniversalMatchesBodyOccurrence) {
  for (const Job& job : StorageCorpus()) {
    for (const Dependency* d : AllDependencies(job)) {
      const Tableau& body = d->body();
      std::set<std::pair<int, int>> in_body;
      for (const Row& r : body.rows()) {
        for (int attr = 0; attr < d->schema().arity(); ++attr) {
          in_body.emplace(attr, r[attr]);
        }
      }
      for (int attr = 0; attr < d->schema().arity(); ++attr) {
        for (int v = 0; v < body.NumVars(attr); ++v) {
          EXPECT_EQ(d->IsUniversal(attr, v), in_body.count({attr, v}) > 0)
              << job.name << " (" << attr << ", " << v << ")";
        }
      }
    }
  }
}

TEST(DependencyStorage, CopiesRenderIdentically) {
  for (const Job& job : StorageCorpus()) {
    const Job copy = job;
    const std::vector<const Dependency*> originals = AllDependencies(job);
    const std::vector<const Dependency*> copies = AllDependencies(copy);
    ASSERT_EQ(copies.size(), originals.size());
    for (std::size_t i = 0; i < originals.size(); ++i) {
      EXPECT_EQ(copies[i]->ToString(), originals[i]->ToString()) << job.name;
      EXPECT_EQ(copies[i]->CheckInvariants(), "") << job.name;
    }
  }
}

TEST(DependencyStorage, ProgramTextRoundTripsByteIdentically) {
  const FuzzOptions options;
  for (const Job& job : StorageCorpus()) {
    SchemaPtr schema;
    Result<DependencySet> first = ParseDependencyProgram(
        FormatReproProgram(job, options, "storage"), &schema);
    ASSERT_TRUE(first.ok()) << job.name << ": " << first.error();
    const std::string text = RenderProgram(*schema, first.value());

    SchemaPtr reparsed_schema;
    Result<DependencySet> second =
        ParseDependencyProgram(text, &reparsed_schema);
    ASSERT_TRUE(second.ok()) << job.name << ": " << second.error();
    EXPECT_EQ(RenderProgram(*reparsed_schema, second.value()), text)
        << job.name;
  }
}

}  // namespace
}  // namespace tdlib
