// Counter gate for the chase's hot path: the six reduction-sweep problems
// that the end-to-end `solve` workload cycles through, solved under the
// generated-workload budgets, must keep their verdicts and every
// deterministic search counter. A change to valuation storage, candidate
// generation or trigger scheduling that is meant to be a pure
// implementation swap has to leave these numbers exactly where they are; a
// change that means to move them updates this table in the same commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/dual_solver.h"
#include "engine/job.h"
#include "engine/workload.h"

namespace tdlib {
namespace {

struct Expected {
  const char* name;
  const char* verdict;
  std::uint64_t steps;
  std::uint64_t passes;
  std::uint64_t hom_nodes;
  std::uint64_t hom_candidates;
  std::uint64_t match_tasks;
};

// The counters are those of the last chase attempt of the dual solver.
constexpr Expected kExpected[] = {
    {"implied/pad0", "IMPLIED", 2, 2, 703, 627, 41},
    {"refuted/pad0", "REFUTED-FIXPOINT", 0, 1, 459, 365, 24},
    {"gap/pad0", "REFUTED-FINITE", 2000, 6, 138706, 355179, 360},
    {"implied/pad1", "IMPLIED", 2, 2, 931, 807, 53},
    {"refuted/pad1", "REFUTED-FIXPOINT", 0, 1, 687, 545, 36},
    {"gap/pad1", "REFUTED-FINITE", 2000, 6, 160006, 413332, 520},
};

TEST(SolveCounters, ReductionSweepCountersArePinned) {
  WorkloadOptions options;
  options.size = 6;
  options.solver = DefaultWorkloadSolverConfig();
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ASSERT_EQ(jobs.size(), std::size(kExpected));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Expected& want = kExpected[i];
    DualResult result =
        SolveImplication(job.dependencies, job.goal, job.config);
    const ChaseResult& chase = result.implication.chase;
    SCOPED_TRACE(job.name);
    EXPECT_EQ(job.name, want.name);
    EXPECT_EQ(std::string(DualVerdictName(result.verdict)), want.verdict);
    EXPECT_EQ(chase.steps, want.steps);
    EXPECT_EQ(chase.passes, want.passes);
    EXPECT_EQ(chase.hom_nodes, want.hom_nodes);
    EXPECT_EQ(chase.hom_candidates, want.hom_candidates);
    EXPECT_EQ(chase.match_tasks, want.match_tasks);
  }
}

// A pass cut by its step budget must not match the dependencies past the
// cut. gap/pad0 at 3000 steps stops in its 7th pass, in the first of its 24
// dependencies; a chase that matched every dependency before firing spent
// 56,522,609 nodes here, nearly all of them in that last pass.
TEST(SolveCounters, StepBudgetCutSkipsTheRestOfThePass) {
  WorkloadOptions options;
  options.size = 3;
  options.solver = DefaultWorkloadSolverConfig();
  options.solver.rounds = 1;
  options.solver.base_chase.max_steps = 3000;
  options.solver.base_chase.max_tuples = 100000;
  const Job job = ReductionSweepWorkload(options)[2];
  ASSERT_EQ(job.name, "gap/pad0");
  DualResult result = SolveImplication(job.dependencies, job.goal, job.config);
  const ChaseResult& chase = result.implication.chase;
  EXPECT_EQ(std::string(DualVerdictName(result.verdict)), "REFUTED-FINITE");
  EXPECT_EQ(chase.status, ChaseStatus::kStepLimit);
  EXPECT_EQ(chase.steps, 3000u);
  EXPECT_EQ(chase.passes, 7u);
  EXPECT_EQ(chase.hom_nodes, 167273u);
}

}  // namespace
}  // namespace tdlib
