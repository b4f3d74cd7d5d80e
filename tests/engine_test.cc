// Tests for the parallel batch inference engine (src/engine/).
#include "engine/batch_solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "engine/thread_pool.h"
#include "engine/workload.h"

namespace tdlib {
namespace {

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&count] { ++count; }));
    }
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
  }  // ~ThreadPool == Shutdown: everything queued must have run
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ShutdownIsIdempotentAndRejectsLateSubmissions) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
  EXPECT_FALSE(pool.Submit([&count] { ++count; }));
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilQuiet) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.Submit([&count] { ++count; });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 20);
  // The pool still accepts work after WaitIdle (unlike Shutdown).
  EXPECT_TRUE(pool.Submit([&count] { ++count; }));
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 21);
}

TEST(ThreadPool, HigherPriorityRunsFirst) {
  // Gate a single worker so the queue fills, then check drain order. Wait
  // for the worker to be INSIDE the gate task before submitting the
  // prioritized tasks — otherwise a slow worker startup could let a
  // higher-priority task jump ahead of the gate itself.
  std::mutex mu;
  std::condition_variable cv;
  bool gate_started = false;
  bool gate_open = false;
  std::vector<int> order;

  ThreadPool pool(1);
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    gate_started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_started; });
  }
  for (int i = 0; i < 3; ++i) {
    pool.Submit(
        [&order, &mu, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
        },
        /*priority=*/i);  // later submissions have higher priority
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Shutdown();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(ThreadPool, TiesDrainInSubmissionOrder) {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  std::vector<int> order;

  ThreadPool pool(1);
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_open; });
  });
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&order, &mu, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });  // equal priority
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Shutdown();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---- BatchSolver vs serial -------------------------------------------------

TEST(BatchSolver, ReductionSweepMatchesSerialByteForByte) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);

  BatchSummary serial = RunSerial(jobs);
  BatchOptions pooled;
  pooled.num_threads = 4;
  BatchSummary batch = BatchSolver(pooled).Run(jobs);

  EXPECT_EQ(batch.DeterministicSummary(), serial.DeterministicSummary());
  EXPECT_EQ(batch.completed, 6);
  EXPECT_EQ(batch.skipped, 0);
}

TEST(BatchSolver, RandomWorkloadMatchesSerialByteForByte) {
  WorkloadOptions options;
  options.size = 8;
  options.seed = 1234;
  std::vector<Job> jobs = RandomTdWorkload(options);

  BatchSummary serial = RunSerial(jobs);
  BatchOptions pooled;
  pooled.num_threads = 3;
  BatchSummary batch = BatchSolver(pooled).Run(jobs);

  EXPECT_EQ(batch.DeterministicSummary(), serial.DeterministicSummary());
}

TEST(BatchSolver, ResultsArriveInSubmissionOrderDespitePriorities) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  // Invert the sweep's priorities so the pool runs jobs backwards.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].priority = static_cast<int>(i);
  }
  BatchOptions pooled;
  pooled.num_threads = 2;
  BatchSummary batch = BatchSolver(pooled).Run(jobs);
  ASSERT_EQ(batch.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(batch.results[i].name, jobs[i].name);
  }
}

TEST(BatchSolver, GlobalDeadlineSkipsLateJobs) {
  WorkloadOptions options;
  options.size = 9;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchOptions bounded;
  bounded.num_threads = 2;
  bounded.deadline_seconds = 1e-4;  // expires before the sweep can finish
  BatchSummary batch = BatchSolver(bounded).Run(jobs);
  EXPECT_GT(batch.skipped, 0);
  EXPECT_EQ(batch.completed + batch.skipped, 9);
  for (const JobResult& r : batch.results) {
    if (r.status == JobStatus::kSkipped) {
      EXPECT_EQ(std::string(r.VerdictName()), "SKIPPED");
    }
  }
}

TEST(BatchSolver, EarlyStopCancelsAfterFirstRefutation) {
  WorkloadOptions options;
  options.size = 9;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchOptions early;
  early.stop_on_first_refutation = true;
  // Serial mode makes the cut deterministic: job 0 is implied, job 1 is the
  // first refutation, everything after must be skipped.
  BatchSummary summary = RunSerial(jobs, early);
  ASSERT_EQ(summary.results.size(), 9u);
  EXPECT_EQ(summary.results[0].verdict, DualVerdict::kImplied);
  EXPECT_EQ(summary.results[1].verdict, DualVerdict::kRefutedByFixpoint);
  for (std::size_t i = 2; i < summary.results.size(); ++i) {
    EXPECT_EQ(summary.results[i].status, JobStatus::kSkipped) << i;
  }
}

TEST(BatchSolver, CancelBeforeRunIsResetByRun) {
  WorkloadOptions options;
  options.size = 3;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSolver solver;
  solver.Cancel();  // a stale cancel must not leak into the next batch
  BatchSummary summary = solver.Run(jobs);
  EXPECT_EQ(summary.completed, 3);
}

// ---- Workloads -------------------------------------------------------------

TEST(Workload, RandomFamilyIsDeterministicInTheSeed) {
  WorkloadOptions options;
  options.size = 5;
  options.seed = 99;
  std::vector<Job> a = RandomTdWorkload(options);
  std::vector<Job> b = RandomTdWorkload(options);
  EXPECT_EQ(RunSerial(a).DeterministicSummary(),
            RunSerial(b).DeterministicSummary());
}

TEST(Workload, MakeWorkloadDispatchesAndRejects) {
  WorkloadOptions options;
  options.size = 3;
  EXPECT_TRUE(MakeWorkload("reduction-sweep", options).ok());
  EXPECT_TRUE(MakeWorkload("random", options).ok());
  Result<std::vector<Job>> bad = MakeWorkload("nope", options);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("reduction-sweep"), std::string::npos);
}

TEST(Workload, FileWorkloadUsesLastDependencyAsGoal) {
  std::string path = testing::TempDir() + "/engine_test_workload.td";
  {
    std::ofstream out(path);
    out << "schema A B\n"
           "td cross: R(a,b) & R(a2,b2) => R(a,b2)\n"
           "td chain: R(a,b) & R(a2,b2) & R(a3,b3) => R(a,b3)\n";
  }
  Result<std::vector<Job>> jobs = FileWorkload({path}, WorkloadOptions{});
  ASSERT_TRUE(jobs.ok()) << jobs.error();
  ASSERT_EQ(jobs.value().size(), 1u);
  EXPECT_EQ(jobs.value()[0].dependencies.items.size(), 1u);
  BatchSummary summary = RunSerial(jobs.value());
  EXPECT_EQ(summary.results[0].verdict, DualVerdict::kImplied);
  std::remove(path.c_str());
}

TEST(Workload, FileWorkloadRejectsSingleDependencyPrograms) {
  std::string path = testing::TempDir() + "/engine_test_short.td";
  {
    std::ofstream out(path);
    out << "schema A B\n"
           "td only: R(a,b) & R(a2,b2) => R(a,b2)\n";
  }
  Result<std::vector<Job>> jobs = FileWorkload({path}, WorkloadOptions{});
  EXPECT_FALSE(jobs.ok());
  std::remove(path.c_str());
}

// ---- JobResult plumbing ----------------------------------------------------

TEST(JobResult, CsvRowMatchesHeaderWidth) {
  JobResult r;
  r.name = "x";
  EXPECT_EQ(JobResult::CsvHeader().size(), r.CsvRow().size());
}

TEST(JobResult, DeterministicSummaryExcludesWallTime) {
  JobResult a, b;
  a.name = b.name = "x";
  a.status = b.status = JobStatus::kCompleted;
  a.wall_seconds = 1.0;
  b.wall_seconds = 2.0;
  EXPECT_EQ(a.DeterministicSummary(), b.DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
