// Tests for the asynchronous SolverService API: handles, cancellation,
// streaming completion callbacks, and budget-resume (src/engine/service.h,
// src/engine/job_handle.h).
#include "engine/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "engine/batch_solver.h"
#include "engine/workload.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/timer.h"

namespace tdlib {
namespace {

// Submits the pumping job and gives the single worker time to dequeue it,
// so later submissions are guaranteed to queue BEHIND a running job (sweep
// jobs carry nonzero priorities and would otherwise win a dequeue race).
JobHandle SubmitPinnedPumpingJob(SolverService* service, const Job& job) {
  JobHandle handle = service->Submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return handle;
}

// A job whose chase PUMPS FOREVER under unbounded budgets: the equation
// "A A0 = A0" puts A0 on an equation's right-hand side, so the expansion
// gadget applies to the goal's own frozen triangle and every fire feeds the
// next (see tests/chase_test.cc). With all limits zeroed, only cooperative
// cancellation can stop this job.
Job MakePumpingJob() {
  Presentation p;
  p.AddSymbol("A");
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  EXPECT_TRUE(red.ok());
  DualSolverConfig config;
  config.rounds = 1;
  config.base_chase.max_steps = 0;    // unlimited
  config.base_chase.max_tuples = 0;   // unlimited
  config.base_counterexample.max_tuples = 0;
  return Job{"pumping", red.value().dependencies(), red.value().goal(),
             config, 0};
}

// ---- Submit / Wait / Poll --------------------------------------------------

TEST(SolverService, ResultsMatchTheSerialReferenceByteForByte) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  ServiceOptions service_options;
  service_options.num_threads = 4;
  SolverService service(service_options);
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(service.Submit(job));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].Wait().DeterministicSummary(),
              serial.results[i].DeterministicSummary());
  }
}

TEST(SolverService, PollTransitionsFromNulloptToTheResult) {
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle handle = service.Submit(jobs[0]);
  // Poll never blocks; once Wait returns, Poll must agree with it.
  JobResult waited = handle.Wait();
  std::optional<JobResult> polled = handle.Poll();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->DeterministicSummary(), waited.DeterministicSummary());
  EXPECT_EQ(handle.name(), jobs[0].name);
}

TEST(SolverService, HandlesStayValidAfterTheServiceIsGone) {
  WorkloadOptions options;
  options.size = 2;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  std::vector<JobHandle> handles;
  {
    SolverService service;
    for (const Job& job : jobs) handles.push_back(service.Submit(job));
  }  // destructor waits for every job
  for (JobHandle& handle : handles) {
    std::optional<JobResult> r = handle.Poll();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, JobStatus::kCompleted);
  }
  // Resume needs the service; after it is gone the call fails cleanly.
  EXPECT_FALSE(handles[0].ResumeWithBudget(DualSolverConfig{}));
}

// ---- Streaming (on_complete) -----------------------------------------------

TEST(SolverService, OnCompleteFiresExactlyOncePerJobInCompletionOrder) {
  WorkloadOptions options;
  options.size = 8;
  std::vector<Job> jobs = ReductionSweepWorkload(options);

  std::mutex mu;
  std::vector<std::string> completed;
  ServiceOptions service_options;
  service_options.num_threads = 2;
  SolverService service(service_options);
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) {
    SubmitOptions submit;
    submit.on_complete = [&mu, &completed](const JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      completed.push_back(r.name);
    };
    handles.push_back(service.Submit(job, submit));
  }
  for (const JobHandle& handle : handles) handle.Wait();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(completed.size(), jobs.size());
  std::set<std::string> unique(completed.begin(), completed.end());
  EXPECT_EQ(unique.size(), jobs.size());  // each exactly once
}

TEST(SolverService, PerSubmissionPriorityOverridesJobPriority) {
  // A single worker, pinned by a pumping job while the real jobs are
  // submitted: the queue then drains in per-submission priority order
  // (which inverts both submission order and the jobs' own priorities),
  // observable through completion order.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle pumping = SubmitPinnedPumpingJob(&service, MakePumpingJob());

  WorkloadOptions options;
  options.size = 3;
  std::vector<Job> jobs = ReductionSweepWorkload(options);

  std::mutex mu;
  std::vector<std::string> completed;
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SubmitOptions submit;
    submit.priority = static_cast<int>(i);  // later submissions outrank
    submit.on_complete = [&mu, &completed](const JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      completed.push_back(r.name);
    };
    handles.push_back(service.Submit(jobs[i], submit));
  }
  // Only now release the worker: all three are queued, so the drain order
  // is purely the priority order.
  pumping.Cancel();
  pumping.Wait();
  for (const JobHandle& handle : handles) handle.Wait();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(completed, (std::vector<std::string>{jobs[2].name, jobs[1].name,
                                                 jobs[0].name}));
}

// ---- Cancellation ----------------------------------------------------------

TEST(SolverService, CancelStopsAPumpingJobPromptly) {
  // The job never terminates on its own (unbounded budgets, pumping chase);
  // Cancel from another thread must stop it within the cooperative-check
  // cadence. The generous outer bound keeps the test robust on slow CI; the
  // point is that Wait returns AT ALL, with kCancelled.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle handle = service.Submit(MakePumpingJob());

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(handle.Poll().has_value());  // genuinely still pumping
  Timer cancel_timer;
  EXPECT_TRUE(handle.Cancel());
  JobResult r = handle.Wait();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_EQ(std::string(r.VerdictName()), "CANCELLED");
  EXPECT_LT(cancel_timer.ElapsedSeconds(), 10.0);
}

TEST(SolverService, CancelQueuedJobMakesItTerminalWithoutRunning) {
  // One worker, occupied by a pumping job: the second submission stays
  // queued, so cancelling it must take effect at admission.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle pumping = SubmitPinnedPumpingJob(&service, MakePumpingJob());

  WorkloadOptions options;
  options.size = 1;
  JobHandle queued = service.Submit(ReductionSweepWorkload(options)[0]);
  EXPECT_TRUE(queued.Cancel());
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(queued.Wait().status, JobStatus::kCancelled);
  EXPECT_EQ(queued.Wait().chase_steps, 0u);  // never ran
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
}

TEST(SolverService, CancelFinishedJobIsAHarmlessNoOp) {
  WorkloadOptions options;
  options.size = 1;
  SolverService service;
  JobHandle handle = service.Submit(ReductionSweepWorkload(options)[0]);
  JobResult before = handle.Wait();
  EXPECT_EQ(before.status, JobStatus::kCompleted);
  EXPECT_FALSE(handle.Cancel());  // already terminal: refused
  JobResult after = handle.Wait();
  EXPECT_EQ(after.status, JobStatus::kCompleted);
  EXPECT_EQ(after.DeterministicSummary(), before.DeterministicSummary());
}

TEST(SolverService, CancelSkippedJobIsAHarmlessNoOp) {
  std::atomic<bool> gate{true};  // admission gate already closed
  WorkloadOptions options;
  options.size = 1;
  SolverService service;
  SubmitOptions submit;
  submit.skip_when = &gate;
  JobHandle handle = service.Submit(ReductionSweepWorkload(options)[0],
                                    submit);
  EXPECT_EQ(handle.Wait().status, JobStatus::kSkipped);
  EXPECT_FALSE(handle.Cancel());
  EXPECT_EQ(handle.Wait().status, JobStatus::kSkipped);
}

TEST(SolverService, QueuedJobReportsItsQueueWaitAndACacheHitReportsNone) {
  // One worker, occupied by a pumping job: the second submission waits in
  // the queue until the pumping job is cancelled.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);
  JobHandle pumping = SubmitPinnedPumpingJob(&service, MakePumpingJob());

  WorkloadOptions options;
  options.size = 1;
  const Job job = ReductionSweepWorkload(options)[0];
  JobHandle queued = service.Submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(pumping.Cancel());
  const JobResult ran = queued.Wait();
  EXPECT_EQ(ran.status, JobStatus::kCompleted);
  EXPECT_EQ(ran.cache_source, CacheSource::kMiss);
  EXPECT_GT(ran.queue_seconds, 0.0);

  // A hit is served inside Submit and never waits in the queue.
  const JobResult hit = service.Submit(job).Wait();
  EXPECT_EQ(hit.cache_source, CacheSource::kHit);
  EXPECT_EQ(hit.queue_seconds, 0.0);
}

// ---- Per-submission deadlines ----------------------------------------------

TEST(SolverService, ExpiredSubmissionDeadlineSkipsTheJob) {
  // One worker pinned by a pumping job; the second submission's deadline
  // expires while it queues, so admission skips it.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle pumping = SubmitPinnedPumpingJob(&service, MakePumpingJob());

  WorkloadOptions options;
  options.size = 1;
  SubmitOptions submit;
  submit.deadline_seconds = 1e-4;
  JobHandle late = service.Submit(ReductionSweepWorkload(options)[0], submit);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pumping.Cancel();
  EXPECT_EQ(late.Wait().status, JobStatus::kSkipped);
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
}

// ---- ResumeWithBudget ------------------------------------------------------

// The gap instance ("A A0 = A0" with the counterexample bound forced to 0)
// exhausts any chase budget with kUnknown — the resume workhorse.
Job MakeGapJob(std::uint64_t chase_steps, int rounds) {
  Presentation p;
  p.AddSymbol("A");
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  GurevichLewisReduction red =
      std::move(GurevichLewisReduction::Create(norm.normalized)).value();
  DualSolverConfig config;
  config.rounds = rounds;
  config.base_chase.max_steps = chase_steps;
  config.base_counterexample.max_tuples = 0;  // the empty DB never violates
  return Job{"gap", red.dependencies(), red.goal(), config, 0};
}

TEST(SolverService, ResumeWithBudgetContinuesAndMatchesFromScratch) {
  // Exhaust a small budget, resume with a bigger one; the final result must
  // be byte-identical to running the bigger budget from scratch — the
  // resumed chase continues its checkpoint instead of re-deriving, and the
  // cumulative counters are designed to make that invisible.
  SolverService service;
  JobHandle handle = service.Submit(MakeGapJob(/*chase_steps=*/50,
                                               /*rounds=*/1));
  JobResult first = handle.Wait();
  EXPECT_EQ(first.status, JobStatus::kCompleted);
  EXPECT_EQ(first.verdict, DualVerdict::kUnknown);
  EXPECT_EQ(first.chase_steps, 50u);

  Job big = MakeGapJob(/*chase_steps=*/400, /*rounds=*/1);
  ASSERT_TRUE(handle.ResumeWithBudget(big.config));
  JobResult resumed = handle.Wait();
  JobResult scratch = RunJob(big);
  EXPECT_EQ(resumed.DeterministicSummary(), scratch.DeterministicSummary());
  EXPECT_EQ(resumed.chase_steps, 400u);
}

TEST(SolverService, ResumeAfterResumeKeepsContinuing) {
  SolverService service;
  JobHandle handle = service.Submit(MakeGapJob(25, 1));
  handle.Wait();
  ASSERT_TRUE(handle.ResumeWithBudget(MakeGapJob(100, 1).config));
  handle.Wait();
  ASSERT_TRUE(handle.ResumeWithBudget(MakeGapJob(300, 1).config));
  JobResult resumed = handle.Wait();
  JobResult scratch = RunJob(MakeGapJob(300, 1));
  EXPECT_EQ(resumed.DeterministicSummary(), scratch.DeterministicSummary());
}

TEST(SolverService, SmallerBudgetResumeParksTheSessionForLater) {
  // Resuming with budgets BELOW the recorded progress must not destroy the
  // parked chase: the small run happens beside it, and a later bigger
  // resume still continues the original 50-step state (observable as
  // byte-identity with a from-scratch run at the big budget).
  SolverService service;
  JobHandle handle = service.Submit(MakeGapJob(/*chase_steps=*/50,
                                               /*rounds=*/1));
  EXPECT_EQ(handle.Wait().chase_steps, 50u);

  ASSERT_TRUE(handle.ResumeWithBudget(MakeGapJob(30, 1).config));
  EXPECT_EQ(handle.Wait().chase_steps, 30u);  // fresh throwaway run

  Job big = MakeGapJob(400, 1);
  ASSERT_TRUE(handle.ResumeWithBudget(big.config));
  JobResult resumed = handle.Wait();
  JobResult scratch = RunJob(big);
  EXPECT_EQ(resumed.DeterministicSummary(), scratch.DeterministicSummary());
}

TEST(SolverService, ResumeCanFlipAnUnknownIntoAVerdict) {
  // With enough budget the gap job's enumerator is still hobbled
  // (max_tuples=0), but a REAL sweep job refutes once the chase budget and
  // tuple bound grow: resume to a config with a working enumerator.
  Presentation p;
  p.AddSymbol("A");
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  GurevichLewisReduction red =
      std::move(GurevichLewisReduction::Create(norm.normalized)).value();
  DualSolverConfig small;
  small.rounds = 1;
  small.base_chase.max_steps = 100;
  small.base_counterexample.max_tuples = 0;
  Job job{"gap-escalate", red.dependencies(), red.goal(), small, 0};

  SolverService service;
  JobHandle handle = service.Submit(job);
  EXPECT_EQ(handle.Wait().verdict, DualVerdict::kUnknown);

  DualSolverConfig bigger = small;
  bigger.rounds = 2;
  bigger.base_chase.max_steps = 2000;
  bigger.base_counterexample.max_tuples = 3;
  ASSERT_TRUE(handle.ResumeWithBudget(bigger));
  EXPECT_EQ(handle.Wait().verdict, DualVerdict::kRefutedFinite);
}

TEST(SolverService, ResumeAfterQueuedCancelRunsExactlyOnce) {
  // A queued Cancel() leaves the original pool task orphaned in the queue;
  // a subsequent resume must not let that stale task and the resume's own
  // task both execute the run (they would race on the shared session and
  // double-fire the callback). Observable: exactly one callback per run —
  // the cancelled run's and the resumed run's, two in total.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  SolverService service(service_options);
  JobHandle pumping = SubmitPinnedPumpingJob(&service, MakePumpingJob());

  std::mutex mu;
  std::vector<std::string> callbacks;
  Job job = MakeGapJob(/*chase_steps=*/30, /*rounds=*/1);
  SubmitOptions submit;
  submit.on_complete = [&mu, &callbacks](const JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    callbacks.push_back(std::string(r.VerdictName()));
  };
  JobHandle handle = service.Submit(job, submit);

  EXPECT_TRUE(handle.Cancel());  // queued: terminal immediately...
  EXPECT_EQ(handle.Wait().status, JobStatus::kCancelled);
  // ...with its stale task still sitting in the queue behind the pump.
  ASSERT_TRUE(handle.ResumeWithBudget(job.config));
  pumping.Cancel();
  pumping.Wait();
  JobResult resumed = handle.Wait();
  EXPECT_EQ(resumed.status, JobStatus::kCompleted);
  EXPECT_EQ(resumed.DeterministicSummary(), RunJob(job).DeterministicSummary());
  service.WaitIdle();  // drain the orphaned task before counting

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(callbacks,
            (std::vector<std::string>{"CANCELLED", "UNKNOWN"}));
}

TEST(SolverService, ResumeWhileRunningIsRefused) {
  SolverService service;
  JobHandle handle = service.Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(handle.ResumeWithBudget(DualSolverConfig{}));
  handle.Cancel();
  EXPECT_EQ(handle.Wait().status, JobStatus::kCancelled);
}

TEST(SolverService, ResumeAfterCancelRunsAgainFromScratch) {
  // A cancelled run leaves no resumable checkpoint (searches were cut
  // mid-stream); Resume must still work, falling back to a fresh run.
  SolverService service;
  JobHandle handle = service.Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  handle.Cancel();
  EXPECT_EQ(handle.Wait().status, JobStatus::kCancelled);

  Job bounded = MakeGapJob(200, 1);
  ASSERT_TRUE(handle.ResumeWithBudget(bounded.config));
  JobResult resumed = handle.Wait();
  EXPECT_EQ(resumed.status, JobStatus::kCompleted);
  // The pumping job's (D, D0) equals the gap job's, so from-scratch under
  // the same budgets is the reference.
  JobResult scratch = RunJob(Job{"pumping", bounded.dependencies,
                                 bounded.goal, bounded.config, 0});
  EXPECT_EQ(resumed.DeterministicSummary(), scratch.DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
