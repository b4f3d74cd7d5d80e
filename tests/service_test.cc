// Tests for the asynchronous SolverService API — handles, cancellation,
// streaming completion callbacks, deadlines, priorities, admission and
// budget-resume (src/engine/service.h, src/engine/job_handle.h) — run over
// both execution backends: the local thread pool, and worker processes
// through ClusterRouter (src/cluster/router.h). The remote instances skip
// unless TDLIB_TDWORKER names the tdworker binary (ctest exports it).
// Remote-only behavior (wire, ring, crashes, hangs, migration) is
// tests/cluster_test.cc's.
#include "engine/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "cluster/router.h"
#include "engine/batch_solver.h"
#include "engine/workload.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/timer.h"

namespace tdlib {
namespace {

// ---- the two front doors ---------------------------------------------------

enum class BackendKind { kLocal, kRemote };

// One SolverService over the backend under test. Remote: one worker
// process per local thread the test asks for (at most two), spawned and on
// the ring before the test submits, so "the worker is busy" means the same
// thing on both backends.
class FrontDoor {
 public:
  FrontDoor(BackendKind kind, ServiceOptions options) {
    if (kind == BackendKind::kLocal) {
      local_ = std::make_unique<SolverService>(std::move(options));
      return;
    }
    ClusterOptions cluster;
    cluster.num_workers = std::clamp(options.num_threads, 1, 2);
    cluster.restart_backoff_seconds = 0.01;
    cluster.heartbeat_interval_seconds = 0.05;
    options.num_threads = 1;  // the local backend: fallback only
    router_ = std::make_unique<ClusterRouter>(cluster, std::move(options));
    for (int i = 0; i < 1000 && router_->Stats().workers_up <
                                    cluster.num_workers; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(router_->Stats().workers_up, cluster.num_workers);
  }

  SolverService& operator*() {
    return local_ != nullptr ? *local_ : router_->service();
  }
  SolverService* operator->() { return &**this; }

 private:
  std::unique_ptr<SolverService> local_;
  std::unique_ptr<ClusterRouter> router_;
};

ServiceOptions Threads(int n) {
  ServiceOptions options;
  options.num_threads = n;
  return options;
}

class FrontDoorTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    const char* worker = std::getenv("TDLIB_TDWORKER");
    if (GetParam() == BackendKind::kRemote &&
        (worker == nullptr || worker[0] == '\0')) {
      GTEST_SKIP() << "TDLIB_TDWORKER not set (ctest exports it when the "
                      "tdworker example target is built)";
    }
  }

  std::unique_ptr<FrontDoor> Open(ServiceOptions options = Threads(1)) {
    return std::make_unique<FrontDoor>(GetParam(), std::move(options));
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, FrontDoorTest,
    ::testing::Values(BackendKind::kLocal, BackendKind::kRemote),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return info.param == BackendKind::kLocal ? "Local" : "Remote";
    });

// Submits the pumping job and gives the single worker time to pick it up,
// so later submissions are guaranteed to queue BEHIND a running job (sweep
// jobs carry nonzero priorities and would otherwise win a dequeue race).
JobHandle SubmitPinnedPumpingJob(SolverService* service, const Job& job,
                                 SubmitOptions submit = {}) {
  JobHandle handle = service->Submit(job, std::move(submit));
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

Job SweepJob() {
  WorkloadOptions options;
  options.size = 1;
  return ReductionSweepWorkload(options)[0];
}

// ---- Submit / Wait / Poll --------------------------------------------------

TEST_P(FrontDoorTest, ResultsMatchTheSerialReferenceByteForByte) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  auto door = Open(Threads(4));
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back((*door)->Submit(job));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].Wait().DeterministicSummary(),
              serial.results[i].DeterministicSummary());
  }
}

TEST_P(FrontDoorTest, PollTransitionsFromNulloptToTheResult) {
  auto door = Open();
  const Job job = SweepJob();
  JobHandle handle = (*door)->Submit(job);
  // Poll never blocks; once Wait returns, Poll must agree with it.
  JobResult waited = handle.Wait();
  std::optional<JobResult> polled = handle.Poll();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->DeterministicSummary(), waited.DeterministicSummary());
  EXPECT_EQ(handle.name(), job.name);
}

TEST_P(FrontDoorTest, HandlesStayValidAfterTheServiceIsGone) {
  WorkloadOptions options;
  options.size = 2;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  std::vector<JobHandle> handles;
  {
    auto door = Open(Threads(2));
    for (const Job& job : jobs) handles.push_back((*door)->Submit(job));
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

TEST_P(FrontDoorTest, OnCompleteFiresExactlyOncePerJobInCompletionOrder) {
  WorkloadOptions options;
  options.size = 8;
  std::vector<Job> jobs = ReductionSweepWorkload(options);

  std::mutex mu;
  std::vector<std::string> completed;
  auto door = Open(Threads(2));
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) {
    SubmitOptions submit;
    submit.on_complete = [&mu, &completed](const JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      completed.push_back(r.name);
    };
    handles.push_back((*door)->Submit(job, submit));
  }
  for (const JobHandle& handle : handles) handle.Wait();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(completed.size(), jobs.size());
  std::set<std::string> unique(completed.begin(), completed.end());
  EXPECT_EQ(unique.size(), jobs.size());  // each exactly once
}

TEST_P(FrontDoorTest, PerSubmissionPriorityOverridesJobPriority) {
  // A single worker, pinned by a pumping job while the real jobs are
  // submitted: the queue then drains in per-submission priority order
  // (which inverts both submission order and the jobs' own priorities),
  // observable through completion order.
  auto door = Open();
  JobHandle pumping = SubmitPinnedPumpingJob(&**door, MakePumpingJob());

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
    handles.push_back((*door)->Submit(jobs[i], submit));
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

// A completion callback may re-enter the service: here it cancels a
// sibling that pins the worker and submits a follow-up job, which only
// runs once that cancel has taken hold.
TEST_P(FrontDoorTest, OnCompleteMayCancelASiblingAndSubmitAFollowUp) {
  auto door = Open();
  std::promise<JobHandle> sibling;
  std::shared_future<JobHandle> sibling_handle = sibling.get_future().share();
  std::promise<JobHandle> follow_up;
  std::future<JobHandle> follow_up_handle = follow_up.get_future();
  const Job first = MakeGapJob(/*chase_steps=*/200, /*rounds=*/1);
  Job next = SweepJob();
  SolverService* service = &**door;

  SubmitOptions submit;
  submit.on_complete = [&, service](const JobResult&) {
    EXPECT_TRUE(sibling_handle.get().Cancel());
    follow_up.set_value(service->Submit(next));
  };
  JobHandle handle = (*door)->Submit(first, submit);
  sibling.set_value((*door)->Submit(MakePumpingJob()));

  EXPECT_EQ(handle.Wait().DeterministicSummary(),
            RunJob(first).DeterministicSummary());
  EXPECT_EQ(sibling_handle.get().Wait().status, JobStatus::kCancelled);
  const JobResult after = follow_up_handle.get().Wait();
  EXPECT_EQ(after.status, JobStatus::kCompleted);
  EXPECT_EQ(after.DeterministicSummary(), RunJob(next).DeterministicSummary());
}

// ---- Cancellation ----------------------------------------------------------

TEST_P(FrontDoorTest, CancelStopsAPumpingJobPromptly) {
  // The job never terminates on its own (unbounded budgets, pumping chase);
  // Cancel from another thread must stop it within the cooperative-check
  // cadence — remotely, through the cancel frame. The generous outer bound
  // keeps the test robust on slow CI; the point is that Wait returns AT
  // ALL, with kCancelled.
  auto door = Open();
  JobHandle handle = (*door)->Submit(MakePumpingJob());

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(handle.Poll().has_value());  // genuinely still pumping
  Timer cancel_timer;
  EXPECT_TRUE(handle.Cancel());
  JobResult r = handle.Wait();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_EQ(std::string(r.VerdictName()), "CANCELLED");
  EXPECT_LT(cancel_timer.ElapsedSeconds(), 10.0);
}

TEST_P(FrontDoorTest, CancelQueuedJobMakesItTerminalWithoutRunning) {
  // One worker, occupied by a pumping job: the second submission stays
  // queued, so cancelling it must take effect at admission.
  auto door = Open();
  JobHandle pumping = SubmitPinnedPumpingJob(&**door, MakePumpingJob());

  JobHandle queued = (*door)->Submit(SweepJob());
  EXPECT_TRUE(queued.Cancel());
  EXPECT_EQ(queued.Wait().status, JobStatus::kCancelled);  // before the pump
  EXPECT_EQ(queued.Wait().chase_steps, 0u);  // never ran
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
}

TEST_P(FrontDoorTest, CancelFinishedJobIsAHarmlessNoOp) {
  auto door = Open();
  JobHandle handle = (*door)->Submit(SweepJob());
  JobResult before = handle.Wait();
  EXPECT_EQ(before.status, JobStatus::kCompleted);
  EXPECT_FALSE(handle.Cancel());  // already terminal: refused
  JobResult after = handle.Wait();
  EXPECT_EQ(after.status, JobStatus::kCompleted);
  EXPECT_EQ(after.DeterministicSummary(), before.DeterministicSummary());
}

TEST_P(FrontDoorTest, CancelSkippedJobIsAHarmlessNoOp) {
  std::atomic<bool> gate{true};  // admission gate already closed
  auto door = Open();
  SubmitOptions submit;
  submit.skip_when = &gate;
  JobHandle handle = (*door)->Submit(SweepJob(), submit);
  EXPECT_EQ(handle.Wait().status, JobStatus::kSkipped);
  EXPECT_FALSE(handle.Cancel());
  EXPECT_EQ(handle.Wait().status, JobStatus::kSkipped);
}

TEST_P(FrontDoorTest, QueuedJobReportsItsQueueWaitAndACacheHitReportsNone) {
  // One worker, occupied by a pumping job: the second submission waits in
  // the queue until the pumping job is cancelled.
  ServiceOptions options = Threads(1);
  options.result_cache = std::make_shared<ResultCache>();
  auto door = Open(options);
  JobHandle pumping = SubmitPinnedPumpingJob(&**door, MakePumpingJob());

  const Job job = SweepJob();
  JobHandle queued = (*door)->Submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(pumping.Cancel());
  const JobResult ran = queued.Wait();
  EXPECT_EQ(ran.status, JobStatus::kCompleted);
  EXPECT_EQ(ran.cache_source, CacheSource::kMiss);
  EXPECT_GT(ran.queue_seconds, 0.0);

  // A hit is served inside Submit and never waits in the queue.
  const JobResult hit = (*door)->Submit(job).Wait();
  EXPECT_EQ(hit.cache_source, CacheSource::kHit);
  EXPECT_EQ(hit.queue_seconds, 0.0);
}

// ---- Per-submission deadlines ----------------------------------------------

TEST_P(FrontDoorTest, ExpiredSubmissionDeadlineSkipsTheJob) {
  // One worker pinned by a pumping job; the second submission's deadline
  // expires while it queues, so pickup skips it.
  auto door = Open();
  JobHandle pumping = SubmitPinnedPumpingJob(&**door, MakePumpingJob());

  SubmitOptions submit;
  submit.deadline_seconds = 1e-4;
  JobHandle late = (*door)->Submit(SweepJob(), submit);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pumping.Cancel();
  EXPECT_EQ(late.Wait().status, JobStatus::kSkipped);
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
}

// ---- Admission ---------------------------------------------------------------

TEST_P(FrontDoorTest, QueueDepthShedsOverflowAsSkipped) {
  ServiceOptions options = Threads(1);
  options.max_queue_depth = 1;
  auto door = Open(options);
  // One job running, one queued; everything beyond that sheds, and
  // TrySubmit declines without publishing.
  JobHandle running = SubmitPinnedPumpingJob(&**door, MakePumpingJob());
  JobHandle queued = (*door)->Submit(SweepJob());
  JobHandle shed = (*door)->Submit(MakeGapJob(30, 1));
  EXPECT_EQ(shed.Wait().status, JobStatus::kSkipped);  // terminal at once
  JobHandle refused;
  EXPECT_FALSE((*door)->TrySubmit(MakeGapJob(30, 1), {}, &refused));
  EXPECT_FALSE(refused.valid());

  running.Cancel();
  EXPECT_EQ(queued.Wait().status, JobStatus::kCompleted);
  EXPECT_EQ(running.Wait().status, JobStatus::kCancelled);
}

TEST_P(FrontDoorTest, TenantQuotaShedsOverflowAsSkipped) {
  ServiceOptions options = Threads(1);
  options.tenant_quota = 1;
  auto door = Open(options);
  SubmitOptions tenant_a;
  tenant_a.tenant = "a";
  JobHandle occupant =
      SubmitPinnedPumpingJob(&**door, MakePumpingJob(), tenant_a);
  // While the occupant holds tenant a's single slot, more submissions from
  // a shed; another tenant is unaffected (it queues behind the occupant).
  EXPECT_EQ((*door)->Submit(SweepJob(), tenant_a).Wait().status,
            JobStatus::kSkipped);
  SubmitOptions tenant_b;
  tenant_b.tenant = "b";
  JobHandle other = (*door)->Submit(SweepJob(), tenant_b);
  occupant.Cancel();
  EXPECT_EQ(occupant.Wait().status, JobStatus::kCancelled);
  EXPECT_EQ(other.Wait().status, JobStatus::kCompleted);
  // The occupant's publication freed the slot.
  EXPECT_EQ((*door)->Submit(SweepJob(), tenant_a).Wait().status,
            JobStatus::kCompleted);
}

// ---- ResumeWithBudget ------------------------------------------------------

TEST_P(FrontDoorTest, ResumeWithBudgetMatchesAFromScratchRun) {
  // Exhaust a small budget, resume with a bigger one; the final result must
  // be byte-identical to running the bigger budget from scratch (locally
  // the resumed chase continues its checkpoint instead of re-deriving, and
  // the cumulative counters are designed to make that invisible).
  auto door = Open();
  JobHandle handle = (*door)->Submit(MakeGapJob(/*chase_steps=*/50,
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

TEST_P(FrontDoorTest, ResumeAfterResumeKeepsContinuing) {
  auto door = Open();
  JobHandle handle = (*door)->Submit(MakeGapJob(25, 1));
  handle.Wait();
  ASSERT_TRUE(handle.ResumeWithBudget(MakeGapJob(100, 1).config));
  handle.Wait();
  ASSERT_TRUE(handle.ResumeWithBudget(MakeGapJob(300, 1).config));
  JobResult resumed = handle.Wait();
  JobResult scratch = RunJob(MakeGapJob(300, 1));
  EXPECT_EQ(resumed.DeterministicSummary(), scratch.DeterministicSummary());
}

TEST_P(FrontDoorTest, ResumeCanFlipAnUnknownIntoAVerdict) {
  // With enough budget the gap job's enumerator is still hobbled
  // (max_tuples=0), but it refutes once the chase budget and tuple bound
  // grow: resume to a config with a working enumerator.
  Job job = MakeGapJob(/*chase_steps=*/100, /*rounds=*/1);
  job.name = "gap-escalate";
  auto door = Open();
  JobHandle handle = (*door)->Submit(job);
  EXPECT_EQ(handle.Wait().verdict, DualVerdict::kUnknown);

  DualSolverConfig bigger = job.config;
  bigger.rounds = 2;
  bigger.base_chase.max_steps = 2000;
  bigger.base_counterexample.max_tuples = 3;
  ASSERT_TRUE(handle.ResumeWithBudget(bigger));
  EXPECT_EQ(handle.Wait().verdict, DualVerdict::kRefutedFinite);
}

TEST_P(FrontDoorTest, ResumeAfterQueuedCancelRunsExactlyOnce) {
  // A queued Cancel() leaves the original queue entry orphaned; a
  // subsequent resume must not let that stale entry and the resume's own
  // both execute the run (they would race on the shared session and
  // double-fire the callback). Observable: exactly one callback per run —
  // the cancelled run's and the resumed run's, two in total.
  auto door = Open();
  JobHandle pumping = SubmitPinnedPumpingJob(&**door, MakePumpingJob());

  std::mutex mu;
  std::vector<std::string> callbacks;
  Job job = MakeGapJob(/*chase_steps=*/30, /*rounds=*/1);
  SubmitOptions submit;
  submit.on_complete = [&mu, &callbacks](const JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    callbacks.push_back(std::string(r.VerdictName()));
  };
  JobHandle handle = (*door)->Submit(job, submit);

  EXPECT_TRUE(handle.Cancel());  // queued: terminal immediately...
  EXPECT_EQ(handle.Wait().status, JobStatus::kCancelled);
  // ...with its stale entry still sitting in the queue behind the pump.
  ASSERT_TRUE(handle.ResumeWithBudget(job.config));
  pumping.Cancel();
  pumping.Wait();
  JobResult resumed = handle.Wait();
  EXPECT_EQ(resumed.status, JobStatus::kCompleted);
  EXPECT_EQ(resumed.DeterministicSummary(), RunJob(job).DeterministicSummary());
  (*door)->WaitIdle();  // drain the orphaned entry before counting

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(callbacks,
            (std::vector<std::string>{"CANCELLED", "UNKNOWN"}));
}

TEST_P(FrontDoorTest, ResumeWhileRunningIsRefused) {
  auto door = Open();
  JobHandle handle = (*door)->Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(handle.ResumeWithBudget(DualSolverConfig{}));
  handle.Cancel();
  EXPECT_EQ(handle.Wait().status, JobStatus::kCancelled);
}

TEST_P(FrontDoorTest, ResumeAfterCancelRunsAgainFromScratch) {
  // A cancelled run leaves no resumable checkpoint (searches were cut
  // mid-stream); Resume must still work, falling back to a fresh run.
  auto door = Open();
  JobHandle handle = (*door)->Submit(MakePumpingJob());
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

// ---- Local only: the retained ChaseSession ---------------------------------

TEST(SolverService, SmallerBudgetResumeParksTheSessionForLater) {
  // Resuming with budgets BELOW the recorded progress must not destroy the
  // parked chase: the small run happens beside it, and a later bigger
  // resume still continues the original 50-step state (observable as
  // byte-identity with a from-scratch run at the big budget). Remote runs
  // re-derive instead: workers do not ship a budget-stopped session back.
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

}  // namespace
}  // namespace tdlib
