// The remote-only half of the cluster suite: wire protocol round trips,
// socket fault sites, and — when a tdworker binary is available (ctest
// exports TDLIB_TDWORKER) — real multi-process legs: kill-a-worker-mid-chase
// recovery, heartbeat kills, the local backend taking over when every
// worker is down, and exactly-once completion across crash/retry races.
// What every front door must do (parity, cancel, deadlines, priorities,
// shedding, resume, the result cache) is tests/service_test.cc's suite,
// parametrized over the local and the remote backend.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.h"
#include "cluster/router.h"
#include "cluster/sender.h"
#include "cluster/wire.h"
#include "core/parser.h"
#include "engine/workload.h"
#include "fuzz/fuzz.h"
#include "logic/schema.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/fault.h"

namespace tdlib {
namespace {

// ---- shared fixtures -------------------------------------------------------

// Sanitizer builds run a worker far slower than Release (ASan+UBSan Debug
// takes ~7 s for the pad-3 gap job below, against ~0.15-0.25 s), and a
// worker starved by its own instrumentation can answer a ping later than a
// Release-sized heartbeat timeout allows. Timing windows that a worker must
// meet are multiplied by this factor. The gap jobs stretch with the
// instrumentation by more than the factor on their own, so a heartbeat kill
// still lands while a chase is running.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kSanitizerScale = 10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr double kSanitizerScale = 10;
#else
constexpr double kSanitizerScale = 1;
#endif
#else
constexpr double kSanitizerScale = 1;
#endif

Job MakeSmallJob(const std::string& name) {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  Result<Dependency> premise = ParseDependency(
      schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  Result<Dependency> goal = ParseDependency(
      schema, "R(a,b,c) & R(a2,b,c2) => R(a,b,c2)");
  EXPECT_TRUE(premise.ok() && goal.ok());
  DependencySet deps;
  deps.Add(premise.value(), "pump");
  Job job{name, std::move(deps), goal.value(), DualSolverConfig{}, 0};
  job.config.rounds = 1;
  job.config.base_chase.max_steps = 60;
  job.config.base_counterexample.max_tuples = 2;
  return job;
}

/// MakeSmallJob's problem built the Dependency::Builder way, pre-declaring
/// variables, some of which no row uses: attribute A of the goal has three
/// variables for its two rows.
Job MakeJobWithUnusedVariables(const std::string& name) {
  Job job = MakeSmallJob(name);
  const SchemaPtr schema = job.goal.schema_ptr();
  Dependency::Builder premise(schema);
  const int a = premise.Var(0, "a"), a9 = premise.Var(0, "a9");
  premise.Var(0, "unused_a");
  const int b = premise.Var(1, "b"), b2 = premise.Var(1, "b2");
  premise.Var(2, "unused_c");
  const int c = premise.Var(2, "c"), c2 = premise.Var(2, "c2");
  premise.AddBodyRow({a, b, c});
  premise.AddBodyRow({a, b2, c2});
  premise.AddHeadRow({a9, b, c2});
  Dependency::Builder goal(schema);
  const int x = goal.Var(0, "x");
  goal.Var(0, "unused_x1");
  goal.Var(0, "unused_x2");
  const int y = goal.Var(1, "y"), z = goal.Var(2, "z");
  goal.AddBodyRow({x, y, z});
  goal.AddHeadRow({x, y, z});
  DependencySet deps;
  deps.Add(std::move(premise).Build().value(), "pump");
  job.dependencies = std::move(deps);
  job.goal = std::move(goal).Build().value();
  return job;
}

/// A deliberately long-running job: a gap-regime reduction instance whose
/// chase side pumps forever, with the counterexample budget starved to one
/// tuple so the verdict stays kUnknown and the run reliably consumes its
/// whole step budget. Runtime is a staircase in the budget, not a line
/// (pad 0 runs 20 ms at 5500 steps and 2.2 s at 6000): in Release on a
/// 4-vCPU x86 host it is ~12 ms at pad 0 and ~40 ms at pad 3 at 2000 steps,
/// and ~90-125 ms at pad 3 at 10000 steps.
/// A test that sleeps before killing the worker gives each such job a
/// budget that runs at least 4x its sleep, so SIGKILL lands mid-chase with
/// room to spare; the low-budget jobs queued behind a pump need no such
/// margin.
Job MakeGapJob(const std::string& name, int pad, std::uint64_t max_steps) {
  WorkloadOptions workload_options;
  workload_options.size = 3 * (pad + 1);
  std::vector<Job> jobs = ReductionSweepWorkload(workload_options);
  Job job = jobs[static_cast<std::size_t>(3 * pad + 2)];
  job.name = name;
  job.config.rounds = 1;
  job.config.base_chase.max_steps = max_steps;
  job.config.base_chase.max_tuples = 100000;
  job.config.base_counterexample.max_tuples = 1;
  return job;
}

/// A job whose chase pumps forever under unbounded budgets (see
/// tests/service_test.cc): only a cancel stops it, so it pins the worker
/// running it for as long as a test needs.
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
  config.base_chase.max_steps = 0;  // unlimited
  config.base_chase.max_tuples = 0;
  config.base_counterexample.max_tuples = 0;
  return Job{"pumping", red.value().dependencies(), red.value().goal(),
             config, 0};
}

/// Spins until `pred` holds (asynchronous supervision bookkeeping — crash
/// detection, heartbeat timeouts — trails the job results it causes).
template <typename Pred>
bool PollUntil(Pred pred, double seconds = 10.0 * kSanitizerScale) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

bool HaveWorkerBinary() {
  const char* env = std::getenv("TDLIB_TDWORKER");
  return env != nullptr && env[0] != '\0';
}

#define SKIP_WITHOUT_WORKER()                                         \
  if (!HaveWorkerBinary()) {                                          \
    GTEST_SKIP() << "TDLIB_TDWORKER not set (ctest exports it when "  \
                    "the tdworker example target is built)";          \
  }

ClusterOptions FastOptions(int workers) {
  ClusterOptions options;
  options.num_workers = workers;
  options.restart_backoff_seconds = 0.01;
  options.restart_backoff_cap_seconds = 0.1;
  options.heartbeat_interval_seconds = 0.05;
  options.heartbeat_timeout_seconds = 2.0;
  return options;
}

// Polls until `n` workers are up; false after 10 s.
bool WaitForWorkersUp(const ClusterRouter& router, std::int64_t n) {
  for (int i = 0; i < 1000; ++i) {
    if (router.Stats().workers_up >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// ---- wire protocol ---------------------------------------------------------

TEST(ClusterWireTest, FrameRoundTripsWithTrailingData) {
  const std::string payload = "the payload";
  std::string bytes = EncodeFrame(FrameType::kJob, payload);
  bytes += "trailing bytes of the NEXT frame";
  std::size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().type, FrameType::kJob);
  EXPECT_EQ(frame.value().payload, payload);
  EXPECT_EQ(consumed, kFrameHeaderSize + payload.size());
}

TEST(ClusterWireTest, FrameRejectsHeaderDamage) {
  const std::string healthy = EncodeFrame(FrameType::kPing, "x");
  struct Case {
    std::size_t offset;
    char value;
    const char* what;
  };
  const Case cases[] = {
      {0, 'X', "bad magic"},
      {3, '1', "old TDF1 magic"},
      {3, '2', "old TDF2 magic"},
      {3, '3', "old TDF3 magic"},
      {4, 99, "unknown type"},
      {5, 1, "reserved byte"},
      {11, 0x7f, "over-cap length"},
      {12, 'X', "hash mismatch"},
  };
  for (const Case& c : cases) {
    std::string damaged = healthy;
    damaged[c.offset] = c.value;
    Result<Frame> frame = DecodeFrame(damaged, nullptr);
    ASSERT_FALSE(frame.ok()) << c.what;
    EXPECT_EQ(frame.code(), ErrorCode::kCorrupt) << c.what;
  }
  // Truncation at every prefix length short of the full frame.
  for (std::size_t n = 0; n < healthy.size(); ++n) {
    Result<Frame> frame = DecodeFrame(std::string_view(healthy).substr(0, n),
                                      nullptr);
    ASSERT_FALSE(frame.ok()) << "prefix " << n;
    EXPECT_EQ(frame.code(), ErrorCode::kCorrupt) << "prefix " << n;
  }
}

TEST(ClusterWireTest, WellFormedTdf3FrameIsRejectedByItsMagic) {
  // A frame from a peer one protocol version back: every field but the
  // magic is valid (the hash covers the payload only).
  std::string frame = EncodeFrame(FrameType::kHello, "tdhello 1 1");
  ASSERT_EQ(frame.substr(0, 4), "TDF4");
  frame[3] = '3';
  Result<Frame> decoded = DecodeFrame(frame, nullptr);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kCorrupt);
  EXPECT_NE(decoded.error().find("magic"), std::string::npos)
      << decoded.error();
}

TEST(ClusterWireTest, JobPayloadFromThePreviousVersionIsRefused) {
  // Job and result payloads open with their tag and their version, both
  // little-endian u32s. A peer one payload version back (5) sends a
  // canonical fingerprint in each job, so the decoders must refuse its
  // payloads at the version, not misread them.
  const std::string current("\x06\0\0\0", 4);
  std::string job = EncodeJobPayload(WireJob(MakeSmallJob("old peer")));
  ASSERT_GE(job.size(), 8u);
  ASSERT_EQ(job.substr(4, 4), current);
  job[4] = 5;
  Result<WireJob> decoded_job = DecodeJobPayload(job);
  ASSERT_FALSE(decoded_job.ok());
  EXPECT_EQ(decoded_job.code(), ErrorCode::kCorrupt);
  EXPECT_NE(decoded_job.error().find("unsupported version"), std::string::npos)
      << decoded_job.error();

  WireResult wire_result;
  wire_result.job_id = 1;
  wire_result.result.name = "old peer";
  std::string result = EncodeResultPayload(wire_result);
  ASSERT_GE(result.size(), 8u);
  ASSERT_EQ(result.substr(4, 4), current);
  result[4] = 5;
  Result<WireResult> decoded_result = DecodeResultPayload(result);
  ASSERT_FALSE(decoded_result.ok());
  EXPECT_EQ(decoded_result.code(), ErrorCode::kCorrupt);
  EXPECT_NE(decoded_result.error().find("unsupported version"),
            std::string::npos)
      << decoded_result.error();
}

TEST(ClusterWireTest, JobPayloadRoundTripPreservesSemantics) {
  Job job = MakeSmallJob("round trip job");
  job.priority = 7;
  job.config.base_chase.hom_max_nodes = 12345;
  job.config.base_chase.use_delta = false;
  job.config.base_counterexample.max_candidates = 99;

  WireJob wire_job(job);
  wire_job.job_id = 42;

  Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const WireJob& got = decoded.value();
  EXPECT_EQ(got.job_id, 42u);
  EXPECT_EQ(got.job.name, "round trip job");
  EXPECT_EQ(got.job.priority, 7);
  EXPECT_EQ(got.job.config.base_chase.hom_max_nodes, 12345u);
  EXPECT_FALSE(got.job.config.base_chase.use_delta);
  EXPECT_EQ(got.job.config.base_counterexample.max_candidates, 99u);
  // The program may be canonically renamed in flight; the contract is that
  // every deterministic result byte survives, so compare solver outputs.
  EXPECT_EQ(RunJob(job).DeterministicSummary(),
            RunJob(got.job).DeterministicSummary());
}

// Every deterministic result byte and the canonical fingerprint survive
// the binary job codec, over random TDs, reduction-sweep instances and
// pumping gadgets (the fuzz generator's three families) plus the sweep
// tdbatch runs.
TEST(ClusterWireTest, JobPayloadRoundTripKeepsSummariesAndFingerprints) {
  std::vector<Job> jobs;
  FuzzOptions fuzz;
  fuzz.cases_per_round = 25;
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (Job& job : GenerateFuzzCases(fuzz, round)) {
      jobs.push_back(std::move(job));
    }
  }
  WorkloadOptions sweep;
  sweep.size = 12;
  // The fuzz budget keeps the sweep's pumping gap jobs short (sanitizer
  // builds run this test too); the codec sees the same dependencies.
  sweep.solver.base_chase.max_steps = fuzz.base_steps;
  for (Job& job : ReductionSweepWorkload(sweep)) jobs.push_back(std::move(job));
  ASSERT_GE(jobs.size(), 200u);

  for (const Job& job : jobs) {
    WireJob wire_job(job);
    wire_job.job_id = 5;
    Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
    ASSERT_TRUE(decoded.ok()) << job.name << ": " << decoded.error();
    const Job& got = decoded.value().job;
    EXPECT_EQ(got.name, job.name);
    EXPECT_EQ(got.dependencies.items.size(), job.dependencies.items.size());
    EXPECT_EQ(FingerprintProblem(got.dependencies, got.goal, got.config),
              FingerprintProblem(job.dependencies, job.goal, job.config))
        << job.name;
    EXPECT_EQ(CanonicalProblemText(got.dependencies, got.goal, got.config),
              CanonicalProblemText(job.dependencies, job.goal, job.config))
        << job.name;
    EXPECT_EQ(RunJob(got).DeterministicSummary(),
              RunJob(job).DeterministicSummary())
        << job.name;
  }
}

// A declared variable that no row uses is not sent: the decoded job has
// the same canonical problem and solves to the same result.
TEST(ClusterWireTest, UnusedDeclaredVariablesAreDroppedInFlight) {
  const Job job = MakeJobWithUnusedVariables("unused variables");
  ASSERT_EQ(job.goal.body().NumVars(0), 3);
  Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(WireJob(job)));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const Job& got = decoded.value().job;
  EXPECT_EQ(got.goal.body().NumVars(0), 1);
  EXPECT_EQ(got.dependencies.items[0].body().NumVars(0), 2);
  EXPECT_EQ(got.dependencies.items[0].body().NumVars(2), 2);
  EXPECT_EQ(FingerprintProblem(got.dependencies, got.goal, got.config),
            FingerprintProblem(job.dependencies, job.goal, job.config));
  EXPECT_EQ(RunJob(got).DeterministicSummary(),
            RunJob(job).DeterministicSummary());
}

TEST(ClusterWireTest, ResultPayloadRoundTripsEveryField) {
  WireResult wire_result;
  wire_result.job_id = 7;
  wire_result.running_job_id = 9;
  JobResult& r = wire_result.result;
  r.name = "a name with spaces";
  r.status = JobStatus::kCompleted;
  r.verdict = DualVerdict::kRefutedFinite;
  r.rounds_used = 2;
  r.chase_steps = 11;
  r.chase_passes = 3;
  r.hom_nodes = 101;
  r.match_tasks = 5;
  r.carried_passes = 1;
  r.candidates_checked = 77;
  r.cache_source = CacheSource::kHit;
  r.wall_seconds = 0.25;

  Result<WireResult> decoded =
      DecodeResultPayload(EncodeResultPayload(wire_result));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const WireResult& got = decoded.value();
  EXPECT_EQ(got.job_id, 7u);
  EXPECT_EQ(got.running_job_id, 9u);
  EXPECT_EQ(got.result.DeterministicSummary(), r.DeterministicSummary());
  EXPECT_EQ(got.result.cache_source, CacheSource::kHit);
  EXPECT_EQ(got.result.wall_seconds, r.wall_seconds);
}

// ---- frame sender ----------------------------------------------------------

// A flush never waits on the socket: a frame far larger than the socket
// buffer, with nobody reading the other end, is left to the writer thread,
// and frames queued behind it still arrive whole and in order.
TEST(ClusterSenderTest, FlushDoesNotBlockOnAFullSocket) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int errors = 0;
  FrameSender sender(fds[0], [&errors] { ++errors; });
  const std::string big(8u << 20, 'x');
  sender.Queue(FrameType::kJob, big);
  // Flushed on another thread, so a flush that did block would fail here
  // and then be released by the reads below.
  std::future<void> flushed =
      std::async(std::launch::async, [&sender] { sender.Flush(); });
  EXPECT_EQ(flushed.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  sender.Queue(FrameType::kPing, "1");
  sender.Flush();
  Result<Frame> first = ReadFrameFromFd(fds[1]);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value().type, FrameType::kJob);
  EXPECT_EQ(first.value().payload, big);
  Result<Frame> second = ReadFrameFromFd(fds[1]);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value().type, FrameType::kPing);
  EXPECT_EQ(second.value().payload, "1");
  sender.Close();
  EXPECT_EQ(errors, 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ClusterSenderTest, AWriteToAGonePeerReportsOnce) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  int errors = 0;
  FrameSender sender(fds[0], [&errors] { ++errors; });
  sender.Queue(FrameType::kPing, "1");
  sender.Flush();
  sender.Queue(FrameType::kPing, "2");  // dropped: the sender has failed
  sender.Flush();
  sender.Close();
  EXPECT_EQ(errors, 1);
  ::close(fds[0]);
}

// ---- fault sites on the socket paths ---------------------------------------

class ClusterFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAllFaults(); }
  void TearDown() override { DisarmAllFaults(); }
};

TEST_F(ClusterFaultTest, SocketWriteFaultFailsTheWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ArmFault(FaultSite::kSocketWrite, 1);
  EXPECT_FALSE(WriteFrameToFd(fds[0], FrameType::kPing, "x"));
  EXPECT_EQ(FaultInjectionCount(FaultSite::kSocketWrite), 1u);
  // Disarmed after firing once: the next write goes through.
  EXPECT_TRUE(WriteFrameToFd(fds[0], FrameType::kPing, "x"));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ClusterFaultTest, SocketReadFaultTruncatesTheStream) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrameToFd(fds[0], FrameType::kPing, "payload"));
  ArmFault(FaultSite::kSocketRead, 2);  // cut mid-frame, not at the boundary
  Result<Frame> frame = ReadFrameFromFd(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.code(), ErrorCode::kCorrupt);
  EXPECT_EQ(FaultInjectionCount(FaultSite::kSocketRead), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ClusterFaultTest, FrameCorruptFaultIsRejectedByTheReceiver) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ArmFault(FaultSite::kFrameCorrupt, 1);
  ASSERT_TRUE(WriteFrameToFd(fds[0], FrameType::kJob,
                             "a payload long enough to damage"));
  EXPECT_EQ(FaultInjectionCount(FaultSite::kFrameCorrupt), 1u);
  ::shutdown(fds[0], SHUT_WR);
  Result<Frame> frame = ReadFrameFromFd(fds[1]);
  // The payload was damaged before framing, so the header hash cannot
  // match: the receiver must reject with the typed error, never accept.
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.code(), ErrorCode::kCorrupt);
  ::close(fds[0]);
  ::close(fds[1]);
}


TEST_F(ClusterFaultTest, CancelFrameIsPartOfTheVocabulary) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrameToFd(fds[0], FrameType::kCancel, "42"));
  Result<Frame> frame = ReadFrameFromFd(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().type, FrameType::kCancel);
  EXPECT_EQ(frame.value().payload, "42");
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- multi-process legs ----------------------------------------------------

// A job with declared but unused variables is solved by a worker, as the
// local backend solves it, and costs no worker.
TEST(ClusterRouterTest, UnusedDeclaredVariablesGetARemoteVerdict) {
  SKIP_WITHOUT_WORKER();
  const Job job = MakeJobWithUnusedVariables("unused variables");
  ClusterRouter router(FastOptions(1));
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  const JobResult r = router.Submit(job).Wait();
  ASSERT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_GE(r.worker, 0);  // a worker answered
  EXPECT_EQ(r.DeterministicSummary(), RunJob(job).DeterministicSummary());
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.worker_crashes, 0);
}

// Workers pull from one queue: with both workers up, the pump goes to the
// lowest slot index, and every job after it to the idle worker instead of
// waiting behind the pump, whatever its fingerprint.
TEST(ClusterRouterTest, IdleWorkerPullsTheJobsBehindAPinnedOne) {
  SKIP_WITHOUT_WORKER();
  ClusterRouter router(FastOptions(2));
  ASSERT_TRUE(WaitForWorkersUp(router, 2));
  JobHandle pumping = router.Submit(MakePumpingJob());
  std::vector<Job> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(MakeSmallJob("beside the pump " + std::to_string(i)));
    jobs.back().config.base_chase.max_steps = 60 + i;  // its own fingerprint
    handles.push_back(router.Submit(jobs.back()));
    const JobHandle& handle = handles.back();
    EXPECT_TRUE(PollUntil([&] { return handle.Poll().has_value(); },
                          5.0 * kSanitizerScale))
        << jobs.back().name;
  }
  EXPECT_FALSE(pumping.Poll().has_value());
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.worker, 1) << jobs[i].name;
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
}

TEST(ClusterRouterTest, KilledWorkerLosesNoJobs) {
  SKIP_WITHOUT_WORKER();
  // Six pumping chases across two workers; slot 0 is killed while they
  // run. The acceptance bar: every accepted job still completes,
  // byte-identical to the serial reference.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeGapJob("heavy-" + std::to_string(i), 3,
                              /*max_steps=*/10000 + i));
  }
  ClusterRouter router(FastOptions(2));
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  router.KillWorker(0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.status, JobStatus::kCompleted) << jobs[i].name;
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  // The kGone bookkeeping races the final Wait(): a killed-while-idle
  // worker publishes no job result, so give the crash counter a moment.
  EXPECT_TRUE(PollUntil([&] { return router.Stats().worker_crashes >= 1; }));
}

// Every ClusterStats counter, for the failure message of an exact-count
// check: a second worker death (say, a heartbeat timeout) then names its
// cause.
std::string Describe(const ClusterStats& s) {
  std::ostringstream out;
  out << "completed=" << s.completed << " retries=" << s.retries
      << " worker_crashes=" << s.worker_crashes
      << " worker_restarts=" << s.worker_restarts
      << " heartbeat_timeouts=" << s.heartbeat_timeouts
      << " workers_up=" << s.workers_up;
  return out.str();
}

// A worker dies holding a full window: the pumping job it was solving and
// three jobs queued in its inbox. Only the one it was solving was lost
// mid-run and is charged a retry; the queued ones re-route as if they had
// never been sent.
TEST(ClusterRouterTest, CrashWithAFullWindowChargesOneRetry) {
  SKIP_WITHOUT_WORKER();
  ClusterRouter router(FastOptions(1));
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  JobHandle pumping = router.Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Job> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(MakeGapJob("windowed-" + std::to_string(i), i,
                              /*max_steps=*/200 + i));
    handles.push_back(router.Submit(jobs.back()));
  }
  // Submit sends each job before it returns, so all three are in the
  // worker's window behind the pump.
  router.KillWorker(0);
  // The pump is re-routed, and pins the restarted worker again.
  ASSERT_TRUE(PollUntil([&] {
    const ClusterStats s = router.Stats();
    return s.worker_crashes >= 1 && s.workers_up == 1;
  }));
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.status, JobStatus::kCompleted) << jobs[i].name;
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.worker_crashes, 1) << Describe(stats);
  EXPECT_EQ(stats.retries, 1) << Describe(stats);
}

// The worker runs its inbox in priority order, so the job a crash
// interrupts need not be the oldest one sent: the retry is charged to the
// job the worker reported solving. With no retries allowed, that
// high-priority job ends kSkipped, and the low-priority job queued behind
// it runs as if it had never been sent.
TEST(ClusterRouterTest, CrashChargesTheJobTheWorkerWasSolving) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.max_retries = 0;
  ClusterRouter router(options);
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  JobHandle pumping = router.Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Job low = MakeGapJob("low", 1, /*max_steps=*/300);
  low.priority = 0;
  Job high = MakePumpingJob();  // pumps too, under another fingerprint
  high.name = "high";
  high.config.base_chase.max_steps = std::uint64_t{1} << 40;
  high.priority = 1;
  JobHandle low_handle = router.Submit(low);
  JobHandle high_handle = router.Submit(high);
  // The front door's cache makes each submission a waiter on a dedup run,
  // so the cancelled pump is published at once; its run stops at the
  // worker later. The worker's answer names the job it took up next, and
  // the router counts that answer in the same step.
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
  ASSERT_TRUE(PollUntil([&] { return router.Stats().completed >= 1; }));
  router.KillWorker(0);

  const JobResult r = low_handle.Wait();
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_EQ(r.DeterministicSummary(), RunJob(low).DeterministicSummary());
  high_handle.Cancel();  // only takes hold if the crash was charged to low
  EXPECT_EQ(high_handle.Wait().status, JobStatus::kSkipped);
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.worker_crashes, 1) << Describe(stats);
  EXPECT_EQ(stats.retries, 0) << Describe(stats);
}

// A cancel frame for a job still in a worker's inbox takes it out and
// answers it at once, while the pump ahead of it keeps running; the other
// queued jobs run as if it had never been there.
TEST(ClusterRouterTest, CancelledInboxJobEndsAtOnceAndIsNeverCached) {
  SKIP_WITHOUT_WORKER();
  ClusterRouter router(FastOptions(1));
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  JobHandle pumping = router.Submit(MakePumpingJob());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Job> jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(MakeGapJob("inbox-" + std::to_string(i), i,
                              /*max_steps=*/300 + i));
    handles.push_back(router.Submit(jobs.back()));
  }
  EXPECT_TRUE(handles[1].Cancel());
  const JobResult cancelled = handles[1].Wait();  // the pump still runs
  EXPECT_EQ(cancelled.status, JobStatus::kCancelled);
  EXPECT_EQ(cancelled.chase_steps, 0u);
  EXPECT_FALSE(pumping.Poll().has_value());

  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
  for (std::size_t i : {0u, 2u}) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.status, JobStatus::kCompleted) << jobs[i].name;
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  // Nothing was cached for the cancelled job: a resubmission solves it.
  const JobResult again = router.Submit(jobs[1]).Wait();
  EXPECT_EQ(again.status, JobStatus::kCompleted);
  EXPECT_EQ(again.cache_source, CacheSource::kMiss);
  EXPECT_EQ(again.DeterministicSummary(),
            RunJob(jobs[1]).DeterministicSummary());
}

TEST(ClusterRouterTest, HungWorkerIsKilledByHeartbeatAndTheJobRecovers) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.hang_after_jobs = 1;  // worker goes silent after its first job
  options.heartbeat_interval_seconds = 0.04 * kSanitizerScale;
  options.heartbeat_timeout_seconds = 0.1 * kSanitizerScale;
  ClusterRouter router(options);

  const Job first = MakeSmallJob("first");
  ASSERT_EQ(router.Submit(first).Wait().status, JobStatus::kCompleted);

  // The worker is now deaf to pings but still solving. A stream of long
  // chases keeps it busy well past the pong timeout, so the SIGKILL lands
  // mid-chase and the lost job re-runs to the same bytes elsewhere (each
  // restarted worker hangs again after one job, so the last job drains to
  // the local backend once restarts are spent).
  std::vector<Job> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        MakeGapJob("hung-" + std::to_string(i), 3, /*max_steps=*/10000 + i));
  }
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.status, JobStatus::kCompleted) << jobs[i].name;
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary())
        << jobs[i].name;
  }
  EXPECT_TRUE(PollUntil([&] {
    const ClusterStats s = router.Stats();
    return s.heartbeat_timeouts >= 1 && s.worker_crashes >= 1;
  }));
}

TEST(ClusterRouterTest, UnspawnableWorkersRunJobsOnTheLocalBackend) {
  ClusterOptions options = FastOptions(1);
  options.worker_command = "/bin/false";  // exits before saying hello
  options.max_restarts = 1;
  ClusterRouter router(options);
  const Job job = MakeSmallJob("doomed");
  const JobResult r = router.Submit(job).Wait();
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_EQ(r.worker, -1);  // no worker ever answered
  EXPECT_EQ(r.DeterministicSummary(), RunJob(job).DeterministicSummary());
  const ClusterStats stats = router.Stats();
  EXPECT_GE(stats.worker_crashes, 1);
  EXPECT_EQ(stats.completed, 0);
}

TEST(ClusterRouterTest, LastWorkerDyingMidRunHandsTheRunToTheLocalBackend) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(1);
  options.max_restarts = 0;  // the first crash retires the only slot
  ClusterRouter router(options);
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  // The gap job runs ~0.1 s in Release; the kill lands mid-chase, so the
  // run is lost after it started and finishes on the local backend.
  const Job lost = MakeGapJob("lost", 3, /*max_steps=*/10000);
  JobHandle lost_handle = router.Submit(lost);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  router.KillWorker(0);
  const JobResult r = lost_handle.Wait();
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_EQ(r.worker, -1);
  EXPECT_EQ(r.DeterministicSummary(), RunJob(lost).DeterministicSummary());
  // Later submissions go straight to the local backend.
  const Job later = MakeSmallJob("later");
  const JobResult after = router.Submit(later).Wait();
  EXPECT_EQ(after.worker, -1);
  EXPECT_EQ(after.DeterministicSummary(), RunJob(later).DeterministicSummary());
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.retries, 1);  // the lost run was re-routed, not re-begun
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.workers_up, 0);
}

TEST(ClusterRouterTest, ZeroWorkersRunEverythingInProcess) {
  ClusterRouter router(FastOptions(0));
  WorkloadOptions workload_options;
  workload_options.size = 4;
  std::vector<Job> jobs = ReductionSweepWorkload(workload_options);
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult r = handles[i].Wait();
    EXPECT_EQ(r.worker, -1);
    EXPECT_EQ(r.DeterministicSummary(), RunJob(jobs[i]).DeterministicSummary());
  }
}

TEST(ClusterRouterTest, CompletionCallbackFiresExactlyOncePerJob) {
  SKIP_WITHOUT_WORKER();
  // The single-publication-path contract, measured from the outside: under
  // a worker kill racing live results, on_complete runs exactly once per
  // submission and every job still completes.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeGapJob("ledger-" + std::to_string(i), 3,
                              /*max_steps=*/10000 + i));
  }
  std::atomic<int> callbacks{0};
  ClusterRouter router(FastOptions(2));
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) {
    ClusterSubmitOptions submit;
    submit.on_complete = [&callbacks](const ClusterResult&) {
      callbacks.fetch_add(1, std::memory_order_relaxed);
    };
    handles.push_back(router.Submit(job, std::move(submit)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  router.KillWorker(1);
  for (JobHandle& handle : handles) {
    EXPECT_EQ(handle.Wait().status, JobStatus::kCompleted);
  }
  router.WaitIdle();
  EXPECT_EQ(callbacks.load(), static_cast<int>(jobs.size()));
}

TEST(ClusterRouterTest, WorkerSideSocketFaultDegradesGracefully) {
  SKIP_WITHOUT_WORKER();
  // Workers inherit TDLIB_FAULT and arm cluster.socket-read:1 — every
  // spawned worker dies on its first frame read (the crash-only exit for a
  // truncated stream). Restarts burn out, the local backend takes over,
  // and the job still completes byte-identically.
  ::setenv("TDLIB_FAULT", "cluster.socket-read:1", 1);
  ClusterOptions options = FastOptions(1);
  options.max_restarts = 1;
  ClusterRouter* router = new ClusterRouter(options);
  const Job job = MakeSmallJob("survivor");
  const JobResult r = router->Submit(job).Wait();
  delete router;
  ::unsetenv("TDLIB_FAULT");
  EXPECT_EQ(r.worker, -1);
  EXPECT_EQ(r.DeterministicSummary(), RunJob(job).DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
