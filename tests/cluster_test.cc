// The remote-only half of the cluster suite: wire protocol round trips,
// consistent-hash ring stability, socket fault sites, and — when a tdworker
// binary is available (ctest exports TDLIB_TDWORKER) — real multi-process
// legs: worker-cache affinity, kill-a-worker-mid-chase recovery, heartbeat
// kills, checkpoint park/migrate/resume, the local backend taking over when
// every worker is down, and exactly-once completion across crash/retry
// races. What every front door must do (parity, cancel, deadlines,
// priorities, shedding, resume) is tests/service_test.cc's suite,
// parametrized over the local and the remote backend.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.h"
#include "cluster/ring.h"
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
/// whole step budget. Runtime grows with `pad` (~15ms at pad 0 up to
/// ~150-250ms at pad 3 at 2000 steps in Release), so SIGKILL can land
/// mid-chase.
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

// Polls until `n` workers are on the router's ring; false after 10 s.
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

TEST(ClusterWireTest, JobPayloadRoundTripPreservesSemantics) {
  Job job = MakeSmallJob("round trip job");
  job.priority = 7;
  job.config.base_chase.hom_max_nodes = 12345;
  job.config.base_chase.use_simd = false;
  job.config.base_counterexample.max_candidates = 99;

  WireJob wire_job(job);
  wire_job.job_id = 42;
  wire_job.probe_steps = 17;
  wire_job.session_text = "";

  Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const WireJob& got = decoded.value();
  EXPECT_EQ(got.job_id, 42u);
  EXPECT_EQ(got.probe_steps, 17u);
  EXPECT_EQ(got.job.name, "round trip job");
  EXPECT_EQ(got.job.priority, 7);
  EXPECT_EQ(got.job.config.base_chase.hom_max_nodes, 12345u);
  EXPECT_FALSE(got.job.config.base_chase.use_simd);
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
    wire_job.fingerprint =
        FingerprintProblem(job.dependencies, job.goal, job.config);
    Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
    ASSERT_TRUE(decoded.ok()) << job.name << ": " << decoded.error();
    const Job& got = decoded.value().job;
    EXPECT_EQ(got.name, job.name);
    EXPECT_EQ(got.dependencies.items.size(), job.dependencies.items.size());
    const CacheFingerprint refingerprinted =
        FingerprintProblem(got.dependencies, got.goal, got.config);
    EXPECT_EQ(refingerprinted, wire_job.fingerprint) << job.name;
    EXPECT_EQ(decoded.value().fingerprint, wire_job.fingerprint) << job.name;
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
  WireJob wire_job(job);
  wire_job.fingerprint =
      FingerprintProblem(job.dependencies, job.goal, job.config);
  Result<WireJob> decoded = DecodeJobPayload(EncodeJobPayload(wire_job));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const Job& got = decoded.value().job;
  EXPECT_EQ(got.goal.body().NumVars(0), 1);
  EXPECT_EQ(got.dependencies.items[0].body().NumVars(0), 2);
  EXPECT_EQ(got.dependencies.items[0].body().NumVars(2), 2);
  EXPECT_EQ(FingerprintProblem(got.dependencies, got.goal, got.config),
            wire_job.fingerprint);
  EXPECT_EQ(RunJob(got).DeterministicSummary(),
            RunJob(job).DeterministicSummary());
}

// The fingerprint a job frame carries is what the worker would compute
// from the frame's own job and config, so the worker can skip computing
// it: valid under the config the run carries, invalid once a deadline
// clamp makes that config uncacheable.
TEST(ClusterWireTest, ForwardedFingerprintMatchesTheSentConfig) {
  const Job job = MakeSmallJob("forwarded");
  const CacheFingerprint key =
      FingerprintProblem(job.dependencies, job.goal, job.config);
  ASSERT_TRUE(key.valid);

  DualSolverConfig clamped = job.config;
  ClampConfigToBudget(&clamped, 5.0);
  ASSERT_FALSE(CacheableConfig(clamped));

  for (const DualSolverConfig& sent : {job.config, clamped}) {
    Result<WireJob> decoded = DecodeJobPayload(
        EncodeJobPayload(3, 0, job.priority, key, job, sent, ""));
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    const WireJob& got = decoded.value();
    EXPECT_EQ(got.fingerprint,
              FingerprintProblem(got.job.dependencies, got.job.goal,
                                 got.job.config));
    EXPECT_EQ(got.fingerprint,
              FingerprintProblem(job.dependencies, job.goal, sent));
    EXPECT_EQ(got.job.config.base_chase.deadline_seconds,
              sent.base_chase.deadline_seconds);
  }
}

TEST(ClusterWireTest, ResultPayloadRoundTripsEveryField) {
  WireResult wire_result;
  wire_result.job_id = 7;
  wire_result.running_job_id = 9;
  wire_result.parked = true;
  wire_result.session_text = "session bytes\nwith a newline";
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
  EXPECT_TRUE(got.parked);
  EXPECT_EQ(got.session_text, wire_result.session_text);
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

// ---- consistent-hash ring --------------------------------------------------

TEST(ClusterRingTest, RemovalOnlyMovesTheDeadMembersKeys) {
  HashRing ring;
  for (int m = 0; m < 4; ++m) ring.Add(m);
  std::vector<int> before(1000);
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    before[k] = ring.Pick(k * 0x9e3779b97f4a7c15ULL);
    EXPECT_GE(before[k], 0);
  }
  ring.Remove(2);
  int moved = 0;
  for (std::uint64_t k = 0; k < before.size(); ++k) {
    const int now = ring.Pick(k * 0x9e3779b97f4a7c15ULL);
    EXPECT_NE(now, 2);
    if (before[k] != 2) {
      // Keys that did not point at the dead member must not move at all —
      // this is the property that keeps surviving worker caches warm.
      EXPECT_EQ(now, before[k]) << "key " << k;
    } else {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  // All four members actually owned keys before the removal.
  EXPECT_EQ(std::set<int>(before.begin(), before.end()).size(), 4u);
}

TEST(ClusterRingTest, EmptyRingPicksNobody) {
  HashRing ring;
  EXPECT_EQ(ring.Pick(123), -1);
  ring.Add(5);
  EXPECT_EQ(ring.Pick(123), 5);
  ring.Remove(5);
  EXPECT_EQ(ring.Pick(123), -1);
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

TEST(ClusterRouterTest, RepeatSubmissionIsServedFromTheWorkerCache) {
  SKIP_WITHOUT_WORKER();
  Job job = MakeSmallJob("repeat");
  ClusterRouter router(FastOptions(2));
  // Ring placement is stable only once both workers have joined: a job
  // submitted while one is still starting goes to the other one.
  ASSERT_TRUE(WaitForWorkersUp(router, 2));
  const JobResult cold = router.Submit(job).Wait();
  ASSERT_EQ(cold.status, JobStatus::kCompleted);
  const JobResult warm = router.Submit(job).Wait();
  ASSERT_EQ(warm.status, JobStatus::kCompleted);
  // Consistent hashing sends the isomorphic repeat to the same worker,
  // whose result cache replays it byte-identically.
  EXPECT_EQ(warm.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm.worker, cold.worker);
  EXPECT_EQ(warm.DeterministicSummary(), cold.DeterministicSummary());
  EXPECT_GE(router.Stats().cache_hits, 1);
}

// A resumed run carries budgets its Job does not: the worker must cache it
// under the resumed config's fingerprint, where a fresh submission of that
// config finds it byte-identical to a from-scratch solve.
TEST(ClusterRouterTest, ResumedRunIsCachedUnderItsOwnBudget) {
  SKIP_WITHOUT_WORKER();
  Job small = MakeGapJob("resumed", 0, 50);
  Job big = small;
  big.config.base_chase.max_steps = 400;
  ClusterRouter router(FastOptions(1));
  ASSERT_TRUE(WaitForWorkersUp(router, 1));
  JobHandle handle = router.Submit(small);
  ASSERT_EQ(handle.Wait().status, JobStatus::kCompleted);
  ASSERT_TRUE(handle.ResumeWithBudget(big.config));
  const JobResult resumed = handle.Wait();
  ASSERT_EQ(resumed.status, JobStatus::kCompleted);
  const JobResult fresh = router.Submit(big).Wait();
  ASSERT_EQ(fresh.status, JobStatus::kCompleted);
  EXPECT_EQ(fresh.cache_source, CacheSource::kHit);
  EXPECT_EQ(fresh.DeterministicSummary(), RunJob(big).DeterministicSummary());
  EXPECT_EQ(resumed.DeterministicSummary(), fresh.DeterministicSummary());
}

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

TEST(ClusterRouterTest, KilledWorkerLosesNoJobs) {
  SKIP_WITHOUT_WORKER();
  // Six pumping chases across two workers; slot 0 is killed while they
  // run. The acceptance bar: every accepted job still completes,
  // byte-identical to the serial reference.
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeGapJob("heavy-" + std::to_string(i), i % 4,
                              /*max_steps=*/1990 + i));
  }
  ClusterRouter router(FastOptions(2));
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(router.Submit(job));
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
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
  EXPECT_EQ(stats.worker_crashes, 1);
  EXPECT_EQ(stats.retries, 1);
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
  // The pump's answer names the job the worker took up next, and reaches
  // the router before the pump is published.
  EXPECT_TRUE(pumping.Cancel());
  EXPECT_EQ(pumping.Wait().status, JobStatus::kCancelled);
  router.KillWorker(0);

  const JobResult r = low_handle.Wait();
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_EQ(r.DeterministicSummary(), RunJob(low).DeterministicSummary());
  high_handle.Cancel();  // only takes hold if the crash was charged to low
  EXPECT_EQ(high_handle.Wait().status, JobStatus::kSkipped);
  const ClusterStats stats = router.Stats();
  EXPECT_EQ(stats.worker_crashes, 1);
  EXPECT_EQ(stats.retries, 0);
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
        MakeGapJob("hung-" + std::to_string(i), 3, /*max_steps=*/1990 + i));
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

TEST(ClusterRouterTest, ParkedCheckpointMigratesAndResumesByteIdentically) {
  SKIP_WITHOUT_WORKER();
  ClusterOptions options = FastOptions(2);
  options.migration_probe_steps = 500;  // park any chase still running here
  ClusterRouter router(options);

  const Job job = MakeGapJob("migrant", 0, /*max_steps=*/2000);
  const JobResult r = router.Submit(job).Wait();
  ASSERT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_GE(r.worker, 0);
  EXPECT_EQ(r.DeterministicSummary(), RunJob(job).DeterministicSummary());
  EXPECT_EQ(router.Stats().migrated, 1);
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
  // The gap job runs ~0.15-0.25 s in Release; the kill lands mid-chase, so
  // the run is lost after it started and finishes on the local backend.
  const Job lost = MakeGapJob("lost", 3, /*max_steps=*/1990);
  JobHandle lost_handle = router.Submit(lost);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
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
    jobs.push_back(MakeGapJob("ledger-" + std::to_string(i), i % 3,
                              /*max_steps=*/1990 + i));
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
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
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
