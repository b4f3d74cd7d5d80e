// The differential runner: one reference solve per case, then one solve
// per axis variant, each compared under its invariance class.
//
// Reference shape (the configuration every byte-identity promise is stated
// against): delta matching, serial, trace recording on, pure step/tuple
// budgets (no deadline, no per-search node budget — the
// two knobs documented to void cross-mode identity by stopping searches
// mid-stream).
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "chase/dual_solver.h"
#include "engine/service.h"
#include "engine/thread_pool.h"
#include "fuzz/fuzz.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace tdlib {
namespace {

std::string RenderTrace(const std::vector<ChaseStep>& trace) {
  std::ostringstream oss;
  for (const ChaseStep& step : trace) {
    oss << step.dependency_index << '[';
    for (int v : step.body_match.values) oss << v << ' ';
    oss << "]->";
    for (int id : step.new_tuples) oss << id << ' ';
    oss << '\n';
  }
  return oss.str();
}

RunDigest DigestOf(const DualResult& dual) {
  RunDigest d;
  d.verdict = std::string(DualVerdictName(dual.verdict));
  const ChaseResult& chase = dual.implication.chase;
  d.chase_status = std::string(ChaseStatusName(chase.status));
  d.rounds_used = dual.rounds_used;
  d.steps = chase.steps;
  d.passes = chase.passes;
  d.hom_nodes = chase.hom_nodes;
  d.hom_candidates = chase.hom_candidates;
  d.match_tasks = chase.match_tasks;
  d.carried_passes = chase.carried_passes;
  d.candidates_checked = dual.counterexample.candidates_checked;
  d.trace_text = RenderTrace(chase.trace);
  if (dual.implication.counterexample.has_value()) {
    std::ostringstream bytes;
    dual.implication.counterexample->Serialize(bytes);
    d.instance_text = bytes.str();
  }
  return d;
}

RunDigest DigestOfImplication(const ImplicationResult& result,
                              const ChaseSession* session) {
  RunDigest d;
  switch (result.verdict) {
    case Implication::kImplied: d.verdict = "IMPLIED"; break;
    case Implication::kNotImplied: d.verdict = "NOT-IMPLIED"; break;
    case Implication::kUnknown: d.verdict = "UNKNOWN"; break;
  }
  const ChaseResult& chase = result.chase;
  d.chase_status = std::string(ChaseStatusName(chase.status));
  d.steps = chase.steps;
  d.passes = chase.passes;
  d.hom_nodes = chase.hom_nodes;
  d.hom_candidates = chase.hom_candidates;
  d.match_tasks = chase.match_tasks;
  d.carried_passes = chase.carried_passes;
  d.trace_text = RenderTrace(chase.trace);
  if (result.counterexample.has_value()) {
    std::ostringstream bytes;
    result.counterexample->Serialize(bytes);
    d.instance_text = bytes.str();
  } else if (session != nullptr && session->CanResume()) {
    // Budget-stopped: the byte-for-byte artifact is the parked session
    // (pumped instance + checkpoint) itself.
    std::ostringstream bytes;
    session->Serialize(bytes);
    d.instance_text = bytes.str();
  }
  return d;
}

// Arms the fire-order-flip sabotage site for the duration of one variant
// solve (FuzzOptions::inject_fire_order_flip — harness self-test only).
class FlipGuard {
 public:
  explicit FlipGuard(bool active) : active_(active) {
    if (active_) ArmFaultAlways(FaultSite::kFireOrderFlip);
  }
  ~FlipGuard() {
    if (active_) DisarmFault(FaultSite::kFireOrderFlip);
  }

 private:
  bool active_;
};

struct FuzzMetrics {
  Counter* rounds;
  Counter* cases;
  Counter* runs;
  Counter* divergences;
};

FuzzMetrics& GetFuzzMetrics() {
  static FuzzMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* fm = new FuzzMetrics();
    fm->rounds = r.GetCounter("fuzz.rounds");
    fm->cases = r.GetCounter("fuzz.cases");
    fm->runs = r.GetCounter("fuzz.runs");
    fm->divergences = r.GetCounter("fuzz.divergences");
    return fm;
  }();
  return *m;
}

}  // namespace

DualSolverConfig FuzzSolverConfig(const FuzzOptions& options) {
  DualSolverConfig config;
  config.rounds = 2;
  config.base_chase.max_steps = options.base_steps;
  config.base_chase.max_tuples = 100000;
  config.base_chase.record_trace = true;
  config.base_counterexample.max_tuples = 3;
  config.base_counterexample.max_candidates = 50000;
  return config;
}

std::string CompareDigests(const RunDigest& reference,
                           const RunDigest& variant, AxisClass axis_class) {
  std::ostringstream oss;
  auto diff = [&oss](const char* field, const auto& expected,
                     const auto& got) {
    oss << field << ": reference=" << expected << " variant=" << got;
  };
  // Semantic stream first — the fields every class compares.
  if (reference.verdict != variant.verdict) {
    diff("verdict", reference.verdict, variant.verdict);
  } else if (reference.chase_status != variant.chase_status) {
    diff("chase_status", reference.chase_status, variant.chase_status);
  } else if (reference.rounds_used != variant.rounds_used) {
    diff("rounds_used", reference.rounds_used, variant.rounds_used);
  } else if (reference.steps != variant.steps) {
    diff("steps", reference.steps, variant.steps);
  } else if (reference.passes != variant.passes) {
    diff("passes", reference.passes, variant.passes);
  } else if (reference.candidates_checked != variant.candidates_checked) {
    diff("candidates_checked", reference.candidates_checked,
         variant.candidates_checked);
  } else if (reference.trace_text != variant.trace_text) {
    diff("trace", "<reference fire stream>", "<differs>");
  } else if (reference.instance_text != variant.instance_text) {
    diff("instance_bytes", "<reference serialization>", "<differs>");
  }
  if (!oss.str().empty() ||
      axis_class == AxisClass::kSemanticsAndFireStream) {
    return oss.str();
  }
  // Matching-work counters, for the byte-identity classes.
  if (reference.hom_nodes != variant.hom_nodes) {
    diff("hom_nodes", reference.hom_nodes, variant.hom_nodes);
  } else if (reference.match_tasks != variant.match_tasks) {
    diff("match_tasks", reference.match_tasks, variant.match_tasks);
  } else if (reference.carried_passes != variant.carried_passes) {
    diff("carried_passes", reference.carried_passes, variant.carried_passes);
  } else if (reference.hom_candidates != variant.hom_candidates) {
    diff("hom_candidates", reference.hom_candidates, variant.hom_candidates);
  }
  return oss.str();
}

std::vector<FuzzDivergence> CheckJobAcrossAxes(const Job& job,
                                               const FuzzOptions& options,
                                               int* solver_runs) {
  std::vector<FuzzDivergence> out;
  int runs = 0;
  const DualSolverConfig reference_config = FuzzSolverConfig(options);

  DualResult reference =
      SolveImplication(job.dependencies, job.goal, reference_config);
  ++runs;
  const RunDigest reference_digest = DigestOf(reference);

  auto run_variant = [&](const DualSolverConfig& config) {
    FlipGuard flip(options.inject_fire_order_flip);
    DualResult result = SolveImplication(job.dependencies, job.goal, config);
    ++runs;
    return DigestOf(result);
  };
  auto check = [&](const char* axis, const RunDigest& variant,
                   AxisClass axis_class) {
    std::string detail =
        CompareDigests(reference_digest, variant, axis_class);
    if (!detail.empty()) out.push_back({job.name, axis, std::move(detail)});
  };

  {
    DualSolverConfig naive = reference_config;
    naive.base_chase.use_delta = false;
    check("naive", run_variant(naive), AxisClass::kSemanticsAndFireStream);
  }
  {
    ThreadPool pool(options.threads > 0 ? options.threads : 2);
    DualSolverConfig pooled = reference_config;
    pooled.base_chase.pool = &pool;
    check("threads", run_variant(pooled), AxisClass::kFullIdentity);
  }

  if (options.check_resume) {
    // Resume axis, at the session level where byte-identity is promised:
    // run small, park, serialize, restore from bytes, continue big — and
    // demand the continuation equals one uninterrupted big run, down to the
    // serialized bytes of the final parked session (when both park).
    ChaseConfig big;
    big.max_steps = options.base_steps;
    big.max_tuples = 100000;
    big.record_trace = true;
    ChaseConfig small = big;
    small.max_steps = options.base_steps / 3 + 1;

    ChaseSession reference_session;
    ImplicationResult uninterrupted = ChaseImplies(
        job.dependencies, job.goal, big, &reference_session);
    ++runs;
    RunDigest reference_resume =
        DigestOfImplication(uninterrupted, &reference_session);

    ChaseSession session;
    {
      FlipGuard flip(options.inject_fire_order_flip);
      ChaseImplies(job.dependencies, job.goal, small, &session);
      ++runs;
      if (session.CanResume()) {
        // Round-trip the parked session through its wire format — the
        // deserializer is under test here as much as the resume.
        std::ostringstream bytes;
        session.Serialize(bytes);
        std::istringstream in(bytes.str());
        Result<ChaseSession> restored =
            ChaseSession::Deserialize(job.goal.schema_ptr(), in);
        if (restored.ok()) {
          session = std::move(restored).value();
        } else {
          out.push_back({job.name, "resume",
                         "session round-trip failed: " + restored.error()});
        }
      }
      ImplicationResult resumed =
          ChaseImplies(job.dependencies, job.goal, big, &session);
      ++runs;
      RunDigest variant = DigestOfImplication(resumed, &session);
      std::string detail = CompareDigests(reference_resume, variant,
                                          AxisClass::kFullIdentity);
      if (!detail.empty()) {
        out.push_back({job.name, "resume", std::move(detail)});
      }
    }
  }

  if (options.check_service) {
    // Serial vs service: the exact job through SolverService (workers +
    // lent chase pool) must reproduce the serial RunJob summary.
    JobResult serial = RunJob(job);
    ++runs;
    JobResult via_service;
    {
      FlipGuard flip(options.inject_fire_order_flip);
      ServiceOptions service_options;
      service_options.num_threads = 2;
      SolverService service(service_options);
      via_service = service.Submit(job).Wait();
      ++runs;
    }
    if (serial.DeterministicSummary() != via_service.DeterministicSummary()) {
      out.push_back({job.name, "service",
                     "summary: reference=" + serial.DeterministicSummary() +
                         " variant=" + via_service.DeterministicSummary()});
    }
  }

  if (options.check_cache) {
    // Cached vs fresh: the same job submitted twice through a cache-enabled
    // service. The cold submit misses and runs a chase; the warm one is
    // served from the canonical-form result cache — and BOTH must reproduce
    // the serial reference summary byte for byte (kFullIdentity on the
    // deterministic fields), which is the cache's transparency contract.
    JobResult serial = RunJob(job);
    ++runs;
    JobResult cold, warm;
    {
      FlipGuard flip(options.inject_fire_order_flip);
      ServiceOptions service_options;
      service_options.num_threads = 2;
      service_options.result_cache = std::make_shared<ResultCache>();
      SolverService service(service_options);
      cold = service.Submit(job).Wait();
      ++runs;  // the warm submit deliberately runs no solver
      warm = service.Submit(job).Wait();
    }
    if (serial.DeterministicSummary() != cold.DeterministicSummary()) {
      out.push_back({job.name, "cache",
                     "cold summary: reference=" + serial.DeterministicSummary() +
                         " variant=" + cold.DeterministicSummary()});
    }
    if (serial.DeterministicSummary() != warm.DeterministicSummary()) {
      out.push_back({job.name, "cache",
                     "warm summary: reference=" + serial.DeterministicSummary() +
                         " variant=" + warm.DeterministicSummary()});
    }
    if (cold.status == JobStatus::kCompleted &&
        warm.cache_source != CacheSource::kHit) {
      out.push_back(
          {job.name, "cache",
           "warm submit not served from cache (source=" +
               std::string(CacheSourceName(warm.cache_source)) + ")"});
    }
  }

  if (solver_runs != nullptr) *solver_runs += runs;
  return out;
}

FuzzRoundReport RunFuzzRound(const FuzzOptions& options,
                             std::uint64_t round) {
  FuzzRoundReport report;
  report.round = round;
  std::vector<Job> cases = GenerateFuzzCases(options, round);
  report.cases = static_cast<int>(cases.size());
  for (const Job& job : cases) {
    std::vector<FuzzDivergence> divergences =
        CheckJobAcrossAxes(job, options, &report.solver_runs);
    for (FuzzDivergence& d : divergences) {
      report.divergences.push_back(std::move(d));
    }
  }
  FuzzMetrics& m = GetFuzzMetrics();
  m.rounds->Add(1);
  m.cases->Add(report.cases);
  m.runs->Add(report.solver_runs);
  m.divergences->Add(static_cast<std::int64_t>(report.divergences.size()));
  return report;
}

}  // namespace tdlib
