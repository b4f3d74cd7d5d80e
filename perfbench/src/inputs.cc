#include "inputs.h"

#include <numeric>
#include <sstream>
#include <utility>

#include "cache/canonical.h"
#include "core/parser.h"
#include "engine/workload.h"

namespace perfbench {
namespace {

using tdlib::Dependency;
using tdlib::DependencySet;
using tdlib::Job;
using tdlib::Row;

// Jobs per timed round: a fixed unit of work of a fraction of a second, so a
// run holds tens of rounds whose median evens out the host's second-scale
// fluctuations, and a run completes well over the 1000 jobs a p99 with ten
// samples beyond it needs.
constexpr int kSolveCycles = 4;      // x 49 jobs per cycle
constexpr int kHitsJobs = 600;
constexpr int kClusterJobs = 3000;
constexpr int kClusterWarmup = 600;  // distinct problems, not in the stream
constexpr int kReductionProblems = 6;  // implied/refuted/gap at pads 0 and 1

// SplitMix64: the benchmark's own generator, so its inputs do not move when
// the library's Rng changes.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  int Below(std::size_t n) { return static_cast<int>(Next() % n); }

  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[static_cast<std::size_t>(Below(i))]);
    }
  }

 private:
  std::uint64_t state_;
};

// One planned copy: which problem, under which job name, as which text.
struct PlannedCopy {
  int problem = 0;
  std::string name;
  std::string text;
};

// Everything but the parse: what SelfCheck regenerates and compares.
struct Plan {
  std::vector<Problem> problems;
  std::vector<PlannedCopy> copies;
  std::vector<int> warmup;
  std::vector<int> timed;
};

// Renders `dep` as a `td` line whose variables are named v<tag>_<attr>_<k>,
// with k a seeded permutation of the variable ids of each attribute.
void RenderDependency(const Dependency& dep, const std::string& name,
                      const std::string& tag, Stream* rng,
                      std::ostringstream* out) {
  const int arity = dep.schema().arity();
  std::vector<std::vector<int>> perm(static_cast<std::size_t>(arity));
  for (int attr = 0; attr < arity; ++attr) {
    perm[attr].resize(static_cast<std::size_t>(dep.body().NumVars(attr)));
    std::iota(perm[attr].begin(), perm[attr].end(), 0);
    rng->Shuffle(&perm[attr]);
  }
  auto atoms = [&](const std::vector<Row>& rows) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      *out << (r == 0 ? "R(" : " & R(");
      for (int attr = 0; attr < arity; ++attr) {
        *out << (attr == 0 ? "" : ",") << 'v' << tag << '_' << attr << '_'
             << perm[attr][static_cast<std::size_t>(rows[r][attr])];
      }
      *out << ')';
    }
  };
  *out << "td " << name << ": ";
  atoms(dep.body().rows());
  *out << " => ";
  atoms(dep.head().rows());
  *out << '\n';
}

// Renders `job` as a dependency program (goal last) under fresh names.
std::string Render(const Job& job, Stream* rng) {
  char tag[16];
  std::snprintf(tag, sizeof(tag), "%06llx",
                static_cast<unsigned long long>(rng->Next() & 0xffffff));
  std::ostringstream out;
  out << "schema";
  for (int attr = 0; attr < job.goal.schema().arity(); ++attr) {
    out << " c" << tag << '_' << attr;
  }
  out << '\n';
  for (std::size_t i = 0; i < job.dependencies.items.size(); ++i) {
    RenderDependency(job.dependencies.items[i],
                     "d" + std::string(tag) + "_" + std::to_string(i), tag,
                     rng, &out);
  }
  RenderDependency(job.goal, "d" + std::string(tag) + "_goal", tag, rng, &out);
  return out.str();
}

void AddCopy(Plan* plan, int problem, const std::string& workload,
             Stream* rng, std::vector<int>* into) {
  const Job& original =
      plan->problems[static_cast<std::size_t>(problem)].original;
  PlannedCopy copy;
  copy.problem = problem;
  copy.name = workload + "/" + original.name + "/" +
              std::to_string(plan->copies.size());
  copy.text = Render(original, rng);
  into->push_back(static_cast<int>(plan->copies.size()));
  plan->copies.push_back(std::move(copy));
}

// The reduction-sweep problems at pads 0 and 1 (implied, refuted, gap).
std::vector<Problem> ReductionProblems() {
  tdlib::WorkloadOptions options;
  options.size = kReductionProblems;
  std::vector<Problem> problems;
  for (Job& job : tdlib::ReductionSweepWorkload(options)) {
    const Expect expect = job.name.rfind("implied/", 0) == 0
                              ? Expect::kImplied
                              : Expect::kRefutation;
    problems.push_back(Problem{std::move(job), expect});
  }
  return problems;
}

// body_rows = 2, head_rows = 1 over a 3-attribute schema; a variable is
// reused with probability 1/2 (always in the head of a full dependency).
Dependency RandomDependency(Stream* rng, const tdlib::SchemaPtr& schema,
                            bool full) {
  const int arity = schema->arity();
  Dependency::Builder builder(schema);
  std::vector<std::vector<int>> pool(static_cast<std::size_t>(arity));
  auto var = [&](int attr, bool reuse_only) {
    std::vector<int>& vars = pool[static_cast<std::size_t>(attr)];
    if (!vars.empty() && (reuse_only || rng->Below(2) == 0)) {
      return vars[static_cast<std::size_t>(rng->Below(vars.size()))];
    }
    vars.push_back(builder.Var(attr));
    return vars.back();
  };
  for (int r = 0; r < 3; ++r) {
    Row row(static_cast<std::size_t>(arity));
    for (int attr = 0; attr < arity; ++attr) {
      row[attr] = var(attr, r == 2 && full);
    }
    if (r < 2) {
      builder.AddBodyRow(std::move(row));
    } else {
      builder.AddHeadRow(std::move(row));
    }
  }
  return std::move(builder).Build().value();
}

// A random-TD problem: do 3 premises (full, embedded, full) imply a
// non-trivial embedded goal? About 20 us to solve.
Problem RandomProblem(Stream* rng, int index) {
  tdlib::SchemaPtr schema = tdlib::MakeSchema({"A", "B", "C"});
  DependencySet deps;
  for (int k = 0; k < 3; ++k) {
    deps.Add(RandomDependency(rng, schema, k % 2 == 0),
             "p" + std::to_string(k));
  }
  Dependency goal = RandomDependency(rng, schema, false);
  for (int redraw = 0; goal.IsTrivial() && redraw < 64; ++redraw) {
    goal = RandomDependency(rng, schema, false);
  }
  return Problem{Job{"random" + std::to_string(index), std::move(deps),
                     std::move(goal), tdlib::DefaultWorkloadSolverConfig(), 0},
                 Expect::kAny};
}

Plan MakePlan(const std::string& workload, std::uint64_t seed) {
  Plan plan;
  Stream rng(seed ^ 0x70657266626e6368ULL);  // "perfbnch"
  if (workload == "solve") {
    // Cycled in a seeded order, 49 jobs per cycle: each implied and
    // refuted problem 11 times, gap/pad0 4 times and gap/pad1 once. The
    // small jobs are 90% of the stream, so the median falls inside their
    // mode; gap/pad1 is the top 2%, so the p99 is its median latency.
    plan.problems = ReductionProblems();
    for (int p = 0; p < kReductionProblems; ++p) {
      AddCopy(&plan, p, workload, &rng, &plan.warmup);
    }
    for (int cycle = 0; cycle < kSolveCycles; ++cycle) {
      for (int p = 0; p < kReductionProblems; ++p) {
        const std::string& name =
            plan.problems[static_cast<std::size_t>(p)].original.name;
        const int weight = name == "gap/pad0" ? 4 : name == "gap/pad1" ? 1 : 11;
        for (int w = 0; w < weight; ++w) plan.timed.push_back(p);
      }
    }
    rng.Shuffle(&plan.timed);
  } else if (workload == "hits") {
    // One copy per problem fills the cache; every timed job is a fresh
    // renaming of one of them.
    plan.problems = ReductionProblems();
    for (int p = 0; p < kReductionProblems; ++p) {
      AddCopy(&plan, p, workload, &rng, &plan.warmup);
    }
    for (int k = 0; k < kHitsJobs; ++k) {
      AddCopy(&plan, k % kReductionProblems, workload, &rng, &plan.timed);
    }
    rng.Shuffle(&plan.timed);
  } else if (workload == "cluster") {
    // Warm-up problems come first and never recur; in the timed stream
    // each job is, with probability 1/2, a fresh renaming of an earlier
    // timed problem, else a new problem.
    for (int k = 0; k < kClusterWarmup; ++k) {
      plan.problems.push_back(RandomProblem(&rng, k));
      AddCopy(&plan, k, workload, &rng, &plan.warmup);
    }
    const int first_timed = kClusterWarmup;
    for (int k = 0; k < kClusterJobs; ++k) {
      const int seen = static_cast<int>(plan.problems.size()) - first_timed;
      int problem;
      if (seen > 0 && rng.Below(2) == 0) {
        problem = first_timed + rng.Below(static_cast<std::size_t>(seen));
      } else {
        problem = static_cast<int>(plan.problems.size());
        plan.problems.push_back(RandomProblem(&rng, problem));
      }
      AddCopy(&plan, problem, workload, &rng, &plan.timed);
    }
  }
  return plan;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"solve", "hits", "cluster"};
  return names;
}

tdlib::Result<Inputs> MakeInputs(const std::string& workload,
                                 std::uint64_t seed) {
  Plan plan = MakePlan(workload, seed);
  Inputs inputs;
  inputs.copies.reserve(plan.copies.size());
  for (PlannedCopy& planned : plan.copies) {
    tdlib::SchemaPtr schema;
    tdlib::Result<DependencySet> parsed =
        tdlib::ParseDependencyProgram(planned.text, &schema);
    if (!parsed.ok()) {
      return tdlib::Result<Inputs>::Error(
          tdlib::ErrorCode::kParseError,
          planned.name + ": rendered text does not parse: " + parsed.error());
    }
    DependencySet deps = std::move(parsed).value();
    Dependency goal = std::move(deps.items.back());
    deps.items.pop_back();
    if (!deps.names.empty()) deps.names.pop_back();
    const Job& original =
        plan.problems[static_cast<std::size_t>(planned.problem)].original;
    inputs.copies.push_back(
        Copy{planned.problem, std::move(planned.text),
             Job{std::move(planned.name), std::move(deps), std::move(goal),
                 original.config, 0}});
  }
  inputs.problems = std::move(plan.problems);
  inputs.warmup = std::move(plan.warmup);
  inputs.timed = std::move(plan.timed);
  return inputs;
}

std::string SelfCheck(const std::string& workload, std::uint64_t seed,
                      const Inputs& inputs) {
  auto bytes = [](const std::vector<PlannedCopy>& copies,
                  const std::vector<int>& warmup,
                  const std::vector<int>& timed) {
    std::string all;
    for (const PlannedCopy& c : copies) {
      all += std::to_string(c.problem) + ' ' + c.name + '\n' + c.text;
    }
    for (int i : warmup) all += ' ' + std::to_string(i);
    all += '\n';
    for (int i : timed) all += ' ' + std::to_string(i);
    return all;
  };
  std::vector<PlannedCopy> given;
  for (const Copy& c : inputs.copies) {
    given.push_back(PlannedCopy{c.problem, c.job.name, c.text});
  }
  const std::string ours = bytes(given, inputs.warmup, inputs.timed);
  const Plan again = MakePlan(workload, seed);
  if (bytes(again.copies, again.warmup, again.timed) != ours) {
    return "the same seed gave different inputs";
  }
  const Plan other = MakePlan(workload, seed + 1);
  if (bytes(other.copies, other.warmup, other.timed) == ours) {
    return "seed " + std::to_string(seed + 1) + " gave the same inputs";
  }
  std::vector<tdlib::CacheFingerprint> originals;
  for (const Problem& p : inputs.problems) {
    originals.push_back(tdlib::FingerprintProblem(
        p.original.dependencies, p.original.goal, p.original.config));
  }
  for (const Copy& c : inputs.copies) {
    const tdlib::CacheFingerprint fp = tdlib::FingerprintProblem(
        c.job.dependencies, c.job.goal, c.job.config);
    if (!fp.valid || fp != originals[static_cast<std::size_t>(c.problem)]) {
      return c.job.name + " does not fingerprint equal to its original";
    }
  }
  return "";
}

std::string SummarySansName(const tdlib::JobResult& result) {
  const std::string summary = result.DeterministicSummary();
  return summary.substr(summary.find('|'));
}

std::vector<std::string> SerialReferences(const Inputs& inputs) {
  std::vector<std::string> references;
  references.reserve(inputs.problems.size());
  for (const Problem& p : inputs.problems) {
    references.push_back(SummarySansName(tdlib::RunJob(p.original)));
  }
  return references;
}

std::string CheckResult(const Problem& problem, const std::string& reference,
                        const tdlib::JobResult& result) {
  const std::string verdict(result.VerdictName());
  if (result.status != tdlib::JobStatus::kCompleted) {
    return "not completed (" + verdict + ")";
  }
  if (problem.expect == Expect::kImplied &&
      result.verdict != tdlib::DualVerdict::kImplied) {
    return "expected IMPLIED, got " + verdict;
  }
  if (problem.expect == Expect::kRefutation && !tdlib::IsRefutation(result)) {
    return "expected a refutation, got " + verdict;
  }
  const std::string summary = SummarySansName(result);
  if (summary != reference) {
    return "summary " + summary + " differs from the serial " + reference;
  }
  return "";
}

}  // namespace perfbench
