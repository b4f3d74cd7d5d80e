// perfbench inputs: the seeded job streams of the three workloads, the
// renaming step, the generator self-check and the verdict gate.
//
// Every submission is a *copy*: a distinct problem rendered as program text
// under fresh attribute, variable, dependency and job names drawn from the
// workload seed, then parsed back. The program therefore receives only
// generated inputs, and the renamings are exactly the ones the result
// cache's canonical form promises to erase (cache/canonical.h).
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/job.h"
#include "util/status.h"

namespace perfbench {

/// The verdict a problem's regime guarantees.
enum class Expect {
  kAny,         ///< random TDs: only the serial reference is checked
  kImplied,     ///< reduction regime "implied"
  kRefutation,  ///< reduction regimes "refuted" and "gap"
};

/// One distinct implication problem, under the generator's own names.
struct Problem {
  tdlib::Job original;
  Expect expect = Expect::kAny;
};

/// One renamed copy of problems[problem]: the program text the benchmark
/// renders and the job it parses back from that text.
struct Copy {
  int problem = 0;
  std::string text;
  tdlib::Job job;
};

/// A workload's inputs, a pure function of (workload, seed).
struct Inputs {
  std::vector<Problem> problems;
  std::vector<Copy> copies;
  std::vector<int> warmup;  ///< copies submitted during set-up
  std::vector<int> timed;   ///< copies of the timed stream, in order
};

/// The workload names MakeInputs accepts.
const std::vector<std::string>& WorkloadNames();

/// Builds the inputs of `workload` (one of WorkloadNames()) from `seed`;
/// fails if a rendered text does not parse.
tdlib::Result<Inputs> MakeInputs(const std::string& workload,
                                 std::uint64_t seed);

/// The generator self-check: `seed` again gives byte-identical texts,
/// `seed + 1` gives different ones, and every copy fingerprints equal to
/// its original. Returns "" or the first failure.
std::string SelfCheck(const std::string& workload, std::uint64_t seed,
                      const Inputs& inputs);

/// DeterministicSummary minus the leading "name|", so renamed copies can
/// be compared with their original field for field.
std::string SummarySansName(const tdlib::JobResult& result);

/// The serial reference per problem: SummarySansName(RunJob(original)).
std::vector<std::string> SerialReferences(const Inputs& inputs);

/// The verdict gate: "" when `result` completed, meets the problem's
/// regime and equals the serial reference; otherwise the reason.
std::string CheckResult(const Problem& problem, const std::string& reference,
                        const tdlib::JobResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
