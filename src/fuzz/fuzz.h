// tdfuzz: the differential fuzzing harness (TxCheck-style, adapted to TD
// implication).
//
// The engine promises a family of semantics-preserving equivalences: delta
// vs naive matching, checkpoint/resume, the service and the cache — each
// leaves a documented slice of the output (verdicts, instances, traces,
// counters) byte-identical.
// Those promises are this library's substitute for an external oracle: TD
// implication is undecidable (the paper's main result), so no reference
// implementation can say what the right answer IS — but five
// configurations of the same solver can still be required to AGREE.
//
// The harness generates endless deterministic streams of implication
// questions (random TDs, semigroup-reduction instances, Fig.1-style
// pumping/gap gadgets), solves each under every axis variant, and
// cross-checks the digests under each axis's invariance class. A divergence
// is shrunk by delta-debugging over dependencies and tableau rows into the
// smallest job that still diverges, then rendered as a replayable repro
// program (core/parser format) that `tdfuzz --replay=FILE` re-checks.
//
// Everything is a pure function of (seed, round, case index): re-running a
// seed replays the exact stream, which is what makes a CI fuzz leg and a
// repro file meaningful.
#ifndef TDLIB_FUZZ_FUZZ_H_
#define TDLIB_FUZZ_FUZZ_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/job.h"
#include "util/status.h"

namespace tdlib {

/// Harness knobs. Defaults give a fast bounded round (~a dozen solver runs
/// per case); the CI leg runs a few rounds of this shape under a wall
/// budget.
struct FuzzOptions {
  std::uint64_t seed = 1;

  /// Cases generated per round (cycling through the three families).
  int cases_per_round = 6;

  /// Round-0 chase step budget of every solve; the dual solver's escalation
  /// doubles it once (rounds = 2). Small by design: divergences in fire
  /// order or counter accounting show up within a few hundred steps.
  std::uint64_t base_steps = 300;

  /// Check the resume-at-checkpoint axis (serialize mid-run, restore,
  /// continue, demand byte-identity with the uninterrupted run).
  bool check_resume = true;

  /// Check the serial-vs-service axis (same job through SolverService).
  bool check_service = true;

  /// Check the cached-vs-fresh axis: the same job submitted twice through a
  /// cache-enabled service — the cold (miss) and warm (hit) results must
  /// both be byte-identical to the serial reference (kFullIdentity), and
  /// the warm submit must actually be served from the cache.
  bool check_cache = true;

  /// Sabotage knob for harness self-tests: arm the fire-order-flip fault
  /// site (util/fault.h) around every VARIANT run, so the variants fire
  /// pending steps in reversed canonical order while the reference does
  /// not. A correct harness must catch this as a divergence on every
  /// byte-compared axis and minimize it; a harness that misses it is
  /// vacuous. Never set outside tests.
  bool inject_fire_order_flip = false;
};

/// How much of two run digests an axis requires to match.
enum class AxisClass {
  /// Everything: verdict, status, all counters, trace, instance bytes.
  kFullIdentity,
  /// Verdict, status, steps, passes, trace and instance bytes — but not the
  /// matching-work counters (hom_nodes, hom_candidates, match_tasks,
  /// carried_passes), which naive and delta matching legitimately split
  /// differently.
  kSemanticsAndFireStream,
};

/// Deterministic fingerprint of one dual-solver run: every field the axis
/// classes compare, flattened to strings so divergence reports are
/// self-describing.
struct RunDigest {
  std::string verdict;        ///< DualVerdictName
  std::string chase_status;   ///< ChaseStatusName of the last chase attempt
  int rounds_used = 0;
  std::uint64_t steps = 0;
  std::uint64_t passes = 0;
  std::uint64_t hom_nodes = 0;
  std::uint64_t hom_candidates = 0;
  std::uint64_t match_tasks = 0;
  std::uint64_t carried_passes = 0;
  std::uint64_t candidates_checked = 0;  ///< model-search side
  std::string trace_text;     ///< rendered fire stream (dep, match, tuples)
  std::string instance_text;  ///< serialized counterexample ("" if none)
};

/// One detected disagreement between the reference run and a variant.
struct FuzzDivergence {
  std::string case_name;
  std::string axis;    ///< "naive", "resume", "service", "cache"
  std::string detail;  ///< first differing field, with both values
};

/// Outcome of one fuzz round.
struct FuzzRoundReport {
  std::uint64_t round = 0;
  int cases = 0;
  int solver_runs = 0;
  std::vector<FuzzDivergence> divergences;
};

/// The per-case solver budgets every axis run shares (reference shape:
/// delta matching, serial, trace recording on, no deadline and no hom
/// budget — the regime where every byte-identity
/// promise is unconditional).
DualSolverConfig FuzzSolverConfig(const FuzzOptions& options);

/// Generates the deterministic case list for (options.seed, round): random
/// TDs with varied shape, semigroup-reduction sweep instances, and Fig.1
/// pumping-gadget questions. Pure in (seed, round).
std::vector<Job> GenerateFuzzCases(const FuzzOptions& options,
                                   std::uint64_t round);

/// Solves `job` under every axis variant and returns the divergences (empty
/// = all promises held). `solver_runs`, when non-null, accumulates the
/// number of solves performed (for round accounting).
std::vector<FuzzDivergence> CheckJobAcrossAxes(const Job& job,
                                               const FuzzOptions& options,
                                               int* solver_runs = nullptr);

/// Compares two digests under an axis class; returns "" when they agree,
/// else a one-line description of the first differing field.
std::string CompareDigests(const RunDigest& reference,
                           const RunDigest& variant, AxisClass axis_class);

/// Generates round `round`, checks every case, publishes fuzz.* metrics.
FuzzRoundReport RunFuzzRound(const FuzzOptions& options, std::uint64_t round);

/// Delta-debugs `job` down to a (locally) minimal job that still diverges
/// under `options`: greedily drops whole premise dependencies, then
/// body/head rows of every remaining tableau, re-checking after each
/// removal, to a fixpoint. Returns `job` unchanged if it does not diverge.
Job MinimizeDivergence(const Job& job, const FuzzOptions& options);

/// Renders `job` as a replayable repro program: a '#' header recording the
/// seed and axis, then a core/parser dependency program whose LAST td is
/// the goal (the files-workload convention).
std::string FormatReproProgram(const Job& job, const FuzzOptions& options,
                               const std::string& axis);

/// Parses a repro program back into a Job (premises = all but the last td,
/// goal = the last; a single-td program is a goal with no premises).
/// Malformed text yields ErrorCode::kParseError.
Result<Job> ParseReproProgram(std::string_view text);

}  // namespace tdlib

#endif  // TDLIB_FUZZ_FUZZ_H_
