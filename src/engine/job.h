// Jobs: one (D, D0) implication question plus its solver budgets.
//
// A Job is a value: it owns its dependency set, its goal, and its
// DualSolverConfig, so distinct jobs share no mutable state and any number
// of them may be solved concurrently (the chase / model-search stack keeps
// all state per call — see the reentrancy note in batch_solver.h).
//
// JobResult is the structured outcome the batch layer collects: verdict,
// escalation rounds, chase and model-search statistics, and wall time.
// Every field except wall_seconds is a deterministic function of the job,
// which is what makes batch-vs-serial equivalence checkable bit-for-bit
// (JobResult::DeterministicSummary).
#ifndef TDLIB_ENGINE_JOB_H_
#define TDLIB_ENGINE_JOB_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chase/dual_solver.h"
#include "core/dependency.h"

namespace tdlib {

/// One implication question for the engine.
///
/// Aggregate-initialize: Job{name, deps, goal, config, priority}.
struct Job {
  std::string name;          ///< stable identifier (workload-assigned)
  DependencySet dependencies;  ///< the premise set D
  Dependency goal;           ///< the candidate consequence D0
  DualSolverConfig config;   ///< per-job budgets (rounds, chase, model search)
  int priority = 0;          ///< higher runs earlier under contention
};

/// How a job left the engine.
enum class JobStatus {
  kCompleted,  ///< the dual solver ran to a verdict (possibly kUnknown)
  kSkipped,    ///< never started: deadline passed or an admission gate closed
  kCancelled,  ///< JobHandle::Cancel() stopped it (queued or mid-run)
};

/// How the result cache participated in producing a result. Provenance
/// only — a cache-served verdict is byte-identical to a fresh solve, so
/// this is excluded from DeterministicSummary (it is NOT deterministic:
/// it depends on what ran before).
enum class CacheSource {
  kNone,       ///< cache disabled / not consulted (deadline, resume, ...)
  kMiss,       ///< consulted, absent: this submission ran the solver
  kHit,        ///< served instantly from a cached verdict
  kCoalesced,  ///< attached to an in-flight isomorphic run (in-flight dedup)
};

/// "none", "miss", "hit", "coalesced".
std::string_view CacheSourceName(CacheSource source);

/// Structured outcome of one job.
struct JobResult {
  std::string name;
  JobStatus status = JobStatus::kSkipped;
  DualVerdict verdict = DualVerdict::kUnknown;
  int rounds_used = 0;

  // Chase-side statistics (last attempt).
  std::uint64_t chase_steps = 0;
  std::uint64_t chase_passes = 0;
  std::uint64_t hom_nodes = 0;
  std::uint64_t match_tasks = 0;     ///< chase body searches run
  std::uint64_t carried_passes = 0;  ///< passes with burst-cap carried steps

  // Model-search-side statistics (last attempt).
  std::uint64_t candidates_checked = 0;

  double wall_seconds = 0;  ///< nondeterministic; excluded from comparisons

  /// Cache provenance (engine/service fills it; plain RunJob leaves kNone).
  /// History-dependent, so excluded from DeterministicSummary like the
  /// wall-clock fields; surfaced in CsvRow and BatchSummary::ToTable.
  CacheSource cache_source = CacheSource::kNone;

  /// Worker process slot that produced the result (cluster/router.h); -1
  /// when it ran in this process or never ran. Provenance, excluded from
  /// DeterministicSummary like cache_source.
  int worker = -1;

  // Wall-clock phase breakdown (nondeterministic, excluded from
  // DeterministicSummary like wall_seconds; carried into CsvRow/ToTable and
  // the service's slow log). queue_seconds is filled by the service worker
  // at pickup; the chase phases come from ChaseResult's breakdown.
  double queue_seconds = 0;       ///< Submit → worker pickup
  double match_seconds = 0;       ///< chase matching phases
  double fire_seconds = 0;        ///< chase firing phases
  double checkpoint_seconds = 0;  ///< chase checkpoint captures

  /// "IMPLIED", "REFUTED-FINITE", "REFUTED-FIXPOINT", "UNKNOWN", "SKIPPED",
  /// "CANCELLED".
  std::string_view VerdictName() const;

  /// One-line human-readable rendering (includes wall time).
  std::string ToString() const;

  /// Rendering of every deterministic field, for batch-vs-serial
  /// equivalence checks. Two runs of the same job must produce identical
  /// strings regardless of thread count or machine load. The format is a
  /// cross-version contract (resume-vs-rerun parity is checked against it);
  /// new statistics go in CsvRow/ToTable, not here.
  std::string DeterministicSummary() const;

  /// CSV schema used by tdbatch and the benches.
  static std::vector<std::string> CsvHeader();
  std::vector<std::string> CsvRow() const;
};

/// Runs the dual solver on one job, synchronously, on the calling thread.
/// This is the single execution path shared by serial and batch modes.
JobResult RunJob(const Job& job);

/// Same, but with the solver config overridden (batch-clamped deadlines,
/// the lent chase pool). Copying the small config instead of the whole Job
/// — dependency set, tableaux, goal — keeps per-job overhead off the
/// batch throughput path.
JobResult RunJob(const Job& job, const DualSolverConfig& config);

/// Same, threading a persistent ChaseSession so a budget-exhausted job can
/// later be continued (JobHandle::ResumeWithBudget) instead of re-run. The
/// session must belong to THIS job — it encodes the chase of this (D, D0).
JobResult RunJob(const Job& job, const DualSolverConfig& config,
                 ChaseSession* session);

/// Human-readable name of a DualVerdict ("IMPLIED", ...).
std::string_view DualVerdictName(DualVerdict verdict);

/// True iff the job ran and refuted its implication (finitely or by chase
/// fixpoint) — the predicate behind stop_on_first_refutation and the CLI's
/// --stop-on-refutation, kept in one place so they cannot diverge.
bool IsRefutation(const JobResult& result);

}  // namespace tdlib

#endif  // TDLIB_ENGINE_JOB_H_
