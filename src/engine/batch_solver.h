// The batch solver: many implication questions, all cores, one deadline.
//
// This is now a thin compatibility wrapper over the asynchronous
// SolverService (engine/service.h): Run submits every job with the batch's
// deadline as its per-submission deadline, the batch cancel flag as its
// admission gate, and (under stop_on_first_refutation) an on_complete
// callback that closes the gate — then waits for the handles in submission
// order. Batch semantics are therefore preserved by construction, including
// byte-identical DeterministicSummary output; callers who need streaming,
// per-job cancellation or resumable budgets use the service directly.
//
// Three controls matter in production:
//
//   * num_threads     — pool width; 0 means hardware concurrency.
//   * deadline        — a global wall-clock budget. A job that starts
//                       before the deadline has the remaining time divided
//                       across its 2*rounds solver phases (so even a
//                       pumping job stays inside the batch budget); a job
//                       that would start after it is kSkipped.
//   * early stop      — stop_on_first_refutation cancels the rest of the
//                       batch as soon as one job refutes its implication
//                       (useful when a batch encodes "does ANY instance of
//                       this family fail?").
//
// Reentrancy contract (audited for this subsystem): the solver stack below
// SolveImplication — chase, homomorphism search, finite-model enumeration,
// the reduction, parsing — keeps all mutable state in per-call locals and
// per-Instance members; there are no file-scope mutable statics, caches or
// thread_locals in src/. Concurrent jobs are therefore safe as long as each
// Job owns its data (Job is a value type, so it does). Shared *const*
// structures (SchemaPtr, a DependencySet referenced by many jobs) are fine.
//
// Determinism: with no deadline and no early stop, every deterministic
// JobResult field is independent of thread count and scheduling;
// BatchSummary::DeterministicSummary() of a pool run is byte-identical to a
// serial run of the same jobs.
#ifndef TDLIB_ENGINE_BATCH_SOLVER_H_
#define TDLIB_ENGINE_BATCH_SOLVER_H_

#include <atomic>
#include <ostream>
#include <string>
#include <vector>

#include "engine/job.h"

namespace tdlib {

/// Batch-level knobs.
struct BatchOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  int num_threads = 0;

  /// Global wall-clock budget in seconds for the whole batch (<= 0 = none).
  double deadline_seconds = 0;

  /// Cancel outstanding jobs once any job returns kRefutedFinite or
  /// kRefutedByFixpoint.
  bool stop_on_first_refutation = false;
};

/// Everything a batch run produced.
struct BatchSummary {
  std::vector<JobResult> results;  ///< submission order, one per job
  double wall_seconds = 0;         ///< whole-batch wall time
  int num_threads = 1;             ///< pool width actually used
  int num_workers = 0;  ///< worker processes that ran the jobs (0: the pool)
  int completed = 0;
  int skipped = 0;
  int cancelled = 0;  ///< kCancelled runs, counted apart from skips so the
                      ///  totals line and outcome metrics agree

  /// Jobs completed per second of batch wall time.
  double Throughput() const;

  /// Aligned per-job table plus a totals line (tdbatch output).
  std::string ToTable() const;

  /// RFC-4180 CSV, one row per job, JobResult::CsvHeader() schema.
  void WriteCsv(std::ostream& os) const;

  /// Newline-joined JobResult::DeterministicSummary() in submission order;
  /// byte-identical across thread counts when the batch ran without a
  /// deadline or early stop.
  std::string DeterministicSummary() const;
};

/// Runs batches. A solver object may run several batches in sequence; each
/// Run builds a fresh SolverService (and with it a fresh pool) so
/// thread-count changes take effect per call.
class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  /// Blocks until every job completed or was skipped. Thread-compatible:
  /// call Run from one thread at a time (Cancel may race freely).
  BatchSummary Run(const std::vector<Job>& jobs);

  /// Asynchronously requests that jobs not yet started be skipped. Safe to
  /// call from any thread, including from inside a running job. Resets at
  /// the start of every Run.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
  std::atomic<bool> cancel_{false};
};

/// Reference implementation: runs the jobs on the calling thread, in order,
/// honouring the same deadline and early-stop semantics as BatchSolver::Run.
/// Exists so tests and benches can diff batch output against a serial run.
BatchSummary RunSerial(const std::vector<Job>& jobs,
                       const BatchOptions& options = {});

}  // namespace tdlib

#endif  // TDLIB_ENGINE_BATCH_SOLVER_H_
