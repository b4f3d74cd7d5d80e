// SolverService: the engine's long-lived, asynchronous public surface.
//
// TD implication is undecidable, so a production engine can never promise a
// one-shot answer; the honest API shape is a service that accepts questions
// as they arrive and hands back observable, cancellable, resumable handles:
//
//   SolverService service(options);            // options.num_threads = 8
//   JobHandle h = service.Submit(job, submit); // submit.deadline_seconds = 2
//   ...
//   JobResult r = h.Wait();                  // or h.Poll(), h.Cancel()
//   if (r.verdict == DualVerdict::kUnknown)  // budgets ran out — escalate
//     h.ResumeWithBudget(bigger), r = h.Wait();
//
// Submissions carry their own deadline, priority and completion callback —
// the per-batch-only controls of the old blocking BatchSolver::Run are now
// per question. BatchSolver still exists as a thin compatibility wrapper
// over this service (engine/batch_solver.h), so the collect-everything
// batch mode and its byte-identical DeterministicSummary are preserved by
// construction.
//
// Execution model: the service decides WHETHER and WHEN a job runs; a
// backend (engine/backend.h) decides WHERE. The default backend is one
// fixed-width ThreadPool that runs one job per worker, each job's chase
// serially on that worker, so the pool never oversubscribes. ClusterRouter
// (cluster/router.h) builds the same service over worker processes
// instead, keeping that pool as the fallback for when every worker is
// down. Submit never blocks on solver work.
//
// Lifetime: the destructor waits for every submitted job to reach a
// terminal state (queued jobs still run). Handles are shared state and
// stay valid after the service is gone; only ResumeWithBudget then fails.
#ifndef TDLIB_ENGINE_SERVICE_H_
#define TDLIB_ENGINE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/fingerprint.h"
#include "engine/backend.h"
#include "engine/job_handle.h"

namespace tdlib {

class ResultCache;

/// Service-wide knobs (fixed at construction).
struct ServiceOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  int num_threads = 0;

  /// Slow log: a job whose submit-to-terminal wall time reaches this many
  /// seconds emits a one-line phase breakdown (queue/match/fire/checkpoint)
  /// when it terminates. <= 0 disables. Purely observational — it changes
  /// nothing about scheduling or results.
  double slow_log_seconds = 0;

  /// Where slow-log lines go; null = stderr. Must be thread-safe (it runs
  /// on whichever thread publishes the terminal state).
  std::function<void(const std::string&)> slow_log_sink;

  /// Backpressure: when > 0, Submit sheds a job (terminal kSkipped, counted
  /// in engine.jobs_shed) instead of enqueuing while the backend already
  /// holds this many queued, not yet started runs, and TrySubmit declines
  /// it. 0 = accept everything (the historical behavior). Shedding at
  /// admission keeps an overloaded service's queue latency bounded — a
  /// caller that must not lose work uses TrySubmit/SubmitWithRetry and
  /// holds the job itself.
  std::size_t max_queue_depth = 0;

  /// Per-tenant backpressure: when > 0, a submission whose
  /// SubmitOptions::tenant already has this many admitted, not yet
  /// terminal jobs is shed the same way (also counted in
  /// engine.jobs_shed_quota). Cache hits and in-flight attaches start no
  /// run and are never charged. 0 = no quota.
  std::size_t tenant_quota = 0;

  /// Canonical-form result cache (cache/result_cache.h); null = off. The
  /// service consults it BEFORE enqueuing: a submission whose (D, D0,
  /// budgets) canonicalize to a cached verdict terminates instantly with a
  /// byte-identical result (CacheSource::kHit), and a miss isomorphic to a
  /// RUNNING job attaches to that run instead of starting its own chase
  /// (in-flight dedup: one solve, N completions as CacheSource::kCoalesced;
  /// the shared run is cancelled only when its last waiter cancels).
  /// Shared, so one cache can back several services and outlive all of them
  /// (tdbatch's warm-start file loads into it before the service exists).
  /// Submissions carrying a wall-clock deadline bypass the cache — their
  /// results are not a deterministic function of the job
  /// (cache/canonical.h).
  std::shared_ptr<ResultCache> result_cache;
};

/// Per-submission controls — what used to be batch-global.
struct SubmitOptions {
  /// Wall-clock budget in seconds, measured from Submit (<= 0 = none). A
  /// job whose deadline passed before it started is kSkipped; a started job
  /// has the remaining time split across its 2*rounds solver phases, so
  /// even a pumping job stays inside the budget.
  double deadline_seconds = 0;

  /// Scheduling priority (higher runs earlier under contention); overrides
  /// Job::priority when set.
  std::optional<int> priority;

  /// Streaming callback: invoked exactly once PER RUN, on the worker
  /// thread, the moment this job reaches a terminal state — i.e. callbacks
  /// across jobs arrive in COMPLETION order, not submission order, and a
  /// ResumeWithBudget re-fires the callback when the resumed run finishes.
  /// (One exception to "on the worker thread": a job cancelled while still
  /// queued terminates — and fires its callback — on the cancelling
  /// thread. On the cluster backend the publishing thread is the router's;
  /// see ClusterSubmitOptions in cluster/router.h.) It runs BEFORE the
  /// terminal state becomes observable, so a Wait() that returns implies
  /// this job's callback already finished (no stray-callback races when
  /// collecting after a streamed batch). Consequently it must not Wait() on
  /// its own handle, and its Poll() still reads nullopt — the result is the
  /// argument. Keep it cheap and thread-safe; it runs on the pool's
  /// critical path.
  std::function<void(const JobResult&)> on_complete;

  /// Admission gate: read once when a worker picks the job up; true means
  /// the job is kSkipped without running. This is how a family of related
  /// submissions implements early stop ("any refutation cancels the rest"):
  /// point every submission at one shared flag and raise it from an
  /// on_complete callback. The flag must outlive the job.
  const std::atomic<bool>* skip_when = nullptr;

  /// Quota bucket for ServiceOptions::tenant_quota ("" is a tenant too).
  std::string tenant;
};

/// Retry policy for SubmitWithRetry: attempts are spaced by an exponential
/// backoff (initial_backoff_seconds, then *multiplier each time). The waits
/// happen on the CALLING thread — this is the client-side answer to
/// admission shedding, for callers that prefer latency over load loss.
struct RetryOptions {
  int max_attempts = 3;
  double initial_backoff_seconds = 0.001;
  double multiplier = 2.0;
};

namespace engine_internal {

/// Builds the service's remote backend around its local one (the fallback
/// for runs no remote worker can take). Used by ClusterRouter.
using RemoteBackendFactory =
    std::function<std::unique_ptr<Backend>(LocalBackend* local)>;

/// The shared guts: the backends plus the options and the admission and
/// dedup tables. JobStates hold a weak_ptr so ResumeWithBudget can
/// re-enqueue while the service lives and fail cleanly after it is gone.
struct ServiceCore : std::enable_shared_from_this<ServiceCore> {
  ServiceCore(const ServiceOptions& options,
              const RemoteBackendFactory& remote_factory);

  /// Schedules the current run of `state` on the backend at `priority`.
  /// Returns false (leaving the state untouched) iff it is shutting down.
  bool Enqueue(const std::shared_ptr<JobState>& state, int priority);

  /// True when admission control should decline new work (max_queue_depth
  /// set and the backend's queue already at it). Racy by design — see
  /// ServiceOptions::max_queue_depth.
  bool AtCapacity() const {
    return options.max_queue_depth > 0 &&
           backend->QueueDepth() >= options.max_queue_depth;
  }

  /// Tenant quota: true when `tenant` has no admitted slot left.
  bool TenantFull(const std::string& tenant);

  /// Charges `state` one slot of its tenant's quota; false (charging
  /// nothing) when the tenant is full. The slot is released when the
  /// submission's run is published.
  bool ChargeTenant(const std::shared_ptr<JobState>& state);
  void ReleaseTenant(const std::string& tenant);

  /// Blocks until every run on either backend is published.
  void WaitIdle() {
    backend->WaitIdle();  // the remote may hand runs to the local pool
    local.WaitIdle();
  }

  ServiceOptions options;
  LocalBackend local;
  std::unique_ptr<Backend> remote;  ///< null: everything runs locally
  Backend* backend;                 ///< remote when set, else &local

  std::mutex tenant_mu;
  std::unordered_map<std::string, std::size_t> tenant_load;

  /// In-flight dedup table: fingerprint -> the internal runner solving it.
  /// Entries are registered at miss time and erased by the runner's
  /// publication (or by DetachWaiter when the last waiter cancels). Lock
  /// order: inflight_mu before any JobState::mu, never the reverse.
  std::mutex inflight_mu;
  std::unordered_map<CacheFingerprint, std::shared_ptr<JobState>,
                     CacheFingerprintHash>
      inflight;
};

}  // namespace engine_internal

/// See the file comment.
class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});

  /// A service whose jobs run on the backend `remote` builds (ClusterRouter
  /// is the public way to get one over worker processes).
  SolverService(ServiceOptions options,
                const engine_internal::RemoteBackendFactory& remote);

  /// Blocks until every submitted job is terminal, then joins the workers.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues one implication question. Never blocks on solver work. The
  /// job is copied into the handle's shared state, so the caller's Job may
  /// die immediately.
  JobHandle Submit(Job job, SubmitOptions options = {});

  /// Admission-checked submission: returns false — publishing NOTHING, so
  /// the caller still owns the job and may retry — when the queue is at
  /// ServiceOptions::max_queue_depth or the tenant at its quota. On success behaves exactly like
  /// Submit and stores the handle through `handle` (which must be non-null).
  /// The depth check and the enqueue are not atomic; the bound is a target,
  /// not an exact invariant, which is fine for load shedding.
  bool TrySubmit(Job job, SubmitOptions options, JobHandle* handle);

  /// TrySubmit in a backoff loop: sleeps between attempts per `retry`, and
  /// if every attempt finds the queue full, gives up by publishing the job
  /// as kSkipped (counted both as shed and skipped) so the returned handle
  /// always terminates — no caller-visible difference from a skip_when skip.
  JobHandle SubmitWithRetry(Job job, SubmitOptions options,
                            const RetryOptions& retry);

  /// Blocks until every job submitted so far is terminal. The service keeps
  /// accepting submissions afterwards.
  void WaitIdle();

  /// Local pool width actually in use.
  int num_threads() const { return core_->local.num_threads(); }

 private:
  std::shared_ptr<engine_internal::ServiceCore> core_;
};

/// Splits `remaining_seconds` of wall clock across the 2*rounds phases of a
/// dual-solver run and clamps config's per-phase deadlines accordingly.
/// SolveImplication grants each phase its deadline afresh every round and
/// never rechecks the clock between rounds, so handing every phase the full
/// remaining time would overshoot by up to 2*rounds; the split keeps the
/// whole job inside the budget (under-feeding the cheap early rounds).
/// Shared by the service workers and the RunSerial reference mode so both
/// express identical deadline semantics.
void ClampConfigToBudget(DualSolverConfig* config, double remaining_seconds);

}  // namespace tdlib

#endif  // TDLIB_ENGINE_SERVICE_H_
