// JobHandle: the caller's end of one submitted implication question.
//
// SolverService::Submit returns a handle instead of blocking; the handle is
// a cheap shared reference to the job's state, so it can be copied, stored,
// waited on from several threads, and outlive the service itself. Four
// capabilities define the surface:
//
//   * Wait()   — block until the job is terminal and return its JobResult.
//   * Poll()   — non-blocking peek: the result if terminal, nullopt if not.
//   * Cancel() — cooperative cancellation. The request is routed through the
//                solver stack's atomic cancel flag (HomSearchOptions), which
//                every homomorphism search observes on an amortized ~512-
//                node cadence, every match stream per match, the chase per
//                fire and the enumerator per candidate — so even a pumping
//                (non-terminating) chase stops within one cadence interval
//                and the job reports JobStatus::kCancelled. Cancelling a
//                queued job makes it terminal without running; cancelling a
//                finished or skipped job is a harmless no-op.
//   * ResumeWithBudget() — re-arm a terminal job with bigger budgets. The
//                job's ChaseSession (the pumped instance + checkpoint of the
//                last budget-stopped chase) is kept across runs, so the new
//                run CONTINUES the previous chase instead of re-deriving it;
//                the final JobResult is byte-identical to running the bigger
//                budget from scratch, minus the re-derivation time.
//
// Because TD implication is undecidable (the paper's main result), every
// question is an open-ended, budgeted computation; this handle is the API
// shape of that fact: submit, observe, cancel, escalate.
#ifndef TDLIB_ENGINE_JOB_HANDLE_H_
#define TDLIB_ENGINE_JOB_HANDLE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "engine/job.h"
#include "util/timer.h"

namespace tdlib {

class SolverService;
class ResultCache;

namespace engine_internal {

struct ServiceCore;

/// Shared state of one submission. Owned jointly by the service (until the
/// job is terminal) and by every JobHandle copy. All mutable fields are
/// guarded by `mu` except the lock-free control flags.
struct JobState {
  // Job has no default constructor (a Dependency is never empty), so the
  // state is born around its job.
  explicit JobState(std::shared_ptr<const Job> j)
      : job(std::move(j)), config(job->config) {}

  // Immutable after Submit.
  std::shared_ptr<const Job> job;  ///< the submission's own copy, shared
                                   ///  with its dedup runner
  int priority = 0;             ///< effective (override or Job::priority);
                                ///  reused by ResumeWithBudget re-enqueues
  double deadline_seconds = 0;  ///< per-submission budget, from submit time
  const std::atomic<bool>* skip_when = nullptr;  ///< admission gate
  std::weak_ptr<ServiceCore> core;  ///< for ResumeWithBudget re-enqueue
  std::uint64_t trace_id = 0;       ///< service-assigned id for trace spans
  std::int64_t submit_ns = 0;       ///< StopWatch tick at Submit/resume (the
                                    ///  "job.queue" trace event's left edge)
  double slow_log_seconds = 0;      ///< ServiceOptions copy: 0 = disabled
  std::function<void(const std::string&)> slow_log_sink;  ///< null = stderr
  std::string tenant;               ///< SubmitOptions::tenant
  bool holds_tenant_slot = false;   ///< charged to the tenant quota at
                                    ///  admission; cleared by the publication
                                    ///  that releases it

  // Lock-free control.
  std::atomic<bool> cancel{false};  ///< cooperative cancel, solver-observed

  // Guarded by mu.
  mutable std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool started = false;  ///< a worker picked this run up (false while queued)
  bool claimed = false;  ///< a queued Cancel() owns this run's termination
  std::uint64_t run_generation = 0;  ///< bumped by every ResumeWithBudget;
                                     ///  a pool task only executes the run
                                     ///  it was enqueued for, so a task
                                     ///  orphaned by a queued Cancel can
                                     ///  never race a later resume's task
  JobResult result;
  DualSolverConfig config;          ///< budgets for the current/next run
  /// Resumable chase of THIS (D, D0), made by the state's first local
  /// run: a remote run, a cache hit or a coalesced waiter never needs one.
  std::unique_ptr<ChaseSession> session;
  std::function<void(const JobResult&)> on_complete;
  Timer submit_timer;               ///< deadline epoch; reset on resume
  double queue_seconds = 0;         ///< this run's Submit-to-pickup wait:
                                    ///  written by BeginRun, read by the
                                    ///  same run's FinishRun

  // Result-cache plumbing (see cache/result_cache.h and the dedup model in
  // engine/service.cc). `fingerprint`/`cache` are set before the state is
  // shared and only on runs that should FILL the cache (the dedup runner);
  // ResumeWithBudget clears them — a resumed run's config differs from what
  // was fingerprinted.
  CacheFingerprint fingerprint;        ///< valid only on cache-filling runs
  std::shared_ptr<ResultCache> cache;  ///< fill target at publication
  bool internal_runner = false;  ///< dedup runner: service-owned, never
                                 ///  handed to callers; skips per-submission
                                 ///  accounting (its waiters carry it)
  CacheSource cache_source = CacheSource::kNone;  ///< stamped into results

  // Guarded by mu. On a runner: the submissions awaiting its verdict
  // (closed exactly once, at publication). On a waiter: the runner it is
  // attached to (cleared at fan-out / cancel, breaking the ref cycle).
  std::vector<std::shared_ptr<JobState>> waiters;
  bool waiters_closed = false;
  std::shared_ptr<JobState> coalesce_runner;
};

/// The single terminal-publication path for every run of every job: fires
/// the streaming callback, stores the result, flips done, notifies waiters,
/// and accounts the outcome (per-status counter, submit-to-terminal
/// latency, in-flight gauge, slow log) EXACTLY once. Worker completions,
/// queued-job cancellations and pool-rejected submissions all route here —
/// which is what makes double-counting an outcome structurally impossible.
/// Caller contract: this run's termination is already claimed (the caller
/// is the worker that set `started`, the Cancel that set `claimed`, or the
/// Submit whose Enqueue failed), so no other thread can publish it.
void PublishTerminal(const std::shared_ptr<JobState>& state,
                     const JobResult& result);

/// Removes a cancelled waiter from its dedup runner and, when it was the
/// LAST waiter, cancels the runner itself (after unpublishing it from the
/// in-flight table so new isomorphic submissions start a fresh run instead
/// of attaching to a dying one). Called by JobHandle::Cancel after the
/// waiter's own kCancelled publication. Defined in service.cc.
void DetachWaiter(const std::shared_ptr<JobState>& runner,
                  const std::shared_ptr<JobState>& waiter);

}  // namespace engine_internal

/// See the file comment. Default-constructed handles are empty (valid() is
/// false); every other handle comes from SolverService::Submit.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// The submitted job's name ("" for an empty handle).
  const std::string& name() const;

  /// Blocks until the job reaches a terminal state and returns the result.
  /// Safe to call repeatedly and from several threads.
  JobResult Wait() const;

  /// Returns the result if the job is terminal, std::nullopt while it is
  /// queued or running. Never blocks.
  std::optional<JobResult> Poll() const;

  /// Requests cooperative cancellation. Returns true iff the request was
  /// registered while the job was still queued or running; the job then
  /// becomes terminal promptly, normally with JobStatus::kCancelled (a job
  /// that was in the last instants of finishing may still publish its
  /// completed result — cancellation is a request, not a rollback). False
  /// if the job was already terminal: nothing changes (harmless no-op).
  bool Cancel() const;

  /// Re-arms a TERMINAL job with new budgets and re-enqueues it on its
  /// service; Wait()/Poll() then track the new run. The retained
  /// ChaseSession makes the new run continue the previous chase when its
  /// last stop was resumable (step/tuple budget), and start afresh
  /// otherwise — either way the result equals a from-scratch run under
  /// `config`. Returns false (and changes nothing) if the job is still
  /// queued/running or the service is gone. Not safe to race with another
  /// Resume on the same handle; Wait/Poll/Cancel may race freely.
  bool ResumeWithBudget(const DualSolverConfig& config) const;

 private:
  friend class SolverService;
  explicit JobHandle(std::shared_ptr<engine_internal::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<engine_internal::JobState> state_;
};

}  // namespace tdlib

#endif  // TDLIB_ENGINE_JOB_HANDLE_H_
