// The service's execution seam: where a job's runs execute.
//
// SolverService owns everything about a submission except running it —
// admission, cache and dedup, priorities, deadlines, cancellation and the
// one terminal publication path. A Backend only runs, and every run passes
//
//   Enqueue ─▶ (queued) ─▶ BeginRun ─▶ solve ─▶ FinishRun ─▶ PublishTerminal
//
// Two implementations exist: LocalBackend below (a ThreadPool in this
// process) and the worker-process set in cluster/router.h, which hands runs
// to the service's LocalBackend when every worker is down.
#ifndef TDLIB_ENGINE_BACKEND_H_
#define TDLIB_ENGINE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "engine/job_handle.h"
#include "engine/thread_pool.h"

namespace tdlib {
namespace engine_internal {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Schedules run `generation` of `state` at `priority` (higher first).
  /// Returns false, scheduling nothing, iff the backend is shutting down.
  virtual bool Enqueue(const std::shared_ptr<JobState>& state,
                       std::uint64_t generation, int priority) = 0;

  /// Forwards JobHandle::Cancel() of a STARTED run (state->cancel is
  /// already raised; a queued run is cancelled by the handle itself).
  virtual void Cancel(const std::shared_ptr<JobState>& state) = 0;

  /// Runs enqueued but not yet started: what max_queue_depth bounds.
  virtual std::size_t QueueDepth() const = 0;

  /// Blocks until every enqueued run has been published or handed on.
  virtual void WaitIdle() = 0;
};

/// The pickup gate a backend calls when it is about to start a run. True:
/// run it, under `config` (cancel flag wired, deadline clamped). False: it
/// must not run — it was not this run's to start (already terminal, claimed
/// by a queued Cancel, or an orphan of an earlier generation), or it was
/// cancelled, gated or past its deadline and BeginRun published that.
bool BeginRun(const std::shared_ptr<JobState>& state, std::uint64_t generation,
              DualSolverConfig* config);

/// What the publishing-deferred form of BeginRun decided.
enum class Pickup {
  kRun,      ///< run it under `*config`
  kNotMine,  ///< not this run's to start; nothing to publish
  kStopped,  ///< cancelled, gated or past its deadline: the caller must
             ///  PublishTerminal `*stopped`
};

/// BeginRun for a caller that holds a lock no publication may run under:
/// the same gate, but a stopped run's terminal result is handed back in
/// `*stopped` instead of being published.
Pickup BeginRun(const std::shared_ptr<JobState>& state,
                std::uint64_t generation, DualSolverConfig* config,
                JobResult* stopped);

/// Publishes the solver's result of a run BeginRun started: rewrites a run
/// the cancel flag cut short to kCancelled, stamps the queue wait and the
/// cache provenance, then calls PublishTerminal.
void FinishRun(const std::shared_ptr<JobState>& state, JobResult result);

/// Runs jobs on a ThreadPool in this process. The pool is also lent to
/// each job's chase (ChaseConfig::pool) when chase_parallelism is on.
class LocalBackend final : public Backend {
 public:
  LocalBackend(int num_threads, bool chase_parallelism);

  bool Enqueue(const std::shared_ptr<JobState>& state,
               std::uint64_t generation, int priority) override;
  void Cancel(const std::shared_ptr<JobState>&) override {}  // flag suffices
  std::size_t QueueDepth() const override { return pool_.QueueDepth(); }
  void WaitIdle() override { pool_.WaitIdle(); }

  /// Runs a run another backend already passed through BeginRun (a remote
  /// run whose last worker died). False iff the pool is shutting down.
  bool EnqueueBegun(const std::shared_ptr<JobState>& state,
                    DualSolverConfig config, int priority);

  int num_threads() const { return pool_.num_threads(); }

 private:
  void Run(const std::shared_ptr<JobState>& state, DualSolverConfig config);

  ThreadPool pool_;
  bool chase_parallelism_;
};

}  // namespace engine_internal
}  // namespace tdlib

#endif  // TDLIB_ENGINE_BACKEND_H_
