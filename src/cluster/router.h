// The cluster: SolverService over supervised worker processes.
//
// ClusterRouter builds a SolverService whose backend (engine/backend.h) is a
// set of tdworker processes instead of the in-process pool:
//
//   SolverService::Submit ── admission, cache, dedup (the service's own)
//            │
//            ▼
//   WorkerSet::Enqueue ──▶ one pending queue ──pull──▶ worker 0  (tdworker)
//            │                                         worker 1
//            │                                         ...
//            └──▶ local backend (the service's pool; only when every
//                 worker is down)
//
// Jobs therefore get everything a local submission gets — JobHandle
// Wait/Poll/Cancel, deadlines, priorities, ResumeWithBudget, the result
// cache — from the one implementation in engine/service.cc; this layer
// only runs them. The front door's cache, when the service has one, is the
// cluster's only cache: a repeat is a kHit, and an isomorphic job submitted
// while another runs is coalesced onto it, before either reaches this
// layer; workers cache nothing. Runs wait in one priority queue, and every worker that is up
// pulls from it while its window has room: the worker holding the fewest
// runs first (so an idle one goes first), the lowest slot index on a tie.
// A run is sent once, with its full config, and one result answers it;
// only a worker's death sends it again. A chase never moves between
// workers part-way, so a remote ResumeWithBudget runs the new budgets from
// scratch.
//
// Threads. One mutex guards the scheduling state (slots, the queue).
// No job is published and no socket is written while it is held: frames
// are queued under it and written once it is released (cluster/sender.h).
// Enqueue queues a run and writes its job frame on the submitting thread;
// Cancel and KillWorker run on the calling thread. Each worker has a reader
// thread that handles that worker's hellos, pongs and results in place and
// then sends it more jobs, and a writer thread that only writes what the
// worker's socket did not take at once, so no thread that reads results
// ever waits on a write. A dispatcher thread keeps only the timers
// (heartbeat pings, hang kills, restart backoff) and worker deaths, where
// it joins the dead worker's threads and reaps the process.
//
// A worker holds a small fixed window of jobs (kWorkerWindow in router.cc):
// the one it is solving and the next few in its inbox, which it runs in
// the runs' priority order. A job that reaches an idle worker starts at
// once, and each result names the job the worker is solving as it leaves,
// so the router always knows which job that is. A run with a deadline or a
// skip_when gate is sent only to an idle worker, so its pickup reads the
// clock and the gate when it starts.
//
// Robustness model:
//   * crash    — a worker's socket closing (or a corrupt frame from it)
//                marks the slot down and puts its jobs back in the queue
//                for the healthy workers: the one it was solving is
//                charged a retry (bounded by max_retries, then published
//                as kSkipped), the rest go back freely; the process
//                restarts under bounded exponential backoff until
//                max_restarts is spent;
//   * hang     — heartbeat pings every heartbeat_interval_seconds; a worker
//                silent past heartbeat_timeout_seconds is SIGKILLed and
//                takes the crash path;
//   * corrupt  — every frame and payload decoder rejects damage with typed
//                kCorrupt; the router treats a worker speaking garbage as
//                crashed (and a worker treats a garbled router the same
//                way: crash-only, both directions);
//   * cancel   — JobHandle::Cancel() of a dispatched job sends a kCancel
//                frame; the worker raises its solver's cancel flag, so even
//                a pumping chase stops promptly, or answers a job still in
//                its inbox as kCancelled at once;
//   * all down — when every slot is permanently dead, jobs run on the
//                service's local backend.
#ifndef TDLIB_CLUSTER_ROUTER_H_
#define TDLIB_CLUSTER_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/service.h"

namespace tdlib {

namespace cluster_internal {
class WorkerSet;
}  // namespace cluster_internal

struct ClusterOptions {
  /// Worker process count. 0 = no workers: every job runs on the local
  /// backend (useful as a serial reference inside one process tree).
  int num_workers = 2;

  /// Worker executable. "" = $TDLIB_TDWORKER. Spawned as
  /// `cmd --fd=N [--hang-after=K]`.
  std::string worker_command;

  /// Ignored: a worker runs each job's chase serially and takes no thread
  /// count. Kept only for callers that still set it; it goes with the
  /// cluster's compatibility layer (ClusterRouter and its option types).
  int worker_threads = 1;

  /// Crash retries per job before it is published as kSkipped (a dispatch
  /// lost to a worker death is re-dispatched this many times).
  int max_retries = 2;

  /// Process restarts per slot before the slot is abandoned for good.
  int max_restarts = 3;

  /// Exponential restart backoff: initial delay, doubling per consecutive
  /// restart, capped.
  double restart_backoff_seconds = 0.05;
  double restart_backoff_cap_seconds = 1.0;

  double heartbeat_interval_seconds = 0.25;
  double heartbeat_timeout_seconds = 2.0;

  /// Test hook forwarded to workers (WorkerOptions::hang_after_jobs).
  int hang_after_jobs = 0;
};

/// What an on_complete callback sees: a view of the published result,
/// valid only during the callback (copy `result` to keep it).
struct ClusterResult {
  const JobResult& result;
  int worker = -1;  ///< slot that produced the result (-1: local backend)
};

struct ClusterSubmitOptions {
  /// Runs on the publishing thread BEFORE waiters wake (the PublishTerminal
  /// ordering): a worker's reader thread, the dispatcher, or the thread
  /// that submitted or cancelled. Never under the router's lock, so it may
  /// submit jobs and cancel them. It must not wait for another job to
  /// finish: the results of the worker whose reader runs it wait on it.
  std::function<void(const ClusterResult&)> on_complete;
};

/// Always-on worker-set totals (plain atomics, readable without enabling
/// metrics; the same figures publish as cluster.* counters when metrics are
/// on). Admission and outcome totals are the service's engine.* metrics.
struct ClusterStats {
  std::int64_t completed = 0;     ///< runs a worker answered
  /// Always 0: workers keep no cache (the front door's hits are its
  /// ResultCache's stats). Kept for callers that still read it.
  std::int64_t cache_hits = 0;
  std::int64_t retries = 0;       ///< re-dispatches after a worker death
  std::int64_t worker_crashes = 0;
  std::int64_t worker_restarts = 0;
  std::int64_t heartbeat_timeouts = 0;
  std::int64_t workers_up = 0;    ///< workers up (said hello, not dead)
};

class ClusterRouter {
 public:
  /// Spawns the workers. `service` configures the front door as for any
  /// SolverService; its num_threads sizes the local backend, which runs
  /// jobs only while every worker is down, and it caches exactly when its
  /// result_cache is set. The one-argument form uses a one-thread local
  /// backend and a default ResultCache.
  explicit ClusterRouter(ClusterOptions options);
  ClusterRouter(ClusterOptions options, ServiceOptions service);

  /// Drains in-flight jobs, shuts workers down and reaps them.
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// The front door: the full SolverService API over the workers.
  SolverService& service() { return *service_; }

  /// service().Submit with a callback that also reports the worker.
  JobHandle Submit(Job job, ClusterSubmitOptions options = {});

  /// Blocks until every submitted job is terminal.
  void WaitIdle() { service_->WaitIdle(); }

  ClusterStats Stats() const;

  /// Test hook: SIGKILL the process currently occupying `slot` (no-op when
  /// the slot is empty). The crash is then handled like any other.
  void KillWorker(int slot);

 private:
  cluster_internal::WorkerSet* workers_ = nullptr;  ///< owned by service_
  std::unique_ptr<SolverService> service_;
};

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_ROUTER_H_
