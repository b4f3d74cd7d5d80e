// The cluster: SolverService over supervised worker processes.
//
// ClusterRouter builds a SolverService whose backend (engine/backend.h) is a
// set of tdworker processes instead of the in-process pool:
//
//   SolverService::Submit ── admission, cache, dedup (the service's own)
//            │
//            ▼
//   WorkerSet dispatcher ──ring──▶ worker 0  (tdworker process)
//            │                     worker 1
//            │                     ...
//            └──▶ local backend (the service's pool; only when every
//                 worker is down)
//
// Jobs therefore get everything a local submission gets — JobHandle
// Wait/Poll/Cancel, deadlines, priorities, ResumeWithBudget, the result
// cache — from the one implementation in engine/service.cc; this layer
// only runs them. One dispatcher thread owns all scheduling state and
// processes an event queue fed by per-worker reader threads. Jobs are keyed
// on the canonical-form fingerprint (cache/canonical.h), so isomorphic jobs
// consistently land on the same worker and its result cache serves repeats
// as kHit. Each worker's queue runs in priority order.
//
// Robustness model:
//   * crash    — a worker's socket closing (or a corrupt frame from it)
//                marks the slot down, requeues its in-flight job on a
//                healthy worker (bounded by max_retries, then published as
//                kSkipped), and restarts the process under bounded
//                exponential backoff until max_restarts is spent;
//   * hang     — heartbeat pings every heartbeat_interval_seconds; a worker
//                silent past heartbeat_timeout_seconds is SIGKILLed and
//                takes the crash path;
//   * corrupt  — every frame and payload decoder rejects damage with typed
//                kCorrupt; the router treats a worker speaking garbage as
//                crashed (and a worker treats a garbled router the same
//                way: crash-only, both directions);
//   * cancel   — JobHandle::Cancel() of a dispatched job sends a kCancel
//                frame; the worker raises its solver's cancel flag, so even
//                a pumping chase stops promptly;
//   * migration— with migration_probe_steps set, a first dispatch runs a
//                bounded probe; a chase that is still running at the probe
//                budget parks its ChaseSession, which the router migrates
//                to the least-loaded worker and resumes — byte-identical
//                to an uninterrupted run by the PR-4 resume contract;
//   * all down — when every slot is permanently dead, jobs run on the
//                service's local backend.
#ifndef TDLIB_CLUSTER_ROUTER_H_
#define TDLIB_CLUSTER_ROUTER_H_

#include <cstddef>
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
  /// `cmd --fd=N --threads=T --cache-bytes=B [--hang-after=K]`.
  std::string worker_command;

  int worker_threads = 1;
  std::size_t worker_cache_bytes = 16u << 20;

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

  /// When > 0: first dispatch of a job runs a probe with this chase-step
  /// budget; a still-running chase parks and migrates (see file comment).
  std::uint64_t migration_probe_steps = 0;

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
  /// ordering). Must not re-enter the router.
  std::function<void(const ClusterResult&)> on_complete;
};

/// Always-on worker-set totals (plain atomics, readable without enabling
/// metrics; the same figures publish as cluster.* counters when metrics are
/// on). Admission and outcome totals are the service's engine.* metrics.
struct ClusterStats {
  std::int64_t completed = 0;     ///< runs a worker answered
  std::int64_t cache_hits = 0;    ///< of those, served from a worker cache
  std::int64_t migrated = 0;      ///< of those, resumed a parked chase
  std::int64_t retries = 0;       ///< re-dispatches after a worker death
  std::int64_t worker_crashes = 0;
  std::int64_t worker_restarts = 0;
  std::int64_t heartbeat_timeouts = 0;
  std::int64_t workers_up = 0;    ///< workers on the ring right now
};

class ClusterRouter {
 public:
  /// Spawns the workers. `service` configures the front door as for any
  /// SolverService; its num_threads sizes the local backend, which runs
  /// jobs only while every worker is down. The one-argument form uses a
  /// one-thread local backend and no router-side cache.
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
