// The cluster router: sharded dispatch over supervised worker processes.
//
// Topology (examples/tdrouter is the CLI face of this):
//
//   Submit ──admission──▶ dispatcher ──ring──▶ worker 0  (tdworker process)
//                            │                 worker 1
//                            │                 ...
//                            └──▶ fallback solver (in-process, last resort)
//
// One dispatcher thread owns all scheduling state and processes an event
// queue fed by per-worker reader threads; there is no shared mutable
// scheduling state outside it. Jobs are keyed on the canonical-form
// fingerprint (cache/canonical.h), so isomorphic jobs consistently land on
// the same worker and its result cache serves repeats as kHit.
//
// Robustness model:
//   * crash    — a worker's socket closing (or a corrupt frame from it)
//                marks the slot down, requeues its in-flight job on a
//                healthy worker (bounded by max_retries, then shed as
//                kSkipped), and restarts the process under bounded
//                exponential backoff until max_restarts is spent;
//   * hang     — heartbeat pings every heartbeat_interval_seconds; a worker
//                silent past heartbeat_timeout_seconds is SIGKILLed and
//                takes the crash path;
//   * corrupt  — every frame and payload decoder rejects damage with typed
//                kCorrupt; the router treats a worker speaking garbage as
//                crashed (and a worker treats a garbled router the same
//                way: crash-only, both directions);
//   * overload — per-tenant quotas and a global queue bound shed excess
//                submissions immediately as kSkipped;
//   * migration— with migration_probe_steps set, a first dispatch runs a
//                bounded probe; a chase that is still running at the probe
//                budget parks its ChaseSession, which the router migrates
//                to the least-loaded worker and resumes — byte-identical
//                to an uninterrupted run by the PR-4 resume contract;
//   * all down — when every slot is permanently dead the router degrades
//                to an in-process fallback solver rather than failing
//                accepted jobs.
//
// Every terminal outcome — completed (hit or solved), shed, retries
// exhausted, fallback — flows through ONE publication path (FinishJob,
// mirroring engine_internal::PublishTerminal's ordering: completion
// callback, then the done flip, then exactly-once cluster.* counters), so
// outcome counters sum to submissions even across crash/retry races.
#ifndef TDLIB_CLUSTER_ROUTER_H_
#define TDLIB_CLUSTER_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "engine/job.h"

namespace tdlib {

namespace cluster_internal {
struct ClusterJobState;
class RouterImpl;
}  // namespace cluster_internal

struct ClusterOptions {
  /// Worker process count. 0 = no workers: every job takes the fallback
  /// path (useful as a serial reference inside one process tree).
  int num_workers = 2;

  /// Worker executable. "" = $TDLIB_TDWORKER. Spawned as
  /// `cmd --fd=N --threads=T --cache-bytes=B [--hang-after=K]`.
  std::string worker_command;

  int worker_threads = 1;
  std::size_t worker_cache_bytes = 16u << 20;

  /// Crash retries per job before it is shed as kSkipped (a dispatch lost
  /// to a worker death is re-dispatched this many times).
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

  /// Global bound on jobs admitted but not yet terminal. 0 = unbounded.
  std::size_t max_queue_depth = 1024;

  /// Per-tenant bound on in-flight jobs. 0 = unbounded.
  std::size_t tenant_quota = 0;

  /// Degrade to an in-process solver when all workers are permanently
  /// down (off: such jobs are shed as kSkipped once retries exhaust).
  bool fallback_when_down = true;

  /// Test hook forwarded to workers (WorkerOptions::hang_after_jobs).
  int hang_after_jobs = 0;
};

/// How a job left the router. kCompleted covers worker solves, worker
/// cache hits (JobResult::cache_source == kHit) and migrated resumes
/// (ClusterResult::migrated); the rest are degraded exits.
enum class ClusterOutcome {
  kCompleted,         ///< a worker produced the verdict
  kShedQueue,         ///< refused at admission: queue depth bound
  kShedQuota,         ///< refused at admission: tenant quota
  kRetriesExhausted,  ///< lost to crashes max_retries+1 times -> kSkipped
  kFallback,          ///< solved by the in-process fallback (workers down)
};

std::string_view ClusterOutcomeName(ClusterOutcome outcome);

struct ClusterResult {
  JobResult result;
  ClusterOutcome outcome = ClusterOutcome::kCompleted;
  int attempts = 0;      ///< dispatches (1 = first try succeeded)
  bool migrated = false; ///< a parked checkpoint moved between workers
  int worker = -1;       ///< slot that produced the result (-1: none)
};

struct ClusterSubmitOptions {
  std::string tenant = "default";
  /// Runs on the publishing thread BEFORE waiters wake (the PublishTerminal
  /// ordering). Must not re-enter the router.
  std::function<void(const ClusterResult&)> on_complete;
};

/// Waitable handle to one submitted job.
class ClusterHandle {
 public:
  ClusterHandle() = default;

  /// Blocks until the job is terminal and returns its result.
  const ClusterResult& Wait() const;

  /// Non-blocking: terminal yet?
  bool Done() const;

 private:
  friend class cluster_internal::RouterImpl;
  explicit ClusterHandle(
      std::shared_ptr<cluster_internal::ClusterJobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<cluster_internal::ClusterJobState> state_;
};

/// Always-on totals (plain atomics, readable without enabling metrics;
/// the same figures publish as cluster.* counters when metrics are on).
struct ClusterStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t shed_queue = 0;
  std::int64_t shed_quota = 0;
  std::int64_t retries_exhausted = 0;
  std::int64_t fallback = 0;
  std::int64_t cache_hits = 0;    ///< completed jobs served from worker caches
  std::int64_t migrated = 0;      ///< completed jobs that resumed a parked chase
  std::int64_t retries = 0;       ///< re-dispatches after a worker death
  std::int64_t worker_crashes = 0;
  std::int64_t worker_restarts = 0;
  std::int64_t heartbeat_timeouts = 0;
  std::int64_t workers_up = 0;    ///< workers on the ring right now
};

class ClusterRouter {
 public:
  explicit ClusterRouter(ClusterOptions options);

  /// Drains in-flight jobs, shuts workers down and reaps them.
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Admits or sheds `job`. Shedding (quota/queue) is decided and published
  /// synchronously; the returned handle is then already Done. Never blocks
  /// on solver work.
  ClusterHandle Submit(Job job, ClusterSubmitOptions options = {});

  /// Blocks until every admitted job is terminal.
  void WaitIdle();

  ClusterStats Stats() const;

  /// Test hook: SIGKILL the process currently occupying `slot` (no-op when
  /// the slot is empty). The crash is then handled like any other.
  void KillWorker(int slot);

 private:
  std::unique_ptr<cluster_internal::RouterImpl> impl_;
};

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_ROUTER_H_
