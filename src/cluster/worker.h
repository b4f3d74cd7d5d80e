// The cluster worker: one process, one solver, one socket to the router.
//
// A worker is deliberately crash-only: it trusts nothing it reads (every
// frame and payload decoder returns typed kCorrupt on damage) and answers
// corruption by EXITING — the router's supervision treats the vanished
// worker exactly like a crash, reschedules the jobs it held, and restarts
// the slot. There is no in-worker error recovery to get wrong.
//
// Execution preserves the engine's byte-identity contracts end to end:
//   * a kJob frame carrying a parked ChaseSession resumes it, and the
//     resumed result equals an uninterrupted run's bytes (PR-4 contract);
//   * a probe dispatch (WireJob::probe_steps > 0) runs one round under the
//     probe budget; if that parks a resumable checkpoint the worker returns
//     kParked and the ROUTER migrates the session — the probe's own result
//     is never published, because its counters describe the truncated run;
//   * a worker-side ResultCache serves repeat isomorphic jobs as kHit,
//     which consistent-hash affinity routing makes likely.
#ifndef TDLIB_CLUSTER_WORKER_H_
#define TDLIB_CLUSTER_WORKER_H_

#include <cstddef>

namespace tdlib {

struct WorkerOptions {
  /// Chase matching parallelism inside this worker (1 = serial; the
  /// byte-identity guarantee holds at any value).
  int threads = 1;

  /// Worker-side result cache budget.
  std::size_t cache_bytes = 16u << 20;

  /// Test hook (tdworker --hang-after=N): after completing N jobs the
  /// worker stops answering heartbeat pings while keeping its socket open —
  /// a wedged process, which the router must detect by pong timeout and
  /// SIGKILL. 0 = never hang.
  int hang_after_jobs = 0;
};

/// Runs the worker protocol loop on `fd` (the router end of a socketpair)
/// until shutdown. Returns the process exit code: 0 for a clean kShutdown /
/// peer-closed exit, 2 when the stream turned corrupt (the crash-only
/// path — the supervisor restarts us).
int RunWorkerLoop(int fd, const WorkerOptions& options);

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_WORKER_H_
