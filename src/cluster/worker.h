// The cluster worker: one process, one solver, one socket to the router.
//
// A worker is deliberately crash-only: it trusts nothing it reads (every
// frame and payload decoder returns typed kCorrupt on damage) and answers
// corruption by EXITING — the router's supervision treats the vanished
// worker exactly like a crash, reschedules the jobs it held, and restarts
// the slot. There is no in-worker error recovery to get wrong.
//
// Each kJob frame runs to the end under the config it carries, through the
// same RunJob as a local run, so its result has a local run's bytes. A
// worker keeps no result cache: the router's front door (the SolverService
// it builds) serves repeats and coalesces isomorphic jobs before any of
// them is sent.
#ifndef TDLIB_CLUSTER_WORKER_H_
#define TDLIB_CLUSTER_WORKER_H_

namespace tdlib {

struct WorkerOptions {
  /// Chase matching parallelism inside this worker (1 = serial; the
  /// byte-identity guarantee holds at any value).
  int threads = 1;

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
