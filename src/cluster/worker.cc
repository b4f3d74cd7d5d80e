#include "cluster/worker.h"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "cache/result_cache.h"
#include "cluster/wire.h"
#include "engine/thread_pool.h"

namespace tdlib {
namespace {

/// Serializes frame writes: the reader thread answers pings while the job
/// thread sends results. A failed write is fatal — a worker that silently
/// dropped a result frame would look healthy (pongs keep flowing) while
/// the router waits forever, so crash-only means die and let supervision
/// recover the job.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  void Write(FrameType type, std::string payload) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!WriteFrameToFd(fd_, type, std::move(payload))) ::_exit(2);
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Solves one wire job. `cancel` is raised by a kCancel frame for this job
/// and by the worker's abort (the stream turned corrupt, so a crash-only
/// exit is not delayed by a long chase).
WireResult ExecuteJob(const WireJob& wire_job, TaskExecutor* pool,
                      ResultCache* cache, const std::atomic<bool>* cancel) {
  WireResult out;
  out.job_id = wire_job.job_id;
  const Job& job = wire_job.job;

  DualSolverConfig config = job.config;
  config.base_chase.pool = pool;
  config.cancel = cancel;
  config.base_chase.cancel = cancel;
  config.base_counterexample.cancel = cancel;

  // The router fingerprinted the FULL config (a cached verdict replays the
  // full run's deterministic bytes, never a probe's), or sent it invalid.
  const CacheFingerprint& fingerprint = wire_job.fingerprint;
  CachedVerdict cached;
  if (fingerprint.valid && cache->Lookup(fingerprint, &cached)) {
    out.result = CachedVerdictToResult(cached, job.name);
    return out;
  }

  ChaseSession session;
  if (!wire_job.session_text.empty()) {
    std::istringstream iss(wire_job.session_text);
    Result<ChaseSession> restored =
        ChaseSession::Deserialize(job.goal.schema_ptr(), iss);
    // A corrupt migrated session is not fatal: running from scratch under
    // the full config produces the same bytes (resume is invisible); only
    // the probe's work is lost.
    if (restored.ok()) session = std::move(restored).value();
  }

  const std::uint64_t probe_steps = wire_job.probe_steps;
  const bool try_probe =
      probe_steps > 0 && !session.CanResume() &&
      config.base_chase.deadline_seconds <= 0 &&
      config.base_counterexample.deadline_seconds <= 0 &&
      (config.base_chase.max_steps == 0 ||
       probe_steps < config.base_chase.max_steps);
  if (try_probe) {
    DualSolverConfig probe_config = config;
    probe_config.rounds = 1;
    probe_config.base_chase.max_steps = probe_steps;
    JobResult probe_result = RunJob(job, probe_config, &session);
    if (probe_result.status == JobStatus::kCompleted &&
        probe_result.verdict == DualVerdict::kUnknown && session.CanResume()) {
      std::ostringstream oss;
      session.Serialize(oss);
      out.parked = true;
      out.session_text = oss.str();
      out.result = std::move(probe_result);  // informational only
      return out;
    }
    // Any other probe outcome is discarded and the full config runs from
    // scratch: a certificate reached under the probe budgets carries the
    // truncated run's counters (and the probe's early counterexample round
    // can even certify a different-but-sound verdict), so publishing it
    // would break byte-parity with the serial reference.
    session.Reset();
  }

  out.result = RunJob(job, config, &session);
  // A cancelled run's counters describe where the cancel landed, not the
  // problem: never cache them.
  if (fingerprint.valid && out.result.status == JobStatus::kCompleted &&
      !cancel->load(std::memory_order_relaxed)) {
    cache->Insert(fingerprint, CachedVerdictFromResult(out.result, 0));
    out.result.cache_source = CacheSource::kMiss;
  }
  return out;
}

}  // namespace

int RunWorkerLoop(int fd, const WorkerOptions& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) pool = std::make_unique<ThreadPool>(options.threads);
  ResultCache cache(CacheOptions{options.cache_bytes, /*shards=*/4});
  FrameWriter writer(fd);

  // `cancel` is the running job's solver flag; `abort` marks the
  // crash-only exit. Both are written under `mu`, so a job starting never
  // loses a cancel (or an abort) aimed at it.
  std::atomic<bool> cancel{false};
  std::atomic<bool> abort{false};

  std::mutex mu;
  std::condition_variable cv;
  std::optional<WireJob> inbox;  // single outstanding job by protocol
  std::uint64_t running_id = 0;  // job the solver thread is on (0: none)
  std::uint64_t cancel_id = 0;   // latest job id a kCancel frame named
  bool stop = false;
  bool busy = false;
  int jobs_done = 0;

  std::thread solver([&] {
    for (;;) {
      std::optional<WireJob> wire_job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || inbox.has_value(); });
        if (!inbox.has_value()) return;
        wire_job.swap(inbox);
        busy = true;
        running_id = wire_job->job_id;
        cancel.store(abort.load(std::memory_order_relaxed) ||
                         cancel_id == running_id,
                     std::memory_order_relaxed);
      }
      WireResult result = ExecuteJob(*wire_job, pool.get(), &cache, &cancel);
      // On the corrupt-stream abort path the chase was cancelled; that
      // result is an artifact of dying, not an answer — suppress it so the
      // router recovers the job through the crash path instead.
      if (!abort.load(std::memory_order_relaxed)) {
        writer.Write(FrameType::kResult, EncodeResultPayload(result));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        busy = false;
        running_id = 0;
        ++jobs_done;
      }
      cv.notify_all();
    }
  });

  writer.Write(FrameType::kHello, "tdhello " + std::to_string(::getpid()) +
                                      " " +
                                      std::to_string(kWireProtocolVersion));

  int exit_code = 0;
  for (;;) {
    Result<Frame> frame = ReadFrameFromFd(fd);
    if (!frame.ok()) {
      // Clean EOF = the router went away; anything else is a corrupt
      // stream and we take the crash-only exit.
      exit_code = frame.code() == ErrorCode::kUnavailable ? 0 : 2;
      break;
    }
    const FrameType type = frame.value().type;
    if (type == FrameType::kPing) {
      bool hang;
      {
        std::lock_guard<std::mutex> lock(mu);
        hang = options.hang_after_jobs > 0 &&
               jobs_done >= options.hang_after_jobs;
      }
      if (!hang) {
        writer.Write(FrameType::kPong, std::move(frame.value().payload));
      }
      continue;
    }
    if (type == FrameType::kJob) {
      Result<WireJob> wire_job = DecodeJobPayload(frame.value().payload);
      if (!wire_job.ok()) {
        exit_code = 2;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        inbox = std::move(wire_job).value();
      }
      cv.notify_all();
      continue;
    }
    if (type == FrameType::kCancel) {
      // Job ids start at 1, so an unparsable id (0) cancels nothing.
      const std::uint64_t id =
          std::strtoull(frame.value().payload.c_str(), nullptr, 10);
      std::lock_guard<std::mutex> lock(mu);
      cancel_id = id;
      if (running_id == id) cancel.store(true, std::memory_order_relaxed);
      continue;
    }
    if (type == FrameType::kShutdown) break;
    // kHello/kPong/kResult are worker->router vocabulary; ignore echoes.
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    if (exit_code != 0) {
      abort.store(true, std::memory_order_relaxed);
      cancel.store(true, std::memory_order_relaxed);
    }
    if (exit_code == 0) {
      // Drain: let an in-flight job finish and send its result.
      cv.wait(lock, [&] { return !busy && !inbox.has_value(); });
    }
    inbox.reset();
    stop = true;
  }
  cv.notify_all();
  solver.join();
  return exit_code;
}

}  // namespace tdlib
