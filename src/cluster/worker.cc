#include "cluster/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

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

  /// With `decided`, the lock under which the frame's content was decided:
  /// it is released only once this writer is held, so frames leave in the
  /// order of those decisions.
  void Write(FrameType type, std::string payload,
             std::unique_lock<std::mutex>* decided = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (decided != nullptr) decided->unlock();
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
                      const std::atomic<bool>* cancel) {
  WireResult out;
  out.job_id = wire_job.job_id;
  const Job& job = wire_job.job;

  DualSolverConfig config = job.config;
  config.base_chase.pool = pool;
  config.cancel = cancel;
  config.base_chase.cancel = cancel;
  config.base_counterexample.cancel = cancel;

  ChaseSession session;
  out.result = RunJob(job, config, &session);
  return out;
}

}  // namespace

int RunWorkerLoop(int fd, const WorkerOptions& options) {
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 1) pool = std::make_unique<ThreadPool>(options.threads);
  FrameWriter writer(fd);

  // `cancel` is the running job's solver flag; `abort` marks the
  // crash-only exit. Both are written under `mu`, so a job starting never
  // loses a cancel (or an abort) aimed at it.
  std::atomic<bool> cancel{false};
  std::atomic<bool> abort{false};

  // The router keeps a few jobs here so the solver goes from one to the
  // next without waiting on a round trip. A job that arrives while the
  // solver is idle starts at once; the others wait in the inbox, which runs
  // in the priority the router sent, FIFO within a priority. Every result
  // frame names the job the solver is on as it leaves (running_job_id), so
  // the router knows which job a crash interrupts.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<WireJob> inbox;
  std::optional<WireJob> next;   // handed to the solver, not yet taken up
  std::uint64_t running_id = 0;  // job the solver is on (0: idle)
  bool stop = false;
  int jobs_done = 0;

  // Under `mu`: the solver's next job.
  auto start = [&](WireJob job) {
    running_id = job.job_id;
    cancel.store(abort.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    next.emplace(std::move(job));
  };

  std::thread solver([&] {
    for (;;) {
      std::optional<WireJob> wire_job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || next.has_value(); });
        if (!next.has_value()) return;
        wire_job.swap(next);
      }
      WireResult result = ExecuteJob(*wire_job, pool.get(), &cancel);
      std::unique_lock<std::mutex> lock(mu);
      ++jobs_done;
      if (inbox.empty()) {
        running_id = 0;
      } else {
        start(std::move(inbox.front()));
        inbox.pop_front();
      }
      result.running_job_id = running_id;
      // On the corrupt-stream abort path the chase was cancelled; that
      // result is an artifact of dying, not an answer — suppress it so the
      // router recovers the job through the crash path instead.
      if (abort.load(std::memory_order_relaxed)) {
        lock.unlock();
      } else {
        writer.Write(FrameType::kResult, EncodeResultPayload(result), &lock);
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
        if (running_id == 0) {
          start(std::move(wire_job).value());
        } else {
          const int priority = wire_job.value().job.priority;
          auto it = inbox.end();
          while (it != inbox.begin() && (it - 1)->job.priority < priority) {
            --it;
          }
          inbox.insert(it, std::move(wire_job).value());
        }
      }
      cv.notify_all();
      continue;
    }
    if (type == FrameType::kCancel) {
      // Job ids start at 1, so an unparsable id (0) cancels nothing; nor
      // does the id of a job already answered.
      const std::uint64_t id =
          std::strtoull(frame.value().payload.c_str(), nullptr, 10);
      std::unique_lock<std::mutex> lock(mu);
      if (id == running_id) {
        cancel.store(true, std::memory_order_relaxed);
        continue;
      }
      auto it = std::find_if(
          inbox.begin(), inbox.end(),
          [id](const WireJob& queued) { return queued.job_id == id; });
      if (it != inbox.end()) {
        // Never started: it leaves the inbox and is answered at once, not
        // after the jobs ahead of it.
        WireResult cancelled;
        cancelled.job_id = id;
        cancelled.running_job_id = running_id;
        cancelled.result.name = it->job.name;
        cancelled.result.status = JobStatus::kCancelled;
        inbox.erase(it);
        writer.Write(FrameType::kResult, EncodeResultPayload(cancelled),
                     &lock);
      }
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
      // Drain: let the held jobs finish and send their results.
      cv.wait(lock, [&] { return running_id == 0; });
    }
    inbox.clear();
    next.reset();
    stop = true;
  }
  cv.notify_all();
  solver.join();
  return exit_code;
}

}  // namespace tdlib
