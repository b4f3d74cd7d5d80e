// A fixed-size worker pool with a priority work queue.
//
// The engine's LocalBackend runs many independent (D, D0) dual-solver jobs
// at once, one job per worker; each job's chase runs serially on the worker
// that picked it up. The pool is deliberately minimal: a lock-guarded
// queue, a fixed set of workers started in the constructor, and a graceful
// drain-then-join shutdown. Tasks are plain std::function<void()> thunks —
// all solver plumbing (budgets, deadlines, cancellation) lives in the
// service (engine/service.cc).
//
// Thread-safety: Submit and Shutdown may be called from any thread.
// Tasks must not call Submit on the pool that runs them after Shutdown has
// begun (submissions after Shutdown are rejected and return false).
#ifndef TDLIB_ENGINE_THREAD_POOL_H_
#define TDLIB_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tdlib {

/// Fixed-size thread pool. Workers start immediately; the destructor (or an
/// explicit Shutdown) drains the queue and joins every worker.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Drains and joins (equivalent to Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Higher `priority` runs first; ties run in submission
  /// order (the queue is stable). Returns false iff the pool is shutting
  /// down, in which case the task is dropped.
  bool Submit(std::function<void()> task, int priority = 0);

  /// Stops accepting tasks, runs everything already queued, and joins all
  /// workers. Idempotent; safe to call concurrently with Submit. The first
  /// caller performs the join; do not destroy the pool while another thread
  /// is inside Shutdown.
  void Shutdown();

  /// Blocks until the queue is empty and every worker is idle. The pool
  /// keeps accepting tasks afterwards (unlike Shutdown).
  void WaitIdle();

  int num_threads() const { return num_threads_; }

  /// Tasks currently queued (not yet picked up by a worker).
  std::size_t QueueDepth() const;

 private:
  struct Entry {
    int priority;
    std::uint64_t seq;  ///< submission counter; breaks ties FIFO
    std::int64_t enqueue_ns;  ///< StopWatch tick at Submit when metrics are
                              ///  on, 0 when off (no clock read then)
    std::function<void()> task;
  };
  struct EntryOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;  // earlier submission wins within a priority
    }
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: work or shutdown
  std::condition_variable idle_cv_;   ///< signals WaitIdle: all quiet
  std::priority_queue<Entry, std::vector<Entry>, EntryOrder> queue_;
  std::uint64_t next_seq_ = 0;
  int active_workers_ = 0;  ///< workers currently running a task
  bool shutting_down_ = false;
  int num_threads_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace tdlib

#endif  // TDLIB_ENGINE_THREAD_POOL_H_
