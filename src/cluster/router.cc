#include "cluster/router.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "cluster/sender.h"
#include "cluster/wire.h"
#include "util/metrics.h"

namespace tdlib {
namespace cluster_internal {

namespace {

using Clock = std::chrono::steady_clock;
using engine_internal::JobState;

/// Jobs a worker holds at once: the one its solver runs and the rest in its
/// inbox, so the solver never idles for a round trip between jobs.
/// Throughput does not fix the value: on perfbench `cluster` (a 4-deep
/// closed-loop client over 2 workers, one pinned CPU of a shared 4-vCPU
/// host) 2 and 4 measured 19600 and 19061 jobs/s, medians of 6 alternating
/// 30 s pairs against an interquartile range of 4406. The priority contract
/// does: jobs queued behind a running one are ordered by priority only once
/// they reach the worker's inbox, and 4 holds a running job and three
/// queued ones (PerSubmissionPriorityOverridesJobPriority/Remote).
constexpr std::size_t kWorkerWindow = 4;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One run the worker set owns, from Enqueue until it is published or
/// handed to the local backend. Guarded by the worker-set lock.
struct RemoteRun {
  std::shared_ptr<JobState> state;
  std::uint64_t generation = 0;
  int priority = 0;
  std::uint64_t id = 0;      ///< wire job id
  bool begun = false;        ///< passed BeginRun; `config` is then valid
  DualSolverConfig config;
  int crash_retries = 0;     ///< dispatches lost to worker deaths
};
using RunPtr = std::shared_ptr<RemoteRun>;

/// Keeps `queue` in priority order, FIFO within a priority.
void InsertByPriority(std::deque<RunPtr>* queue, RunPtr run) {
  auto it = queue->end();
  while (it != queue->begin() && (*(it - 1))->priority < run->priority) --it;
  queue->insert(it, std::move(run));
}

/// A run whose pickup reads the clock or a gate (a deadline, skip_when) is
/// begun only when a worker is idle: a job reaching an idle worker starts
/// at once, so BeginRun reads them when the run starts and not while it
/// waits in a worker's inbox.
bool BeginsOnIdleWorker(const RemoteRun& run) {
  return run.state->deadline_seconds > 0 || run.state->skip_when != nullptr;
}

/// An always-on stat and its cluster.* counter.
class Stat {
 public:
  explicit Stat(const char* name)
      : counter_(MetricsRegistry::Global().GetCounter(name)) {}
  void Add() {
    value_.fetch_add(1, std::memory_order_relaxed);
    counter_->Add(1);
  }
  std::int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
  Counter* counter_;
};

/// Frames, publications and hand-offs decided under the worker-set lock,
/// carried out once it is released: a completion callback may re-enter the
/// service (submit, cancel), so nothing publishes while the lock is held,
/// and no socket write waits under it.
struct Outbox {
  std::vector<std::shared_ptr<FrameSender>> sends;  ///< frames queued
  struct Terminal {
    std::shared_ptr<JobState> state;
    JobResult result;
    bool finish;  ///< through FinishRun (a run that began) or straight
                  ///  to PublishTerminal (BeginRun's stopped result)
  };
  std::vector<Terminal> terminals;
  std::vector<RunPtr> local;  ///< for the local backend
  std::size_t done = 0;       ///< runs that leave with nothing to publish
};

}  // namespace

/// The remote backend: see the file comment of cluster/router.h.
class WorkerSet final : public engine_internal::Backend {
 public:
  WorkerSet(ClusterOptions options, engine_internal::LocalBackend* local)
      : options_(std::move(options)), local_(local) {
    if (options_.worker_command.empty()) {
      const char* env = std::getenv("TDLIB_TDWORKER");
      if (env != nullptr) options_.worker_command = env;
    }
    workers_healthy_gauge_ =
        MetricsRegistry::Global().GetGauge("cluster.workers_healthy");
    slots_.resize(static_cast<std::size_t>(
        options_.num_workers < 0 ? 0 : options_.num_workers));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].index = static_cast<int>(i);
      slots_[i].restart_at = Clock::now();  // spawn on the first tick
    }
    if (slots_.empty()) all_dead_ = true;
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }

  ~WorkerSet() override {
    WaitIdle();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    dispatcher_cv_.notify_all();
    dispatcher_.join();
    ShutdownWorkers();
  }

  bool Enqueue(const std::shared_ptr<JobState>& state,
               std::uint64_t generation, int priority) override {
    auto run = std::make_shared<RemoteRun>();
    run->state = state;
    run->generation = generation;
    run->priority = priority;
    Outbox out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return false;
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      ++queued_;
      run->id = next_id_++;
      Requeue(run, &out);
      Pump(&out);
    }
    Flush(&out);
    return true;
  }

  /// A started run was cancelled: tell the worker holding it, or end it
  /// here when it is between workers (requeued after a crash).
  void Cancel(const std::shared_ptr<JobState>& state) override {
    Outbox out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!CancelAtWorker(state, &out)) {
        RunPtr run = TakeBegun(state);
        if (run != nullptr) Stop(run, JobStatus::kCancelled, &out);
      }
    }
    Flush(&out);
  }

  /// Runs not yet begun, and runs waiting in a worker's inbox behind the
  /// one it is solving.
  std::size_t QueueDepth() const override {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t depth = queued_;
    for (const Slot& slot : slots_) {
      if (slot.window.size() > 1) depth += slot.window.size() - 1;
    }
    return depth;
  }

  void WaitIdle() override {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }

  ClusterStats Stats() const {
    ClusterStats s;
    s.completed = completed_.Get();
    s.retries = retries_.Get();
    s.worker_crashes = worker_crashes_.Get();
    s.worker_restarts = worker_restarts_.Get();
    s.heartbeat_timeouts = heartbeat_timeouts_.Get();
    s.workers_up = workers_up_.load(std::memory_order_relaxed);
    return s;
  }

  void KillWorker(int slot) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot >= 0 && slot < static_cast<int>(slots_.size()) &&
        slots_[slot].pid > 0) {
      ::kill(slots_[slot].pid, SIGKILL);
    }
  }

 private:
  struct Slot {
    enum State { kDown, kStarting, kUp, kDead };
    int index = 0;
    State state = kDown;
    pid_t pid = -1;
    int fd = -1;
    std::thread reader;
    int restarts = 0;
    double backoff = 0;
    Clock::time_point restart_at;
    Clock::time_point last_pong;
    Clock::time_point last_ping;
    std::uint64_t ping_seq = 0;
    bool kill_sent = false;  ///< heartbeat SIGKILL already delivered
    std::shared_ptr<FrameSender> sender;  ///< frames to the worker
    /// Runs sent and not yet answered, in send order (at most
    /// kWorkerWindow).
    std::deque<RunPtr> window;
    /// Wire id of the window's run the worker is solving (0: none). The
    /// worker names it in each result; a run sent to an idle worker starts
    /// at once.
    std::uint64_t running = 0;
  };

  /// What a dead worker leaves to clean up once the lock is released.
  struct Remains {
    std::thread reader;
    std::shared_ptr<FrameSender> sender;
    int fd = -1;
    pid_t pid = -1;
  };

  static void Count(const char* name) {
    MetricsRegistry::Global().GetCounter(name)->Add(1);
  }

  // ---- publication (never under mu_) ---------------------------------------

  /// Carries out what `out` collected under the lock, then accounts the
  /// runs that left this backend.
  void Flush(Outbox* out) {
    for (const std::shared_ptr<FrameSender>& sender : out->sends) {
      sender->Flush();
    }
    out->sends.clear();
    for (Outbox::Terminal& t : out->terminals) {
      if (t.finish) {
        engine_internal::FinishRun(t.state, std::move(t.result));
      } else {
        engine_internal::PublishTerminal(t.state, t.result);
      }
    }
    // Every worker is permanently down: the service's own pool takes the
    // run. The pool outlives this backend, so the hand-off cannot be
    // refused.
    for (const RunPtr& run : out->local) {
      if (run->begun) {
        local_->EnqueueBegun(run->state, run->config, run->priority);
      } else {
        local_->Enqueue(run->state, run->generation, run->priority);
      }
    }
    Done(out->terminals.size() + out->local.size() + out->done);
    out->terminals.clear();
    out->local.clear();
    out->done = 0;
  }

  /// `n` runs left this backend: published, or handed to the local one.
  void Done(std::size_t n) {
    if (n == 0) return;
    if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      std::lock_guard<std::mutex> lock(mu_);
      idle_cv_.notify_all();
    }
  }

  // ---- scheduling (under mu_) ----------------------------------------------

  /// Sends a cancel frame for `state`'s run to the worker holding it;
  /// false when no worker holds it.
  bool CancelAtWorker(const std::shared_ptr<JobState>& state, Outbox* out) {
    for (Slot& slot : slots_) {
      for (const RunPtr& run : slot.window) {
        if (run->state == state) {
          Send(slot, FrameType::kCancel, std::to_string(run->id), out);
          return true;
        }
      }
    }
    return false;
  }

  /// Removes and returns `state`'s begun run from the pending queue, if it
  /// is there (requeued after a crash).
  RunPtr TakeBegun(const std::shared_ptr<JobState>& state) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if ((*it)->state == state && (*it)->begun) {
        RunPtr run = std::move(*it);
        pending_.erase(it);
        return run;
      }
    }
    return nullptr;
  }

  /// Ends a run here without a worker's answer.
  static void Stop(const RunPtr& run, JobStatus status, Outbox* out) {
    JobResult result;
    result.name = run->state->job->name;
    result.status = status;
    out->terminals.push_back({run->state, std::move(result), true});
  }

  /// Queues a frame to a slot's worker; Flush writes it once the lock is
  /// released. A failed write forces the crash path (see SpawnWorker).
  static void Send(Slot& slot, FrameType type, std::string_view payload,
                   Outbox* out) {
    slot.sender->Queue(type, payload);
    if (out->sends.empty() || out->sends.back() != slot.sender) {
      out->sends.push_back(slot.sender);
    }
  }

  void HandleHello(Slot& slot, Outbox* out) {
    slot.state = Slot::kUp;
    slot.last_pong = Clock::now();
    slot.last_ping = slot.last_pong;
    SetWorkersUp(workers_up_.load(std::memory_order_relaxed) + 1);
    Pump(out);
  }

  /// Workers that have said hello and not died since (guarded by mu_).
  void SetWorkersUp(std::int64_t n) {
    workers_healthy_gauge_->Set(n);
    workers_up_.store(n, std::memory_order_relaxed);
  }

  void HandleResult(Slot& slot, WireResult& wire_result, Outbox* out) {
    auto it = std::find_if(slot.window.begin(), slot.window.end(),
                           [&wire_result](const RunPtr& run) {
                             return run->id == wire_result.job_id;
                           });
    if (it == slot.window.end()) return;  // not a job this worker holds
    RunPtr run = std::move(*it);
    slot.window.erase(it);
    slot.running = wire_result.running_job_id != 0 ? wire_result.running_job_id
                   : slot.window.empty()           ? 0
                                                   : slot.window.front()->id;
    completed_.Add();
    wire_result.result.worker = slot.index;
    out->terminals.push_back({run->state, std::move(wire_result.result), true});
    Pump(out);
  }

  /// Takes a dead worker out of the pull and requeues its runs. Only the
  /// run its solver was on was lost mid-run: that one takes the
  /// retry-counted path. The rest waited in the worker's inbox and go back
  /// to the queue like runs never sent.
  Remains HandleWorkerDeath(Slot& slot, Outbox* out) {
    worker_crashes_.Add();
    if (slot.state == Slot::kUp) {
      SetWorkersUp(workers_up_.load(std::memory_order_relaxed) - 1);
    }
    Remains remains{std::move(slot.reader), std::move(slot.sender), slot.fd,
                    slot.pid};
    slot.fd = -1;
    slot.pid = -1;  // reaped once the lock is released
    slot.kill_sent = false;

    std::deque<RunPtr> window;
    window.swap(slot.window);
    const std::uint64_t running = slot.running;
    slot.running = 0;
    RetireOrRestart(slot, out);

    for (const RunPtr& run : window) {
      Recover(run, /*lost=*/run->id == running, out);
    }
    Pump(out);
    return remains;
  }

  /// Requeues a run a dead worker held; a `lost` run is charged a retry.
  void Recover(const RunPtr& run, bool lost, Outbox* out) {
    if (run->state->cancel.load(std::memory_order_relaxed)) {
      Stop(run, JobStatus::kCancelled, out);  // nobody wants the answer
      return;
    }
    if (lost) {
      if (++run->crash_retries > options_.max_retries) {
        Count("cluster.jobs_retries_exhausted");
        Stop(run, JobStatus::kSkipped, out);
        return;
      }
      retries_.Add();
    }
    Requeue(run, out);
  }

  /// Puts a run in the one pending queue, which the workers pull from
  /// (Pump); once every slot is dead it goes to the local backend instead.
  void Requeue(const RunPtr& run, Outbox* out) {
    if (all_dead_) {
      RunLocally(run, out);
    } else {
      InsertByPriority(&pending_, run);
    }
  }

  void RunLocally(const RunPtr& run, Outbox* out) {
    if (!run->begun) --queued_;
    out->local.push_back(run);
  }

  /// The up worker with room in its window that takes the next run: the
  /// one holding the fewest runs, so an idle worker goes first, and the
  /// lowest slot index on a tie. With `idle_only`, only an idle worker.
  Slot* PullingSlot(bool idle_only) {
    Slot* best = nullptr;
    for (Slot& slot : slots_) {
      if (slot.state != Slot::kUp || slot.window.size() >= kWorkerWindow ||
          (idle_only && !slot.window.empty())) {
        continue;
      }
      if (best == nullptr || slot.window.size() < best->window.size()) {
        best = &slot;
      }
    }
    return best;
  }

  /// Sends pending runs, in queue order, while some up worker has room.
  void Pump(Outbox* out) {
    while (!pending_.empty()) {
      const RemoteRun& next = *pending_.front();
      Slot* slot = PullingSlot(!next.begun && BeginsOnIdleWorker(next));
      if (slot == nullptr) return;
      RunPtr run = std::move(pending_.front());
      pending_.pop_front();
      if (!run->begun) {
        // The remote analogue of a pool worker's pickup.
        --queued_;
        JobResult stopped;
        switch (engine_internal::BeginRun(run->state, run->generation,
                                          &run->config, &stopped)) {
          case engine_internal::Pickup::kRun:
            break;
          case engine_internal::Pickup::kNotMine:
            ++out->done;
            continue;
          case engine_internal::Pickup::kStopped:
            out->terminals.push_back({run->state, std::move(stopped), false});
            continue;
        }
        run->begun = true;
      }
      if (slot->window.empty()) slot->running = run->id;
      slot->window.push_back(run);
      Send(*slot, FrameType::kJob,
           EncodeJobPayload(run->id, run->priority, *run->state->job,
                            run->config),
           out);
    }
  }

  bool AllSlotsDead() const {
    for (const Slot& slot : slots_) {
      if (slot.state != Slot::kDead) return false;
    }
    return true;
  }

  /// After a crash or a failed spawn: restart the slot under backoff, or
  /// abandon it once its restarts are spent. When the last slot goes,
  /// every queued run moves to the local backend.
  void RetireOrRestart(Slot& slot, Outbox* out) {
    if (slot.restarts < options_.max_restarts) {
      ++slot.restarts;
      slot.state = Slot::kDown;
      slot.backoff = slot.backoff <= 0
                         ? options_.restart_backoff_seconds
                         : std::min(slot.backoff * 2,
                                    options_.restart_backoff_cap_seconds);
      slot.restart_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(slot.backoff));
      return;
    }
    slot.state = Slot::kDead;
    if (!AllSlotsDead()) return;
    all_dead_ = true;
    for (RunPtr& run : pending_) RunLocally(run, out);
    pending_.clear();
  }

  // ---- dispatcher: timers and worker deaths --------------------------------

  void DispatcherLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    Outbox out;
    while (!stopping_) {
      while (!gone_.empty()) {
        Slot& slot = slots_[static_cast<std::size_t>(gone_.front())];
        gone_.pop_front();
        Remains remains = HandleWorkerDeath(slot, &out);
        lock.unlock();
        Flush(&out);
        Reap(&remains);
        lock.lock();
      }
      Tick(&out);
      lock.unlock();
      Flush(&out);
      lock.lock();
      dispatcher_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
        return stopping_ || !gone_.empty();
      });
    }
  }

  /// Timers: heartbeats, hang detection, restart backoff.
  void Tick(Outbox* out) {
    const Clock::time_point now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state == Slot::kUp || slot.state == Slot::kStarting) {
        if (!slot.kill_sent &&
            Seconds(now - slot.last_pong) >
                options_.heartbeat_timeout_seconds) {
          heartbeat_timeouts_.Add();
          slot.kill_sent = true;
          if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
          // The reader observes EOF and reports the death; recovery
          // happens there.
        }
        if (slot.state == Slot::kUp && !slot.kill_sent &&
            Seconds(now - slot.last_ping) >
                options_.heartbeat_interval_seconds) {
          slot.last_ping = now;
          Send(slot, FrameType::kPing, std::to_string(++slot.ping_seq), out);
        }
      } else if (slot.state == Slot::kDown && now >= slot.restart_at) {
        SpawnWorker(slot, out);
      }
    }
  }

  /// Drops what is still queued for a dead worker, joins its reader and
  /// writer, closes its socket and reaps it.
  static void Reap(Remains* remains) {
    if (remains->fd >= 0) ::shutdown(remains->fd, SHUT_RDWR);
    if (remains->sender != nullptr) remains->sender->Close();
    if (remains->reader.joinable()) remains->reader.join();
    if (remains->fd >= 0) ::close(remains->fd);
    if (remains->pid > 0) {
      ::kill(remains->pid, SIGKILL);  // idempotent; covers the hang path
      ::waitpid(remains->pid, nullptr, 0);
    }
  }

  // ---- worker processes ----------------------------------------------------

  void SpawnWorker(Slot& slot, Outbox* out) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      FailSpawn(slot, out);
      return;
    }
    // Parent ends must not leak into later children.
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);

    // argv is fully materialized BEFORE fork: only async-signal-safe calls
    // are allowed between fork and exec in a threaded process.
    std::vector<std::string> args;
    {
      std::istringstream iss(options_.worker_command);
      for (std::string tok; iss >> tok;) args.push_back(tok);
    }
    if (args.empty()) {
      ::close(fds[0]);
      ::close(fds[1]);
      FailSpawn(slot, out);
      return;
    }
    args.push_back("--fd=" + std::to_string(fds[1]));
    if (options_.hang_after_jobs > 0) {
      args.push_back("--hang-after=" +
                     std::to_string(options_.hang_after_jobs));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      FailSpawn(slot, out);
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      ::execvp(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);

    if (slot.restarts > 0) worker_restarts_.Add();  // not the first spawn
    slot.pid = pid;
    slot.fd = fds[0];
    // A failed write kills the worker: its reader then sees the socket
    // close, and recovery requeues the slot's runs.
    slot.sender = std::make_shared<FrameSender>(
        slot.fd, [pid] { ::kill(pid, SIGKILL); });
    slot.state = Slot::kStarting;
    slot.kill_sent = false;
    slot.last_pong = Clock::now();  // hello must arrive within the timeout
    const int index = slot.index;
    const int fd = slot.fd;
    slot.reader = std::thread([this, index, fd] { ReaderLoop(index, fd); });
  }

  /// A spawn that could not even start counts like an instant crash (same
  /// backoff, same bounded restarts), minus a job loss — nothing was sent.
  void FailSpawn(Slot& slot, Outbox* out) {
    worker_crashes_.Add();
    RetireOrRestart(slot, out);
  }

  /// One per live worker: handles the worker's hellos, pongs and results
  /// in place, and reports its death to the dispatcher. A slot's state
  /// stays this reader's until it reports that death.
  void ReaderLoop(int index, int fd) {
    Slot& slot = slots_[static_cast<std::size_t>(index)];
    Outbox out;
    for (;;) {
      Result<Frame> frame = ReadFrameFromFd(fd);
      if (!frame.ok()) {
        if (frame.code() == ErrorCode::kCorrupt) {
          Count("cluster.frames_corrupt");
        }
        break;
      }
      const FrameType type = frame.value().type;
      if (type == FrameType::kResult) {
        Result<WireResult> wire_result =
            DecodeResultPayload(frame.value().payload);
        if (!wire_result.ok()) {
          // A worker speaking garbage is crashed by definition (the
          // crash-only pact, enforced from the router side).
          Count("cluster.frames_corrupt");
          break;
        }
        std::lock_guard<std::mutex> lock(mu_);
        HandleResult(slot, wire_result.value(), &out);
      } else if (type == FrameType::kHello) {
        std::lock_guard<std::mutex> lock(mu_);
        HandleHello(slot, &out);
      } else if (type == FrameType::kPong) {
        std::lock_guard<std::mutex> lock(mu_);
        slot.last_pong = Clock::now();
      }
      // Anything else is router->worker vocabulary echoed back; ignore.
      Flush(&out);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      gone_.push_back(index);
    }
    dispatcher_cv_.notify_one();
  }

  void ShutdownWorkers() {
    // The dispatcher is stopped and WaitIdle emptied the pipeline. Ask
    // each live worker to drain and unblock its reader by shutting the
    // socket down in both directions; once the readers are joined, the
    // slots are ours alone.
    std::vector<std::thread> readers;
    std::vector<std::shared_ptr<FrameSender>> senders;
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Slot& slot : slots_) {
        if (slot.sender != nullptr) {
          slot.sender->Queue(FrameType::kShutdown, "");
          senders.push_back(std::move(slot.sender));
          fds.push_back(slot.fd);
        }
        readers.push_back(std::move(slot.reader));
      }
    }
    for (std::size_t i = 0; i < senders.size(); ++i) {
      senders[i]->Close();  // writes the shutdown frame
      ::shutdown(fds[i], SHUT_RDWR);
    }
    for (std::thread& reader : readers) {
      if (reader.joinable()) reader.join();
    }
    for (Slot& slot : slots_) {
      if (slot.fd >= 0) {
        ::close(slot.fd);
        slot.fd = -1;
      }
      if (slot.pid > 0) {
        // Grace period for the clean exit, then force.
        int status = 0;
        bool reaped = false;
        for (int i = 0; i < 200; ++i) {
          if (::waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
            reaped = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!reaped) {
          ::kill(slot.pid, SIGKILL);
          ::waitpid(slot.pid, &status, 0);
        }
        slot.pid = -1;
      }
    }
  }

  // ---- members -------------------------------------------------------------

  ClusterOptions options_;
  engine_internal::LocalBackend* local_;  ///< the service's; outlives us

  /// Guards everything below but the atomics: scheduling state and the
  /// slots. Frames are queued under it and written after it is released
  /// (FrameSender), so a reader waiting for it never waits on a socket.
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;        ///< outstanding_ reached 0
  std::condition_variable dispatcher_cv_;  ///< gone_ grew, or stopping_
  std::atomic<std::size_t> outstanding_{0};  ///< enqueued, not yet Done()
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  std::size_t queued_ = 0;  ///< outstanding runs not yet begun
  std::vector<Slot> slots_;
  std::deque<RunPtr> pending_;  ///< runs no worker holds, in priority order
  bool all_dead_ = false;
  std::deque<int> gone_;  ///< slots whose reader saw the worker die
  std::thread dispatcher_;

  // Always-on stats (mirrored into cluster.* counters).
  Stat completed_{"cluster.jobs_completed"};
  Stat retries_{"cluster.jobs_retried"};
  Stat worker_crashes_{"cluster.worker_crashes"};
  Stat worker_restarts_{"cluster.worker_restarts"};
  Stat heartbeat_timeouts_{"cluster.heartbeat_timeouts"};
  std::atomic<std::int64_t> workers_up_{0};

  Gauge* workers_healthy_gauge_ = nullptr;
};

}  // namespace cluster_internal

ClusterRouter::ClusterRouter(ClusterOptions options, ServiceOptions service) {
  service_ = std::make_unique<SolverService>(
      std::move(service), [this, &options](engine_internal::LocalBackend* local) {
        auto workers = std::make_unique<cluster_internal::WorkerSet>(
            std::move(options), local);
        workers_ = workers.get();
        return std::unique_ptr<engine_internal::Backend>(std::move(workers));
      });
}

namespace {

ServiceOptions OneThreadLocalBackendWithCache() {
  ServiceOptions options;
  options.num_threads = 1;
  options.result_cache = std::make_shared<ResultCache>();
  return options;
}

}  // namespace

ClusterRouter::ClusterRouter(ClusterOptions options)
    : ClusterRouter(std::move(options), OneThreadLocalBackendWithCache()) {}

ClusterRouter::~ClusterRouter() = default;

JobHandle ClusterRouter::Submit(Job job, ClusterSubmitOptions options) {
  SubmitOptions submit;
  if (options.on_complete) {
    submit.on_complete = [callback = std::move(options.on_complete)](
                             const JobResult& r) {
      callback(ClusterResult{r, r.worker});  // a view: no JobResult copy
    };
  }
  return service_->Submit(std::move(job), std::move(submit));
}

ClusterStats ClusterRouter::Stats() const { return workers_->Stats(); }

void ClusterRouter::KillWorker(int slot) { workers_->KillWorker(slot); }

}  // namespace tdlib
