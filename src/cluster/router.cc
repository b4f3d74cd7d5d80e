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

#include "cache/canonical.h"
#include "cluster/ring.h"
#include "cluster/wire.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace tdlib {
namespace cluster_internal {

namespace {

using Clock = std::chrono::steady_clock;
using engine_internal::JobState;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One run the worker set owns, from Enqueue until it is published or
/// handed to the local backend. Dispatcher-owned after Enqueue.
struct RemoteRun {
  std::shared_ptr<JobState> state;
  std::uint64_t generation = 0;
  int priority = 0;
  std::uint64_t id = 0;      ///< wire job id
  /// The problem's fingerprint under the run's config before any deadline
  /// clamp; forwarded to the worker, which then skips its own.
  CacheFingerprint fingerprint;
  std::uint64_t key = 0;     ///< ring position (fingerprint low lane)
  bool begun = false;        ///< passed BeginRun; `config` is then valid
  DualSolverConfig config;
  std::string session_text;  ///< parked checkpoint awaiting its resume
  bool probed = false;       ///< a probe dispatch already happened
  bool migrated = false;
  int crash_retries = 0;     ///< dispatches lost to worker deaths
};
using RunPtr = std::shared_ptr<RemoteRun>;

/// Queues run in priority order, FIFO within a priority.
void InsertByPriority(std::deque<RunPtr>* queue, RunPtr run) {
  auto it = queue->end();
  while (it != queue->begin() && (*(it - 1))->priority < run->priority) --it;
  queue->insert(it, std::move(run));
}

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
      std::lock_guard<std::mutex> lock(idle_mu_);
      stopping_ = true;
    }
    PostEvent(Event(Event::kStop));
    dispatcher_.join();
    ShutdownWorkers();
  }

  bool Enqueue(const std::shared_ptr<JobState>& state,
               std::uint64_t generation, int priority) override {
    auto run = std::make_shared<RemoteRun>();
    run->state = state;
    run->generation = generation;
    run->priority = priority;
    // A dedup runner arrives fingerprinted; anything else is keyed here,
    // under the config BeginRun will hand this generation (a resumed job
    // runs with new budgets, not its Job's).
    CacheFingerprint& fp = run->fingerprint;
    fp = state->fingerprint;
    if (!fp.valid) {
      DualSolverConfig config;
      bool current = false;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        config = state->config;
        current = state->run_generation == generation;
      }
      // A stale generation never passes BeginRun; it only needs a key.
      if (current) {
        fp = FingerprintProblem(state->job.dependencies, state->job.goal,
                                config);
      }
    }
    run->key = fp.valid ? fp.lo
                        : HashBytes128(state->job.name.data(),
                                       state->job.name.size()).lo;
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (stopping_) return false;
      ++outstanding_;
      run->id = next_id_++;
    }
    queued_.fetch_add(1, std::memory_order_relaxed);
    Event e(Event::kSubmit);
    e.run = std::move(run);
    PostEvent(std::move(e));
    return true;
  }

  void Cancel(const std::shared_ptr<JobState>& state) override {
    Event e(Event::kCancel);
    e.state = state;
    PostEvent(std::move(e));
  }

  std::size_t QueueDepth() const override {
    return queued_.load(std::memory_order_relaxed);
  }

  void WaitIdle() override {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  ClusterStats Stats() const {
    ClusterStats s;
    s.completed = stats_completed_.load(std::memory_order_relaxed);
    s.cache_hits = stats_cache_hits_.load(std::memory_order_relaxed);
    s.migrated = stats_migrated_.load(std::memory_order_relaxed);
    s.retries = stats_retries_.load(std::memory_order_relaxed);
    s.worker_crashes = stats_worker_crashes_.load(std::memory_order_relaxed);
    s.worker_restarts = stats_worker_restarts_.load(std::memory_order_relaxed);
    s.heartbeat_timeouts =
        stats_heartbeat_timeouts_.load(std::memory_order_relaxed);
    s.workers_up = stats_workers_up_.load(std::memory_order_relaxed);
    return s;
  }

  void KillWorker(int slot) {
    Event e(Event::kKill);
    e.slot = slot;
    PostEvent(std::move(e));
  }

 private:
  struct Event {
    enum Type { kSubmit, kCancel, kHello, kPong, kResult, kGone, kKill, kStop };
    explicit Event(Type t) : type(t) {}
    Type type;
    int slot = -1;
    std::uint64_t generation = 0;
    RunPtr run;                        // kSubmit
    std::shared_ptr<JobState> state;   // kCancel
    WireResult wire_result;            // kResult
  };

  struct Slot {
    enum State { kDown, kStarting, kUp, kDead };
    int index = 0;
    State state = kDown;
    pid_t pid = -1;
    int fd = -1;
    std::uint64_t generation = 0;
    std::thread reader;
    int restarts = 0;
    double backoff = 0;
    Clock::time_point restart_at;
    Clock::time_point last_pong;
    Clock::time_point last_ping;
    std::uint64_t ping_seq = 0;
    bool kill_sent = false;  ///< heartbeat SIGKILL already delivered
    RunPtr busy;
    std::deque<RunPtr> queue;
  };

  static void Count(const char* name) {
    MetricsRegistry::Global().GetCounter(name)->Add(1);
  }

  /// Bumps an always-on stat and its cluster.* counter.
  static void Count(std::atomic<std::int64_t>* stat, const char* name) {
    stat->fetch_add(1, std::memory_order_relaxed);
    Count(name);
  }

  void PostEvent(Event e) {
    {
      std::lock_guard<std::mutex> lock(event_mu_);
      events_.push_back(std::move(e));
    }
    event_cv_.notify_one();
  }

  /// A run leaves this backend: published, or handed to the local one.
  void Done() {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (--outstanding_ == 0) idle_cv_.notify_all();
  }

  /// Publishes a run that ended here without a worker's answer.
  void Stop(const RunPtr& run, JobStatus status) {
    JobResult result;
    result.name = run->state->job.name;
    result.status = status;
    engine_internal::FinishRun(run->state, std::move(result));
    Done();
  }

  // ---- dispatcher ----------------------------------------------------------

  void DispatcherLoop() {
    for (;;) {
      std::deque<Event> batch;
      {
        std::unique_lock<std::mutex> lock(event_mu_);
        event_cv_.wait_for(lock, std::chrono::milliseconds(20),
                           [this] { return !events_.empty(); });
        batch.swap(events_);
      }
      for (Event& e : batch) {
        switch (e.type) {
          case Event::kStop:
            return;
          case Event::kSubmit:
            Route(e.run);
            break;
          case Event::kCancel:
            HandleCancel(e.state);
            break;
          case Event::kHello:
            if (Current(e)) HandleHello(slots_[e.slot]);
            break;
          case Event::kPong:
            if (Current(e)) slots_[e.slot].last_pong = Clock::now();
            break;
          case Event::kResult:
            if (Current(e)) HandleResult(slots_[e.slot], e.wire_result);
            break;
          case Event::kGone:
            if (Current(e)) HandleWorkerDeath(slots_[e.slot]);
            break;
          case Event::kKill:
            if (e.slot >= 0 && e.slot < static_cast<int>(slots_.size()) &&
                slots_[e.slot].pid > 0) {
              ::kill(slots_[e.slot].pid, SIGKILL);
            }
            break;
        }
      }
      Tick();
    }
  }

  bool Current(const Event& e) const {
    return e.slot >= 0 && e.slot < static_cast<int>(slots_.size()) &&
           slots_[e.slot].generation == e.generation;
  }

  /// Timers: heartbeats, hang detection, restart backoff.
  void Tick() {
    const Clock::time_point now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state == Slot::kUp || slot.state == Slot::kStarting) {
        if (!slot.kill_sent &&
            Seconds(now - slot.last_pong) >
                options_.heartbeat_timeout_seconds) {
          Count(&stats_heartbeat_timeouts_, "cluster.heartbeat_timeouts");
          slot.kill_sent = true;
          if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
          // The reader observes EOF and posts kGone; recovery happens there.
        }
        if (slot.state == Slot::kUp && !slot.kill_sent &&
            Seconds(now - slot.last_ping) >
                options_.heartbeat_interval_seconds) {
          slot.last_ping = now;
          if (!WriteFrameToFd(slot.fd, FrameType::kPing,
                              std::to_string(++slot.ping_seq)) &&
              slot.pid > 0) {
            ::kill(slot.pid, SIGKILL);
          }
        }
      } else if (slot.state == Slot::kDown && now >= slot.restart_at) {
        SpawnWorker(slot);
      }
    }
  }

  void HandleHello(Slot& slot) {
    slot.state = Slot::kUp;
    slot.last_pong = Clock::now();
    slot.last_ping = slot.last_pong;
    ring_.Add(slot.index);
    workers_healthy_gauge_->Set(ring_.size());
    stats_workers_up_.store(ring_.size(), std::memory_order_relaxed);
    // Keys that fell into the global pending pool while no worker was up
    // can be placed now.
    std::deque<RunPtr> pending;
    pending.swap(pending_);
    for (RunPtr& run : pending) Route(run);
    PumpSlot(slot);
  }

  void HandleResult(Slot& slot, WireResult& wire_result) {
    if (slot.busy == nullptr || slot.busy->id != wire_result.job_id) {
      return;  // stale answer from before a recovery; already handled
    }
    RunPtr run = std::move(slot.busy);
    slot.busy = nullptr;
    if (wire_result.parked &&
        !run->state->cancel.load(std::memory_order_relaxed)) {
      // The probe stopped at a resumable checkpoint: migrate it. The probe
      // result itself is never published — its counters describe the
      // truncated run, not the full-budget run the caller asked for.
      run->session_text = std::move(wire_result.session_text);
      run->migrated = true;
      Count("cluster.jobs_parked");
      RouteMigration(run, slot.index);
    } else {
      Count(&stats_completed_, "cluster.jobs_completed");
      if (wire_result.result.cache_source == CacheSource::kHit) {
        Count(&stats_cache_hits_, "cluster.cache_hits");
      }
      if (run->migrated) {
        Count(&stats_migrated_, "cluster.jobs_migrated");
      }
      wire_result.result.worker = slot.index;
      engine_internal::FinishRun(run->state, std::move(wire_result.result));
      Done();
    }
    PumpSlot(slot);
  }

  /// A started run was cancelled: tell the worker running it, or end it
  /// here when it is between workers (requeued after a crash, or parked
  /// for migration).
  void HandleCancel(const std::shared_ptr<JobState>& state) {
    for (Slot& slot : slots_) {
      if (slot.busy != nullptr && slot.busy->state == state) {
        if (!WriteFrameToFd(slot.fd, FrameType::kCancel,
                            std::to_string(slot.busy->id)) &&
            slot.pid > 0) {
          ::kill(slot.pid, SIGKILL);  // recovery sees the cancel flag
        }
        return;
      }
    }
    auto take = [&state](std::deque<RunPtr>* queue) -> RunPtr {
      for (auto it = queue->begin(); it != queue->end(); ++it) {
        if ((*it)->state == state && (*it)->begun) {
          RunPtr run = std::move(*it);
          queue->erase(it);
          return run;
        }
      }
      return nullptr;
    };
    RunPtr run = take(&pending_);
    for (std::size_t i = 0; run == nullptr && i < slots_.size(); ++i) {
      run = take(&slots_[i].queue);
    }
    if (run != nullptr) Stop(run, JobStatus::kCancelled);
  }

  void HandleWorkerDeath(Slot& slot) {
    Count(&stats_worker_crashes_, "cluster.worker_crashes");
    ring_.Remove(slot.index);
    workers_healthy_gauge_->Set(ring_.size());
    stats_workers_up_.store(ring_.size(), std::memory_order_relaxed);
    if (slot.reader.joinable()) slot.reader.join();
    if (slot.fd >= 0) {
      ::close(slot.fd);
      slot.fd = -1;
    }
    if (slot.pid > 0) {
      ::kill(slot.pid, SIGKILL);  // idempotent; covers the hang path
      ::waitpid(slot.pid, nullptr, 0);
      slot.pid = -1;
    }
    slot.kill_sent = false;

    std::deque<RunPtr> orphans;
    orphans.swap(slot.queue);
    RunPtr lost = std::move(slot.busy);
    slot.busy = nullptr;
    RetireOrRestart(slot);

    // The in-flight run was LOST mid-run: that is the retry-counted path.
    if (lost != nullptr) RecoverRun(lost);
    // Queued-but-undispatched runs lost nothing; reroute them freely.
    for (RunPtr& run : orphans) Route(run);
  }

  void RecoverRun(const RunPtr& run) {
    if (run->state->cancel.load(std::memory_order_relaxed)) {
      Stop(run, JobStatus::kCancelled);  // nobody wants the answer
      return;
    }
    if (++run->crash_retries > options_.max_retries) {
      Count("cluster.jobs_retries_exhausted");
      Stop(run, JobStatus::kSkipped);
      return;
    }
    Count(&stats_retries_, "cluster.jobs_retried");
    Route(run);
  }

  /// Places a run: parked sessions go to the least-loaded healthy worker,
  /// fresh runs follow the ring; with no worker up they wait in the global
  /// pending pool (workers restarting) or run locally (all dead).
  void Route(const RunPtr& run) {
    if (all_dead_) {
      RunLocally(run);
      return;
    }
    const int target = run->session_text.empty() ? ring_.Pick(run->key)
                                                 : LeastLoadedUp(-1);
    if (target < 0) {
      InsertByPriority(&pending_, run);  // a restart is pending
      return;
    }
    InsertByPriority(&slots_[target].queue, run);
    PumpSlot(slots_[target]);
  }

  void RouteMigration(const RunPtr& run, int origin) {
    const int target = LeastLoadedUp(origin);
    if (target < 0) {
      Route(run);  // origin died meanwhile, or it is the only worker
      return;
    }
    InsertByPriority(&slots_[target].queue, run);
    PumpSlot(slots_[target]);
  }

  /// Every worker is permanently down: the service's own pool takes the
  /// run (a parked session is dropped; the run then starts afresh, which
  /// yields the same bytes). The pool outlives this backend, so the hand-
  /// off cannot be refused.
  void RunLocally(const RunPtr& run) {
    if (run->begun) {
      local_->EnqueueBegun(run->state, run->config, run->priority);
    } else {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      local_->Enqueue(run->state, run->generation, run->priority);
    }
    Done();
  }

  int LeastLoadedUp(int exclude) const {
    int best = -1;
    std::size_t best_load = 0;
    for (const Slot& slot : slots_) {
      if (slot.state != Slot::kUp || slot.index == exclude) continue;
      const std::size_t load =
          slot.queue.size() + (slot.busy != nullptr ? 1 : 0);
      if (best < 0 || load < best_load) {
        best = slot.index;
        best_load = load;
      }
    }
    if (best < 0 && exclude >= 0) return LeastLoadedUp(-1);
    return best;
  }

  void PumpSlot(Slot& slot) {
    while (slot.state == Slot::kUp && slot.busy == nullptr &&
           !slot.queue.empty()) {
      RunPtr run = std::move(slot.queue.front());
      slot.queue.pop_front();
      if (!run->begun) {
        // The remote analogue of a pool worker's pickup.
        queued_.fetch_sub(1, std::memory_order_relaxed);
        if (!engine_internal::BeginRun(run->state, run->generation,
                                       &run->config)) {
          Done();
          continue;
        }
        run->begun = true;
      }
      const std::uint64_t probe_steps =
          !run->probed && run->session_text.empty()
              ? options_.migration_probe_steps
              : 0;
      run->probed = true;
      slot.busy = run;
      if (!WriteFrameToFd(slot.fd, FrameType::kJob,
                          EncodeJobPayload(run->id, probe_steps,
                                           run->fingerprint, run->state->job,
                                           run->config, run->session_text))) {
        // The socket is dead under us; force the crash path (the reader
        // will post kGone and recovery will requeue slot.busy).
        if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
        return;
      }
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
  void RetireOrRestart(Slot& slot) {
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
    std::deque<RunPtr> orphans;
    for (Slot& other : slots_) {
      orphans.insert(orphans.end(), other.queue.begin(), other.queue.end());
      other.queue.clear();
    }
    orphans.insert(orphans.end(), pending_.begin(), pending_.end());
    pending_.clear();
    for (RunPtr& run : orphans) RunLocally(run);
  }

  // ---- worker processes ----------------------------------------------------

  void SpawnWorker(Slot& slot) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      FailSpawn(slot);
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
      FailSpawn(slot);
      return;
    }
    args.push_back("--fd=" + std::to_string(fds[1]));
    args.push_back("--threads=" + std::to_string(options_.worker_threads));
    args.push_back("--cache-bytes=" +
                   std::to_string(options_.worker_cache_bytes));
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
      FailSpawn(slot);
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      ::execvp(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);

    if (slot.restarts > 0) {  // the initial spawn is not a "restart"
      Count(&stats_worker_restarts_, "cluster.worker_restarts");
    }
    slot.pid = pid;
    slot.fd = fds[0];
    slot.state = Slot::kStarting;
    slot.kill_sent = false;
    slot.last_pong = Clock::now();  // hello must arrive within the timeout
    ++slot.generation;
    const int index = slot.index;
    const int fd = slot.fd;
    const std::uint64_t generation = slot.generation;
    slot.reader = std::thread(
        [this, index, fd, generation] { ReaderLoop(index, fd, generation); });
  }

  /// A spawn that could not even start counts like an instant crash (same
  /// backoff, same bounded restarts), minus a job loss — nothing was busy.
  void FailSpawn(Slot& slot) {
    Count(&stats_worker_crashes_, "cluster.worker_crashes");
    RetireOrRestart(slot);
  }

  void ReaderLoop(int slot_index, int fd, std::uint64_t generation) {
    auto event = [&](Event::Type type) {
      Event e(type);
      e.slot = slot_index;
      e.generation = generation;
      return e;
    };
    for (;;) {
      Result<Frame> frame = ReadFrameFromFd(fd);
      if (!frame.ok()) {
        if (frame.code() == ErrorCode::kCorrupt) {
          Count("cluster.frames_corrupt");
        }
        PostEvent(event(Event::kGone));
        return;
      }
      switch (frame.value().type) {
        case FrameType::kHello:
          PostEvent(event(Event::kHello));
          break;
        case FrameType::kPong:
          PostEvent(event(Event::kPong));
          break;
        case FrameType::kResult: {
          Result<WireResult> wire_result =
              DecodeResultPayload(frame.value().payload);
          if (!wire_result.ok()) {
            // A worker speaking garbage is crashed by definition (the
            // crash-only pact, enforced from the router side).
            Count("cluster.frames_corrupt");
            PostEvent(event(Event::kGone));
            return;
          }
          Event e = event(Event::kResult);
          e.wire_result = std::move(wire_result).value();
          PostEvent(std::move(e));
          break;
        }
        default:
          break;  // router->worker vocabulary echoed back; ignore
      }
    }
  }

  void ShutdownWorkers() {
    // The dispatcher is stopped; slot state is ours now. Ask each live
    // worker to drain (WaitIdle already emptied the pipeline) and unblock
    // its reader by shutting the socket down in both directions.
    for (Slot& slot : slots_) {
      if (slot.fd >= 0) {
        WriteFrameToFd(slot.fd, FrameType::kShutdown, "");
        ::shutdown(slot.fd, SHUT_RDWR);
      }
    }
    for (Slot& slot : slots_) {
      if (slot.reader.joinable()) slot.reader.join();
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

  // Run accounting (Enqueue callers + dispatcher).
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;  ///< runs enqueued and not yet Done()
  bool stopping_ = false;
  std::atomic<std::size_t> queued_{0};  ///< of those, not yet begun

  // Event plane (reader threads -> dispatcher).
  std::mutex event_mu_;
  std::condition_variable event_cv_;
  std::deque<Event> events_;

  // Dispatcher-owned scheduling state.
  std::vector<Slot> slots_;
  HashRing ring_;
  std::deque<RunPtr> pending_;
  bool all_dead_ = false;
  std::thread dispatcher_;

  // Always-on stats (mirrored into cluster.* counters).
  std::atomic<std::int64_t> stats_completed_{0};
  std::atomic<std::int64_t> stats_cache_hits_{0};
  std::atomic<std::int64_t> stats_migrated_{0};
  std::atomic<std::int64_t> stats_retries_{0};
  std::atomic<std::int64_t> stats_worker_crashes_{0};
  std::atomic<std::int64_t> stats_worker_restarts_{0};
  std::atomic<std::int64_t> stats_heartbeat_timeouts_{0};
  std::atomic<std::int64_t> stats_workers_up_{0};

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

ServiceOptions OneThreadLocalBackend() {
  ServiceOptions options;
  options.num_threads = 1;
  return options;
}

}  // namespace

ClusterRouter::ClusterRouter(ClusterOptions options)
    : ClusterRouter(std::move(options), OneThreadLocalBackend()) {}

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
