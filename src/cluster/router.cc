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
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/canonical.h"
#include "cluster/ring.h"
#include "cluster/wire.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace tdlib {

std::string_view ClusterOutcomeName(ClusterOutcome outcome) {
  switch (outcome) {
    case ClusterOutcome::kCompleted: return "completed";
    case ClusterOutcome::kShedQueue: return "shed-queue";
    case ClusterOutcome::kShedQuota: return "shed-quota";
    case ClusterOutcome::kRetriesExhausted: return "retries-exhausted";
    case ClusterOutcome::kFallback: return "fallback";
  }
  return "?";
}

namespace cluster_internal {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The terminal JobResult of a job that never ran (shed / retries spent):
/// the same shape SolverService publishes for an admission-gated job.
JobResult SkippedResult(const std::string& name) {
  JobResult r;
  r.name = name;
  r.status = JobStatus::kSkipped;
  r.verdict = DualVerdict::kUnknown;
  return r;
}

}  // namespace

struct ClusterJobState {
  explicit ClusterJobState(Job j) : job(std::move(j)) {}

  std::uint64_t id = 0;
  Job job;
  std::string tenant;
  std::uint64_t key = 0;  ///< ring position (canonical fingerprint low lane)
  Clock::time_point submitted_at;
  std::function<void(const ClusterResult&)> on_complete;
  bool admitted = false;  ///< passed admission (shed jobs never did)

  // Dispatcher-owned scheduling fields (never touched once done).
  std::string session_text;  ///< parked checkpoint awaiting its resume
  bool probed = false;       ///< a probe dispatch already happened
  bool migrated = false;
  int attempts = 0;          ///< dispatches to workers
  int crash_retries = 0;     ///< dispatches lost to worker deaths

  // Terminal state.
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  ClusterResult final;
};

class RouterImpl {
 public:
  explicit RouterImpl(ClusterOptions options) : options_(std::move(options)) {
    if (options_.worker_command.empty()) {
      const char* env = std::getenv("TDLIB_TDWORKER");
      if (env != nullptr) options_.worker_command = env;
    }
    auto& reg = MetricsRegistry::Global();
    job_seconds_ = reg.GetHistogram("cluster.job_seconds", LatencyBuckets());
    queue_depth_gauge_ = reg.GetGauge("cluster.queue_depth");
    workers_healthy_gauge_ = reg.GetGauge("cluster.workers_healthy");

    slots_.resize(static_cast<std::size_t>(
        options_.num_workers < 0 ? 0 : options_.num_workers));
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].index = static_cast<int>(i);
      slots_[i].restart_at = Clock::now();  // spawn on the first tick
    }
    if (slots_.empty()) all_dead_ = true;

    fallback_thread_ = std::thread([this] { FallbackLoop(); });
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }

  ~RouterImpl() {
    WaitIdle();
    PostEvent(Event{Event::kStop});
    dispatcher_.join();
    ShutdownWorkers();
    {
      std::lock_guard<std::mutex> lock(fallback_mu_);
      fallback_stop_ = true;
    }
    fallback_cv_.notify_all();
    fallback_thread_.join();
  }

  ClusterHandle Submit(Job job, ClusterSubmitOptions submit_options) {
    auto state = std::make_shared<ClusterJobState>(std::move(job));
    state->tenant = std::move(submit_options.tenant);
    state->on_complete = std::move(submit_options.on_complete);
    state->submitted_at = Clock::now();
    const CacheFingerprint fp = FingerprintProblem(
        state->job.dependencies, state->job.goal, state->job.config);
    state->key = fp.valid ? fp.lo
                          : HashBytes128(state->job.name.data(),
                                         state->job.name.size()).lo;

    stats_submitted_.fetch_add(1, std::memory_order_relaxed);
    Count("cluster.jobs_submitted");

    ClusterOutcome shed = ClusterOutcome::kCompleted;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      state->id = next_id_++;
      if (options_.max_queue_depth > 0 &&
          outstanding_ >= options_.max_queue_depth) {
        shed = ClusterOutcome::kShedQueue;
      } else if (options_.tenant_quota > 0 &&
                 tenant_inflight_[state->tenant] >= options_.tenant_quota) {
        shed = ClusterOutcome::kShedQuota;
      } else {
        state->admitted = true;
        ++outstanding_;
        ++tenant_inflight_[state->tenant];
        queue_depth_gauge_->Add(1);
      }
    }
    if (!state->admitted) {
      FinishJob(state, SkippedResult(state->job.name), shed, -1);
      return ClusterHandle(state);
    }
    Event e{Event::kSubmit};
    e.state = state;
    PostEvent(std::move(e));
    return ClusterHandle(state);
  }

  void WaitIdle() {
    std::unique_lock<std::mutex> lock(admission_mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  ClusterStats Stats() const {
    ClusterStats s;
    s.submitted = stats_submitted_.load(std::memory_order_relaxed);
    s.completed = stats_completed_.load(std::memory_order_relaxed);
    s.shed_queue = stats_shed_queue_.load(std::memory_order_relaxed);
    s.shed_quota = stats_shed_quota_.load(std::memory_order_relaxed);
    s.retries_exhausted =
        stats_retries_exhausted_.load(std::memory_order_relaxed);
    s.fallback = stats_fallback_.load(std::memory_order_relaxed);
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
    Event e{Event::kKill};
    e.slot = slot;
    PostEvent(std::move(e));
  }

 private:
  struct Event {
    enum Type { kSubmit, kHello, kPong, kResult, kGone, kKill, kStop };
    Type type;
    int slot = -1;
    std::uint64_t generation = 0;
    std::shared_ptr<ClusterJobState> state;  // kSubmit
    WireResult wire_result;                  // kResult
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
    std::shared_ptr<ClusterJobState> busy;
    std::deque<std::shared_ptr<ClusterJobState>> queue;
  };

  static void Count(const char* name) {
    MetricsRegistry::Global().GetCounter(name)->Add(1);
  }

  void PostEvent(Event e) {
    {
      std::lock_guard<std::mutex> lock(event_mu_);
      events_.push_back(std::move(e));
    }
    event_cv_.notify_one();
  }

  // ---- the single publication path ----------------------------------------
  // Mirrors engine_internal::PublishTerminal: the completion callback runs
  // before the done flip, waiters wake after it, and the exactly-once
  // outcome accounting is guarded by the same done transition — a late
  // result racing a crash retry can only publish once.
  void FinishJob(const std::shared_ptr<ClusterJobState>& state,
                 JobResult result, ClusterOutcome outcome, int worker) {
    ClusterResult final;
    final.result = std::move(result);
    final.outcome = outcome;
    final.attempts = state->attempts;
    final.migrated = state->migrated;
    final.worker = worker;
    std::unique_lock<std::mutex> lock(state->mu);
    if (state->done) return;
    if (state->on_complete) state->on_complete(final);

    // All accounting happens BEFORE the done flip is observable: a caller
    // returning from Wait() must see its own job in Stats().
    const ClusterResult& published = final;
    switch (outcome) {
      case ClusterOutcome::kCompleted:
        stats_completed_.fetch_add(1, std::memory_order_relaxed);
        Count("cluster.jobs_completed");
        break;
      case ClusterOutcome::kShedQueue:
        stats_shed_queue_.fetch_add(1, std::memory_order_relaxed);
        Count("cluster.jobs_shed_queue");
        break;
      case ClusterOutcome::kShedQuota:
        stats_shed_quota_.fetch_add(1, std::memory_order_relaxed);
        Count("cluster.jobs_shed_quota");
        break;
      case ClusterOutcome::kRetriesExhausted:
        stats_retries_exhausted_.fetch_add(1, std::memory_order_relaxed);
        Count("cluster.jobs_retries_exhausted");
        break;
      case ClusterOutcome::kFallback:
        stats_fallback_.fetch_add(1, std::memory_order_relaxed);
        Count("cluster.jobs_fallback");
        break;
    }
    if (published.migrated) {
      stats_migrated_.fetch_add(1, std::memory_order_relaxed);
      Count("cluster.jobs_migrated");
    }
    if (published.result.cache_source == CacheSource::kHit) {
      stats_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Count("cluster.cache_hits");
    }
    job_seconds_->Observe(Seconds(Clock::now() - state->submitted_at));

    if (state->admitted) {
      std::lock_guard<std::mutex> admission_lock(admission_mu_);
      --outstanding_;
      auto it = tenant_inflight_.find(state->tenant);
      if (it != tenant_inflight_.end() && it->second > 0) --it->second;
      queue_depth_gauge_->Add(-1);
      if (outstanding_ == 0) idle_cv_.notify_all();
    }

    state->final = std::move(final);
    state->done = true;
    lock.unlock();
    state->cv.notify_all();
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
            Route(e.state);
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
          stats_heartbeat_timeouts_.fetch_add(1, std::memory_order_relaxed);
          Count("cluster.heartbeat_timeouts");
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
    std::deque<std::shared_ptr<ClusterJobState>> pending;
    pending.swap(pending_);
    for (auto& state : pending) Route(state);
    PumpSlot(slot);
  }

  void HandleResult(Slot& slot, WireResult& wire_result) {
    if (slot.busy == nullptr || slot.busy->id != wire_result.job_id) {
      return;  // stale answer from before a recovery; already handled
    }
    std::shared_ptr<ClusterJobState> state = std::move(slot.busy);
    slot.busy = nullptr;
    if (wire_result.parked) {
      // The probe stopped at a resumable checkpoint: migrate it. The probe
      // result itself is never published — its counters describe the
      // truncated run, not the full-budget run the caller asked for.
      state->session_text = std::move(wire_result.session_text);
      state->migrated = true;
      Count("cluster.jobs_parked");
      RouteMigration(state, slot.index);
    } else {
      FinishJob(state, std::move(wire_result.result),
                ClusterOutcome::kCompleted, slot.index);
    }
    PumpSlot(slot);
  }

  void HandleWorkerDeath(Slot& slot) {
    stats_worker_crashes_.fetch_add(1, std::memory_order_relaxed);
    Count("cluster.worker_crashes");
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

    std::deque<std::shared_ptr<ClusterJobState>> orphans;
    orphans.swap(slot.queue);
    std::shared_ptr<ClusterJobState> lost = std::move(slot.busy);
    slot.busy = nullptr;

    if (slot.restarts >= options_.max_restarts) {
      slot.state = Slot::kDead;
      if (AllSlotsDead()) {
        all_dead_ = true;
        // Everything still queued anywhere degrades to the fallback.
        for (Slot& other : slots_) {
          orphans.insert(orphans.end(), other.queue.begin(),
                         other.queue.end());
          other.queue.clear();
        }
        orphans.insert(orphans.end(), pending_.begin(), pending_.end());
        pending_.clear();
      }
    } else {
      ++slot.restarts;
      slot.state = Slot::kDown;
      slot.backoff = slot.backoff <= 0
                         ? options_.restart_backoff_seconds
                         : std::min(slot.backoff * 2,
                                    options_.restart_backoff_cap_seconds);
      slot.restart_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(slot.backoff));
    }

    // The in-flight job was LOST mid-run: that is the retry-counted path.
    if (lost != nullptr) RecoverJob(lost);
    // Queued-but-undispatched jobs lost nothing; reroute them freely.
    for (auto& state : orphans) Route(state);
  }

  void RecoverJob(const std::shared_ptr<ClusterJobState>& state) {
    ++state->crash_retries;
    if (state->crash_retries > options_.max_retries) {
      FinishJob(state, SkippedResult(state->job.name),
                ClusterOutcome::kRetriesExhausted, -1);
      return;
    }
    stats_retries_.fetch_add(1, std::memory_order_relaxed);
    Count("cluster.jobs_retried");
    Route(state);
  }

  /// Places a job: parked sessions go to the least-loaded healthy worker,
  /// fresh jobs follow the ring, no-worker situations degrade to the
  /// global pending pool (workers restarting) or the fallback (all dead).
  void Route(const std::shared_ptr<ClusterJobState>& state) {
    if (all_dead_) {
      EnqueueFallback(state);
      return;
    }
    int target = -1;
    if (!state->session_text.empty()) {
      target = LeastLoadedUp(-1);
    } else {
      target = ring_.Pick(state->key);
    }
    if (target < 0) {
      pending_.push_back(state);  // a restart is pending; wait for a Hello
      return;
    }
    slots_[target].queue.push_back(state);
    PumpSlot(slots_[target]);
  }

  void RouteMigration(const std::shared_ptr<ClusterJobState>& state,
                      int origin) {
    const int target = LeastLoadedUp(origin);
    if (target < 0) {
      Route(state);  // origin died meanwhile, or it is the only worker
      return;
    }
    slots_[target].queue.push_back(state);
    PumpSlot(slots_[target]);
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
      std::shared_ptr<ClusterJobState> state = std::move(slot.queue.front());
      slot.queue.pop_front();
      WireJob wire_job(state->job);
      wire_job.job_id = state->id;
      wire_job.session_text = state->session_text;
      if (options_.migration_probe_steps > 0 && !state->probed &&
          state->session_text.empty()) {
        wire_job.probe_steps = options_.migration_probe_steps;
      }
      state->probed = true;
      ++state->attempts;
      slot.busy = state;
      if (!WriteFrameToFd(slot.fd, FrameType::kJob,
                          EncodeJobPayload(wire_job))) {
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
      stats_worker_restarts_.fetch_add(1, std::memory_order_relaxed);
      Count("cluster.worker_restarts");
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
    stats_worker_crashes_.fetch_add(1, std::memory_order_relaxed);
    Count("cluster.worker_crashes");
    if (slot.restarts >= options_.max_restarts) {
      slot.state = Slot::kDead;
      if (AllSlotsDead()) {
        all_dead_ = true;
        std::deque<std::shared_ptr<ClusterJobState>> orphans;
        for (Slot& other : slots_) {
          orphans.insert(orphans.end(), other.queue.begin(),
                         other.queue.end());
          other.queue.clear();
        }
        orphans.insert(orphans.end(), pending_.begin(), pending_.end());
        pending_.clear();
        for (auto& state : orphans) EnqueueFallback(state);
      }
      return;
    }
    ++slot.restarts;
    slot.state = Slot::kDown;
    slot.backoff = slot.backoff <= 0
                       ? options_.restart_backoff_seconds
                       : std::min(slot.backoff * 2,
                                  options_.restart_backoff_cap_seconds);
    slot.restart_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slot.backoff));
  }

  void ReaderLoop(int slot_index, int fd, std::uint64_t generation) {
    for (;;) {
      Result<Frame> frame = ReadFrameFromFd(fd);
      if (!frame.ok()) {
        if (frame.code() == ErrorCode::kCorrupt) {
          Count("cluster.frames_corrupt");
        }
        Event e{Event::kGone};
        e.slot = slot_index;
        e.generation = generation;
        PostEvent(std::move(e));
        return;
      }
      switch (frame.value().type) {
        case FrameType::kHello: {
          Event e{Event::kHello};
          e.slot = slot_index;
          e.generation = generation;
          PostEvent(std::move(e));
          break;
        }
        case FrameType::kPong: {
          Event e{Event::kPong};
          e.slot = slot_index;
          e.generation = generation;
          PostEvent(std::move(e));
          break;
        }
        case FrameType::kResult: {
          Result<WireResult> wire_result =
              DecodeResultPayload(frame.value().payload);
          if (!wire_result.ok()) {
            // A worker speaking garbage is crashed by definition (the
            // crash-only pact, enforced from the router side).
            Count("cluster.frames_corrupt");
            Event e{Event::kGone};
            e.slot = slot_index;
            e.generation = generation;
            PostEvent(std::move(e));
            return;
          }
          Event e{Event::kResult};
          e.slot = slot_index;
          e.generation = generation;
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

  // ---- in-process fallback -------------------------------------------------

  void EnqueueFallback(const std::shared_ptr<ClusterJobState>& state) {
    if (!options_.fallback_when_down) {
      FinishJob(state, SkippedResult(state->job.name),
                ClusterOutcome::kRetriesExhausted, -1);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(fallback_mu_);
      fallback_queue_.push_back(state);
    }
    fallback_cv_.notify_one();
  }

  void FallbackLoop() {
    for (;;) {
      std::shared_ptr<ClusterJobState> state;
      {
        std::unique_lock<std::mutex> lock(fallback_mu_);
        fallback_cv_.wait(lock, [this] {
          return fallback_stop_ || !fallback_queue_.empty();
        });
        if (fallback_queue_.empty()) return;
        state = std::move(fallback_queue_.front());
        fallback_queue_.pop_front();
      }
      ++state->attempts;
      ChaseSession session;
      if (!state->session_text.empty()) {
        std::istringstream iss(state->session_text);
        Result<ChaseSession> restored = ChaseSession::Deserialize(
            state->job.goal.schema_ptr(), iss);
        if (restored.ok()) session = std::move(restored).value();
      }
      JobResult result = RunJob(state->job, state->job.config, &session);
      FinishJob(state, std::move(result), ClusterOutcome::kFallback, -1);
    }
  }

  // ---- members -------------------------------------------------------------

  ClusterOptions options_;

  // Admission (caller threads + FinishJob).
  std::mutex admission_mu_;
  std::condition_variable idle_cv_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  std::unordered_map<std::string, std::size_t> tenant_inflight_;

  // Event plane (reader threads -> dispatcher).
  std::mutex event_mu_;
  std::condition_variable event_cv_;
  std::deque<Event> events_;

  // Dispatcher-owned scheduling state.
  std::vector<Slot> slots_;
  HashRing ring_;
  std::deque<std::shared_ptr<ClusterJobState>> pending_;
  bool all_dead_ = false;
  std::thread dispatcher_;

  // Fallback plane.
  std::mutex fallback_mu_;
  std::condition_variable fallback_cv_;
  std::deque<std::shared_ptr<ClusterJobState>> fallback_queue_;
  bool fallback_stop_ = false;
  std::thread fallback_thread_;

  // Always-on stats (mirrored into cluster.* counters).
  std::atomic<std::int64_t> stats_submitted_{0};
  std::atomic<std::int64_t> stats_completed_{0};
  std::atomic<std::int64_t> stats_shed_queue_{0};
  std::atomic<std::int64_t> stats_shed_quota_{0};
  std::atomic<std::int64_t> stats_retries_exhausted_{0};
  std::atomic<std::int64_t> stats_fallback_{0};
  std::atomic<std::int64_t> stats_cache_hits_{0};
  std::atomic<std::int64_t> stats_migrated_{0};
  std::atomic<std::int64_t> stats_retries_{0};
  std::atomic<std::int64_t> stats_worker_crashes_{0};
  std::atomic<std::int64_t> stats_worker_restarts_{0};
  std::atomic<std::int64_t> stats_heartbeat_timeouts_{0};
  std::atomic<std::int64_t> stats_workers_up_{0};

  Histogram* job_seconds_ = nullptr;
  Gauge* queue_depth_gauge_ = nullptr;
  Gauge* workers_healthy_gauge_ = nullptr;

  friend class ::tdlib::ClusterRouter;
};

}  // namespace cluster_internal

const ClusterResult& ClusterHandle::Wait() const {
  cluster_internal::ClusterJobState& state = *state_;
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.done; });
  return state.final;
}

bool ClusterHandle::Done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

ClusterRouter::ClusterRouter(ClusterOptions options)
    : impl_(std::make_unique<cluster_internal::RouterImpl>(
          std::move(options))) {}

ClusterRouter::~ClusterRouter() = default;

ClusterHandle ClusterRouter::Submit(Job job, ClusterSubmitOptions options) {
  return impl_->Submit(std::move(job), std::move(options));
}

void ClusterRouter::WaitIdle() { impl_->WaitIdle(); }

ClusterStats ClusterRouter::Stats() const { return impl_->Stats(); }

void ClusterRouter::KillWorker(int slot) { impl_->KillWorker(slot); }

}  // namespace tdlib
