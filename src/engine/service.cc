#include "engine/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace_span.h"

namespace tdlib {
namespace {

// Clamps a per-phase solver deadline to `budget`.
double ClampDeadline(double phase_deadline, double budget) {
  if (budget <= 0) return phase_deadline;
  if (phase_deadline <= 0) return budget;
  return std::min(phase_deadline, budget);
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// Service-level observability. The outcome counters are bumped ONLY inside
// PublishTerminal (the single terminal-publication path), so
// completed + skipped + cancelled always equals the number of terminal
// runs — the accounting invariant tests/metrics_test.cc checks.
struct ServiceMetrics {
  Counter* submitted;
  Counter* completed;
  Counter* skipped;
  Counter* cancelled;
  Counter* resumes;
  Counter* shed;
  Counter* shed_quota;
  Gauge* inflight;
  Histogram* queue_wait_seconds;
  Histogram* job_seconds;
};

ServiceMetrics& GetServiceMetrics() {
  static ServiceMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* sm = new ServiceMetrics();
    sm->submitted = r.GetCounter("engine.jobs_submitted");
    sm->completed = r.GetCounter("engine.jobs_completed");
    sm->skipped = r.GetCounter("engine.jobs_skipped");
    sm->cancelled = r.GetCounter("engine.jobs_cancelled");
    sm->resumes = r.GetCounter("engine.job_resumes");
    sm->shed = r.GetCounter("engine.jobs_shed");
    sm->shed_quota = r.GetCounter("engine.jobs_shed_quota");
    sm->inflight = r.GetGauge("engine.jobs_inflight");
    sm->queue_wait_seconds =
        r.GetHistogram("engine.queue_wait_seconds", LatencyBuckets());
    sm->job_seconds = r.GetHistogram("engine.job_seconds", LatencyBuckets());
    return sm;
  }();
  return *m;
}

// Monotone trace-id source: every submission gets its own id, so spans from
// concurrent jobs untangle in the trace viewer.
std::uint64_t NextTraceId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void ClampConfigToBudget(DualSolverConfig* config, double remaining_seconds) {
  // Already-started jobs get at least a token budget so they terminate with
  // a result instead of hanging on a zero deadline.
  if (remaining_seconds < 1e-3) remaining_seconds = 1e-3;
  const int rounds = config->rounds > 0 ? config->rounds : 1;
  const double per_phase = remaining_seconds / (2.0 * rounds);
  config->base_chase.deadline_seconds =
      ClampDeadline(config->base_chase.deadline_seconds, per_phase);
  config->base_counterexample.deadline_seconds =
      ClampDeadline(config->base_counterexample.deadline_seconds, per_phase);
}

namespace engine_internal {

Pickup BeginRun(const std::shared_ptr<JobState>& s, std::uint64_t generation,
                DualSolverConfig* config, JobResult* stopped) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    // A queued Cancel() claimed (or already completed) this run's
    // termination and fires its callback itself; and a run enqueued for an
    // earlier generation is an orphan (its run was cancelled while queued,
    // then the job was resumed — only the resume's own run may execute, or
    // two runs would race on the shared session).
    if (s->done || s->claimed || s->run_generation != generation) {
      return Pickup::kNotMine;
    }
    s->started = true;
    *config = s->config;
  }
  GetServiceMetrics().inflight->Add(1);  // balanced in PublishTerminal
  const double elapsed = s->submit_timer.ElapsedSeconds();
  s->queue_seconds = elapsed;
  GetServiceMetrics().queue_wait_seconds->Observe(elapsed);
  // The queue wait straddles threads, so it cannot be an RAII span; record
  // it as a pre-timed event under this job's id.
  RecordTraceEvent("job.queue", s->trace_id, s->submit_ns,
                   StopWatch::Now() - s->submit_ns);
  if (s->cancel.load(std::memory_order_relaxed) ||
      (FaultInjectionEnabled() && ShouldInject(FaultSite::kCancelQueue))) {
    // Cancelled while queued (or a fault-injected queue-boundary cancel):
    // terminal without running.
    stopped->status = JobStatus::kCancelled;
  } else if ((s->skip_when != nullptr &&
              s->skip_when->load(std::memory_order_relaxed)) ||
             (s->deadline_seconds > 0 && elapsed >= s->deadline_seconds)) {
    stopped->status = JobStatus::kSkipped;
  } else {
    config->cancel = &s->cancel;
    if (s->deadline_seconds > 0) {
      ClampConfigToBudget(config, s->deadline_seconds - elapsed);
    }
    return Pickup::kRun;
  }
  stopped->name = s->job.name;
  stopped->queue_seconds = elapsed;
  stopped->cache_source = s->cache_source;
  return Pickup::kStopped;
}

bool BeginRun(const std::shared_ptr<JobState>& s, std::uint64_t generation,
              DualSolverConfig* config) {
  JobResult stopped;
  const Pickup pickup = BeginRun(s, generation, config, &stopped);
  if (pickup == Pickup::kStopped) PublishTerminal(s, stopped);
  return pickup == Pickup::kRun;
}

void FinishRun(const std::shared_ptr<JobState>& s, JobResult r) {
  if (s->cancel.load(std::memory_order_relaxed) &&
      r.verdict == DualVerdict::kUnknown) {
    // A solve the cancel flag actually cut short reports kUnknown
    // (SolveImplication stops between phases); rewrite that to the honest
    // kCancelled, keeping the partial statistics. A run that reached a REAL
    // verdict before the flag was observed publishes it — cancellation is a
    // request, not a rollback of finished work.
    r.status = JobStatus::kCancelled;
  }
  // Stamped here: the solver returns a fresh JobResult.
  r.queue_seconds = s->queue_seconds;
  // Provenance stamp: kMiss on cache-filling runs (the dedup runner's copy
  // is rewritten per waiter at fan-out anyway). Uncached runs keep what the
  // solver reported — kNone locally, a worker's own cache provenance
  // remotely.
  if (s->cache_source != CacheSource::kNone) r.cache_source = s->cache_source;
  PublishTerminal(s, r);
}

LocalBackend::LocalBackend(int num_threads, bool chase_parallelism)
    : pool_(ResolveThreads(num_threads)),
      chase_parallelism_(chase_parallelism) {}

// Tasks capture `this`, not the service: they only run inside the pool's
// lifetime, which is inside this backend's — capturing a shared_ptr to the
// core here would let a worker thread become its last owner and join the
// pool from inside itself.
bool LocalBackend::Enqueue(const std::shared_ptr<JobState>& state,
                           std::uint64_t generation, int priority) {
  return pool_.Submit(
      [this, state, generation] {
        DualSolverConfig config;
        if (BeginRun(state, generation, &config)) Run(state, config);
      },
      priority);
}

bool LocalBackend::EnqueueBegun(const std::shared_ptr<JobState>& state,
                                DualSolverConfig config, int priority) {
  return pool_.Submit(
      [this, state, config = std::move(config)] { Run(state, config); },
      priority);
}

// The single local execution path for every service job (and, by
// construction, for everything the BatchSolver wrapper runs).
void LocalBackend::Run(const std::shared_ptr<JobState>& s,
                       DualSolverConfig config) {
  // Scope every span the solver stack opens below under this job.
  TraceJobScope job_scope(s->trace_id);
  config.base_chase.pool = chase_parallelism_ ? &pool_ : nullptr;
  JobResult r;
  {
    TraceSpan run_span("job.run");
    // The session persists across runs of this state: a later
    // ResumeWithBudget continues this run's chase from its checkpoint.
    r = RunJob(s->job, config, &s->session);
  }
  FinishRun(s, std::move(r));
}

namespace {

// Delivers a dedup runner's terminal result to every submission attached to
// it: unpublish the runner from the in-flight table (the cache was already
// filled by the caller, so late isomorphic submissions hit it), close the
// waiter list, then publish a per-waiter copy — renamed, provenance-stamped
// — through PublishTerminal, which accounts each logical submission exactly
// once. A waiter whose run is already terminal (it cancelled) or no longer
// generation 0 (it cancelled AND resumed; the resumed run owns the state
// now) is skipped: its termination belongs to someone else.
void FanOutToWaiters(const std::shared_ptr<JobState>& runner,
                     const JobResult& result) {
  if (std::shared_ptr<ServiceCore> core = runner->core.lock()) {
    std::lock_guard<std::mutex> lock(core->inflight_mu);
    auto it = core->inflight.find(runner->fingerprint);
    if (it != core->inflight.end() && it->second == runner) {
      core->inflight.erase(it);
    }
  }
  std::vector<std::shared_ptr<JobState>> waiters;
  {
    std::lock_guard<std::mutex> lock(runner->mu);
    runner->waiters_closed = true;
    waiters = std::move(runner->waiters);
    runner->waiters.clear();
  }
  for (const std::shared_ptr<JobState>& waiter : waiters) {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->coalesce_runner.reset();  // break the ref cycle either way
      if (waiter->done || waiter->claimed || waiter->run_generation != 0) {
        continue;
      }
      waiter->claimed = true;  // fence concurrent Cancels out of this run
    }
    JobResult renamed = result;
    renamed.name = waiter->job.name;
    renamed.cache_source = waiter->cache_source;
    PublishTerminal(waiter, renamed);
  }
}

}  // namespace

void PublishTerminal(const std::shared_ptr<JobState>& state,
                     const JobResult& result) {
  // The streaming callback runs BEFORE the terminal state is published:
  // once any Wait()/Poll() observes the result, its on_complete has already
  // finished. That ordering is what lets a caller stream per-job output and
  // still collect afterwards without synchronizing against stray callbacks.
  // (Corollary: the callback must not Wait() on its own handle.)
  if (state->on_complete) state->on_complete(result);

  // Cache fill, BEFORE the terminal state becomes observable below: a
  // caller that Wait()s and immediately resubmits an isomorphic job must
  // hit — publishing done first would let that resubmission race the
  // insert and re-solve. The same ordering also precedes the in-flight
  // table cleanup (fan-out), so once a runner leaves the table a late
  // isomorphic submission finds the verdict in the cache. Only completed
  // runs fill (a cancelled/skipped run proves nothing about the problem),
  // and only runs that were fingerprinted at submission do.
  if (state->cache != nullptr && state->fingerprint.valid &&
      result.status == JobStatus::kCompleted) {
    state->cache->Insert(state->fingerprint,
                         CachedVerdictFromResult(result, state->trace_id));
  }

  // Tenant quota: the slot frees before the terminal state is observable,
  // so a caller that Wait()s and resubmits is admitted again.
  if (state->holds_tenant_slot) {
    state->holds_tenant_slot = false;
    if (std::shared_ptr<ServiceCore> core = state->core.lock()) {
      core->ReleaseTenant(state->tenant);
    }
  }

  bool was_started;
  double elapsed;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    // Read before done flips: a ResumeWithBudget that observes done resets
    // the timer under this lock.
    elapsed = state->submit_timer.ElapsedSeconds();
    state->result = result;
    state->done = true;
    was_started = state->started;
  }
  state->cv.notify_all();

  // Outcome accounting, exactly once per terminal run: every path that
  // makes a run terminal funnels through this function, so the per-status
  // counters partition the terminal runs (kSkipped and kCancelled included)
  // and can never double-count one. An internal dedup runner is NOT a
  // logical submission — its waiters each publish through here and carry
  // the counts — so it skips the outcome partition and the latency
  // histogram; the in-flight gauge stays symmetric (the worker counted the
  // runner up when it picked it up).
  ServiceMetrics& m = GetServiceMetrics();
  if (!state->internal_runner) {
    switch (result.status) {
      case JobStatus::kCompleted: m.completed->Add(1); break;
      case JobStatus::kSkipped: m.skipped->Add(1); break;
      case JobStatus::kCancelled: m.cancelled->Add(1); break;
    }
    m.job_seconds->Observe(elapsed);
  }
  // Only runs a worker actually picked up were counted in-flight; a queued
  // cancel or a pool-rejected submission never was.
  if (was_started) m.inflight->Add(-1);

  if (state->slow_log_seconds > 0 && elapsed >= state->slow_log_seconds) {
    std::ostringstream oss;
    oss << "slow job " << result.name << ": " << elapsed
        << "s status=" << result.VerdictName()
        << " queue=" << result.queue_seconds
        << "s match=" << result.match_seconds
        << "s fire=" << result.fire_seconds
        << "s checkpoint=" << result.checkpoint_seconds
        << "s passes=" << result.chase_passes
        << " steps=" << result.chase_steps
        << " rounds=" << result.rounds_used;
    if (state->slow_log_sink) {
      state->slow_log_sink(oss.str());
    } else {
      std::fprintf(stderr, "%s\n", oss.str().c_str());
    }
  }

  // Dedup runner: deliver the verdict to every attached submission. Depth-
  // one recursion into PublishTerminal (waiters are never runners).
  if (state->internal_runner) FanOutToWaiters(state, result);
}

void DetachWaiter(const std::shared_ptr<JobState>& runner,
                  const std::shared_ptr<JobState>& waiter) {
  {
    std::lock_guard<std::mutex> lock(runner->mu);
    auto& waiters = runner->waiters;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), waiter),
                  waiters.end());
    if (!waiters.empty() || runner->waiters_closed) return;
  }
  // Last waiter gone: the run has no audience, stop it. The check and the
  // cancel cannot be one critical section of runner->mu alone — an
  // isomorphic submission could attach between them (the runner is still in
  // the in-flight table) and would then receive a kCancelled it never asked
  // for. So first unpublish the runner from the table under inflight_mu
  // (after which no new waiter can find it), then re-check emptiness under
  // both locks and only then cancel. Lock order inflight_mu -> mu matches
  // the attach path.
  std::shared_ptr<ServiceCore> core = runner->core.lock();
  JobResult cancelled;
  bool publish = false;
  {
    std::unique_lock<std::mutex> table_lock;
    if (core != nullptr) {
      table_lock = std::unique_lock<std::mutex>(core->inflight_mu);
    }
    std::lock_guard<std::mutex> lock(runner->mu);
    if (!runner->waiters.empty() || runner->waiters_closed) return;
    if (core != nullptr) {
      auto it = core->inflight.find(runner->fingerprint);
      if (it != core->inflight.end() && it->second == runner) {
        core->inflight.erase(it);
      }
    }
    if (runner->done || runner->claimed) return;
    // Mirrors JobHandle::Cancel: a running chase observes the flag on the
    // solver stack's cancel cadence; a still-queued runner terminates right
    // here (claimed fences its worker task out).
    runner->cancel.store(true, std::memory_order_relaxed);
    if (!runner->started) {
      runner->claimed = true;
      publish = true;
      cancelled.name = runner->job.name;
      cancelled.status = JobStatus::kCancelled;
    }
  }
  if (publish) {
    PublishTerminal(runner, cancelled);
  } else if (core != nullptr) {
    core->backend->Cancel(runner);  // a started run: stop it where it runs
  }
}

ServiceCore::ServiceCore(const ServiceOptions& opts,
                         const RemoteBackendFactory& remote_factory)
    : options(opts),
      local(opts.num_threads, opts.chase_parallelism),
      remote(remote_factory ? remote_factory(&local) : nullptr),
      backend(remote != nullptr ? remote.get() : &local) {}

bool ServiceCore::Enqueue(const std::shared_ptr<JobState>& state,
                          int priority) {
  std::uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    generation = state->run_generation;
  }
  return backend->Enqueue(state, generation, priority);
}

bool ServiceCore::TenantFull(const std::string& tenant) {
  if (options.tenant_quota == 0) return false;
  std::lock_guard<std::mutex> lock(tenant_mu);
  auto it = tenant_load.find(tenant);
  return it != tenant_load.end() && it->second >= options.tenant_quota;
}

bool ServiceCore::ChargeTenant(const std::shared_ptr<JobState>& state) {
  if (options.tenant_quota == 0) return true;
  std::lock_guard<std::mutex> lock(tenant_mu);
  std::size_t& load = tenant_load[state->tenant];
  if (load >= options.tenant_quota) return false;
  ++load;
  state->holds_tenant_slot = true;
  return true;
}

void ServiceCore::ReleaseTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenant_mu);
  auto it = tenant_load.find(tenant);
  if (it == tenant_load.end()) return;
  if (--it->second == 0) tenant_load.erase(it);
}

}  // namespace engine_internal

SolverService::SolverService(ServiceOptions options)
    : SolverService(std::move(options), nullptr) {}

SolverService::SolverService(
    ServiceOptions options,
    const engine_internal::RemoteBackendFactory& remote)
    : core_(std::make_shared<engine_internal::ServiceCore>(options, remote)) {}

SolverService::~SolverService() {
  // Every submitted job must reach a terminal state before the backends
  // shut down; handles outliving the service then always see done == true
  // eventually.
  core_->WaitIdle();
}

namespace {

std::shared_ptr<engine_internal::JobState> MakeJobState(
    const std::shared_ptr<engine_internal::ServiceCore>& core, Job job,
    SubmitOptions* options, int priority) {
  auto state = std::make_shared<engine_internal::JobState>(std::move(job));
  state->priority = priority;
  state->deadline_seconds = options->deadline_seconds;
  state->skip_when = options->skip_when;
  state->on_complete = std::move(options->on_complete);
  state->tenant = std::move(options->tenant);
  state->core = core;
  state->trace_id = NextTraceId();
  state->slow_log_seconds = core->options.slow_log_seconds;
  state->slow_log_sink = core->options.slow_log_sink;
  state->submit_timer.Reset();
  state->submit_ns = StopWatch::Now();
  GetServiceMetrics().submitted->Add(1);
  return state;
}

// Publishes `status` as `state`'s terminal result on the calling thread
// (a queued cancel's analogue for runs that never reach a backend).
void PublishImmediate(const std::shared_ptr<engine_internal::JobState>& state,
                      JobStatus status) {
  JobResult result;
  result.name = state->job.name;
  result.status = status;
  engine_internal::PublishTerminal(state, result);
}

// Why admission turned a submission away (kAdmit: it did not).
enum class Admission { kAdmit, kShedQueue, kShedQuota };

// Admission for a submission about to start a run: the backend queue bound
// first, then the tenant quota, which charges the submission a slot when
// it admits. Publishes nothing, so callers may hold table locks.
Admission Admit(engine_internal::ServiceCore* core,
                const std::shared_ptr<engine_internal::JobState>& state) {
  if (core->AtCapacity()) return Admission::kShedQueue;
  if (!core->ChargeTenant(state)) return Admission::kShedQuota;
  return Admission::kAdmit;
}

// Load shedding: the job never runs, but its handle still terminates (as
// kSkipped) and its callback still fires exactly once — a shed submission
// is observationally a skip, just with its own counters so operators can
// tell overload apart from skip_when gates.
void Shed(const std::shared_ptr<engine_internal::JobState>& state,
          Admission reason) {
  GetServiceMetrics().shed->Add(1);
  if (reason == Admission::kShedQuota) GetServiceMetrics().shed_quota->Add(1);
  PublishImmediate(state, JobStatus::kSkipped);
}

// Consults the result cache for `state`'s submission. Returns true iff the
// submission was fully handled here — served from cache (terminal before
// Submit returns, like a queued cancel), attached to an in-flight
// isomorphic run (terminal at that run's fan-out), or handed to a fresh
// dedup runner (terminal at ITS fan-out) or shed instead. Returns false
// when the caller must admit and enqueue the state itself (no cache, a
// deadline, an uncacheable config).
//
// Gate semantics on cache paths: skip_when is read HERE, at submit time —
// the cache-served analogue of the worker's pickup-time read — and never
// again (a coalesced waiter whose gate rises mid-flight still completes;
// gates say "don't START work", and no work is started for it).
bool TryServeFromCache(
    const std::shared_ptr<engine_internal::ServiceCore>& core,
    const std::shared_ptr<engine_internal::JobState>& state) {
  const std::shared_ptr<ResultCache>& cache = core->options.result_cache;
  if (cache == nullptr) return false;
  // A wall-clock deadline makes the outcome machine-load-dependent: not
  // cacheable, not safe to coalesce (waiters may hold different deadlines).
  if (state->deadline_seconds > 0) return false;
  const CacheFingerprint fp = FingerprintProblem(
      state->job.dependencies, state->job.goal, state->config);
  if (!fp.valid) return false;  // config itself uncacheable
  if (state->skip_when != nullptr &&
      state->skip_when->load(std::memory_order_relaxed)) {
    PublishImmediate(state, JobStatus::kSkipped);
    return true;
  }
  CachedVerdict verdict;
  if (cache->Lookup(fp, &verdict)) {
    engine_internal::PublishTerminal(
        state, CachedVerdictToResult(verdict, state->job.name));
    return true;
  }
  // Miss: attach to the in-flight runner for this fingerprint, or create
  // one. Attach happens under inflight_mu -> runner->mu: while a runner is
  // findable in the table its waiter list is still open (fan-out and
  // DetachWaiter both unpublish from the table BEFORE closing), so an
  // attach that finds a runner always succeeds.
  std::shared_ptr<engine_internal::JobState> runner;
  Admission admission;
  {
    std::lock_guard<std::mutex> table_lock(core->inflight_mu);
    auto it = core->inflight.find(fp);
    if (it != core->inflight.end()) {
      runner = it->second;
      std::lock_guard<std::mutex> lock(runner->mu);
      state->cache_source = CacheSource::kCoalesced;
      state->coalesce_runner = runner;
      runner->waiters.push_back(state);
      cache->CountCoalesced();
      return true;
    }
    // A fresh miss is a fresh chase: it passes admission like any other
    // enqueue (the shed itself is published below, outside the lock).
    admission = Admit(core.get(), state);
    if (admission == Admission::kAdmit) {
      runner = std::make_shared<engine_internal::JobState>(state->job);
      runner->internal_runner = true;
      runner->priority = state->priority;
      runner->core = core;
      runner->trace_id = NextTraceId();
      runner->slow_log_seconds = core->options.slow_log_seconds;
      runner->slow_log_sink = core->options.slow_log_sink;
      runner->submit_timer.Reset();
      runner->submit_ns = StopWatch::Now();
      runner->fingerprint = fp;
      runner->cache = cache;
      runner->cache_source = CacheSource::kMiss;
      // The creating submission is the first waiter (provenance kMiss: its
      // submission is the one that caused a chase). Safe without
      // runner->mu — the runner is not visible to anyone until the table
      // insert below.
      state->cache_source = CacheSource::kMiss;
      state->coalesce_runner = runner;
      runner->waiters.push_back(state);
      core->inflight[fp] = runner;
    }
  }
  if (admission != Admission::kAdmit) {
    Shed(state, admission);
  } else if (!core->Enqueue(runner, runner->priority)) {
    // Backend shutting down: the runner terminates as kSkipped and its
    // fan-out delivers the skip to the waiter — same observable contract as
    // EnqueueOrSkip gives an uncached submission.
    PublishImmediate(runner, JobStatus::kSkipped);
  }
  return true;
}

void EnqueueOrSkip(const std::shared_ptr<engine_internal::ServiceCore>& core,
                   const std::shared_ptr<engine_internal::JobState>& state) {
  if (!core->Enqueue(state, state->priority)) {
    // Backend shutting down (service mid-destruction): terminal
    // immediately. The exactly-once-per-run callback contract holds on this
    // path too — streaming consumers count one callback per submission —
    // and the skip is accounted through the same single publication path
    // as every other outcome.
    PublishImmediate(state, JobStatus::kSkipped);
  }
}

// Every submission path ends here. Cache first, admission second: a hit or
// an in-flight attach consumes no queue slot, so it is served even when
// admission control is shedding (the cache is exactly what keeps an
// overloaded service responsive).
void Dispatch(const std::shared_ptr<engine_internal::ServiceCore>& core,
              const std::shared_ptr<engine_internal::JobState>& state) {
  if (TryServeFromCache(core, state)) return;
  const Admission admission = Admit(core.get(), state);
  if (admission != Admission::kAdmit) {
    Shed(state, admission);
  } else {
    EnqueueOrSkip(core, state);
  }
}

}  // namespace

JobHandle SolverService::Submit(Job job, SubmitOptions options) {
  const int priority = options.priority.value_or(job.priority);
  auto state = MakeJobState(core_, std::move(job), &options, priority);
  Dispatch(core_, state);
  return JobHandle(std::move(state));
}

bool SolverService::TrySubmit(Job job, SubmitOptions options,
                              JobHandle* handle) {
  if (core_->AtCapacity() || core_->TenantFull(options.tenant)) return false;
  const int priority = options.priority.value_or(job.priority);
  auto state = MakeJobState(core_, std::move(job), &options, priority);
  Dispatch(core_, state);
  *handle = JobHandle(std::move(state));
  return true;
}

JobHandle SolverService::SubmitWithRetry(Job job, SubmitOptions options,
                                         const RetryOptions& retry) {
  const int attempts = std::max(1, retry.max_attempts);
  double backoff = std::max(0.0, retry.initial_backoff_seconds);
  for (int attempt = 1; attempt < attempts && (core_->AtCapacity() ||
                                               core_->TenantFull(options.tenant));
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff *= std::max(1.0, retry.multiplier);
  }
  // The last attempt submits for real: if the service is still full, the
  // job is shed visibly (kSkipped) rather than blocking the caller forever
  // against a saturated service.
  const int priority = options.priority.value_or(job.priority);
  auto state = MakeJobState(core_, std::move(job), &options, priority);
  Dispatch(core_, state);
  return JobHandle(std::move(state));
}

void SolverService::WaitIdle() { core_->WaitIdle(); }

}  // namespace tdlib
