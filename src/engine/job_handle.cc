#include "engine/job_handle.h"

#include <utility>

#include "engine/service.h"
#include "util/metrics.h"

namespace tdlib {

namespace {
const std::string kEmptyName;
}  // namespace

const std::string& JobHandle::name() const {
  return state_ != nullptr ? state_->job->name : kEmptyName;
}

JobResult JobHandle::Wait() const {
  if (state_ == nullptr) return JobResult{};
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

std::optional<JobResult> JobHandle::Poll() const {
  if (state_ == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->done) return std::nullopt;
  return state_->result;
}

bool JobHandle::Cancel() const {
  if (state_ == nullptr) return false;
  JobResult cancelled;
  std::shared_ptr<engine_internal::JobState> runner;
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->done) return false;   // finished/skipped: harmless no-op
    if (state_->claimed) return true; // another Cancel is completing this run
    // The store is what a running solver observes (HomSearchOptions'
    // amortized cadence). A race where the job completes between the done
    // check and this store is benign: the flag is only read again by a
    // ResumeWithBudget run, which clears it first.
    state_->cancel.store(true, std::memory_order_relaxed);
    started = state_->started;
    if (!started) {
      // Still queued (or attached to a dedup runner — a waiter never runs
      // on a worker, so it always takes this path): terminal right here,
      // not when a worker finally gets to it — a cancelled submission must
      // not wait behind unrelated work. `claimed` fences the worker (or the
      // runner's fan-out) out while we complete the run outside the lock.
      state_->claimed = true;
      runner = std::move(state_->coalesce_runner);
      state_->coalesce_runner.reset();
      cancelled.name = state_->job->name;
      cancelled.status = JobStatus::kCancelled;
    }
  }
  if (started) {
    // Running: a local solver observes the flag on its cooperative
    // cadence; a remote backend forwards it to the worker process.
    if (std::shared_ptr<engine_internal::ServiceCore> core =
            state_->core.lock()) {
      core->backend->Cancel(state_);
    }
    return true;
  }
  // The shared publication path fires the callback exactly once per run,
  // BEFORE the terminal state is observable (the same ordering the worker
  // gives every other run), and accounts this run's outcome exactly once.
  // It runs on the cancelling thread, the one exception to the on-a-worker
  // rule (documented in SubmitOptions).
  engine_internal::PublishTerminal(state_, cancelled);
  // Coalesced submission: leave the shared run, and stop it if this was its
  // last audience — the ISSUE-level contract "one chase, N completions,
  // cancel only when the last waiter cancels".
  if (runner != nullptr) engine_internal::DetachWaiter(runner, state_);
  return true;
}

bool JobHandle::ResumeWithBudget(const DualSolverConfig& config) const {
  if (state_ == nullptr) return false;
  std::shared_ptr<engine_internal::ServiceCore> core = state_->core.lock();
  if (core == nullptr) return false;  // service is gone
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->done) return false;  // still queued or running
    state_->config = config;
    // A resumed job starts with a clean cancel flag and a fresh deadline
    // epoch (deadline_seconds now counts from the resume). Both resets
    // happen BEFORE done flips, inside the lock: a Cancel() that observes
    // done == false targets the resumed run and must never be erased.
    state_->cancel.store(false, std::memory_order_relaxed);
    state_->submit_timer.Reset();
    state_->submit_ns = StopWatch::Now();  // the queue wait restarts too
    state_->done = false;
    state_->started = false;  // the resumed run is queued again
    state_->claimed = false;
    // Orphan any task still queued for a previous run (a queued Cancel
    // leaves one behind): only the task enqueued below may execute. A
    // pending dedup fan-out is orphaned the same way (it only claims
    // generation-0 waiters).
    ++state_->run_generation;
    // The resumed run must neither fill nor be served from the cache: its
    // config no longer matches what was fingerprinted at submission, and a
    // stale fingerprint would poison the cache with the new run's counters.
    state_->fingerprint = CacheFingerprint{};
    state_->cache.reset();
    state_->coalesce_runner.reset();
    state_->cache_source = CacheSource::kNone;
  }
  static Counter* resumes =
      MetricsRegistry::Global().GetCounter("engine.job_resumes");
  resumes->Add(1);
  if (!core->Enqueue(state_, state_->priority)) {
    // Pool already shutting down: restore terminal state (the previous
    // result stands) and notify, so a Wait() that raced in while done was
    // briefly false is not stranded.
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->done = true;
    }
    state_->cv.notify_all();
    return false;
  }
  return true;
}

}  // namespace tdlib
