// Crash recovery of the multi-process sharded cluster. (End-to-end cluster
// throughput and latency are perfbench's `cluster` workload.)
//
// BM_ClusterKillOneWorker submits the reduction sweep to a router backed by
// two real tdworker processes and SIGKILLs one of them mid-run. The
// interesting numbers are crashes/retries (the recovery machinery actually
// fired) next to identical_to_serial=1: every cluster verdict is checked
// byte-for-byte against an in-process serial reference, so the murder must
// be invisible in the answers.
//
// It needs the worker binary; point $TDLIB_TDWORKER at
// build/examples/tdworker (bench/run_benchmarks.sh does this) or it skips.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "engine/job.h"
#include "engine/workload.h"
#include "util/timer.h"

namespace tdlib {
namespace {

const std::vector<Job>& SweepJobs() {
  static const std::vector<Job> jobs = [] {
    WorkloadOptions options;
    options.size = 12;
    return ReductionSweepWorkload(options);
  }();
  return jobs;
}

/// The serial reference: each sweep job solved in this process, summarized
/// to the deterministic byte string the cluster must reproduce.
const std::vector<std::string>& SerialSummaries() {
  static const std::vector<std::string> summaries = [] {
    std::vector<std::string> out;
    for (const Job& job : SweepJobs()) {
      out.push_back(RunJob(job).DeterministicSummary());
    }
    return out;
  }();
  return summaries;
}

bool HaveWorkerBinary() { return std::getenv("TDLIB_TDWORKER") != nullptr; }

double Percentile(std::vector<double>* sorted_values, double p) {
  if (sorted_values->empty()) return 0;
  std::sort(sorted_values->begin(), sorted_values->end());
  const double rank = p * static_cast<double>(sorted_values->size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*sorted_values)[lo] * (1 - frac) + (*sorted_values)[hi] * frac;
}

/// One sweep through a fresh router with worker slot 0 SIGKILLed once,
/// mid-run; appends per-job latencies, checks every verdict against the
/// serial reference, and accumulates the run's stats.
bool RunSweepKillingOneWorker(const ClusterOptions& options,
                              std::vector<double>* latencies_us,
                              ClusterStats* totals) {
  const std::vector<Job>& jobs = SweepJobs();
  ClusterRouter router(options);

  std::mutex mu;
  Timer epoch;
  std::vector<double> submitted_at(jobs.size(), 0);
  std::vector<double> completed_at(jobs.size(), 0);
  std::vector<JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ClusterSubmitOptions submit;
    submit.on_complete = [&mu, &completed_at, &epoch, i](const ClusterResult&) {
      std::lock_guard<std::mutex> lock(mu);
      completed_at[i] = epoch.ElapsedSeconds();
    };
    submitted_at[i] = epoch.ElapsedSeconds();
    handles.push_back(router.Submit(jobs[i], submit));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  router.KillWorker(0);

  bool identical = true;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobResult result = handles[i].Wait();
    if (result.status != JobStatus::kCompleted) {
      identical = false;  // a skipped job has no verdict to compare
      continue;
    }
    if (result.DeterministicSummary() != SerialSummaries()[i]) {
      identical = false;
    }
    std::lock_guard<std::mutex> lock(mu);
    latencies_us->push_back((completed_at[i] - submitted_at[i]) * 1e6);
  }

  const ClusterStats stats = router.Stats();
  totals->completed += stats.completed;
  totals->retries += stats.retries;
  totals->worker_crashes += stats.worker_crashes;
  totals->worker_restarts += stats.worker_restarts;
  return identical;
}

void BM_ClusterKillOneWorker(benchmark::State& state) {
  if (!HaveWorkerBinary()) {
    state.SkipWithError("TDLIB_TDWORKER not set; build examples first");
    return;
  }
  ClusterOptions options;
  options.num_workers = 2;
  options.restart_backoff_seconds = 0.01;
  options.restart_backoff_cap_seconds = 0.1;

  std::vector<double> latencies_us;
  ClusterStats totals;
  bool identical = true;
  for (auto _ : state) {
    identical =
        RunSweepKillingOneWorker(options, &latencies_us, &totals) && identical;
  }

  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(totals.completed), benchmark::Counter::kIsRate);
  state.counters["lat_p99_us"] = Percentile(&latencies_us, 0.99);
  state.counters["crashes"] = static_cast<double>(totals.worker_crashes) /
                              static_cast<double>(state.iterations());
  state.counters["retries"] = static_cast<double>(totals.retries) /
                              static_cast<double>(state.iterations());
  state.counters["identical_to_serial"] = identical ? 1 : 0;
}
BENCHMARK(BM_ClusterKillOneWorker)->UseRealTime();

}  // namespace
}  // namespace tdlib
