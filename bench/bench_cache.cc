// What the canonical-form result cache is worth, in two views.
//
// BM_CacheHitMiss is the raw data-structure cost: lookups against a
// pre-filled sharded LRU, hit or miss by argument, reported as
// lookups_per_sec. This is the price every submission pays BEFORE any
// solving begins, so it must stay in the tens-of-nanoseconds regime — the
// fingerprint canonicalization (measured separately as fp_us_per_job) is
// the dominant submit-path cost, not the map.
//
// BM_CacheWarmSweep is the acceptance headline: the reduction sweep pushed
// through a cache-enabled SolverService cold (empty cache, every job a
// fresh chase) vs warm (cache pre-filled by an untimed run of the same
// sweep, every job served content-addressed). Both report jobs_per_sec and
// identical_to_serial — a warm sweep that is fast but not byte-identical
// to the serial reference is a bug, not a speedup. The run_benchmarks.sh
// recap prints warm/cold and warns below the 10x target.
//
// BM_JobCopy and BM_JobTeardown time the two halves of a Job's lifecycle on
// the submit path — copying the sweep's jobs, and destroying the copies —
// each with the other half outside the timer. A warm hit pays the teardown
// and a dedup miss the copy; both scale with the tableaux's allocations.
// items_per_second is jobs per second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "engine/batch_solver.h"
#include "engine/service.h"
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

const BatchSummary& SerialReference() {
  static const BatchSummary summary = RunSerial(SweepJobs());
  return summary;
}

void BM_CacheHitMiss(benchmark::State& state) {
  const bool hit = state.range(0) != 0;
  ResultCache cache;
  constexpr std::uint64_t kEntries = 1024;
  for (std::uint64_t n = 0; n < kEntries; ++n) {
    CacheFingerprint fp;
    fp.hi = n;
    fp.lo = n * 0x9e3779b97f4a7c15ULL;
    fp.valid = true;
    CachedVerdict verdict;
    verdict.rounds_used = static_cast<int>(n & 7);
    cache.Insert(fp, verdict);
  }

  std::uint64_t lookups = 0;
  std::uint64_t n = 0;
  CachedVerdict out;
  for (auto _ : state) {
    CacheFingerprint fp;
    // Miss probes use keys from a disjoint range.
    fp.hi = hit ? (n % kEntries) : (kEntries + n);
    fp.lo = fp.hi * 0x9e3779b97f4a7c15ULL;
    fp.valid = true;
    benchmark::DoNotOptimize(cache.Lookup(fp, &out));
    ++n;
    ++lookups;
  }
  state.counters["probe_hit"] = hit ? 1 : 0;
  state.counters["lookups_per_sec"] = benchmark::Counter(
      static_cast<double>(lookups), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheHitMiss)->Arg(0)->Arg(1);

void BM_CacheWarmSweep(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const std::vector<Job>& jobs = SweepJobs();
  const BatchSummary& serial = SerialReference();

  // The warm cache is filled once, outside the timed loop, by solving the
  // sweep through a throwaway service; each timed iteration then measures
  // pure content-addressed serving on a fresh service sharing that cache.
  std::shared_ptr<ResultCache> warm_cache;
  if (warm) {
    warm_cache = std::make_shared<ResultCache>();
    ServiceOptions options;
    options.num_threads = 2;
    options.result_cache = warm_cache;
    SolverService service(options);
    std::vector<JobHandle> handles;
    for (const Job& job : jobs) handles.push_back(service.Submit(job));
    for (const JobHandle& handle : handles) handle.Wait();
  }

  // Fingerprint cost of the whole sweep, measured once: the per-submission
  // canonicalization price a consumer pays whether it hits or misses.
  Timer fp_timer;
  for (const Job& job : jobs) {
    benchmark::DoNotOptimize(
        FingerprintProblem(job.dependencies, job.goal, job.config));
  }
  const double fp_us_per_job =
      fp_timer.ElapsedSeconds() * 1e6 / static_cast<double>(jobs.size());

  std::uint64_t jobs_done = 0;
  bool identical = true;
  for (auto _ : state) {
    ServiceOptions options;
    options.num_threads = 2;
    options.result_cache =
        warm ? warm_cache : std::make_shared<ResultCache>();
    SolverService service(options);
    std::vector<JobHandle> handles;
    handles.reserve(jobs.size());
    for (const Job& job : jobs) handles.push_back(service.Submit(job));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (handles[i].Wait().DeterministicSummary() !=
          serial.results[i].DeterministicSummary()) {
        identical = false;
      }
    }
    jobs_done += jobs.size();
  }

  state.counters["warm"] = warm ? 1 : 0;
  state.counters["identical_to_serial"] = identical ? 1 : 0;
  state.counters["fp_us_per_job"] = fp_us_per_job;
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(jobs_done), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheWarmSweep)->Arg(0)->Arg(1)->UseRealTime();

void BM_JobCopy(benchmark::State& state) {
  const std::vector<Job>& jobs = SweepJobs();
  for (auto _ : state) {
    std::vector<Job> copies(jobs);
    benchmark::DoNotOptimize(copies.data());
    state.PauseTiming();
    copies.clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_JobCopy);

void BM_JobTeardown(benchmark::State& state) {
  const std::vector<Job>& jobs = SweepJobs();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Job> copies(jobs);
    state.ResumeTiming();
    copies.clear();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_JobTeardown);

}  // namespace
}  // namespace tdlib
