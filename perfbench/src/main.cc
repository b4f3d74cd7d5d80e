// perfbench: the closed-loop end-to-end benchmark over tdlib's three front
// doors (see ../README.md for the workloads, metrics and layer map).
//
//   perfbench --workload solve|hits|cluster --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// A run repeats rounds until S seconds have passed (and, untraced, until the
// rounds hold at least 1000 latency samples). A round builds its front door,
// warms it up (together: set-up), then drives a fixed, seeded job stream
// through a closed-loop client (the timed phase) and checks every verdict.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds and prints the per-layer metrics,
// timed from this file around the calls into each layer. The last line of
// standard output is one JSON object; the exit code is 1 if any verdict was
// wrong or the inputs failed their self-check.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "cluster/router.h"
#include "cluster/wire.h"
#include "core/parser.h"
#include "engine/service.h"
#include "inputs.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tdlib::Job;
using tdlib::JobResult;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
double Since(Clock::time_point from) { return Seconds(from, Clock::now()); }

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Linear interpolation between closest ranks; `values` must be sorted.
double Percentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

// How a workload loads its front door: one closed-loop client.
struct Door {
  int window = 1;        // jobs in flight
  bool cache = false;    // SolverService with a ResultCache
  bool cluster = false;  // ClusterRouter with tdworker processes
};

Door DoorFor(const std::string& workload) {
  if (workload == "hits") return Door{1, true, false};
  if (workload == "cluster") return Door{4, false, true};
  return Door{1, false, false};  // solve
}

// Binds the calling thread, and so every thread and process it starts
// later, to the last CPU it may run on. On a shared host the hypervisor
// takes CPU time from a guest that keeps two or more vCPUs busy far more
// than from one that keeps a single vCPU busy, and each wake-up of an idle
// vCPU waits until the host runs it. Spread over the vCPUs, runs of the
// same code differed by up to five-fold; on one CPU a wake-up is a local
// context switch, and every workload measures the capacity of one CPU.
bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

// Per-job timestamps of one timed phase.
struct Timeline {
  explicit Timeline(std::size_t n)
      : submit_begin(n), submit_end(n), complete(n) {}
  std::vector<Clock::time_point> submit_begin, submit_end, complete;
};

// A closed-loop client: it keeps at most `window` jobs in flight and
// submits the next job of the stream only when one has completed.
class ClosedLoop {
 public:
  ClosedLoop(int window, Timeline* timeline)
      : window_(window), timeline_(timeline) {}

  // Runs jobs [0, n) in order; submit(i) must lead to exactly one
  // Complete(i), possibly before it returns.
  template <typename Submit>
  void Run(std::size_t n, Submit submit) {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return in_flight_ < window_; });
        ++in_flight_;
      }
      timeline_->submit_begin[i] = Clock::now();
      submit(i);
      timeline_->submit_end[i] = Clock::now();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ == 0; });
  }

  // Called from the completion callback, on any thread.
  void Complete(std::size_t i) {
    timeline_->complete[i] = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_one();
  }

 private:
  const int window_;
  Timeline* const timeline_;
  std::mutex mu_;
  std::condition_variable cv_;
  int in_flight_ = 0;  // guarded by mu_
};

// Chrome-trace events, kept in memory and written at exit. Only the first
// traced round records, so the file stays small.
class Trace {
 public:
  explicit Trace(Clock::time_point base) : base_(base) {}

  void Span(const std::string& name, int tid, Clock::time_point begin,
            Clock::time_point end, std::size_t job) {
    Event("\"name\":\"" + name + "\",\"ph\":\"X\",\"tid\":" +
          std::to_string(tid) + ",\"ts\":" + Us(begin) +
          ",\"dur\":" + Num(Seconds(begin, end) * 1e6) +
          ",\"args\":{\"job\":" + std::to_string(job) + "}");
  }

  // One job, submit to completion, as an async span; `args` is a JSON body.
  void Job(std::size_t job, Clock::time_point begin, Clock::time_point end,
           const std::string& args) {
    const std::string id = ",\"cat\":\"job\",\"id\":" + std::to_string(job);
    Event("\"name\":\"job\",\"ph\":\"b\",\"tid\":0,\"ts\":" + Us(begin) + id +
          ",\"args\":{" + args + "}");
    Event("\"name\":\"job\",\"ph\":\"e\",\"tid\":0,\"ts\":" + Us(end) + id);
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" << events_
        << "\n]}\n";
    return static_cast<bool>(out);
  }

  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }

 private:
  std::string Us(Clock::time_point t) const {
    return Num(Seconds(base_, t) * 1e6);
  }
  void Event(const std::string& body) {
    if (!events_.empty()) events_ += ",\n";
    events_ += "{\"pid\":1," + body + "}";
  }

  Clock::time_point base_;
  std::string events_;
};

// Mean cost of each directly timed layer call over one traced round.
struct Probes {
  double parse_us = 0, canonicalize_us = 0, fingerprint_us = 0, lookup_us = 0;
  double encode_job_us = 0, decode_job_us = 0;
  double encode_result_us = 0, decode_result_us = 0;
  double job_frame_bytes = 0, result_frame_bytes = 0;
};

struct Round {
  bool traced = false;
  std::size_t jobs = 0;
  double setup_s = 0, wall_s = 0, cpu_s = 0;
  double worker_cpu_s = 0;      // cluster: reaped tdworker processes
  std::size_t worker_jobs = 0;  // cluster: warm-up + timed jobs served
  std::vector<double> latency_ms, submit_us;
  std::vector<JobResult> results;
  std::vector<int> worker;          // cluster: slot that served each job
  tdlib::CacheStats cache;          // timed-phase delta (hits)
  tdlib::ClusterStats cluster;      // timed-phase delta
  std::size_t failed = 0;
  std::size_t decided = 0;  // completed with a verdict other than UNKNOWN
  std::string first_failure;
  Probes probes;
};

// Times the calls into the parse, cache and wire layers on this round's
// jobs, from here and after the closed loop, so the loop itself carries
// only its timestamps.
void ProbeLayers(const Inputs& inputs, const Door& door,
                 tdlib::ResultCache* cache, Round* round, Trace* trace) {
  Probes& p = round->probes;
  std::size_t sink = 0;
  auto timed = [&](const char* name, std::size_t i, double* sum, auto call) {
    const Clock::time_point t0 = Clock::now();
    sink += call();
    const Clock::time_point t1 = Clock::now();
    *sum += Seconds(t0, t1) * 1e6;
    if (trace != nullptr) trace->Span(name, 100, t0, t1, i);
  };
  for (std::size_t i = 0; i < round->jobs; ++i) {
    const Copy& copy =
        inputs.copies[static_cast<std::size_t>(inputs.timed[i])];
    const Job& job = copy.job;
    timed("core.parse", i, &p.parse_us, [&] {
      tdlib::SchemaPtr schema;
      return tdlib::ParseDependencyProgram(copy.text, &schema)
          .value()
          .items.size();
    });
    timed("cache.canonicalize", i, &p.canonicalize_us, [&] {
      return tdlib::CanonicalProblemText(job.dependencies, job.goal, job.config)
          .size();
    });
    tdlib::CacheFingerprint fp;
    timed("cache.fingerprint", i, &p.fingerprint_us, [&] {
      fp = tdlib::FingerprintProblem(job.dependencies, job.goal, job.config);
      return static_cast<std::size_t>(fp.lo);
    });
    if (cache != nullptr) {
      timed("cache.lookup", i, &p.lookup_us, [&] {
        tdlib::CachedVerdict verdict;
        return static_cast<std::size_t>(cache->Lookup(fp, &verdict));
      });
    }
    if (door.cluster) {
      tdlib::WireJob wire_job(job);
      tdlib::WireResult wire_result;
      wire_result.result = round->results[i];
      std::string payload;
      timed("wire.encode_job", i, &p.encode_job_us, [&] {
        payload = tdlib::EncodeJobPayload(wire_job);
        return payload.size();
      });
      p.job_frame_bytes +=
          static_cast<double>(tdlib::kFrameHeaderSize + payload.size());
      timed("wire.decode_job", i, &p.decode_job_us, [&] {
        return static_cast<std::size_t>(tdlib::DecodeJobPayload(payload).ok());
      });
      timed("wire.encode_result", i, &p.encode_result_us, [&] {
        payload = tdlib::EncodeResultPayload(wire_result);
        return payload.size();
      });
      p.result_frame_bytes +=
          static_cast<double>(tdlib::kFrameHeaderSize + payload.size());
      timed("wire.decode_result", i, &p.decode_result_us, [&] {
        return static_cast<std::size_t>(
            tdlib::DecodeResultPayload(payload).ok());
      });
    }
  }
  if (sink == 0) std::fprintf(stderr, "perfbench: layer probes did no work\n");
  const double n = static_cast<double>(std::max<std::size_t>(round->jobs, 1));
  for (double* v : {&p.parse_us, &p.canonicalize_us, &p.fingerprint_us,
                    &p.lookup_us, &p.encode_job_us, &p.decode_job_us,
                    &p.encode_result_us, &p.decode_result_us,
                    &p.job_frame_bytes, &p.result_frame_bytes}) {
    *v /= n;
  }
}

// Runs the closed loop over the round's jobs and fills wall, CPU and
// per-job results; `submit(i, done)` hands job i to the front door.
template <typename Submit>
void TimedPhase(const Door& door, Round* round, Timeline* timeline,
                Submit submit) {
  ClosedLoop loop(door.window, timeline);
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  const Clock::time_point t0 = Clock::now();
  loop.Run(round->jobs, [&](std::size_t i) { submit(i, &loop); });
  round->wall_s = Since(t0);
  round->cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
}

Round RunRound(const Inputs& inputs, const std::vector<std::string>& refs,
               const Door& door, bool traced, Trace* trace) {
  Round round;
  round.traced = traced;
  round.jobs = inputs.timed.size();
  round.results.resize(round.jobs);
  round.worker.assign(round.jobs, -1);
  std::vector<Job> warm, jobs;
  for (int c : inputs.warmup) {
    warm.push_back(inputs.copies[static_cast<std::size_t>(c)].job);
  }
  for (int c : inputs.timed) {
    jobs.push_back(inputs.copies[static_cast<std::size_t>(c)].job);
  }
  Timeline timeline(round.jobs);

  if (door.cluster) {
    const double children0 = CpuSeconds(RUSAGE_CHILDREN);
    {
      const Clock::time_point t0 = Clock::now();
      tdlib::ClusterOptions options;
      options.num_workers = 2;
      options.worker_threads = 1;
      options.worker_command = PERFBENCH_WORKER;
      tdlib::ClusterRouter router(options);
      for (Job& job : warm) router.Submit(std::move(job));
      router.WaitIdle();
      round.setup_s = Since(t0);
      const tdlib::ClusterStats before = router.Stats();
      TimedPhase(door, &round, &timeline, [&](std::size_t i, ClosedLoop* loop) {
        tdlib::ClusterSubmitOptions submit;
        submit.on_complete = [&round, loop, i](const tdlib::ClusterResult& r) {
          round.results[i] = r.result;
          round.worker[i] = r.worker;
          loop->Complete(i);
        };
        router.Submit(std::move(jobs[i]), std::move(submit));
      });
      const tdlib::ClusterStats after = router.Stats();
      round.cluster.completed = after.completed - before.completed;
      round.cluster.cache_hits = after.cache_hits - before.cache_hits;
      round.cluster.retries = after.retries - before.retries;
      round.cluster.worker_crashes =
          after.worker_crashes - before.worker_crashes;
    }  // the router shuts its workers down and reaps them
    round.worker_cpu_s = CpuSeconds(RUSAGE_CHILDREN) - children0;
    round.worker_jobs = warm.size() + round.jobs;
    if (traced) ProbeLayers(inputs, door, nullptr, &round, trace);
  } else {
    const Clock::time_point t0 = Clock::now();
    tdlib::ServiceOptions options;
    options.num_threads = 1;  // one job in flight, one CPU
    std::shared_ptr<tdlib::ResultCache> cache;
    if (door.cache) {
      cache = std::make_shared<tdlib::ResultCache>();
      options.result_cache = cache;
    }
    tdlib::SolverService service(options);
    for (Job& job : warm) service.Submit(std::move(job));
    service.WaitIdle();
    round.setup_s = Since(t0);
    const tdlib::CacheStats before =
        cache ? cache->Stats() : tdlib::CacheStats{};
    TimedPhase(door, &round, &timeline, [&](std::size_t i, ClosedLoop* loop) {
      tdlib::SubmitOptions submit;
      submit.on_complete = [&round, loop, i](const JobResult& r) {
        round.results[i] = r;
        loop->Complete(i);
      };
      service.Submit(std::move(jobs[i]), std::move(submit));
    });
    if (cache) {
      const tdlib::CacheStats after = cache->Stats();
      round.cache.insertions = after.insertions - before.insertions;
      round.cache.evictions = after.evictions - before.evictions;
      round.cache.coalesced = after.coalesced - before.coalesced;
    }
    if (traced) ProbeLayers(inputs, door, cache.get(), &round, trace);
  }

  for (std::size_t i = 0; i < round.jobs; ++i) {
    const Copy& copy = inputs.copies[static_cast<std::size_t>(inputs.timed[i])];
    const std::size_t problem = static_cast<std::size_t>(copy.problem);
    const JobResult& result = round.results[i];
    round.latency_ms.push_back(
        Seconds(timeline.submit_begin[i], timeline.complete[i]) * 1e3);
    round.submit_us.push_back(
        Seconds(timeline.submit_begin[i], timeline.submit_end[i]) * 1e6);
    std::string failure =
        CheckResult(inputs.problems[problem], refs[problem], result);
    if (failure.empty() && door.cache &&
        result.cache_source != tdlib::CacheSource::kHit) {
      failure = "not served from the cache";
    }
    if (!failure.empty() && round.failed++ == 0) {
      round.first_failure = copy.job.name + ": " + failure;
    }
    round.decided += result.status == tdlib::JobStatus::kCompleted &&
                     result.verdict != tdlib::DualVerdict::kUnknown;
    if (trace != nullptr) {
      trace->Span("engine.submit", 1,
                  timeline.submit_begin[i], timeline.submit_end[i], i);
      trace->Job(i, timeline.submit_begin[i], timeline.complete[i],
                 "\"name\":\"" + copy.job.name + "\",\"verdict\":\"" +
                     std::string(result.VerdictName()) + "\",\"cache\":\"" +
                     std::string(tdlib::CacheSourceName(result.cache_source)) +
                     "\",\"queue_ms\":" +
                     Trace::Num(result.queue_seconds * 1e3) +
                     ",\"solve_ms\":" + Trace::Num(result.wall_seconds * 1e3) +
                     ",\"match_ms\":" + Trace::Num(result.match_seconds * 1e3) +
                     ",\"fire_ms\":" + Trace::Num(result.fire_seconds * 1e3) +
                     ",\"checkpoint_ms\":" +
                     Trace::Num(result.checkpoint_seconds * 1e3) +
                     ",\"worker\":" + std::to_string(round.worker[i]));
    }
  }
  if (!traced) {
    // An untraced round keeps only what the end-to-end metrics read, so the
    // benchmark's own memory does not grow with the number of rounds run.
    std::vector<JobResult>().swap(round.results);
    std::vector<int>().swap(round.worker);
    std::vector<double>().swap(round.submit_us);
  }
  return round;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;  // how the value was formed, for the report
};

std::vector<double> Collect(const std::vector<Round>& rounds, bool traced,
                            double (*f)(const Round&)) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    if (r.traced == traced) out.push_back(f(r));
  }
  return out;
}

double JobsPerSecond(const Round& r) {
  return static_cast<double>(r.jobs) / r.wall_s;
}

// Latency percentiles are taken per window of consecutive rounds holding at
// least 1000 jobs (so a p99 has ten samples beyond it), and the median over
// windows is reported: a stall that hits a few windows does not move it.
std::pair<double, double> LatencyP50P99(const std::vector<Round>& rounds,
                                        std::size_t* windows) {
  std::vector<double> p50, p99, window;
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    window.insert(window.end(), rounds[k].latency_ms.begin(),
                  rounds[k].latency_ms.end());
    std::size_t rest = 0;
    for (std::size_t j = k + 1; j < rounds.size(); ++j) rest += rounds[j].jobs;
    if (window.size() < 1000 || (rest > 0 && rest < 1000)) continue;
    std::sort(window.begin(), window.end());
    p50.push_back(Percentile(window, 0.50));
    p99.push_back(Percentile(window, 0.99));
    window.clear();
  }
  *windows = p99.size();
  return {Median(p50), Median(p99)};
}

double CpuMsPerJob(const Round& r) {
  double ms = r.cpu_s / static_cast<double>(r.jobs);
  if (r.worker_jobs > 0) {
    ms += r.worker_cpu_s / static_cast<double>(r.worker_jobs);
  }
  return ms * 1e3;
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             const Door& door) {
  std::size_t attempted = 0, failed = 0, decided = 0;
  for (const Round& r : rounds) {
    attempted += r.jobs;
    failed += r.failed;
    decided += r.decided;
  }
  std::size_t windows = 0;
  const auto [p50, p99] = LatencyP50P99(rounds, &windows);
  const std::string per_round =
      "median of " + std::to_string(rounds.size()) + " rounds x " +
      std::to_string(rounds.front().jobs) + " jobs";
  const std::string per_window = "median of " + std::to_string(windows) +
                                 " windows of >= 1000 jobs, " +
                                 std::to_string(attempted) + " in all";
  const double shares = static_cast<double>(attempted);
  double peak = MaxRssMb(RUSAGE_SELF);
  if (door.cluster) peak = std::max(peak, MaxRssMb(RUSAGE_CHILDREN));
  std::vector<double> jps = Collect(rounds, false, JobsPerSecond);
  std::sort(jps.begin(), jps.end());
  char range[64];
  std::snprintf(range, sizeof(range), " (rounds' quartiles %.6g .. %.6g)",
                Percentile(jps, 0.25), Percentile(jps, 0.75));
  return {
      {"jobs_per_s", Median(jps), "1/s", per_round + range},
      {"latency_p50_ms", p50, "ms", per_window},
      {"latency_p99_ms", p99, "ms",
       windows > 0 ? per_window : "INVALID: under 1000 jobs"},
      {"success_share", static_cast<double>(attempted - failed) / shares,
       "share",
       std::to_string(attempted - failed) + " of " + std::to_string(attempted)},
      {"decided_share", static_cast<double>(decided) / shares, "share",
       std::to_string(decided) + " of " + std::to_string(attempted)},
      {"cpu_ms_per_job", Median(Collect(rounds, false, CpuMsPerJob)), "ms",
       per_round + (door.cluster ? " (+ worker CPU per job served)" : "")},
      {"peak_rss_mb", peak, "MiB",
       door.cluster ? "max of this process and the largest worker"
                    : "this process"},
      {"setup_s",
       Median(Collect(rounds, false,
                      [](const Round& r) { return r.setup_s; })),
       "s", "median of " + std::to_string(rounds.size()) + " set-ups"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Round>& rounds) {
  // Sums over the jobs of the traced rounds. Work counts include only jobs
  // that ran the solver: a cache hit replays its counts but does no work.
  double n = 0, submit_us = 0, queue = 0, solve = 0, match = 0, fire = 0,
         checkpoint = 0, steps = 0, passes = 0, hom_nodes = 0, match_tasks = 0,
         candidates = 0, rounds_used = 0, hits = 0, overhead = 0;
  double traced_rounds = 0, insertions = 0, evictions = 0, coalesced = 0,
         router_cpu = 0, worker_cpu = 0, worker_max = 0, worker_hits = 0;
  double retries = 0, crashes = 0;
  Probes probes;
  bool cluster = false;
  for (const Round& r : rounds) {
    retries += static_cast<double>(r.cluster.retries);
    crashes += static_cast<double>(r.cluster.worker_crashes);
    if (!r.traced) continue;
    cluster = r.worker_jobs > 0;
    ++traced_rounds;
    std::vector<double> per_worker;
    for (std::size_t i = 0; i < r.jobs; ++i) {
      const JobResult& result = r.results[i];
      ++n;
      submit_us += r.submit_us[i];
      queue += result.queue_seconds * 1e3;
      solve += result.wall_seconds * 1e3;
      match += result.match_seconds * 1e3;
      fire += result.fire_seconds * 1e3;
      checkpoint += result.checkpoint_seconds * 1e3;
      if (cluster) overhead += r.latency_ms[i] - result.wall_seconds * 1e3;
      const bool served = result.cache_source == tdlib::CacheSource::kHit ||
                          result.cache_source == tdlib::CacheSource::kCoalesced;
      hits += result.cache_source == tdlib::CacheSource::kHit;
      if (cluster && result.cache_source == tdlib::CacheSource::kMiss) {
        ++insertions;
      }
      if (r.worker[i] >= 0) {
        const std::size_t w = static_cast<std::size_t>(r.worker[i]);
        if (per_worker.size() <= w) per_worker.resize(w + 1);
        ++per_worker[w];
      }
      if (served) continue;
      steps += static_cast<double>(result.chase_steps);
      passes += static_cast<double>(result.chase_passes);
      hom_nodes += static_cast<double>(result.hom_nodes);
      match_tasks += static_cast<double>(result.match_tasks);
      candidates += static_cast<double>(result.candidates_checked);
      rounds_used += result.rounds_used;
    }
    const double jobs = static_cast<double>(r.jobs);
    insertions += static_cast<double>(r.cache.insertions);
    evictions += static_cast<double>(r.cache.evictions);
    coalesced += static_cast<double>(r.cache.coalesced);
    if (cluster) {
      router_cpu += r.cpu_s * 1e3 / jobs;
      worker_cpu += r.worker_cpu_s * 1e3 / static_cast<double>(r.worker_jobs);
      worker_max +=
          *std::max_element(per_worker.begin(), per_worker.end()) / jobs;
      worker_hits += static_cast<double>(r.cluster.cache_hits) /
                     static_cast<double>(
                         std::max<std::int64_t>(r.cluster.completed, 1));
    }
    const Probes& p = r.probes;
    probes.parse_us += p.parse_us;
    probes.canonicalize_us += p.canonicalize_us;
    probes.fingerprint_us += p.fingerprint_us;
    probes.lookup_us += p.lookup_us;
    probes.encode_job_us += p.encode_job_us;
    probes.decode_job_us += p.decode_job_us;
    probes.encode_result_us += p.encode_result_us;
    probes.decode_result_us += p.decode_result_us;
    probes.job_frame_bytes += p.job_frame_bytes;
    probes.result_frame_bytes += p.result_frame_bytes;
  }
  const double tr = std::max(traced_rounds, 1.0);
  n = std::max(n, 1.0);
  const double untraced_jps = Median(Collect(rounds, false, JobsPerSecond));
  const double traced_jps = Median(Collect(rounds, true, JobsPerSecond));
  const char* kPerJob = "mean per job";
  const char* kPerCall = "mean per call";
  const char* kWork = "per job, from solver runs";
  return {
      {"engine.submit_us", submit_us / n, "us", kPerJob},
      {"engine.queue_ms", queue / n, "ms", kPerJob},
      {"engine.solve_ms", solve / n, "ms", kPerJob},
      {"chase.match_ms", match / n, "ms", kPerJob},
      {"chase.fire_ms", fire / n, "ms", kPerJob},
      {"chase.checkpoint_ms", checkpoint / n, "ms", kPerJob},
      {"chase.steps", steps / n, "count", kWork},
      {"chase.passes", passes / n, "count", kWork},
      {"chase.hom_nodes", hom_nodes / n, "count", kWork},
      {"chase.match_tasks", match_tasks / n, "count", kWork},
      {"dual.other_ms", (solve - match - fire - checkpoint) / n, "ms", kPerJob},
      {"dual.candidates_checked", candidates / n, "count", kWork},
      {"dual.rounds_used", rounds_used / n, "count", kWork},
      {"cache.canonicalize_us", probes.canonicalize_us / tr, "us", kPerCall},
      {"cache.fingerprint_us", probes.fingerprint_us / tr, "us", kPerCall},
      {"cache.lookup_us", probes.lookup_us / tr, "us", kPerCall},
      {"cache.hit_share", hits / n, "share", "of jobs"},
      {"cache.insertions", insertions / tr, "count", "per round"},
      {"cache.evictions", evictions / tr, "count", "per round"},
      {"cache.coalesced", coalesced / tr, "count", "per round"},
      {"core.parse_us", probes.parse_us / tr, "us", kPerCall},
      {"wire.encode_job_us", probes.encode_job_us / tr, "us", kPerCall},
      {"wire.decode_job_us", probes.decode_job_us / tr, "us", kPerCall},
      {"wire.encode_result_us", probes.encode_result_us / tr, "us", kPerCall},
      {"wire.decode_result_us", probes.decode_result_us / tr, "us", kPerCall},
      {"wire.job_frame_bytes", probes.job_frame_bytes / tr, "bytes", kPerJob},
      {"wire.result_frame_bytes", probes.result_frame_bytes / tr, "bytes",
       kPerJob},
      {"cluster.overhead_ms", overhead / n, "ms", "mean latency - worker wall"},
      {"cluster.router_cpu_ms_per_job", router_cpu / tr, "ms", "this process"},
      {"cluster.worker_cpu_ms_per_job", worker_cpu / tr, "ms",
       "per job served"},
      {"cluster.worker_max_share", worker_max / tr, "share", "busiest worker"},
      {"cluster.worker_hit_share", worker_hits / tr, "share", "router count"},
      {"cluster.retries", retries, "count", "all rounds"},
      {"cluster.worker_crashes", crashes, "count", "all rounds"},
      {"trace.overhead_share",
       untraced_jps > 0 && traced_jps > 0 ? 1 - traced_jps / untraced_jps : 0,
       "share", "1 - traced/untraced jobs_per_s"},
  };
}

// Where a traced job's latency goes: client-timed Submit, then the phases
// the program reports, and the rest (publication, wake-ups, wire, dispatch).
void PrintSelfTimes(const std::vector<Round>& rounds) {
  double n = 0, latency = 0, submit = 0, queue = 0, solve = 0, match = 0,
         fire = 0, checkpoint = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    for (std::size_t i = 0; i < r.jobs; ++i) {
      const JobResult& result = r.results[i];
      ++n;
      latency += r.latency_ms[i];
      submit += std::min(r.submit_us[i] * 1e-3, r.latency_ms[i]);
      queue += result.queue_seconds * 1e3;
      solve += result.wall_seconds * 1e3;
      match += result.match_seconds * 1e3;
      fire += result.fire_seconds * 1e3;
      checkpoint += result.checkpoint_seconds * 1e3;
    }
  }
  if (n == 0) return;
  std::printf(
      "self time per job (traced rounds, %.0f jobs, mean latency %.4f ms)\n",
      n, latency / n);
  const std::pair<const char*, double> rows[] = {
      {"engine.submit (client span)", submit},
      {"engine.queue", queue},
      {"chase.match", match},
      {"chase.fire", fire},
      {"chase.checkpoint", checkpoint},
      {"dual.other (solve self time)", solve - match - fire - checkpoint},
      {"job self time (rest)", latency - submit - queue - solve},
  };
  for (const auto& [name, sum] : rows) {
    std::printf("  %-30s %12.5f ms %7.1f%%\n", name, sum / n,
                latency > 0 ? 100 * sum / latency : 0.0);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve|hits|cluster --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 64;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    const long long number = std::strtoll(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && *end == '\0' && number >= 0;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--seed" && numeric) {
      seed = number;
    } else if (key == "--seconds" && numeric) {
      seconds = number;
    } else if (key == "--trace" && numeric && number <= 1) {
      trace = number;
    } else {
      return Usage();
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0 ||
      std::find(WorkloadNames().begin(), WorkloadNames().end(), workload) ==
          WorkloadNames().end()) {
    return Usage();
  }

  const Door door = DoorFor(workload);
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot bind to one CPU\n");
    return 1;
  }
  const Clock::time_point start = Clock::now();
  tdlib::Result<Inputs> made =
      MakeInputs(workload, static_cast<std::uint64_t>(seed));
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", made.error().c_str());
    return 1;
  }
  const Inputs inputs = std::move(made).value();
  const std::string self_check =
      SelfCheck(workload, static_cast<std::uint64_t>(seed), inputs);
  if (!self_check.empty()) {
    std::fprintf(stderr, "perfbench: input self-check failed: %s\n",
                 self_check.c_str());
    return 1;
  }
  const std::vector<std::string> refs = SerialReferences(inputs);
  std::printf("perfbench workload=%s seed=%lld seconds=%lld trace=%lld "
              "build=%s nproc=%u, bound to one CPU\n",
              workload.c_str(), seed, seconds, trace, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::printf("inputs: %zu problems, %zu copies, %zu warm-up + %zu timed jobs "
              "per round; self-check ok; serial references in %.3f s\n",
              inputs.problems.size(), inputs.copies.size(),
              inputs.warmup.size(), inputs.timed.size(), Since(start));

  // Rounds until the time is up, with at least three untraced rounds, two
  // traced ones when tracing, and 1000 untraced latency samples otherwise.
  // 150 s caps a run whatever the host's speed.
  Trace chrome(start);
  std::vector<Round> rounds;
  const Clock::time_point measure = Clock::now();
  std::size_t untraced = 0, traced = 0, samples = 0;
  for (int k = 0;; ++k) {
    const bool is_traced = trace == 1 && k % 2 == 1;
    rounds.push_back(RunRound(inputs, refs, door, is_traced,
                              is_traced && traced == 0 ? &chrome : nullptr));
    (is_traced ? traced : untraced) += 1;
    if (!is_traced) samples += rounds.back().jobs;
    const bool enough = untraced >= 3 &&
                        (trace == 1 ? traced >= 2 : samples >= 1000);
    if ((enough && Since(measure) >= static_cast<double>(seconds)) ||
        Since(measure) > 150) {
      break;
    }
  }

  std::size_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.jobs;
    failed += r.failed;
    if (r.failed > 0) {
      std::fprintf(stderr, "perfbench: %zu wrong verdict(s), first: %s\n",
                   r.failed, r.first_failure.c_str());
    }
  }
  // With --trace 0 every round is untraced; with --trace 1 PerLayer reads
  // the traced rounds and the untraced rounds' jobs_per_s.
  std::vector<Metric> metrics;
  if (trace == 1) {
    metrics = PerLayer(rounds);
    PrintSelfTimes(rounds);
    if (!trace_out.empty() && !chrome.Write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(rounds, door);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::string json = "{\"correct\": " +
                     std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Trace::Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
