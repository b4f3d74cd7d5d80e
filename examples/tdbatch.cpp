// tdbatch: the batch front end to the asynchronous inference service.
//
// Runs a named workload (or a list of .td files) through engine/SolverService
// and prints a per-job summary table; optionally streams each result as it
// completes and/or writes the same rows as CSV for the experiment harness.
//
//   $ ./build/examples/tdbatch --workload=reduction-sweep --size=12 --threads=4
//   $ ./build/examples/tdbatch --workload=random --seed=7 --deadline=2.5
//   $ ./build/examples/tdbatch a.td b.td c.td --csv=out.csv --stream
//   $ ./build/examples/tdbatch --workers=2 --size=8 --check-serial
//
// Flags:
//   --workload=NAME   reduction-sweep (default) or random; ignored when
//                     .td files are given
//   --size=N          jobs to generate (default 12)
//   --seed=N          random-workload seed (default 1)
//   --threads=N       pool width (default 0 = hardware concurrency; with
//                     --workers the pool is the fallback, default 1)
//   --rounds=N        dual-solver escalation rounds per job (default 2,
//                     the trimmed DefaultWorkloadSolverConfig — generated
//                     families contain gap instances that pump forever)
//   --chase-steps=N   chase budget per round (default 2000, same reason)
//   --max-tuples=N    finite-counterexample size bound (default 3)
//   --deadline=S      per-job wall-clock budget in seconds, measured from
//                     submission — submissions all happen up front, so this
//                     doubles as the old global batch budget (default none)
//   --stream          print each job's result line the moment it completes
//                     (completion order, from the service's on_complete
//                     callback) instead of only the table at the end
//   --naive-chase     disable delta-driven matching (ablation baseline;
//                     verdicts are identical, the chase just re-matches
//                     the whole instance every pass)
//   --no-resume       make escalation rounds re-run the chase from scratch
//                     instead of resuming the previous round's checkpoint
//                     (ablation baseline; results are byte-identical, the
//                     chase just re-derives every round's prefix)
//   --cache[=BYTES]   canonical-form result cache for the service mode,
//                     with an optional byte budget (default on, 64 MiB):
//                     jobs identical up to variable/attribute renaming are
//                     solved once and served byte-identically thereafter,
//                     and concurrent isomorphic submissions coalesce onto
//                     one chase. The summary table/CSV gain a "cache"
//                     column (miss/hit/coalesced) and a hit/miss stats line
//   --no-cache        ablation baseline: every submission runs its own
//                     chase (the pre-cache behavior, byte-identical output)
//   --cache-file=PATH warm-start file: load cached verdicts from PATH
//                     before the batch (a corrupt file is reported and
//                     skipped — cold start, never wrong verdicts) and save
//                     the cache back to PATH afterwards
//   --stop-on-refutation   skip jobs not yet started once any job refutes
//   --serial          run on the calling thread (reference mode; the cache
//                     is a service feature, so --serial ignores it)
//   --csv=PATH        also write per-job rows as CSV
//   --metrics[=PATH]  enable the metrics layer; dump the final snapshot as
//                     JSON to PATH (stdout when no PATH)
//   --prom=PATH       also dump the snapshot as Prometheus text exposition
//                     (implies --metrics)
//   --trace=PATH      enable tracing; dump the span ring buffer as Chrome
//                     trace_event JSON (load in chrome://tracing/Perfetto)
//   --slow-log=S      log a phase breakdown to stderr for every job whose
//                     submit-to-terminal time reaches S seconds
//   --check-serial    re-solve every completed job serially in-process and
//                     require a byte-identical DeterministicSummary (prints
//                     "parity=ok|FAIL"; exit 6 on any divergence)
//   --workers=N       run the jobs on N tdworker processes (cluster/router.h;
//                     default 0 = in-process) and print a "cluster:" line of
//                     worker-set counters; the in-process pool then only
//                     takes over when every worker is down
//   --worker-cmd=PATH worker executable (default: $TDLIB_TDWORKER, else
//                     "tdworker" next to this binary)
//   --kill-worker-after=K  SIGKILL worker slot 0 after the K-th completion
//                     (the crash-recovery smoke leg)
//
// The TDLIB_FAULT environment variable arms the util/fault.h injection
// sites for this run (e.g. TDLIB_FAULT="chase-alloc:3,deadline"); armed
// faults surface as typed one-line errors or kSkipped/kCancelled results,
// and their fault.injected.* counters appear in --metrics output.
//
// Exit codes: 0 = success, 2 = usage error, 3 = unreadable input file,
// 4 = malformed workload/TD program, 5 = cannot write an output file,
// 6 = --check-serial found a divergence, 1 = any other failure. Every failure prints one diagnostic line to
// stderr prefixed "tdbatch:".
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "cache/store.h"
#include "cluster/router.h"
#include "engine/batch_solver.h"
#include "engine/service.h"
#include "engine/workload.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/trace_span.h"

using namespace tdlib;

namespace {

// Distinct non-zero exit codes, so scripts and the CI harness can tell
// "bad invocation" from "bad input" from "bad environment" without
// scraping stderr.
enum ExitCode {
  kExitSuccess = 0,
  kExitFailure = 1,       // unclassified (internal error, exception)
  kExitUsage = 2,         // bad flags
  kExitUnreadable = 3,    // an input file could not be opened
  kExitMalformed = 4,     // workload/TD program failed to parse
  kExitWriteFailure = 5,  // an output file could not be written
  kExitParity = 6,        // --check-serial found a divergence
};

int ExitCodeForError(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNotFound: return kExitUnreadable;
    case ErrorCode::kParseError: return kExitMalformed;
    case ErrorCode::kInvalidArgument: return kExitUsage;
    default: return kExitFailure;
  }
}

int Usage() {
  std::cerr << "usage: tdbatch [--workload=reduction-sweep|random] [--size=N]\n"
               "               [--seed=N] [--threads=N] [--rounds=N]\n"
               "               [--chase-steps=N] [--max-tuples=N]\n"
               "               [--deadline=S] [--stream] [--naive-chase]\n"
               "               [--no-resume]\n"
               "               [--cache[=BYTES]] [--no-cache]\n"
               "               [--cache-file=PATH] [--stop-on-refutation]\n"
               "               [--serial] [--csv=PATH] [--metrics[=PATH]]\n"
               "               [--prom=PATH] [--trace=PATH] [--slow-log=S]\n"
               "               [--check-serial] [--workers=N] [--worker-cmd=PATH]\n"
               "               [--kill-worker-after=K]\n"
               "               [file.td ...]\n";
  return 2;
}

/// Default worker command: $TDLIB_TDWORKER, else "tdworker" in argv[0]'s
/// directory (the build tree layout puts the two side by side).
std::string DefaultWorkerCommand(const char* argv0) {
  const char* env = std::getenv("TDLIB_TDWORKER");
  if (env != nullptr && env[0] != '\0') return env;
  const std::string self = argv0;
  const std::size_t slash = self.find_last_of('/');
  return slash == std::string::npos ? "tdworker"
                                    : self.substr(0, slash + 1) + "tdworker";
}

/// Re-solves every completed job serially and compares the deterministic
/// bytes. Returns the number of divergent jobs.
int CheckSerialParity(const std::vector<Job>& jobs,
                      const std::vector<JobResult>& results) {
  int checked = 0, divergent = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status != JobStatus::kCompleted) continue;  // never ran
    const JobResult serial = RunJob(jobs[i], jobs[i].config);
    ++checked;
    if (serial.DeterministicSummary() != results[i].DeterministicSummary()) {
      ++divergent;
      std::cerr << "tdbatch: PARITY DIVERGENCE on " << results[i].name
                << "\n  service: " << results[i].DeterministicSummary()
                << "\n  serial:  " << serial.DeterministicSummary() << "\n";
    }
  }
  std::cout << "tdbatch: parity=" << (divergent == 0 ? "ok" : "FAIL")
            << " checked=" << checked << " divergent=" << divergent << "\n";
  return divergent;
}

int RunBatch(int argc, char** argv) {
  std::string family = "reduction-sweep";
  WorkloadOptions workload;
  int num_threads = 0;
  bool stop_on_refutation = false;
  double deadline_seconds = 0;
  bool serial = false;
  bool stream = false;
  std::string csv_path;
  bool metrics = false;
  std::string metrics_path;  // "" with metrics=true means stdout
  std::string prom_path;
  std::string trace_path;
  double slow_log_seconds = 0;
  bool use_cache = true;
  std::size_t cache_bytes = CacheOptions{}.max_bytes;
  std::string cache_file;
  bool check_serial = false;
  ClusterOptions cluster;
  cluster.num_workers = 0;
  cluster.worker_command = DefaultWorkerCommand(argv[0]);
  int kill_after = 0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    try {
      if (StartsWith(arg, "--workload=")) {
        family = arg.substr(11);
      } else if (StartsWith(arg, "--size=")) {
        workload.size = std::stoi(arg.substr(7));
      } else if (StartsWith(arg, "--seed=")) {
        workload.seed = std::stoull(arg.substr(7));
      } else if (StartsWith(arg, "--threads=")) {
        num_threads = std::stoi(arg.substr(10));
      } else if (StartsWith(arg, "--rounds=")) {
        workload.solver.rounds = std::stoi(arg.substr(9));
      } else if (StartsWith(arg, "--chase-steps=")) {
        workload.solver.base_chase.max_steps = std::stoull(arg.substr(14));
      } else if (StartsWith(arg, "--max-tuples=")) {
        workload.solver.base_counterexample.max_tuples =
            std::stoi(arg.substr(13));
      } else if (StartsWith(arg, "--deadline=")) {
        deadline_seconds = std::stod(arg.substr(11));
      } else if (arg == "--stream") {
        stream = true;
      } else if (arg == "--naive-chase") {
        workload.solver.base_chase.use_delta = false;
      } else if (arg == "--no-resume") {
        workload.solver.resume_chase = false;
      } else if (arg == "--cache") {
        use_cache = true;
      } else if (StartsWith(arg, "--cache=")) {
        use_cache = true;
        cache_bytes = std::stoull(arg.substr(8));
      } else if (arg == "--no-cache") {
        use_cache = false;
      } else if (StartsWith(arg, "--cache-file=")) {
        cache_file = arg.substr(13);
      } else if (arg == "--stop-on-refutation") {
        stop_on_refutation = true;
      } else if (arg == "--serial") {
        serial = true;
      } else if (StartsWith(arg, "--csv=")) {
        csv_path = arg.substr(6);
      } else if (arg == "--metrics") {
        metrics = true;
      } else if (StartsWith(arg, "--metrics=")) {
        metrics = true;
        metrics_path = arg.substr(10);
      } else if (StartsWith(arg, "--prom=")) {
        metrics = true;
        prom_path = arg.substr(7);
      } else if (StartsWith(arg, "--trace=")) {
        trace_path = arg.substr(8);
      } else if (StartsWith(arg, "--slow-log=")) {
        slow_log_seconds = std::stod(arg.substr(11));
      } else if (arg == "--check-serial") {
        check_serial = true;
      } else if (StartsWith(arg, "--workers=")) {
        cluster.num_workers = std::stoi(arg.substr(10));
      } else if (StartsWith(arg, "--worker-cmd=")) {
        cluster.worker_command = arg.substr(13);
      } else if (StartsWith(arg, "--kill-worker-after=")) {
        kill_after = std::stoi(arg.substr(20));
      } else if (StartsWith(arg, "--")) {
        return Usage();
      } else {
        files.push_back(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "tdbatch: bad value in '" << arg << "'\n";
      return Usage();
    }
  }
  if (workload.size < 1) {
    std::cerr << "tdbatch: --size must be >= 1\n";
    return Usage();
  }
  if (cluster.num_workers < 0 || (kill_after > 0 && cluster.num_workers == 0)) {
    std::cerr << "tdbatch: --kill-worker-after needs --workers=N > 0\n";
    return Usage();
  }

  Result<std::vector<Job>> jobs =
      files.empty() ? MakeWorkload(family, workload)
                    : FileWorkload(files, workload);
  if (!jobs.ok()) {
    std::cerr << "tdbatch: " << ErrorCodeName(jobs.code()) << ": "
              << jobs.error() << "\n";
    return ExitCodeForError(jobs.code());
  }

  // Observability switches flip before any solving so the whole run is
  // covered; both default off (zero-cost path).
  if (metrics) SetMetricsEnabled(true);
  if (!trace_path.empty()) SetTracingEnabled(true);

  BatchSummary summary;
  if (serial) {
    BatchOptions batch;
    batch.deadline_seconds = deadline_seconds;
    batch.stop_on_first_refutation = stop_on_refutation;
    summary = RunSerial(jobs.value(), batch);
    if (stream) {
      // The reference mode has no worker callbacks; completion order IS
      // submission order, so stream after the fact.
      for (const JobResult& r : summary.results) {
        std::cout << r.ToString() << "\n";
      }
    }
  } else {
    // The asynchronous path: one submission per job, results observed
    // through handles. --stream and --stop-on-refutation both ride the
    // per-submission on_complete callback; early stop closes a shared
    // admission gate so queued jobs are skipped, exactly like the old
    // batch-global control.
    Timer wall;
    std::shared_ptr<ResultCache> cache;
    if (use_cache) {
      CacheOptions cache_options;
      cache_options.max_bytes = cache_bytes;
      cache = std::make_shared<ResultCache>(cache_options);
      if (!cache_file.empty()) {
        Result<int> loaded = LoadResultCacheFile(cache_file, cache.get());
        if (loaded.ok()) {
          std::cout << "cache: warm start, " << loaded.value()
                    << " entries from " << cache_file << "\n";
        } else if (loaded.code() == ErrorCode::kCorrupt) {
          // Best-effort warm start: a damaged file degrades to whatever
          // valid prefix loaded, never to wrong verdicts or an abort.
          std::cerr << "tdbatch: ignoring corrupt cache file " << cache_file
                    << " (" << loaded.error() << ")\n";
        }
        // kNotFound = no warm-start file yet: silent cold start.
      }
    }
    ServiceOptions service_options;
    // With workers, the local pool only runs jobs once every worker is
    // dead: one thread unless --threads asks for more (as ClusterRouter's
    // one-argument form).
    service_options.num_threads =
        cluster.num_workers > 0 && num_threads == 0 ? 1 : num_threads;
    service_options.slow_log_seconds = slow_log_seconds;
    service_options.result_cache = cache;
    // One front door either way: with --workers the same service runs its
    // jobs on worker processes.
    std::unique_ptr<ClusterRouter> router;
    std::unique_ptr<SolverService> local_service;
    if (cluster.num_workers > 0) {
      router = std::make_unique<ClusterRouter>(cluster, service_options);
    } else {
      local_service = std::make_unique<SolverService>(service_options);
    }
    SolverService& service =
        router != nullptr ? router->service() : *local_service;
    summary.num_threads = service.num_threads();
    summary.num_workers = cluster.num_workers;

    std::mutex stream_mu;
    std::atomic<bool> refuted{false};
    std::atomic<int> completions{0};
    std::vector<JobHandle> handles;
    handles.reserve(jobs.value().size());
    for (const Job& job : jobs.value()) {
      SubmitOptions submit;
      submit.deadline_seconds = deadline_seconds;
      if (stop_on_refutation) submit.skip_when = &refuted;
      if (stream || stop_on_refutation || kill_after > 0) {
        submit.on_complete = [&](const JobResult& r) {
          completions.fetch_add(1, std::memory_order_relaxed);
          if (stop_on_refutation && IsRefutation(r)) {
            refuted.store(true, std::memory_order_relaxed);
          }
          if (stream) {
            std::lock_guard<std::mutex> lock(stream_mu);
            std::cout << r.ToString() << "\n";
          }
        };
      }
      handles.push_back(service.Submit(job, submit));
    }
    if (kill_after > 0) {
      const int target =
          std::min(kill_after, static_cast<int>(handles.size()));
      while (completions.load(std::memory_order_relaxed) < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      router->KillWorker(0);
      // Crash detection trails the kill; let it land before the report.
      for (int i = 0; i < 5000 && router->Stats().worker_crashes == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    summary.results.reserve(handles.size());
    for (const JobHandle& handle : handles) {
      summary.results.push_back(handle.Wait());
    }
    summary.wall_seconds = wall.ElapsedSeconds();
    if (router != nullptr) {
      const ClusterStats stats = router->Stats();
      std::cout << "cluster: workers=" << cluster.num_workers
                << " completed=" << stats.completed
                << " retries=" << stats.retries
                << " crashes=" << stats.worker_crashes
                << " restarts=" << stats.worker_restarts
                << " heartbeat_timeouts=" << stats.heartbeat_timeouts << "\n";
    }
    for (const JobResult& r : summary.results) {
      switch (r.status) {
        case JobStatus::kCompleted: ++summary.completed; break;
        case JobStatus::kCancelled: ++summary.cancelled; break;
        case JobStatus::kSkipped: ++summary.skipped; break;
      }
    }
    if (cache != nullptr) {
      const CacheStats stats = cache->Stats();
      std::cout << "cache: " << stats.hits << " hit(s), " << stats.misses
                << " miss(es), " << stats.coalesced << " coalesced, "
                << stats.entries << " entries (" << stats.bytes
                << " bytes)\n";
      if (!cache_file.empty()) {
        Result<int> saved = SaveResultCacheFile(cache_file, *cache);
        if (saved.ok()) {
          std::cout << "wrote " << cache_file << " (" << saved.value()
                    << " entries)\n";
        } else {
          std::cerr << "tdbatch: cannot write " << cache_file << " ("
                    << saved.error() << ")\n";
          return kExitWriteFailure;
        }
      }
    }
  }

  std::cout << summary.ToTable();

  int exit_code = kExitSuccess;
  if (check_serial && CheckSerialParity(jobs.value(), summary.results) > 0) {
    exit_code = kExitParity;
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "tdbatch: cannot write " << csv_path << "\n";
      return kExitWriteFailure;
    }
    summary.WriteCsv(out);
    std::cout << "wrote " << csv_path << "\n";
  }

  if (metrics) {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    if (metrics_path.empty()) {
      std::cout << snapshot.ToJson() << "\n";
    } else {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "tdbatch: cannot write " << metrics_path << "\n";
        return kExitWriteFailure;
      }
      out << snapshot.ToJson() << "\n";
      std::cout << "wrote " << metrics_path << "\n";
    }
    if (!prom_path.empty()) {
      std::ofstream out(prom_path);
      if (!out) {
        std::cerr << "tdbatch: cannot write " << prom_path << "\n";
        return kExitWriteFailure;
      }
      out << snapshot.ToPrometheus();
      std::cout << "wrote " << prom_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "tdbatch: cannot write " << trace_path << "\n";
      return kExitWriteFailure;
    }
    TraceBuffer::Global().WriteChromeTrace(out);
    out << "\n";
    const std::uint64_t dropped = TraceBuffer::Global().Dropped();
    std::cout << "wrote " << trace_path << " ("
              << TraceBuffer::Global().TotalRecorded() - dropped << " spans";
    if (dropped > 0) std::cout << ", " << dropped << " dropped";
    std::cout << ")\n";
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Arm any TDLIB_FAULT-specified injection sites before the first solve so
  // the whole run — admission, chase, checkpointing — is under the spec.
  ArmFaultsFromEnv();
  try {
    return RunBatch(argc, argv);
  } catch (const std::exception& e) {
    // No internal error should surface as a raw terminate; one line, code 1.
    std::cerr << "tdbatch: internal error: " << e.what() << "\n";
    return kExitFailure;
  }
}
