#include "engine/batch_solver.h"

#include <algorithm>
#include <sstream>

#include "engine/service.h"
#include "util/csv_writer.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tdlib {
namespace {

void Summarize(BatchSummary* summary) {
  summary->completed = 0;
  summary->skipped = 0;
  summary->cancelled = 0;
  for (const JobResult& r : summary->results) {
    switch (r.status) {
      case JobStatus::kCompleted: ++summary->completed; break;
      case JobStatus::kCancelled: ++summary->cancelled; break;
      case JobStatus::kSkipped: ++summary->skipped; break;
    }
  }
}

}  // namespace

double BatchSummary::Throughput() const {
  if (wall_seconds <= 0) return 0;
  return completed / wall_seconds;
}

std::string BatchSummary::ToTable() const {
  TablePrinter table({"job", "verdict", "rounds", "steps", "passes",
                      "hom_nodes", "match_tasks", "carried", "candidates",
                      "seconds", "match_s", "fire_s", "cache"});
  for (const JobResult& r : results) {
    table.AddRowValues(r.name, std::string(r.VerdictName()), r.rounds_used,
                       r.chase_steps, r.chase_passes, r.hom_nodes,
                       r.match_tasks, r.carried_passes, r.candidates_checked,
                       r.wall_seconds, r.match_seconds, r.fire_seconds,
                       std::string(CacheSourceName(r.cache_source)));
  }
  std::ostringstream oss;
  oss << table.ToString();
  oss << completed << " completed, " << skipped << " skipped, " << cancelled
      << " cancelled on "
      << (num_workers > 0 ? std::to_string(num_workers) + " worker process(es)"
                          : std::to_string(num_threads) + " thread(s)")
      << " in " << wall_seconds
      << "s (" << Throughput() << " jobs/s)\n";
  return oss.str();
}

void BatchSummary::WriteCsv(std::ostream& os) const {
  CsvWriter csv(os, JobResult::CsvHeader());
  for (const JobResult& r : results) csv.WriteRow(r.CsvRow());
}

std::string BatchSummary::DeterministicSummary() const {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (const JobResult& r : results) lines.push_back(r.DeterministicSummary());
  return Join(lines, "\n");
}

BatchSolver::BatchSolver(BatchOptions options) : options_(options) {}

BatchSummary BatchSolver::Run(const std::vector<Job>& jobs) {
  cancel_.store(false, std::memory_order_relaxed);

  BatchSummary summary;
  summary.results.reserve(jobs.size());

  Timer batch_timer;
  const bool early_stop = options_.stop_on_first_refutation;

  {
    // The batch is a straight projection onto the service: the global
    // deadline becomes every submission's deadline (they are all submitted
    // at batch start, so the epochs coincide), the batch cancel flag
    // becomes every submission's admission gate, and early stop is an
    // on_complete callback that closes the gate.
    ServiceOptions service_options;
    service_options.num_threads = options_.num_threads;
    SolverService service(service_options);
    summary.num_threads = service.num_threads();

    // Submit copies each job once into its handle's shared state — the
    // price of handles that may outlive the caller's vector. That is one
    // copy per job per Run (not per execution), on the submission path
    // before any solving; the per-execution path still copies only the
    // small config struct (BeginRun).
    std::vector<JobHandle> handles;
    handles.reserve(jobs.size());
    for (const Job& job : jobs) {
      SubmitOptions submit;
      submit.deadline_seconds = options_.deadline_seconds;
      submit.skip_when = &cancel_;
      if (early_stop) {
        submit.on_complete = [this](const JobResult& r) {
          if (IsRefutation(r)) Cancel();
        };
      }
      handles.push_back(service.Submit(job, submit));
    }
    // Collect in submission order regardless of completion order.
    for (const JobHandle& handle : handles) {
      summary.results.push_back(handle.Wait());
    }
  }

  summary.wall_seconds = batch_timer.ElapsedSeconds();
  Summarize(&summary);
  return summary;
}

BatchSummary RunSerial(const std::vector<Job>& jobs,
                       const BatchOptions& options) {
  BatchSummary summary;
  summary.num_threads = 1;
  summary.results.reserve(jobs.size());

  Timer batch_timer;
  Deadline deadline(options.deadline_seconds);
  bool cancelled = false;

  for (const Job& job : jobs) {
    // The reference mode runs every job on the calling thread, with no
    // pool. Pooled runs must reproduce its results byte for byte. The
    // deadline arithmetic is the service's own (ClampConfigToBudget), so
    // both modes express identical budget semantics.
    JobResult r;
    if (cancelled || deadline.Expired()) {
      r.name = job.name;
      r.status = JobStatus::kSkipped;
    } else if (options.deadline_seconds <= 0) {
      r = RunJob(job);
    } else {
      DualSolverConfig config = job.config;
      ClampConfigToBudget(
          &config, options.deadline_seconds - batch_timer.ElapsedSeconds());
      r = RunJob(job, config);
    }
    if (options.stop_on_first_refutation && IsRefutation(r)) cancelled = true;
    summary.results.push_back(std::move(r));
  }

  summary.wall_seconds = batch_timer.ElapsedSeconds();
  Summarize(&summary);
  return summary;
}

}  // namespace tdlib
