#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/satisfaction.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace_span.h"

namespace tdlib {
namespace {

// Registry handles resolved once per process (stable pointers), so the
// publication sites below pay a function-local-static load, not a map
// lookup. Everything here is a pure sink: published after a phase's
// deterministic work is done, never read back — that, plus the
// MetricsEnabled() gate inside each Add/Observe, is what keeps metrics
// on/off byte-identical (tests/metrics_test.cc).
struct ChaseMetrics {
  Counter* passes;
  Counter* steps;
  Counter* hom_nodes;
  Counter* hom_candidates;
  Counter* match_tasks;
  Counter* checkpoints;
  Histogram* match_seconds;
  Histogram* fire_seconds;
  Histogram* checkpoint_seconds;
};

ChaseMetrics& GetChaseMetrics() {
  static ChaseMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* cm = new ChaseMetrics();
    cm->passes = r.GetCounter("chase.passes");
    cm->steps = r.GetCounter("chase.steps");
    cm->hom_nodes = r.GetCounter("chase.hom_nodes");
    cm->hom_candidates = r.GetCounter("chase.hom_candidates");
    cm->match_tasks = r.GetCounter("chase.match_tasks");
    cm->checkpoints = r.GetCounter("chase.checkpoints_taken");
    cm->match_seconds = r.GetHistogram("chase.match_seconds",
                                       LatencyBuckets());
    cm->fire_seconds = r.GetHistogram("chase.fire_seconds", LatencyBuckets());
    cm->checkpoint_seconds =
        r.GetHistogram("chase.checkpoint_seconds", LatencyBuckets());
    return cm;
  }();
  return *m;
}

// Match tasks run ahead of queued job-level work when the pool is shared
// with engine/BatchSolver: a pass cannot finish until its slowest member
// search does, so letting members jump the queue shortens the pass's
// critical path without adding threads.
constexpr int kMatchTaskPriority = 1 << 20;

// One pass over a pumped instance can enumerate an enormous stream of body
// matches (each with a head-witness sub-search), so waiting for the end of
// a search to look at the clock lets a deadline overshoot by seconds. The
// check runs inside the match stream too, amortized over this many matches
// to keep clock reads off the per-match fast path.
constexpr std::uint64_t kDeadlineCheckInterval = 256;

// Budget-informed Reserve is only worth it when the budget is genuinely
// tight; pre-sizing for the default million-tuple ceiling would allocate
// hundreds of megabytes for chases that stop at a fixpoint of fifty.
constexpr std::uint64_t kReserveLimit = 1 << 16;

// Pre-sizes the instance's arena, dedup table, CSR slabs and domain vectors
// for the run's known tuple ceiling, so a budget-bounded chase grows each
// structure O(log n) times instead of rehashing/reallocating its way up.
void ReserveForBudget(Instance* instance, const DependencySet& deps,
                      const ChaseConfig& config) {
  std::uint64_t bound = config.max_tuples;
  std::size_t max_head_rows = 0;
  for (const Dependency& dep : deps.items) {
    max_head_rows = std::max(max_head_rows,
                             static_cast<std::size_t>(dep.head().num_rows()));
  }
  if (config.max_steps > 0 && max_head_rows > 0) {
    std::uint64_t step_bound =
        instance->NumTuples() + config.max_steps * max_head_rows;
    bound = bound == 0 ? step_bound : std::min(bound, step_bound);
  }
  if (bound <= instance->NumTuples() || bound > kReserveLimit) return;
  std::size_t max_domain = 0;
  for (int attr = 0; attr < instance->schema().arity(); ++attr) {
    max_domain = std::max(max_domain,
                          static_cast<std::size_t>(instance->DomainSize(attr)));
  }
  // Every fired step invents at most one labeled null per attribute per new
  // tuple, so the domain ceiling is current + new tuples.
  instance->Reserve(static_cast<std::size_t>(bound),
                    max_domain + static_cast<std::size_t>(
                                     bound - instance->NumTuples()));
}

// Head-witness checks go through core/satisfaction.h's reusable
// HeadChecker (search object + seed template built once per dependency
// stream). Head-witness searches always run against the full instance —
// the delta restriction applies only to body enumeration.

// Caller-owned buffers FireStep reuses from one fire to the next.
struct FireScratch {
  Valuation extended;
  Tuple row;
};

// Inserts dep's head rows under `h`, inventing labeled nulls for existential
// variables. Returns ids of newly inserted tuples.
std::vector<int> FireStep(const Dependency& dep, Instance* instance,
                          const Valuation& h, FireScratch* scratch) {
  const Tableau& head = dep.head();
  const int arity = dep.schema().arity();
  // One fresh null per distinct existential variable that appears in the
  // head (shared across head rows, as EID semantics requires).
  Valuation& extended = scratch->extended;
  extended = h;
  for (const Row& r : head.rows()) {
    for (int attr = 0; attr < arity; ++attr) {
      const int slot = head.VarIndex(attr, r[attr]);
      if (!extended.Bound(slot)) {
        extended.Set(slot,
                     instance->AddValue(attr, "", /*labeled_null=*/true));
      }
    }
  }
  std::vector<int> new_ids;
  Tuple& row = scratch->row;
  row.resize(static_cast<std::size_t>(arity));
  for (const Row& r : head.rows()) {
    for (int attr = 0; attr < arity; ++attr) {
      row[attr] = extended.Get(head.VarIndex(attr, r[attr]));
    }
    std::size_t before = instance->NumTuples();
    if (instance->AddTuple(row)) {
      new_ids.push_back(static_cast<int>(before));
    }
  }
  return new_ids;
}

// One collected applicable step. `row_ids` is the body image — the tuple id
// each body row maps to under `match`, in tableau row order. It is the
// canonical sort key that makes the fire order independent of how matches
// were enumerated (full scan, semi-naive partition, any interleaving of
// concurrent tasks), which is what keeps naive/delta and serial/pooled runs
// byte-identical. Public (chase.h) because ChaseCheckpoint persists these.
using PendingStep = PendingChaseStep;

// One unit of a dependency's matching: one body search (a full/any-row
// scan, or one member (seed row) of the semi-naive partition, possibly one
// id slice of it). Tasks are enumerated in a fixed order, only read the
// instance, and write nothing but their own MatchOutput slot — which is
// exactly what lets them run on pool workers.
struct MatchTask {
  // Body-search delta window, pre-resolved at task-list build time:
  // delta_begin < 0 = unrestricted scan, seed_row < 0 = any-row scan,
  // otherwise one partition member — possibly narrowed to the seed-row
  // slice [slice_begin, slice_end) when the member was split into
  // sub-tasks (slice_begin < 0 = the whole delta).
  int delta_begin = -1;
  int delta_seed_row = -1;
  int slice_begin = -1;
  int slice_end = -1;
};

// Per-task buffer: the steps this task found applicable plus its search
// counters. Stats are summed across tasks after the join — HomSearchStats
// is search-local, never shared between live searches.
struct MatchOutput {
  std::vector<PendingStep> pending;
  HomSearchStats stats;
};

// Executes one body search of dependency `dep_index` against the read-only
// `instance`, binding only ids < `id_end` (the pass-start instance).
// `base_options` carries the run's node budget, deadline and (in pooled
// mode) the shared cancel flag. The match-time witness filter reads the
// whole current instance: a head witnessed there stays witnessed, since the
// chase only adds tuples.
void RunMatchTask(const MatchTask& task, int dep_index,
                  const DependencySet& deps, const Instance& instance,
                  std::size_t id_end, const HomSearchOptions& base_options,
                  MatchOutput* out) {
  const Dependency& dep = deps.items[dep_index];
  HomSearchOptions body_options = base_options;
  body_options.delta_begin = task.delta_begin;
  body_options.delta_seed_row = task.delta_seed_row;
  body_options.delta_seed_begin = task.slice_begin;
  body_options.delta_seed_end = task.slice_end;
  body_options.id_end = static_cast<int>(id_end);
  HomomorphismSearch body_search(dep.body(), instance, body_options);
  // One reusable head checker for the whole body-match stream: this task
  // runs a head search per enumerated match, and rebuilding the search
  // object each time would put a dozen allocations on the hot path.
  HeadChecker head(dep, instance, base_options);
  // body_search.row_tuples() is the match's body image, already computed by
  // the backtracker — no per-row FindTuple on the hot path.
  std::uint64_t matches_seen = 0;
  auto collect = [&](const Valuation& h) {
    if (!head.Witnessed(h, &out->stats)) {
      out->pending.push_back(
          PendingStep{dep_index, h, body_search.row_tuples()});
    }
    if (out->stats.budget_hit) return false;
    if (++matches_seen % kDeadlineCheckInterval == 0 &&
        base_options.deadline != nullptr && base_options.deadline->Expired()) {
      out->stats.budget_hit = true;
      out->stats.deadline_hit = true;
      return false;
    }
    // A sibling's budget trip must stop this task even when its searches
    // are all smaller than Backtrack's own cancel cadence (512 nodes); one
    // relaxed load per match is noise next to the head search above.
    if (base_options.cancel != nullptr &&
        base_options.cancel->load(std::memory_order_relaxed)) {
      out->stats.budget_hit = true;
      return false;
    }
    // The job-level cancel flag rides the same per-match cadence, so a
    // cancelled job stops promptly even when each individual search is
    // smaller than Backtrack's own check interval.
    if (base_options.job_cancel != nullptr &&
        base_options.job_cancel->load(std::memory_order_relaxed)) {
      out->stats.budget_hit = true;
      out->stats.cancel_hit = true;
      return false;
    }
    return true;
  };
  body_search.ForEach(collect);
  out->stats.MergeFrom(body_search.stats());
  // End-of-task deadline read: a pass of many small member searches — each
  // under Backtrack's 512-node and the stream's 256-match cadences — must
  // still observe the wall clock at least once per task, or a serial
  // matching phase could overshoot a clamped milliseconds-scale deadline by
  // the whole task list.
  if (!out->stats.budget_hit && base_options.deadline != nullptr &&
      base_options.deadline->Expired()) {
    out->stats.budget_hit = true;
    out->stats.deadline_hit = true;
  }
}

// Builds one dependency's task list for a pass over the first `pass_start`
// tuples, in the canonical order (partition members in seed-row order,
// slices in id order). The list is a pure function of (config,
// delta_begin, pass_start), so serial and pooled runs execute the same
// searches.
std::vector<MatchTask> BuildMatchTasks(const Dependency& dep,
                                       const ChaseConfig& config,
                                       std::size_t delta_begin,
                                       std::size_t pass_start) {
  std::vector<MatchTask> tasks;
  if (config.use_delta && delta_begin >= pass_start) {
    // Every match was enumerated in an earlier pass and is witnessed.
    return tasks;
  }
  MatchTask t;
  // The partition pays one restricted search per body row; when the delta
  // is most of the instance (a pumping pass), those members cost more
  // together than the full scan they replace. Use the partition only while
  // the delta is the minority — the canonical fire order keeps results
  // identical whichever matcher ran.
  const bool partition = config.use_delta && delta_begin > 0 &&
                         (pass_start - delta_begin) * 2 <= pass_start;
  if (partition) {
    // Union of the semi-naive partition: seed row s in the delta, rows
    // before s in the old region, rows after s unrestricted. Every
    // delta-touching match is enumerated exactly once; all-old matches —
    // already enumerated (and fired or witnessed) in the pass that saw
    // their newest tuple — are skipped entirely.
    t.delta_begin = static_cast<int>(delta_begin);
    // Work stealing for few-member passes: a big delta is further cut into
    // equal id slices of the seed row's window, so even a 1-dependency pass
    // produces enough sub-tasks to feed every worker. The slicing depends
    // only on (config, delta) — never on the pool — so serial and pooled
    // runs execute the same searches.
    const std::uint64_t delta_size =
        static_cast<std::uint64_t>(pass_start - delta_begin);
    const bool sliced =
        config.match_slice_ids > 0 && delta_size > config.match_slice_ids;
    for (int s = 0; s < dep.body().num_rows(); ++s) {
      t.delta_seed_row = s;
      if (!sliced) {
        tasks.push_back(t);
        continue;
      }
      for (std::size_t lo = delta_begin; lo < pass_start;
           lo += config.match_slice_ids) {
        MatchTask slice = t;
        slice.slice_begin = static_cast<int>(lo);
        slice.slice_end = static_cast<int>(
            std::min<std::size_t>(lo + config.match_slice_ids, pass_start));
        tasks.push_back(slice);
      }
    }
  } else if (config.use_delta && delta_begin > 0) {
    // Majority delta: one pruned scan ("any row hits the delta") — never
    // more nodes than naive, and the all-old matches' head checks are still
    // skipped.
    t.delta_begin = static_cast<int>(delta_begin);
    tasks.push_back(t);
  } else {
    // Naive mode or the first pass: one unrestricted scan.
    tasks.push_back(t);
  }
  return tasks;
}

}  // namespace

bool HasApplicableStep(const Dependency& dep, const Instance& instance,
                       const HomSearchOptions& options) {
  bool applicable = false;
  HomSearchStats stats;
  HomomorphismSearch body_search(dep.body(), instance, options);
  HeadChecker head(dep, instance, options);
  body_search.ForEach([&](const Valuation& h) {
    if (!head.Witnessed(h, &stats)) {
      applicable = true;
      return false;
    }
    return true;
  });
  return applicable;
}

ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal) {
  return RunChase(instance, deps, config, goal, /*checkpoint=*/nullptr);
}

ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal,
                     ChaseCheckpoint* checkpoint) {
  ChaseResult result;
  Deadline deadline(config.deadline_seconds);
  HomSearchOptions hom_options = config.HomOptions();
  // Every search below — body enumeration and head sub-searches alike —
  // shares the run's deadline, so even one huge homomorphism search is cut
  // off close to the wall-clock budget.
  hom_options.deadline = &deadline;
  // The engine's cancel flag reaches every search the same way.
  hom_options.job_cancel = config.cancel;

  // When several limits trip together: a cancel request outranks everything
  // (the caller asked for it), then the wall clock, then the node budget.
  auto limit_status = [&](const HomSearchStats& stats) {
    if (stats.cancel_hit) return ChaseStatus::kCancelled;
    if (stats.deadline_hit || deadline.Expired()) return ChaseStatus::kTimeout;
    return ChaseStatus::kHomBudget;
  };
  auto cancelled = [&] {
    return config.cancel != nullptr &&
           config.cancel->load(std::memory_order_relaxed);
  };
  // Each phase boundary has its own injection site, so tests can land a
  // cancel (or an allocation failure) on exactly one boundary and assert
  // the job still publishes exactly one terminal outcome. All checks are
  // behind the FaultInjectionEnabled() relaxed-load gate.
  auto injected = [](FaultSite site) {
    return FaultInjectionEnabled() && ShouldInject(site);
  };

  // Tuples with id >= delta_begin are "new" since the previous pass. 0 on
  // the first pass, so pass 1 matches the whole seed instance in either
  // mode.
  std::size_t delta_begin = 0;
  // The tuple count when the current pass began. Every body search of the
  // pass binds only ids below it, so a dependency matched after earlier
  // dependencies fired still sees the pass-start instance.
  std::size_t pass_start = 0;
  // The dependency the current pass matches next.
  std::size_t next_dep = 0;
  std::uint64_t fired_this_pass = 0;

  // Burst-cap backlog (delta mode only; the naive full re-match
  // re-discovers it instead): steps collected but not fired. Every entry
  // lies wholly below the pass start it was collected at, so the delta
  // enumeration would never see it again. `carried` is the backlog the
  // current pass entered with, in canonical order, consumed dependency by
  // dependency from `carried_pos`; `next_carried` is the backlog it leaves.
  std::vector<PendingStep> carried;
  std::size_t carried_pos = 0;
  std::vector<PendingStep> next_carried;

  // The current dependency's steps, in canonical order; hoisted out of the
  // loop so a checkpoint resume can re-enter a pass mid-dependency.
  std::vector<PendingStep> batch;
  bool resuming = false;

  // Budgeted runs know their tuple ceiling up front; growing to it in one
  // Reserve beats rehash/realloc churn on every doubling. Harmless on
  // resume (Reserve is idempotent) and skipped for loose budgets.
  ReserveForBudget(instance, deps, config);

  if (checkpoint != nullptr && checkpoint->valid) {
    // A cancel landing exactly at resume entry terminates the run WITHOUT
    // consuming the checkpoint: the parked state stays valid for the next
    // attempt, so an ill-timed cancel costs nothing but this run.
    if (cancelled() || injected(FaultSite::kCancelResume)) {
      result.status = ChaseStatus::kCancelled;
      return result;
    }
    // Continue the interrupted pass: the caller restored (or kept) the
    // instance the checkpoint was taken against and verified
    // ResumableWith. Counters continue, so the eventual ChaseResult is the
    // one an uninterrupted run would have produced.
    delta_begin = checkpoint->delta_begin;
    pass_start = checkpoint->pass_start;
    next_dep = checkpoint->next_dep;
    fired_this_pass = checkpoint->fired_this_pass;
    // `pending` is the interrupted dependency's unfired tail, then the
    // unconsumed backlog (dependencies from next_dep on).
    std::vector<PendingStep>& pending = checkpoint->pending;
    auto tail_end = std::find_if(
        pending.begin(), pending.end(), [&](const PendingStep& step) {
          return static_cast<std::size_t>(step.dep_index) >= next_dep;
        });
    batch.assign(std::make_move_iterator(pending.begin()),
                 std::make_move_iterator(tail_end));
    carried.assign(std::make_move_iterator(tail_end),
                   std::make_move_iterator(pending.end()));
    result.steps = checkpoint->steps;
    result.passes = checkpoint->passes;
    result.hom_nodes = checkpoint->hom_nodes;
    result.hom_candidates = checkpoint->hom_candidates;
    result.match_tasks = checkpoint->match_tasks;
    result.carried_passes = checkpoint->carried_passes;
    result.trace = std::move(checkpoint->trace);
    checkpoint->Reset();  // consumed; refilled only on a resumable stop
    resuming = true;
    // No initial goal check: the uninterrupted run checked the goal after
    // the last fire and found it false.
  } else {
    if (checkpoint != nullptr) checkpoint->Reset();
    if (goal && goal(*instance)) {
      result.status = ChaseStatus::kGoal;
      return result;
    }
  }

  // Captures the resumable state right before a kStepLimit / kTupleLimit
  // return: the not-yet-fired tail of the batch, the unconsumed backlog and
  // the cumulative counters (result already includes the firing phase's
  // hom nodes by the time this runs). Fires only happen before the burst
  // cap trips, so `next_carried` is always empty here.
  auto take_checkpoint = [&](std::size_t next_index) {
    if (checkpoint == nullptr) return;
    // A cancel racing the capture wins: the run is already stopping, and
    // honoring the cancel means reporting kCancelled with no checkpoint
    // (the caller asked the job to die, not to pause). The budget status
    // the caller just set is overwritten before it becomes observable.
    if (cancelled() || injected(FaultSite::kCancelCheckpoint)) {
      result.status = ChaseStatus::kCancelled;
      return;
    }
    TraceSpan span("chase.checkpoint");
    StopWatch watch;
    ScopedTimer accumulate(&result.checkpoint_seconds);
    checkpoint->Reset();
    checkpoint->valid = true;
    checkpoint->delta_begin = delta_begin;
    checkpoint->pass_start = pass_start;
    checkpoint->next_dep = next_dep;
    checkpoint->fired_this_pass = fired_this_pass;
    checkpoint->pending.assign(
        std::make_move_iterator(batch.begin() +
                                static_cast<std::ptrdiff_t>(next_index)),
        std::make_move_iterator(batch.end()));
    checkpoint->pending.insert(
        checkpoint->pending.end(),
        std::make_move_iterator(carried.begin() +
                                static_cast<std::ptrdiff_t>(carried_pos)),
        std::make_move_iterator(carried.end()));
    checkpoint->steps = result.steps;
    checkpoint->passes = result.passes;
    checkpoint->hom_nodes = result.hom_nodes;
    checkpoint->hom_candidates = result.hom_candidates;
    checkpoint->match_tasks = result.match_tasks;
    checkpoint->carried_passes = result.carried_passes;
    checkpoint->trace = result.trace;
    checkpoint->CaptureShape(config);
    if (MetricsEnabled()) {
      ChaseMetrics& m = GetChaseMetrics();
      m.checkpoints->Add(1);
      m.checkpoint_seconds->Observe(watch.ElapsedSeconds());
    }
  };

  auto capped = [&] {
    return config.max_fires_per_pass > 0 &&
           fired_this_pass >= config.max_fires_per_pass;
  };

  // ---- Matching one dependency: read-only over the pass-start prefix -----
  //
  // Fills `batch` with dependency d's applicable steps in canonical order:
  // its share of the backlog plus its fresh matches. The task list, and
  // hence the set of searches, is identical in serial and pooled mode; only
  // where each search runs differs. The collected valuations stay valid as
  // tuples are only ever added. Returns false when the run must stop
  // (result.status is set).
  auto match_dependency = [&](std::size_t d) -> bool {
    batch.clear();
    // The backlog is in canonical order, so d's share is one run.
    std::size_t carried_end = carried_pos;
    while (carried_end < carried.size() &&
           static_cast<std::size_t>(carried[carried_end].dep_index) <= d) {
      ++carried_end;
    }
    std::vector<MatchTask> tasks =
        BuildMatchTasks(deps.items[d], config, delta_begin, pass_start);
    if (tasks.empty() && carried_end == carried_pos) return true;
    if (cancelled()) {
      result.status = ChaseStatus::kCancelled;
      return false;
    }
    // Phase observation only: the span/watch read the clock (when armed)
    // and publish when the phase ends; nothing below consults them.
    TraceSpan match_span("chase.match");
    StopWatch match_watch;
    std::vector<MatchOutput> outputs(tasks.size());
    result.match_tasks += tasks.size();
    const int dep_index = static_cast<int>(d);
    if (config.pool != nullptr && tasks.size() > 1) {
      // Fan out. Tasks write only their own output slot; a budget/deadline
      // trip in any task raises the shared cancel flag so sibling searches
      // wind down instead of completing doomed work.
      std::atomic<bool> cancel{false};
      HomSearchOptions task_options = hom_options;
      task_options.cancel = &cancel;
      ParallelFor(
          config.pool, tasks.size(),
          [&](std::size_t i) {
            // The dependency is already doomed once any sibling tripped;
            // skipping outright (like the serial early break below) only
            // changes budget-tripped runs, which are outside the parity
            // guarantee.
            if (cancel.load(std::memory_order_relaxed)) return;
            RunMatchTask(tasks[i], dep_index, deps, *instance, pass_start,
                         task_options, &outputs[i]);
            if (outputs[i].stats.budget_hit) {
              cancel.store(true, std::memory_order_relaxed);
            }
          },
          kMatchTaskPriority);
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        RunMatchTask(tasks[i], dep_index, deps, *instance, pass_start,
                     hom_options, &outputs[i]);
        if (outputs[i].stats.budget_hit) break;  // remaining work is doomed
      }
    }

    // Aggregate per-task stats — the explicit sum-after-join that keeps
    // HomSearchStats search-local (no shared counters between live
    // searches).
    HomSearchStats match_stats;
    for (const MatchOutput& out : outputs) match_stats.MergeFrom(out.stats);
    result.hom_nodes += match_stats.nodes;
    result.hom_candidates += match_stats.candidates;
    // Publish the phase: one timing read + a handful of gated counter
    // adds, after the deterministic work is complete. Sits before the
    // budget-trip returns so every match — including a tripped one — is
    // accounted exactly once.
    const double match_elapsed = match_watch.ElapsedSeconds();
    result.match_seconds += match_elapsed;
    if (MetricsEnabled()) {
      ChaseMetrics& m = GetChaseMetrics();
      m.match_tasks->Add(static_cast<std::int64_t>(tasks.size()));
      m.hom_nodes->Add(static_cast<std::int64_t>(match_stats.nodes));
      m.hom_candidates->Add(static_cast<std::int64_t>(match_stats.candidates));
      m.match_seconds->Observe(match_elapsed);
    }
    if (match_stats.budget_hit) {
      result.status = limit_status(match_stats);
      return false;
    }
    if (deadline.Expired()) {
      result.status = ChaseStatus::kTimeout;
      return false;
    }

    // The backlog run first, then the fresh matches. Task order is
    // canonical, but the sort+merge below is what actually fixes the fire
    // order: entries with equal (dep_index, row_ids) are fully identical
    // (the body image determines the valuation), so the merge order cannot
    // leak into the result. The backlog kept canonical order, so only the
    // fresh tail needs the O(n log n) sort; a gap-regime backlog of
    // thousands plus a handful of new matches pays one linear merge instead
    // of re-sorting the whole backlog.
    std::size_t fresh = 0;
    for (const MatchOutput& out : outputs) fresh += out.pending.size();
    batch.reserve(carried_end - carried_pos + fresh);
    batch.insert(
        batch.end(),
        std::make_move_iterator(carried.begin() +
                                static_cast<std::ptrdiff_t>(carried_pos)),
        std::make_move_iterator(carried.begin() +
                                static_cast<std::ptrdiff_t>(carried_end)));
    carried_pos = carried_end;
    const std::ptrdiff_t backlog = static_cast<std::ptrdiff_t>(batch.size());
    for (MatchOutput& out : outputs) {
      for (PendingStep& step : out.pending) batch.push_back(std::move(step));
    }
    // FaultSite::kFireOrderFlip is the harness's deliberate bug: it reverses
    // the body-image ordering for this batch's sort, exactly the kind of
    // one-comparison mistake the differential fuzzer exists to catch
    // (flipped fire order changes labeled-null invention order, which
    // diverges the instance bytes). Evaluated once per batch — a strict
    // weak ordering must not change mid-sort.
    const bool flip_order =
        batch.size() > 1 && injected(FaultSite::kFireOrderFlip);
    auto canonical = [flip_order](const PendingStep& a,
                                  const PendingStep& b) {
      if (a.dep_index != b.dep_index) return a.dep_index < b.dep_index;
      return flip_order ? b.row_ids < a.row_ids : a.row_ids < b.row_ids;
    };
    if (flip_order) {
      // The backlog was stored under the true ordering; a full re-sort
      // keeps inplace_merge's sorted-halves precondition out of the
      // picture while the injected comparator is live.
      std::sort(batch.begin(), batch.end(), canonical);
    } else {
      std::sort(batch.begin() + backlog, batch.end(), canonical);
      std::inplace_merge(batch.begin(), batch.begin() + backlog, batch.end(),
                         canonical);
    }
    return true;
  };

  // ---- Firing one dependency's batch: serial, on the calling thread ------
  //
  // Returns false when the run must stop (result.status is set).
  FireScratch fire_scratch;
  // Burst cap: the batch from `pi` on waits for the next pass. The naive
  // full re-match will re-discover it; the delta matcher would not (every
  // entry lies below the pass start), so stash it.
  auto carry_from = [&](std::size_t pi) {
    if (!config.use_delta) return;
    next_carried.insert(
        next_carried.end(),
        std::make_move_iterator(batch.begin() +
                                static_cast<std::ptrdiff_t>(pi)),
        std::make_move_iterator(batch.end()));
  };
  auto fire_batch = [&]() -> bool {
    if (batch.empty()) return true;
    if (capped()) {
      carry_from(0);
      return true;
    }
    HomSearchStats fire_stats;
    TraceSpan fire_span("chase.fire");
    StopWatch fire_watch;
    const std::uint64_t steps_at_fire_start = result.steps;
    // Every early exit below must fold the firing phase's search counters
    // (and, riding the same guarantee, its wall time and metrics) into the
    // result exactly once; one flush helper keeps the next exit branch from
    // forgetting a counter. Called exactly once per firing-phase exit.
    auto flush_fire_stats = [&] {
      result.hom_nodes += fire_stats.nodes;
      result.hom_candidates += fire_stats.candidates;
      const double fire_elapsed = fire_watch.ElapsedSeconds();
      result.fire_seconds += fire_elapsed;
      if (MetricsEnabled()) {
        ChaseMetrics& m = GetChaseMetrics();
        m.steps->Add(
            static_cast<std::int64_t>(result.steps - steps_at_fire_start));
        m.hom_nodes->Add(static_cast<std::int64_t>(fire_stats.nodes));
        m.hom_candidates->Add(
            static_cast<std::int64_t>(fire_stats.candidates));
        m.fire_seconds->Observe(fire_elapsed);
      }
    };
    // One head checker per run of same-dependency steps; it reads the
    // instance through a reference and therefore sees every tuple the
    // intervening fires insert.
    std::optional<HeadChecker> fire_head;
    int fire_head_dep = -1;
    for (std::size_t pi = 0; pi < batch.size(); ++pi) {
      if (capped()) {
        carry_from(pi);
        break;
      }
      if (cancelled() || injected(FaultSite::kCancelFire)) {
        // Between-fire cancel check: a cancelled job must not keep firing a
        // huge batch to its end. No checkpoint — the caller asked the job
        // to die, not to pause deterministically.
        flush_fire_stats();
        result.status = ChaseStatus::kCancelled;
        return false;
      }
      // Graceful degradation for allocation failure: the between-fire
      // boundary is the one place the instance is in a well-defined state
      // with the remaining work in hand, so an injected (or caught, below)
      // allocation failure parks a checkpoint whose resume replays the
      // uninterrupted run byte for byte — the step at `pi` has not been
      // touched yet, so none of its search work is double-counted.
      if (injected(FaultSite::kChaseAlloc)) {
        flush_fire_stats();
        result.status = ChaseStatus::kResourceExhausted;
        take_checkpoint(pi);
        return false;
      }
      PendingStep& step = batch[pi];
      const Dependency& dep = deps.items[step.dep_index];
      if (fire_head_dep != step.dep_index) {
        fire_head.emplace(dep, *instance, hom_options);
        fire_head_dep = step.dep_index;
      }
      // An earlier fire may have witnessed this head already; a backlog
      // step meets its first check since an earlier pass here.
      bool witnessed = false;
      std::vector<int> new_ids;
      try {
        witnessed = fire_head->Witnessed(step.match, &fire_stats);
        if (!fire_stats.budget_hit && !witnessed) {
          new_ids = FireStep(dep, instance, step.match, &fire_scratch);
        }
      } catch (const std::bad_alloc&) {
        // Real allocation failure: park instead of crashing. Best-effort —
        // a throw mid-FireStep can leave part of the head inserted, so the
        // resume completes the derivation soundly (AddTuple dedups, the
        // chase is monotone) but without the injected path's byte-identity
        // promise.
        flush_fire_stats();
        result.status = ChaseStatus::kResourceExhausted;
        take_checkpoint(pi);
        return false;
      }
      if (fire_stats.budget_hit) {
        flush_fire_stats();
        result.status = limit_status(fire_stats);
        return false;
      }
      if (witnessed) {
        // One clock read per skip, unamortized: each check is a head search
        // too small for Backtrack's own 512-node cadence, and a capped run's
        // backlog can hold thousands of them.
        if (deadline.Expired()) {
          flush_fire_stats();
          result.status = ChaseStatus::kTimeout;
          return false;
        }
        continue;
      }
      ++result.steps;
      ++fired_this_pass;
      if (config.record_trace) {
        result.trace.push_back(
            ChaseStep{step.dep_index, std::move(step.match),
                      std::move(new_ids)});
      }
      if (goal && goal(*instance)) {
        flush_fire_stats();
        result.status = ChaseStatus::kGoal;
        return false;
      }
      if (config.max_steps > 0 && result.steps >= config.max_steps) {
        flush_fire_stats();
        result.status = ChaseStatus::kStepLimit;
        take_checkpoint(pi + 1);
        return false;
      }
      if (config.max_tuples > 0 && instance->NumTuples() >= config.max_tuples) {
        flush_fire_stats();
        result.status = ChaseStatus::kTupleLimit;
        take_checkpoint(pi + 1);
        return false;
      }
      if (deadline.Expired()) {
        flush_fire_stats();
        result.status = ChaseStatus::kTimeout;
        return false;
      }
    }
    flush_fire_stats();
    return true;
  };

  // A pass matches one dependency at a time, in dependency order, and fires
  // its batch before matching the next. Each body search binds only ids
  // below pass_start, so the batches hold exactly the steps a
  // match-everything-then-fire pass would collect for that dependency, and
  // canonical order puts every step of dependency d after those of d-1 in
  // either scheme: the fired steps are the same. What changes is that a run
  // stopped by its step/tuple budget or goal never matches the dependencies
  // after the cut.
  while (true) {
    if (!resuming) {
      ++result.passes;
      if (!carried.empty()) ++result.carried_passes;
      if (MetricsEnabled()) GetChaseMetrics().passes->Add(1);
      if (cancelled() || injected(FaultSite::kCancelMatch)) {
        result.status = ChaseStatus::kCancelled;
        return result;
      }
      pass_start = instance->NumTuples();
      next_dep = 0;
      fired_this_pass = 0;
    }
    while (true) {
      if (resuming) {
        // `batch` already holds the interrupted dependency's unfired tail.
        resuming = false;
      } else {
        if (next_dep == deps.items.size()) break;
        if (!match_dependency(next_dep)) return result;
        ++next_dep;
      }
      if (!fire_batch()) return result;
    }
    // Every dependency has now been matched against the first pass_start
    // tuples; the next pass only needs to see what this one added.
    delta_begin = pass_start;
    carried.swap(next_carried);
    next_carried.clear();
    carried_pos = 0;
    if (fired_this_pass == 0 && carried.empty()) {
      result.status = ChaseStatus::kFixpoint;
      return result;
    }
  }
}

std::string_view ChaseStatusName(ChaseStatus status) {
  switch (status) {
    case ChaseStatus::kFixpoint: return "fixpoint";
    case ChaseStatus::kGoal: return "goal";
    case ChaseStatus::kStepLimit: return "step-limit";
    case ChaseStatus::kTupleLimit: return "tuple-limit";
    case ChaseStatus::kTimeout: return "timeout";
    case ChaseStatus::kHomBudget: return "hom-budget";
    case ChaseStatus::kCancelled: return "cancelled";
    case ChaseStatus::kResourceExhausted: return "resource-exhausted";
  }
  return "?";
}

namespace {

// Pending is the interrupted dependency's tail (dep_index == next_dep - 1),
// then the backlog of the later dependencies, in dependency order; RunChase
// splits it at next_dep.
bool PendingFitsResumePoint(const std::vector<PendingChaseStep>& pending,
                            std::size_t next_dep) {
  int prev_dep = 0;
  for (const PendingChaseStep& step : pending) {
    if (step.dep_index < prev_dep ||
        static_cast<std::size_t>(step.dep_index) + 1 < next_dep) {
      return false;
    }
    prev_dep = step.dep_index;
  }
  return true;
}

}  // namespace

bool ChaseCheckpoint::BudgetsExceedProgress(const ChaseConfig& config,
                                            const Instance& instance) const {
  if (config.max_steps > 0 && steps >= config.max_steps) return false;
  if (config.max_tuples > 0 && instance.NumTuples() >= config.max_tuples) {
    return false;
  }
  return true;
}

bool ChaseCheckpoint::CompatibleWith(const ChaseConfig& config,
                                     const Instance& instance,
                                     const DependencySet& deps) const {
  if (!valid) return false;
  // A different shape would evolve differently from here on; the resumed
  // run would no longer replay an uninterrupted one.
  if (use_delta != config.use_delta ||
      max_fires_per_pass != config.max_fires_per_pass ||
      match_slice_ids != config.match_slice_ids ||
      record_trace != config.record_trace ||
      hom_max_nodes != config.hom_max_nodes) {
    return false;
  }
  // Semantic validation against this (deps, instance): checkpoints may come
  // from disk, and RunChase (and trace consumers like FormatChaseStep)
  // index deps/tuples/valuations unchecked — so a corrupt file must die
  // here, cleanly.
  const std::size_t num_tuples = instance.NumTuples();
  if (delta_begin > pass_start || pass_start > num_tuples ||
      next_dep > deps.items.size()) {
    return false;
  }
  // The valuation must hold one slot per variable of its dependency
  // (FireStep and the head-witness search index it by slot) and bind each
  // slot only to an existing value of that slot's attribute.
  auto valid_match = [&](int dep_index, const Valuation& match) {
    if (dep_index < 0 || dep_index >= static_cast<int>(deps.items.size())) {
      return false;
    }
    const Tableau& body = deps.items[dep_index].body();
    if (match.values.size() != static_cast<std::size_t>(body.TotalVars())) {
      return false;
    }
    for (int attr = 0; attr < body.schema().arity(); ++attr) {
      for (int v = 0; v < body.NumVars(attr); ++v) {
        const int value = match.Get(body.VarIndex(attr, v));
        if (value < -1 || value >= instance.DomainSize(attr)) return false;
      }
    }
    return true;
  };
  auto valid_ids = [num_tuples](const std::vector<int>& ids) {
    for (int id : ids) {
      if (id < 0 || id >= static_cast<int>(num_tuples)) return false;
    }
    return true;
  };
  if (!PendingFitsResumePoint(pending, next_dep)) return false;
  for (const PendingChaseStep& step : pending) {
    if (!valid_match(step.dep_index, step.match) ||
        !valid_ids(step.row_ids)) {
      return false;
    }
  }
  for (const ChaseStep& step : trace) {
    if (!valid_match(step.dependency_index, step.body_match) ||
        !valid_ids(step.new_tuples)) {
      return false;
    }
  }
  return true;
}

void ChaseCheckpoint::CaptureShape(const ChaseConfig& config) {
  use_delta = config.use_delta;
  max_fires_per_pass = config.max_fires_per_pass;
  match_slice_ids = config.match_slice_ids;
  record_trace = config.record_trace;
  hom_max_nodes = config.hom_max_nodes;
}

namespace {

// Checkpoint text format helpers: everything is whitespace-separated
// integers behind a magic tag, so the format is portable and diffable.
// (Domain-value names live in Instance::Serialize, not here — a checkpoint
// holds only variable/tuple ids.)
void WriteIntVec(std::ostream& os, const std::vector<int>& v) {
  os << v.size();
  for (int x : v) os << ' ' << x;
  os << '\n';
}

// Untrusted-count discipline: a corrupt header can declare any element
// count, so deserializers never pre-size from it — they append one
// stream-checked element at a time (a lying count then fails at end of
// input instead of throwing length_error / OOMing on resize).
bool ReadIntVec(std::istream& is, std::vector<int>* v) {
  std::size_t n;
  if (!(is >> n)) return false;
  v->clear();
  for (std::size_t i = 0; i < n; ++i) {
    int x;
    if (!(is >> x)) return false;
    v->push_back(x);
  }
  return true;
}

// tdckpt2 added the interrupted pass's fire cap, hom_candidates and the
// match-strategy shape fields (the burst auto-tune flag, match_slice_ids).
// tdckpt3 dropped the shape flag of the removed candidate intersection: a
// tdckpt2 hom_candidates total may have been counted with intersection on,
// so older files are rejected rather than resumed with a counter no
// uninterrupted run would produce.
// tdckpt4 writes each valuation as one flat slot vector instead of one
// vector per attribute; a tdckpt3 valuation would parse as a different
// shape, so it is rejected by the magic rather than misread. tdckpt5 drops
// the shape flag of the retired lazy (per-pass) goal check: the goal is
// always checked after every fire, and a tdckpt4 shape line has one field
// more, so older files are rejected by the magic. tdckpt6 drops the burst
// auto-tune flag and the per-pass fire cap: the cap is always
// max_fires_per_pass, which the shape line already holds, so a tdckpt5 file
// is rejected by the magic rather than parsed with its fields shifted.
// tdckpt7 adds the resume point inside a pass (pass_start, next_dep): a pass
// matches and fires one dependency at a time, and a tdckpt6 pending list
// holds every dependency's steps matched at once, which a resumed tdckpt7
// run would fire in a different order from its own.
constexpr char kCheckpointMagic[] = "tdckpt7";

}  // namespace

void ChaseCheckpoint::Serialize(std::ostream& os) const {
  os << kCheckpointMagic << ' ' << (valid ? 1 : 0) << '\n';
  if (!valid) return;
  os << delta_begin << ' ' << pass_start << ' ' << next_dep << ' '
     << fired_this_pass << '\n';
  os << steps << ' ' << passes << ' ' << hom_nodes << ' ' << hom_candidates
     << ' ' << match_tasks << ' ' << carried_passes << '\n';
  os << (use_delta ? 1 : 0) << ' ' << max_fires_per_pass << ' '
     << match_slice_ids << ' ' << (record_trace ? 1 : 0) << ' '
     << hom_max_nodes << '\n';
  os << pending.size() << '\n';
  for (const PendingChaseStep& step : pending) {
    os << step.dep_index << '\n';
    WriteIntVec(os, step.match.values);
    WriteIntVec(os, step.row_ids);
  }
  os << trace.size() << '\n';
  for (const ChaseStep& step : trace) {
    os << step.dependency_index << '\n';
    WriteIntVec(os, step.body_match.values);
    WriteIntVec(os, step.new_tuples);
  }
}

Result<ChaseCheckpoint> ChaseCheckpoint::Deserialize(std::istream& is) {
  using R = Result<ChaseCheckpoint>;
  auto corrupt = [](const char* what) {
    return R::Error(ErrorCode::kCorrupt,
                    std::string("checkpoint: ") + what);
  };
  std::string magic;
  int valid_flag;
  if (!(is >> magic >> valid_flag)) return corrupt("truncated header");
  if (magic != kCheckpointMagic) return corrupt("bad magic");
  if (valid_flag != 0 && valid_flag != 1) return corrupt("bad valid flag");
  ChaseCheckpoint ckpt;
  if (valid_flag == 0) return ckpt;  // an empty (non-resumable) checkpoint
  ckpt.valid = true;
  int use_delta_flag, record_trace_flag;
  std::size_t num_pending, num_trace;
  if (!(is >> ckpt.delta_begin >> ckpt.pass_start >> ckpt.next_dep >>
        ckpt.fired_this_pass >> ckpt.steps >>
        ckpt.passes >> ckpt.hom_nodes >> ckpt.hom_candidates >>
        ckpt.match_tasks >> ckpt.carried_passes >> use_delta_flag >>
        ckpt.max_fires_per_pass >> ckpt.match_slice_ids >>
        record_trace_flag >> ckpt.hom_max_nodes >> num_pending)) {
    return corrupt("truncated counters/shape block");
  }
  if (ckpt.pass_start < ckpt.delta_begin) {
    return corrupt("pass_start before delta_begin");
  }
  ckpt.use_delta = use_delta_flag != 0;
  ckpt.record_trace = record_trace_flag != 0;
  // Same untrusted-count discipline as ReadIntVec: append, never resize.
  for (std::size_t i = 0; i < num_pending; ++i) {
    PendingChaseStep step;
    if (!(is >> step.dep_index) || !ReadIntVec(is, &step.match.values) ||
        !ReadIntVec(is, &step.row_ids)) {
      return corrupt("truncated pending step");
    }
    ckpt.pending.push_back(std::move(step));
  }
  if (!(is >> num_trace)) return corrupt("missing trace count");
  for (std::size_t i = 0; i < num_trace; ++i) {
    ChaseStep step;
    if (!(is >> step.dependency_index) ||
        !ReadIntVec(is, &step.body_match.values) ||
        !ReadIntVec(is, &step.new_tuples)) {
      return corrupt("truncated trace step");
    }
    ckpt.trace.push_back(std::move(step));
  }
  if (!PendingFitsResumePoint(ckpt.pending, ckpt.next_dep)) {
    return corrupt("pending steps do not fit next_dep");
  }
  // Dependency/tuple/value id ranges are validated later by CompatibleWith
  // against the (deps, instance) the checkpoint is used with; here the
  // contract is only "no UB, no unchecked allocation, typed error".
  return ckpt;
}

std::string ChaseResult::ToString() const {
  std::ostringstream oss;
  oss << "chase: " << ChaseStatusName(status) << " after " << steps
      << " steps in " << passes << " passes (" << hom_nodes << " hom nodes)";
  return oss.str();
}

}  // namespace tdlib
