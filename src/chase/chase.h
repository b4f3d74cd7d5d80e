// The chase: the canonical fixpoint procedure for implicational dependencies.
//
// A chase step takes a dependency body => head and a homomorphism h of the
// body into the current instance such that h does not extend to the head; it
// then inserts the head rows under h, inventing a fresh labeled null for
// every existential variable. The chase repeats until no step applies
// (fixpoint), a goal is reached, or a resource limit trips.
//
// This is the engine behind direction (A) of the paper's Reduction Theorem:
// the paper's induction "check by induction on j = 0..m that [a bridge for
// u_j exists]" is, operationally, a chase derivation, and tdlib executes it.
// Because TD inference is undecidable (the paper's main result!), the chase
// need not terminate; all entry points take explicit budgets.
#ifndef TDLIB_CHASE_CHASE_H_
#define TDLIB_CHASE_CHASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "logic/homomorphism.h"
#include "logic/instance.h"
#include "util/executor.h"
#include "util/status.h"

namespace tdlib {

/// Resource limits and knobs for a chase run.
struct ChaseConfig {
  /// Stop after this many chase steps (tuple-inserting fires). 0 = no limit.
  std::uint64_t max_steps = 100000;

  /// Stop once the instance holds this many tuples. 0 = no limit.
  std::uint64_t max_tuples = 1000000;

  /// Wall-clock budget in seconds. <= 0 = no limit.
  double deadline_seconds = 0;

  /// Budget for each homomorphism search (0 = unlimited).
  std::uint64_t hom_max_nodes = 0;

  /// Record a ChaseStep entry per fire (needed by the part (A) tracer).
  bool record_trace = false;

  /// Delta-driven (semi-naive) matching: each pass re-matches a dependency
  /// body only against valuations that touch at least one tuple inserted
  /// since the previous pass, plus the carried-over steps earlier passes
  /// collected but did not fire. Produces byte-identical instances, traces
  /// and statuses to the naive mode while doing asymptotically less
  /// re-matching per pass. Off = naive re-matching of the whole instance
  /// every pass (the ablation baseline).
  bool use_delta = true;

  /// Fire at most this many steps per pass (0 = all applicable steps).
  /// Bounding the burst keeps per-pass latency and instance growth smooth —
  /// an unbounded pass can fire tens of thousands of steps on a pumping
  /// instance — and it is the regime where delta matching pays most: with
  /// small per-pass deltas, naive full re-matching dominates the run.
  /// Unfired steps are carried to the next pass (delta mode) or re-found by
  /// the full re-match (naive mode); both modes stay byte-identical.
  std::uint64_t max_fires_per_pass = 0;

  /// Work stealing for few-member passes: split each semi-naive partition
  /// member's seed-row delta range into sub-tasks of this many tuple ids
  /// (0 = never split). A pass over one wide dependency produces only
  /// |body rows| partition members — fewer than the pool on a big delta —
  /// so slicing is what lets even 1-dependency chases use all cores. The
  /// slicing is a pure function of (config, delta), NOT of the pool width,
  /// so hom_nodes/match_tasks — and with them every instance, trace and
  /// status — stay byte-identical at any thread count, serial included.
  std::uint64_t match_slice_ids = 4096;

  /// Optional thread pool for the matching phase. Each pass's match tasks —
  /// carried-step re-checks plus one body search per dependency (or per
  /// semi-naive partition member (dependency, seed row)) — are independent
  /// read-only searches over the pass-start instance; with a pool they fan
  /// out across workers, collect pending steps into per-task buffers, and
  /// merge in the canonical (dependency, body-image) order, so the fired
  /// steps — and therefore instances, traces and statuses — are
  /// byte-identical to a serial run at ANY thread count. Null (the default)
  /// is the serial fallback used by --naive-chase and single-thread
  /// ablations. Firing, tracing and goal checks always stay on the calling
  /// thread; the instance is never mutated while match tasks run. The
  /// byte-identity guarantee is scoped exactly like use_delta's: a binding
  /// hom_max_nodes or deadline_seconds can stop serial and pooled runs at
  /// different points (a budget trip in one task cancels its siblings
  /// through a shared atomic flag, so hom_nodes and statuses may then
  /// diverge).
  TaskExecutor* pool = nullptr;

  /// Optional cooperative cancel flag (the engine's JobHandle::Cancel routes
  /// here). Observed inside every homomorphism search on the amortized
  /// ~512-node cadence (HomSearchOptions::job_cancel), once per enumerated
  /// body match, and between fires — so even a pumping chase stops within
  /// one cadence interval of the flag being raised. A trip reports
  /// ChaseStatus::kCancelled and never produces a resumable checkpoint
  /// (searches were cut mid-stream). Null disables; must outlive the run.
  const std::atomic<bool>* cancel = nullptr;

  HomSearchOptions HomOptions() const {
    HomSearchOptions o;
    o.max_nodes = hom_max_nodes;
    return o;
  }
};

/// Why the chase stopped.
enum class ChaseStatus {
  kFixpoint,    ///< no dependency is applicable: the result is a universal model
  kGoal,        ///< the caller-supplied goal predicate became true
  kStepLimit,   ///< max_steps exhausted
  kTupleLimit,  ///< max_tuples exhausted
  kTimeout,     ///< deadline exceeded
  kHomBudget,   ///< a homomorphism search ran out of nodes (result unreliable)
  kCancelled,   ///< ChaseConfig::cancel was raised mid-run
  kResourceExhausted,  ///< an allocation failed between fires; the run parked
                       ///  a resumable checkpoint instead of aborting, so a
                       ///  later (or less memory-pressured) call continues it
};

/// One fired chase step (recorded when ChaseConfig::record_trace is set).
struct ChaseStep {
  int dependency_index;          ///< which dependency fired
  Valuation body_match;          ///< the triggering body homomorphism
  std::vector<int> new_tuples;   ///< ids of inserted tuples
};

/// Outcome of a chase run.
struct ChaseResult {
  ChaseStatus status = ChaseStatus::kFixpoint;
  std::uint64_t steps = 0;          ///< fires
  std::uint64_t passes = 0;         ///< full scans over the dependency set
  std::uint64_t hom_nodes = 0;      ///< total homomorphism search nodes
  std::uint64_t hom_candidates = 0; ///< candidate tuples tried across all
                                    ///  searches (what the index prunes)
  std::uint64_t match_tasks = 0;    ///< match-phase tasks (parallel units)
  std::uint64_t carried_passes = 0; ///< passes entered with carried pending
                                    ///  steps (burst-cap backlog re-checks)
  std::vector<ChaseStep> trace;     ///< populated when record_trace

  // Wall-clock phase breakdown (seconds). Measurement-only: excluded from
  // every determinism comparison, absent from the checkpoint format (a
  // resumed run restarts them at zero — they describe THIS run's wall time,
  // not the logical derivation), and never read back by the chase itself.
  double match_seconds = 0;       ///< matching phases (enumeration + merge)
  double fire_seconds = 0;        ///< firing phases (witness re-check + fire)
  double checkpoint_seconds = 0;  ///< checkpoint capture on budget stops

  std::string ToString() const;
};

/// One collected-but-not-yet-fired chase step: the dependency, the body
/// match, and the body image (the tuple id each body row maps to, in tableau
/// row order — the canonical fire-order sort key). This is the unit the
/// burst cap carries between passes and the unit a ChaseCheckpoint persists.
struct PendingChaseStep {
  int dep_index;
  Valuation match;
  std::vector<int> row_ids;
};

/// The complete resumable state of a budget-stopped chase, minus the
/// instance itself (the caller owns that; ChaseSession in chase/implication.h
/// bundles the two, and Instance::Serialize persists the tuple arena).
///
/// A checkpoint is taken exactly when a run stops DETERMINISTICALLY inside
/// the firing phase — kStepLimit or kTupleLimit, the two budgets the dual
/// solver's escalation rounds raise. Those stops happen between fires, with
/// the instance in a well-defined state and the remaining pending steps in
/// hand, so a resumed run replays the continuation of an uninterrupted run
/// byte for byte: same tuples, same invented nulls, same trace, same
/// cumulative counters. Nondeterministic stops (kTimeout, kHomBudget,
/// kCancelled) cut homomorphism searches mid-stream and leave no checkpoint
/// (valid stays false); resuming after one falls back to a fresh run.
///
/// Counters are cumulative: a resumed ChaseResult continues them, so its
/// totals equal an uninterrupted run's — which is what keeps the dual
/// solver's escalation-resume invisible in DeterministicSummary.
struct ChaseCheckpoint {
  bool valid = false;

  // ---- Resume point (inside the firing phase of pass `passes`) ----------
  std::size_t delta_begin = 0;      ///< frontier: ids >= this are the delta
  std::uint64_t fired_this_pass = 0;  ///< burst-cap progress within the pass
  std::vector<PendingChaseStep> pending;  ///< still-unfired steps, canonical
                                          ///  (dep, body-image) order

  // ---- Cumulative counters (ChaseResult so far) -------------------------
  std::uint64_t steps = 0;
  std::uint64_t passes = 0;
  std::uint64_t hom_nodes = 0;
  std::uint64_t hom_candidates = 0;
  std::uint64_t match_tasks = 0;
  std::uint64_t carried_passes = 0;
  std::vector<ChaseStep> trace;     ///< populated when record_trace

  // ---- Config shape the checkpoint was taken under ----------------------
  // Resuming under a different shape would diverge from an uninterrupted
  // run; ResumableWith refuses and the caller starts fresh instead.
  // max_fires_per_pass moves pass boundaries, and match_slice_ids — though
  // invisible in the chase's output bytes — changes the cumulative
  // counters, which a resumed run must reproduce exactly.
  bool use_delta = true;
  std::uint64_t max_fires_per_pass = 0;
  std::uint64_t match_slice_ids = 0;
  bool record_trace = false;
  std::uint64_t hom_max_nodes = 0;

  /// True iff this checkpoint belongs with (config-shape, instance, deps):
  /// it is valid, the config shape matches, and — because checkpoints may
  /// arrive from disk — every pending and trace entry's dependency index,
  /// tuple ids and valuation are in range for the given dependency set and
  /// instance (a corrupt file fails here, not as an out-of-bounds access
  /// inside RunChase or a trace consumer). Budgets are NOT considered: a
  /// compatible checkpoint whose progress exceeds the current budgets is
  /// worth keeping for a later, bigger-budget round.
  bool CompatibleWith(const ChaseConfig& config, const Instance& instance,
                      const DependencySet& deps) const;

  /// True iff `config`'s step/tuple budgets exceed the recorded progress —
  /// resuming under budgets at or below it would stop after at most one
  /// fire instead of replaying an uninterrupted run.
  bool BudgetsExceedProgress(const ChaseConfig& config,
                             const Instance& instance) const;

  /// CompatibleWith && BudgetsExceedProgress: safe to hand to RunChase.
  bool ResumableWith(const ChaseConfig& config, const Instance& instance,
                     const DependencySet& deps) const {
    return CompatibleWith(config, instance, deps) &&
           BudgetsExceedProgress(config, instance);
  }

  /// Remembers `config`'s shape fields (called when the checkpoint is taken).
  void CaptureShape(const ChaseConfig& config);

  void Reset() { *this = ChaseCheckpoint(); }

  /// Text round-trip (whitespace-separated; Valuations and traces included).
  /// Deserialize treats the stream as untrusted: every count and flag is
  /// bounds-checked and malformed input yields ErrorCode::kCorrupt with a
  /// field-level message — never UB, a crash, or an unchecked allocation.
  void Serialize(std::ostream& os) const;
  static Result<ChaseCheckpoint> Deserialize(std::istream& is);
};

/// A goal predicate evaluated against the evolving instance; the chase stops
/// with kGoal when it returns true. May be empty.
using ChaseGoal = std::function<bool(const Instance&)>;

/// Runs the (standard/restricted) chase of `instance` with `deps` in place.
///
/// The pass strategy is breadth-first and fair: each pass enumerates all
/// applicable (dependency, body-match) pairs against the pass-start instance,
/// re-verifies applicability immediately before firing (an earlier fire in
/// the same pass may have satisfied the head), then fires. Fixpoint is a
/// pass with zero fires.
///
/// Applicable steps collected in a pass are fired in canonical
/// (dependency index, body image) order — the body image being the tuple
/// ids the body rows map to — so the fire order is a function of the *set*
/// of applicable steps, not of how the matcher enumerated them.
///
/// With ChaseConfig::use_delta (the default), pass k only enumerates body
/// matches touching a tuple inserted during pass k-1 (the semi-naive
/// partition: seed row in the delta, earlier rows old, later rows free).
/// This is sound and complete for the pass discipline above: a match wholly
/// inside the pass-(k-1) instance was already enumerated then, and was
/// either fired (its head rows are now present) or skipped as witnessed —
/// both leave it head-witnessed forever, since tuples are only ever added.
/// Identical pending sets + canonical fire order make the fired steps — and
/// hence tuple ids, labeled nulls, traces and the terminal instance —
/// byte-identical to the naive mode. The guarantee is scoped to runs where
/// no per-search node budget or deadline trips: the two modes split the
/// matching work into different searches, so a binding hom_max_nodes or
/// deadline_seconds can stop them at different points (statuses may then
/// differ, e.g. kHomBudget in one mode only).
///
/// With ChaseConfig::pool set, the match tasks of each pass run
/// concurrently on the pool while the instance is read-only; the canonical
/// merge makes the result byte-identical to the serial run at any thread
/// count (same budget-trip caveat as above). Firing is always serial.
ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal = {});

/// Resumable variant. `checkpoint` is in/out:
///
///   * On entry, if checkpoint->valid, the run CONTINUES from it instead of
///     starting a first pass — `instance` must be the very instance (or a
///     restored copy) the checkpoint was taken against, and the caller must
///     have verified checkpoint->ResumableWith(config, *instance, deps). The
///     checkpoint is consumed (valid flips false).
///   * On exit, if the run stopped at kStepLimit or kTupleLimit, the
///     checkpoint is refilled (valid = true) so a later call — possibly in
///     another process, via Instance/ChaseCheckpoint serialization — can
///     continue. Any other stop leaves it invalid.
///
/// Interrupted-vs-uninterrupted byte-identity: for any budgets B1 < B2,
/// running to B1, checkpointing, and resuming to B2 yields the same
/// ChaseResult (status, counters, trace) and the same instance as one
/// uninterrupted run to B2. tests/checkpoint_test.cc enforces this across
/// workload families, including through a serialize/deserialize round trip.
ChaseResult RunChase(Instance* instance, const DependencySet& deps,
                     const ChaseConfig& config, const ChaseGoal& goal,
                     ChaseCheckpoint* checkpoint);

/// Returns true iff `dep` has a body match in `instance` that does not
/// extend to its head (i.e. a chase step is applicable). Exposed for tests
/// and the termination analyzer.
bool HasApplicableStep(const Dependency& dep, const Instance& instance,
                       const HomSearchOptions& options = {});

/// Human-readable name of a status.
std::string_view ChaseStatusName(ChaseStatus status);

}  // namespace tdlib

#endif  // TDLIB_CHASE_CHASE_H_
