// Homomorphism search: embedding tableaux into instances.
//
// A homomorphism maps each variable of a tableau to a domain value of the
// same attribute such that every row becomes a tuple of the instance. This
// is the computational heart of the library: dependency satisfaction, chase
// applicability, tableau containment and the part (B) model check are all
// homomorphism problems. The search is backtracking with a most-constrained-
// row-first heuristic and candidate lists drawn from the instance's CSR
// inverted index; an optional node budget keeps worst-case (NP-hard)
// searches bounded.
//
// Candidate lists: a row with bound positions scans the single shortest of
// their posting lists; every other bound position is filtered per
// candidate.
//
// Delta restriction (semi-naive matching): a search can be confined to one
// member of the standard semi-naive partition of the delta-touching matches
// — seed row in the delta, earlier rows in the old region, later rows
// unrestricted — so that re-matching after an insertion batch costs time
// proportional to the batch, not the instance. The chase unions the
// partition members and fires in a canonical order (chase/chase.h), which
// is how delta mode reproduces the naive chase byte for byte. An id cap
// (HomSearchOptions::id_end) further confines every row to the first N
// tuples, which is how the chase matches a dependency against its
// pass-start instance after earlier dependencies have fired.
//
// Concurrency: a HomomorphismSearch object is strictly single-thread — all
// of its mutable state (valuation, row bookkeeping, scratch buffers, stats)
// lives in the object. Any number of searches may run concurrently over the
// SAME target instance as long as no thread mutates it (see the concurrent-
// read contract in logic/instance.h).
#ifndef TDLIB_LOGIC_HOMOMORPHISM_H_
#define TDLIB_LOGIC_HOMOMORPHISM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "logic/instance.h"
#include "logic/tableau.h"
#include "util/timer.h"

namespace tdlib {

/// A (partial) assignment of domain values to typed variables, indexed by
/// the tableau's flat slot: values[t.VarIndex(attr, var)] is a value id of
/// `attr`, or -1 when unbound. One vector, so copying a valuation costs one
/// allocation however many attributes the schema has. A dependency's body
/// and head share one variable space, so a body match indexes the head's
/// slots directly.
struct Valuation {
  std::vector<int> values;

  /// Creates an all-unbound valuation sized to `t`'s variable space.
  static Valuation For(const Tableau& t);

  int Get(int slot) const { return values[slot]; }
  void Set(int slot, int value) { values[slot] = value; }
  bool Bound(int slot) const { return values[slot] >= 0; }
};

/// Counters one search produced. Search-local by design: every
/// HomomorphismSearch owns exactly one HomSearchStats and nothing else ever
/// writes it, so concurrent searches race on nothing. Aggregation across
/// searches (the chase's per-dependency totals) is an explicit MergeFrom
/// once a search has finished — never two searches pointing at one struct.
struct HomSearchStats {
  std::uint64_t nodes = 0;       ///< search-tree nodes explored
  std::uint64_t candidates = 0;  ///< candidate tuples tried against a row
                                 ///  (what the index prunes)
  bool budget_hit = false;   ///< a node/deadline/cancel limit stopped a search
  bool deadline_hit = false; ///< specifically the wall-clock deadline
  bool cancel_hit = false;   ///< specifically the job-level cancel flag

  void MergeFrom(const HomSearchStats& other) {
    nodes += other.nodes;
    candidates += other.candidates;
    budget_hit = budget_hit || other.budget_hit;
    deadline_hit = deadline_hit || other.deadline_hit;
    cancel_hit = cancel_hit || other.cancel_hit;
  }
};
// Plain counters only: no pointers, no atomics, nothing shareable — keep it
// trivially copyable.
static_assert(std::is_trivially_copyable<HomSearchStats>::value,
              "HomSearchStats must stay per-search value data");

/// Tuning and budget knobs for the search.
struct HomSearchOptions {
  /// Abort after exploring this many search-tree nodes (0 = unlimited).
  std::uint64_t max_nodes = 0;

  /// Disable the inverted-index candidate pruning; used by the EXP-CHASE
  /// ablation benchmark to quantify what the index buys.
  bool use_index = true;

  /// Disable the most-constrained-row-first dynamic ordering (rows are then
  /// matched in tableau order).
  bool use_dynamic_order = true;

  /// Delta restriction: when delta_begin >= 0 and delta_seed_row >= 0,
  /// enumerate the `delta_seed_row` member of the semi-naive partition —
  /// row delta_seed_row binds only tuples with id >= delta_begin ("the
  /// delta"), every row before it (in tableau row order) binds only ids
  /// < delta_begin ("old"), rows after it are unrestricted. The union over
  /// delta_seed_row = 0..num_rows-1 visits every delta-touching match
  /// exactly once; each member's cost scales with the delta, not the
  /// instance.
  ///
  /// delta_seed_row = -1 (the default) is the "any row" mode: one search
  /// visiting every delta-touching match (all-old matches are pruned at the
  /// last undone row). Never explores more nodes than an unrestricted
  /// search, and — unlike a single partition member — complete on its own,
  /// which is why it is the default when only delta_begin is set.
  ///
  /// delta_begin < 0 disables the restriction entirely.
  int delta_begin = -1;
  int delta_seed_row = -1;

  /// Id cap: when >= 0, every row binds only tuples with id < id_end, on
  /// top of any delta window above. The chase sets it to the pass-start
  /// tuple count, so a body search run after earlier dependencies of the
  /// same pass fired sees exactly the pass-start instance. The cap bounds
  /// the candidate windows only: the most-constrained-first heuristic and
  /// the candidate driver still measure whole posting lists (counting
  /// below the cap explored fewer nodes on the reduction sweep but ran
  /// slower). -1 (the default) = no cap.
  int id_end = -1;

  /// Optional wall-clock deadline, checked every few hundred nodes inside
  /// Backtrack so one huge search cannot overshoot a caller's budget. On
  /// expiry the search reports kBudget (the space was not exhausted) and
  /// deadline_hit() is set; the borrowed Deadline must outlive the search.
  /// Deadline reads are const and thread-safe, so concurrent searches may
  /// share one Deadline object.
  const Deadline* deadline = nullptr;

  /// Optional job-level cancel flag, checked on the same amortized cadence
  /// as the deadline. A trip reports kBudget and sets stats.cancel_hit,
  /// which lets callers (the chase, and through it the engine's
  /// JobHandle::Cancel) tell a user-requested cancellation apart from an
  /// ordinary budget stop. Null (the default) disables the check; the flag
  /// must outlive the search.
  const std::atomic<bool>* job_cancel = nullptr;
};

/// Outcome of a search that may exhaust its budget.
enum class HomSearchStatus {
  kFound,      ///< a homomorphism exists (and was produced)
  kExhausted,  ///< the full space was searched; no homomorphism exists
  kBudget,     ///< the node/deadline budget ran out before exhaustion
};

/// Backtracking search for homomorphisms `source -> target`.
class HomomorphismSearch {
 public:
  /// Both referents must outlive the search object.
  HomomorphismSearch(const Tableau& source, const Instance& target,
                     HomSearchOptions options = {});

  /// Pre-binds variables (e.g. the universal variables of a dependency head
  /// when testing whether a body match is already witnessed). The valuation
  /// must hold `source.TotalVars()` slots.
  void SetInitial(const Valuation& initial);

  /// Finds one homomorphism extending the initial valuation.
  HomSearchStatus FindAny(Valuation* result);

  /// Enumerates homomorphisms; `visit` returns false to stop early. Every
  /// total extension of the initial valuation that maps all rows into the
  /// target (and touches the delta, if one is set) is visited exactly once.
  HomSearchStatus ForEach(const std::function<bool(const Valuation&)>& visit);

  /// Counters for the last call (reset by every FindAny/ForEach).
  const HomSearchStats& stats() const { return stats_; }

  /// Search-tree nodes explored by the last call.
  std::uint64_t nodes_explored() const { return stats_.nodes; }

  /// The tuple id each source row is bound to, in tableau row order — the
  /// "body image" of the match being visited. Valid only inside a ForEach/
  /// FindAny visit callback (entries are stale outside one).
  const std::vector<int>& row_tuples() const { return row_tuples_; }

  /// True iff the last call stopped because options.deadline expired
  /// (reported as kBudget; this disambiguates for timeout accounting).
  bool deadline_hit() const { return stats_.deadline_hit; }

 private:
  /// Up to two ascending candidate runs (CSR base + tail, or one
  /// materialized scan run). Every id in runs[0] precedes every id in
  /// runs[1].
  struct CandidateRuns {
    IdSpan runs[2];
  };

  bool Backtrack(int depth, const std::function<bool(const Valuation&)>& visit,
                 bool* stopped);
  int PickNextRow() const;
  /// Tuple ids row `row_idx` may bind: [first, second). Encodes the delta
  /// partition and the id cap; {0, INT_MAX} when
  /// unrestricted.
  std::pair<int, int> RowIdBounds(int row_idx) const;
  /// Candidate ids in [min_id, max_id) for `row_idx`, either as borrowed
  /// index spans (which may run past max_id — the caller's iteration stops
  /// there) or materialized into `storage` (full scans, which DO stop at
  /// max_id).
  void RowCandidates(int row_idx, int min_id, int max_id,
                     std::vector<int>* storage, CandidateRuns* out);
  bool TryBindRow(int row_idx, TupleRef tuple, std::vector<int>* undo);
  void UndoBindings(const std::vector<int>& undo);

  /// Flat slots of row `row_idx`'s variables, one per attribute.
  const int* RowSlots(int row_idx) const {
    return row_slots_.data() + static_cast<std::size_t>(row_idx) * arity_;
  }

  const Tableau& source_;
  const Instance& target_;
  HomSearchOptions options_;
  int arity_;
  // row_slots_[row * arity_ + attr] = source_.VarIndex(attr, row[attr]),
  // resolved once per search so the hot loop indexes the valuation
  // directly.
  std::vector<int> row_slots_;
  Valuation valuation_;
  std::vector<bool> row_done_;
  std::vector<int> row_tuples_;
  int delta_rows_bound_ = 0;  ///< "any row" mode: rows on delta tuples now
  // Per-depth scratch, reused across the whole search so the hot loop does
  // not allocate per node (capacity sticks after the first few nodes).
  std::vector<std::vector<int>> candidate_storage_;
  std::vector<std::vector<int>> undo_storage_;  ///< slots bound per depth
  HomSearchStats stats_;
};

/// Convenience wrapper: is there any homomorphism source -> target?
/// Returns kFound / kExhausted / kBudget.
HomSearchStatus ExistsHomomorphism(const Tableau& source,
                                   const Instance& target,
                                   HomSearchOptions options = {});

/// Tableau containment: does `from` map homomorphically into `to` frozen?
/// (Classic tableau-containment test; used for triviality and equivalence.)
HomSearchStatus MapsInto(const Tableau& from, const Tableau& to,
                         HomSearchOptions options = {});

}  // namespace tdlib

#endif  // TDLIB_LOGIC_HOMOMORPHISM_H_
