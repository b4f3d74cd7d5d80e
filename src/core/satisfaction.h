// Dependency satisfaction over finite instances (model checking).
//
// This is the "logical consequence" primitive of the paper's *true database
// interpretation*: a dependency holds in a finite database M iff every
// homomorphic match of its antecedents extends to a match of its conclusion.
// The part (B) verification ("this structure is a model for each dependency
// in D but not for D0") is exactly this check.
#ifndef TDLIB_CORE_SATISFACTION_H_
#define TDLIB_CORE_SATISFACTION_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "logic/homomorphism.h"
#include "logic/instance.h"

namespace tdlib {

/// Three-valued satisfaction verdict. kUnknown only occurs when a node
/// budget is configured and exhausted.
enum class Satisfaction { kSatisfied, kViolated, kUnknown };

/// Outcome details of a satisfaction check.
struct SatisfactionResult {
  Satisfaction verdict = Satisfaction::kUnknown;

  /// When kViolated: a body valuation with no head extension.
  std::optional<Valuation> counterexample;

  /// Number of body homomorphisms enumerated.
  std::uint64_t body_matches = 0;

  /// Total search nodes across body and head searches.
  std::uint64_t nodes = 0;

  /// Candidate tuples tried across all searches: the per-candidate
  /// filtering work left after the posting-list index.
  std::uint64_t candidates = 0;
};

/// The standard seed for a head-witness search: a valuation over
/// `dep.head()`'s variable space with every universal variable bound to its
/// value in `body_match` and every existential variable left free. Shared by
/// satisfaction checking and the chase's applicability tests.
Valuation HeadSeedValuation(const Dependency& dep, const Valuation& body_match);

/// Allocation-free variant for match streams: writes the seed into *out,
/// reusing its buffers (after the first call per (caller, dep) no
/// allocation happens). `out` is caller-owned scratch — the reuse stays
/// per-caller, so concurrent match tasks still share nothing.
void HeadSeedValuationInto(const Dependency& dep, const Valuation& body_match,
                           Valuation* out);

/// Head-witness tester for ONE dependency against ONE instance, reusable
/// across a whole body-match stream: the search object, the seed-valuation
/// template and the universal-position list are built once, so the
/// per-match cost is the head search itself — not a dozen vector
/// allocations. Shared by satisfaction checking and the chase's match/fire
/// phases. Strictly single-thread like the search it wraps; concurrent
/// match tasks each own their checker (per-caller scratch, nothing
/// shared). Reuse is invisible in the counters: the same searches explore
/// the same nodes. Reads the instance through a reference, so it observes
/// tuples inserted between calls (the chase's firing phase relies on
/// this); both referents must outlive the checker.
class HeadChecker {
 public:
  HeadChecker(const Dependency& dep, const Instance& instance,
              const HomSearchOptions& options);

  /// True if `h` (a body match for the dependency) extends to its head;
  /// merges the head search's counters into *stats.
  bool Witnessed(const Valuation& h, HomSearchStats* stats);

 private:
  HomomorphismSearch search_;
  Valuation seed_template_;  ///< all-unbound head valuation
  std::vector<std::pair<int, int>> universals_;  ///< (attr, var) to seed
  Valuation seed_;
};

/// Checks whether `instance` satisfies `dep`.
SatisfactionResult CheckSatisfaction(const Dependency& dep,
                                     const Instance& instance,
                                     HomSearchOptions options = {});

/// Convenience: true iff the check returns kSatisfied.
bool Satisfies(const Instance& instance, const Dependency& dep);

/// Checks a set; returns the index of the first violated dependency, or -1
/// if all are satisfied. (Asserts if any check hits a budget.)
int FirstViolated(const DependencySet& deps, const Instance& instance);

}  // namespace tdlib

#endif  // TDLIB_CORE_SATISFACTION_H_
