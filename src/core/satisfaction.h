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

/// Head-witness tester for ONE dependency against ONE instance, reusable
/// across a whole body-match stream: the search object and the
/// existential-slot list are built once, so the per-match cost is the head
/// search itself — not a dozen vector allocations. The seed of each head
/// search is the body match with every existential variable unbound (body
/// and head share one variable space, so the slots line up). Shared by
/// satisfaction checking and the chase's match/fire phases. Strictly
/// single-thread like the search it wraps; concurrent match tasks each own
/// their checker (per-caller scratch, nothing shared). Reuse is invisible
/// in the counters: the same searches explore the same nodes. Reads the
/// instance through a reference, so it observes tuples inserted between
/// calls (the chase's firing phase relies on this); both referents must
/// outlive the checker.
class HeadChecker {
 public:
  HeadChecker(const Dependency& dep, const Instance& instance,
              const HomSearchOptions& options);

  /// True if `h` (a body match for the dependency) extends to its head;
  /// merges the head search's counters into *stats.
  bool Witnessed(const Valuation& h, HomSearchStats* stats);

 private:
  HomomorphismSearch search_;
  std::vector<int> existentials_;  ///< head slots the seed leaves unbound
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
