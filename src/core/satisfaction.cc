#include "core/satisfaction.h"

#include <cassert>

namespace tdlib {

HeadChecker::HeadChecker(const Dependency& dep, const Instance& instance,
                         const HomSearchOptions& options)
    : search_(dep.head(), instance, options) {
  // A body match binds exactly the universal slots, so the seed is the
  // match itself. Clearing the existential slots too keeps the seed right
  // for a match that did not come from a body search (a checkpoint).
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    for (int v = 0; v < dep.head().NumVars(attr); ++v) {
      if (!dep.IsUniversal(attr, v)) {
        existentials_.push_back(dep.head().VarIndex(attr, v));
      }
    }
  }
}

bool HeadChecker::Witnessed(const Valuation& h, HomSearchStats* stats) {
  seed_ = h;  // capacity reused after the first call
  for (int slot : existentials_) seed_.Set(slot, -1);
  search_.SetInitial(seed_);
  HomSearchStatus status = search_.FindAny(nullptr);
  stats->MergeFrom(search_.stats());
  return status == HomSearchStatus::kFound;
}

SatisfactionResult CheckSatisfaction(const Dependency& dep,
                                     const Instance& instance,
                                     HomSearchOptions options) {
  SatisfactionResult result;
  // Per-call stats aggregation: each search owns its HomSearchStats and the
  // counters are summed here after each search finishes (the same
  // sum-after-join discipline the parallel chase uses).
  HomSearchStats stats;

  HomomorphismSearch body_search(dep.body(), instance, options);
  // One HeadChecker serves the whole body-match stream — reuse keeps the
  // allocator off the per-match path (the chase uses the same class).
  HeadChecker head(dep, instance, options);
  HomSearchStatus body_status = body_search.ForEach([&](const Valuation& h) {
    ++result.body_matches;
    // Try to extend h to the head: universal variables keep their binding,
    // existential variables are free.
    HomSearchStats head_stats;
    bool witnessed = head.Witnessed(h, &head_stats);
    stats.MergeFrom(head_stats);
    if (head_stats.budget_hit) {
      return false;
    }
    if (!witnessed) {
      result.counterexample = h;
      return false;  // found a violation; stop
    }
    return true;
  });
  stats.MergeFrom(body_search.stats());
  result.nodes = stats.nodes;
  result.candidates = stats.candidates;

  if (stats.budget_hit || body_status == HomSearchStatus::kBudget) {
    result.verdict = Satisfaction::kUnknown;
    result.counterexample.reset();
  } else if (result.counterexample.has_value()) {
    result.verdict = Satisfaction::kViolated;
  } else {
    result.verdict = Satisfaction::kSatisfied;
  }
  return result;
}

bool Satisfies(const Instance& instance, const Dependency& dep) {
  return CheckSatisfaction(dep, instance).verdict == Satisfaction::kSatisfied;
}

int FirstViolated(const DependencySet& deps, const Instance& instance) {
  for (std::size_t i = 0; i < deps.items.size(); ++i) {
    SatisfactionResult r = CheckSatisfaction(deps.items[i], instance);
    assert(r.verdict != Satisfaction::kUnknown);
    if (r.verdict == Satisfaction::kViolated) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace tdlib
