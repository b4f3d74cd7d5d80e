#include "chase/core_computation.h"

#include <algorithm>
#include <vector>

#include "logic/tableau.h"

namespace tdlib {
namespace {

// Views an instance as a tableau: one variable per domain value, one row per
// tuple. Combined with a valuation pinning the non-null values to
// themselves, homomorphism search over this tableau enumerates exactly the
// constant-fixing endomorphisms.
Tableau AsTableau(const Instance& instance) {
  Tableau t(instance.schema_ptr());
  for (int attr = 0; attr < instance.schema().arity(); ++attr) {
    t.EnsureVariables(attr, instance.DomainSize(attr));
  }
  for (std::size_t i = 0; i < instance.NumTuples(); ++i) {
    TupleRef tuple = instance.tuple(static_cast<int>(i));
    Row row(static_cast<std::size_t>(tuple.arity()));
    for (int attr = 0; attr < tuple.arity(); ++attr) row[attr] = tuple[attr];
    t.AddRow(std::move(row));
  }
  return t;
}

Valuation PinConstants(const Instance& source, const Tableau& tableau) {
  Valuation v = Valuation::For(tableau);
  for (int attr = 0; attr < source.schema().arity(); ++attr) {
    for (int value = 0; value < source.DomainSize(attr); ++value) {
      if (!source.IsLabeledNull(attr, value)) {
        v.Set(tableau.VarIndex(attr, value), value);
      }
    }
  }
  return v;
}

// Builds the sub-instance induced by a tuple-id keep set, preserving domains.
Instance SubInstance(const Instance& instance, const std::vector<bool>& keep) {
  Instance out(instance.schema_ptr());
  int max_domain = 0;
  for (int attr = 0; attr < instance.schema().arity(); ++attr) {
    max_domain = std::max(max_domain, instance.DomainSize(attr));
  }
  out.Reserve(instance.NumTuples(), static_cast<std::size_t>(max_domain));
  for (int attr = 0; attr < instance.schema().arity(); ++attr) {
    for (int value = 0; value < instance.DomainSize(attr); ++value) {
      out.AddValue(attr, instance.ValueName(attr, value),
                   instance.IsLabeledNull(attr, value));
    }
  }
  for (std::size_t id = 0; id < instance.NumTuples(); ++id) {
    if (keep[id]) out.AddTuple(instance.tuple(static_cast<int>(id)));
  }
  return out;
}

}  // namespace

CoreResult ComputeCore(const Instance& instance, const CoreConfig& config) {
  CoreResult result(instance);
  HomSearchOptions options;
  options.max_nodes = config.hom_max_nodes;

  while (config.max_rounds == 0 || result.rounds < config.max_rounds) {
    const Instance& current = result.core;
    Tableau tableau = AsTableau(current);
    HomomorphismSearch search(tableau, current, options);
    search.SetInitial(PinConstants(current, tableau));

    // The endomorphism image as tuple ids: every mapped tuple is a tuple of
    // `current` (h maps rows of current into current), so FindTuple >= 0.
    std::vector<bool> in_image;
    bool found_proper = false;
    Tuple mapped(current.schema().arity());
    HomSearchStatus status = search.ForEach([&](const Valuation& h) {
      in_image.assign(current.NumTuples(), false);
      std::size_t image_size = 0;
      for (std::size_t i = 0; i < current.NumTuples(); ++i) {
        TupleRef t = current.tuple(static_cast<int>(i));
        for (int attr = 0; attr < current.schema().arity(); ++attr) {
          mapped[attr] = h.Get(tableau.VarIndex(attr, t[attr]));
        }
        int id = current.FindTuple(mapped);
        if (id >= 0 && !in_image[id]) {
          in_image[id] = true;
          ++image_size;
        }
      }
      if (image_size < current.NumTuples()) {
        found_proper = true;
        return false;  // retract through this endomorphism
      }
      return true;
    });
    if (status == HomSearchStatus::kBudget) {
      result.hit_budget = true;
      return result;
    }
    if (!found_proper) return result;  // fixpoint: this is the core

    int before = static_cast<int>(result.core.NumTuples());
    result.core = SubInstance(current, in_image);
    result.tuples_removed += before - static_cast<int>(result.core.NumTuples());
    ++result.rounds;
  }
  result.hit_budget = true;  // round limit
  return result;
}

bool HomomorphicallyEquivalent(const Instance& a, const Instance& b,
                               const HomSearchOptions& options) {
  auto maps = [&](const Instance& from, const Instance& to) {
    Tableau tableau = AsTableau(from);
    HomomorphismSearch search(tableau, to, options);
    search.SetInitial(PinConstants(from, tableau));
    return search.FindAny(nullptr) == HomSearchStatus::kFound;
  };
  return maps(a, b) && maps(b, a);
}

}  // namespace tdlib
