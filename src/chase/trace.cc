#include "chase/trace.h"

#include <sstream>

namespace tdlib {

std::string FormatChaseStep(const ChaseStep& step, const DependencySet& deps,
                            const Instance& instance) {
  std::ostringstream oss;
  const Dependency& dep = deps.items[step.dependency_index];
  oss << "fire ";
  if (static_cast<std::size_t>(step.dependency_index) < deps.names.size() &&
      !deps.names[step.dependency_index].empty()) {
    oss << deps.names[step.dependency_index];
  } else {
    oss << "dep#" << step.dependency_index;
  }
  oss << " under {";
  bool first = true;
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    for (int v = 0; v < dep.body().NumVars(attr); ++v) {
      if (!dep.IsUniversal(attr, v)) continue;
      int value = step.body_match.Get(dep.body().VarIndex(attr, v));
      if (value < 0) continue;
      if (!first) oss << ", ";
      first = false;
      oss << dep.body().VarName(attr, v) << "->"
          << instance.ValueName(attr, value);
    }
  }
  oss << "} => ";
  if (step.new_tuples.empty()) {
    oss << "(already witnessed)";
  } else {
    for (std::size_t i = 0; i < step.new_tuples.size(); ++i) {
      if (i > 0) oss << ", ";
      oss << "tuple " << step.new_tuples[i];
    }
  }
  return oss.str();
}

std::string FormatChaseTrace(const ChaseResult& result,
                             const DependencySet& deps,
                             const Instance& instance) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    oss << i + 1 << ". " << FormatChaseStep(result.trace[i], deps, instance)
        << "\n";
  }
  return oss.str();
}

}  // namespace tdlib
