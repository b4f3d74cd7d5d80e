// Repro files: a diverging (usually minimized) job rendered as a
// core/parser dependency program, replayable with `tdfuzz --replay=FILE`.
// The format is deliberately the same one FileWorkload reads — '#' header
// lines, a `schema` line, `td` lines, last td = goal — so a repro can also
// be fed straight to tdbatch for ad-hoc poking.
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parser.h"
#include "fuzz/fuzz.h"
#include "logic/schema.h"

namespace tdlib {
namespace {

// True iff `name` is a token the parser grammar accepts:
// [A-Za-z_][A-Za-z0-9_'*]*.
bool ParseableName(std::string_view name) {
  if (name.empty()) return false;
  auto head = static_cast<unsigned char>(name[0]);
  if (!std::isalpha(head) && name[0] != '_') return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    auto c = static_cast<unsigned char>(name[i]);
    if (!std::isalnum(c) && name[i] != '_' && name[i] != '\'' &&
        name[i] != '*') {
      return false;
    }
  }
  return true;
}

// True iff formatting `dep` and re-parsing it reconstructs the same
// dependency: every variable name is grammatical AND no two distinct
// variables share a name (the parser interns by name, so a duplicate would
// silently unify two variables — worse than a parse error).
bool RoundTripSafe(const Dependency& dep) {
  const Tableau& body = dep.body();
  std::set<std::string_view> seen;
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    for (int v = 0; v < body.NumVars(attr); ++v) {
      std::string_view name = body.VarName(attr, v);
      if (!ParseableName(name) || !seen.insert(name).second) return false;
    }
  }
  return true;
}

bool RoundTripSafe(const Job& job) {
  const Schema& schema = job.goal.schema();
  for (int attr = 0; attr < schema.arity(); ++attr) {
    if (!ParseableName(schema.name(attr))) return false;
  }
  for (const Dependency& dep : job.dependencies.items) {
    if (!RoundTripSafe(dep)) return false;
  }
  return RoundTripSafe(job.goal);
}

// Rebuilds `dep` over `schema` with synthetic collision-free variable names
// c<attr>_<id> (the '_' separator keeps c1_23 and c12_3 distinct).
Dependency CanonicalizeDependency(const Dependency& dep,
                                  const SchemaPtr& schema) {
  const int arity = dep.schema().arity();
  Dependency::Builder builder(schema);
  std::vector<std::vector<int>> remap(static_cast<std::size_t>(arity));
  for (int attr = 0; attr < arity; ++attr) {
    remap[attr].assign(
        static_cast<std::size_t>(dep.body().NumVars(attr)), -1);
  }
  auto add_rows = [&](const Tableau& tableau, bool to_body) {
    for (const Row& original : tableau.rows()) {
      Row row = original;
      for (int attr = 0; attr < arity; ++attr) {
        int& v = row[static_cast<std::size_t>(attr)];
        if (remap[attr][static_cast<std::size_t>(v)] < 0) {
          remap[attr][static_cast<std::size_t>(v)] = builder.Var(
              attr, "c" + std::to_string(attr) + "_" + std::to_string(v));
        }
        v = remap[attr][static_cast<std::size_t>(v)];
      }
      if (to_body) {
        builder.AddBodyRow(std::move(row));
      } else {
        builder.AddHeadRow(std::move(row));
      }
    }
  };
  add_rows(dep.body(), true);
  add_rows(dep.head(), false);
  // The input was a valid dependency and the rebuild is a pure renaming,
  // so Build() cannot fail.
  return std::move(builder).Build().value();
}

// Renames attributes to C0..C{n-1} and variables to c<attr>_<id> — a pure
// isomorphism, applied when the job's own names would not survive the
// format -> parse round trip (reduction schemas use primed and digit-led
// attribute names the grammar rejects).
Job CanonicalizeJob(const Job& job) {
  const int arity = job.goal.schema().arity();
  std::vector<std::string> attr_names;
  attr_names.reserve(static_cast<std::size_t>(arity));
  for (int attr = 0; attr < arity; ++attr) {
    attr_names.push_back("C" + std::to_string(attr));
  }
  SchemaPtr schema = MakeSchema(std::move(attr_names));
  Job canonical = job;
  for (Dependency& dep : canonical.dependencies.items) {
    dep = CanonicalizeDependency(dep, schema);
  }
  canonical.goal = CanonicalizeDependency(canonical.goal, schema);
  return canonical;
}

}  // namespace

std::string FormatReproProgram(const Job& original_job,
                               const FuzzOptions& options,
                               const std::string& axis) {
  const Job job =
      RoundTripSafe(original_job) ? original_job : CanonicalizeJob(original_job);
  std::ostringstream oss;
  oss << "# tdfuzz repro: case=" << job.name << " axis=" << axis
      << " seed=" << options.seed << "\n";
  oss << "# replay with: tdfuzz --replay=<this file>\n";
  const Schema& schema = job.goal.schema();
  oss << "schema";
  for (int attr = 0; attr < schema.arity(); ++attr) {
    oss << ' ' << schema.name(attr);
  }
  oss << '\n';
  for (std::size_t i = 0; i < job.dependencies.items.size(); ++i) {
    std::string name = i < job.dependencies.names.size() &&
                               !job.dependencies.names[i].empty()
                           ? job.dependencies.names[i]
                           : "p" + std::to_string(i);
    oss << "td " << name << ": "
        << FormatDependency(job.dependencies.items[i]) << '\n';
  }
  oss << "td goal: " << FormatDependency(job.goal) << '\n';
  return oss.str();
}

Result<Job> ParseReproProgram(std::string_view text) {
  SchemaPtr schema;
  Result<DependencySet> parsed = ParseDependencyProgram(text, &schema);
  if (!parsed.ok()) {
    return Result<Job>::Error(ErrorCode::kParseError,
                              "repro program: " + parsed.error());
  }
  DependencySet deps = std::move(parsed).value();
  if (deps.items.empty()) {
    return Result<Job>::Error(
        ErrorCode::kParseError,
        "repro program has no td lines (the last td is the goal; at least "
        "one is required)");
  }
  Dependency goal = std::move(deps.items.back());
  deps.items.pop_back();
  if (!deps.names.empty()) deps.names.pop_back();
  return Job{"replay", std::move(deps), std::move(goal), DualSolverConfig{},
             0};
}

}  // namespace tdlib
