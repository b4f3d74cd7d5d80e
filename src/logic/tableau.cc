#include "logic/tableau.h"

#include <algorithm>
#include <sstream>

namespace tdlib {

Tableau::Tableau(SchemaPtr schema)
    : schema_(std::move(schema)), attr_begin_(schema_->arity() + 1, 0) {}

Tableau::NameRef Tableau::AppendName(std::string_view name) {
  const std::size_t begin = arena_.size();
  arena_.append(name);  // safe even when `name` views this arena
  return {static_cast<std::uint32_t>(begin),
          static_cast<std::uint32_t>(arena_.size() - begin)};
}

int Tableau::NewVariable(int attr, std::string_view name) {
  const int id = NumVars(attr);
  std::string default_name;
  if (name.empty()) {
    // Default names are lowercase attribute name + index: a0, a1, ... This
    // matches the paper's convention of using the attribute letter for its
    // variables (a, a', a'', ...).
    default_name = schema_->name(attr);
    for (auto& c : default_name) c = static_cast<char>(std::tolower(c));
    default_name += std::to_string(id);
    name = default_name;
  }
  names_.insert(names_.begin() + attr_begin_[attr + 1], AppendName(name));
  for (std::size_t a = attr + 1; a < attr_begin_.size(); ++a) ++attr_begin_[a];
  return id;
}

void Tableau::SetVarName(int attr, int v, std::string_view name) {
  names_[VarIndex(attr, v)] = AppendName(name);
}

void Tableau::EnsureVariables(int attr, int count) {
  while (NumVars(attr) < count) NewVariable(attr);
}

void Tableau::AddRow(Row row) { rows_.push_back(std::move(row)); }

void Tableau::Reserve(int rows, int vars) {
  rows_.reserve(static_cast<std::size_t>(rows));
  names_.reserve(static_cast<std::size_t>(vars));
}

Instance Tableau::Freeze() const {
  Instance frozen(schema_);
  int max_vars = 0;
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    max_vars = std::max(max_vars, NumVars(attr));
  }
  frozen.Reserve(rows_.size(), static_cast<std::size_t>(max_vars));
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    for (int v = 0; v < NumVars(attr); ++v) {
      frozen.AddValue(attr, std::string(VarName(attr, v)));
    }
  }
  for (const auto& r : rows_) frozen.AddTuple(r);
  return frozen;
}

std::string Tableau::ToString() const {
  std::ostringstream oss;
  for (const auto& r : rows_) {
    oss << "R(";
    for (int attr = 0; attr < schema_->arity(); ++attr) {
      if (attr > 0) oss << ", ";
      oss << VarName(attr, r[attr]);
    }
    oss << ")\n";
  }
  return oss.str();
}

std::string Tableau::CheckInvariants() const {
  for (const auto& r : rows_) {
    if (static_cast<int>(r.size()) != schema_->arity()) {
      return "row arity mismatch";
    }
    for (int attr = 0; attr < schema_->arity(); ++attr) {
      if (r[attr] < 0 || r[attr] >= NumVars(attr)) {
        return "row uses unknown variable";
      }
    }
  }
  // Duplicate names: each attribute's names, sorted in one reused buffer.
  std::vector<std::string_view> names;
  names.reserve(names_.size());
  for (int attr = 0; attr < schema_->arity(); ++attr) {
    names.clear();
    for (int v = 0; v < NumVars(attr); ++v) names.push_back(VarName(attr, v));
    std::sort(names.begin(), names.end());
    if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
      return "duplicate variable name in attribute " + schema_->name(attr);
    }
  }
  return "";
}

}  // namespace tdlib
