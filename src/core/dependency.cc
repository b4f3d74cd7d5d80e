#include "core/dependency.h"

#include <sstream>

#include "logic/homomorphism.h"

namespace tdlib {

int Dependency::Builder::Var(int attr, std::string_view name) {
  int id = body_.NewVariable(attr, name);
  head_.NewVariable(attr, body_.VarName(attr, id));
  return id;
}

Result<Dependency> Dependency::Builder::Build() && {
  if (body_.num_rows() == 0) {
    return Result<Dependency>::Error("dependency has no antecedents");
  }
  if (head_.num_rows() == 0) {
    return Result<Dependency>::Error("dependency has no conclusion");
  }
  if (std::string err = body_.CheckInvariants(); !err.empty()) {
    return Result<Dependency>::Error("body: " + err);
  }
  if (std::string err = head_.CheckInvariants(); !err.empty()) {
    return Result<Dependency>::Error("head: " + err);
  }
  std::vector<unsigned char> universal(body_.TotalVars(), 0);
  for (const Row& r : body_.rows()) {
    for (int attr = 0; attr < body_.schema().arity(); ++attr) {
      universal[body_.VarIndex(attr, r[attr])] = 1;
    }
  }
  return Dependency(std::move(body_), std::move(head_), std::move(universal));
}

bool Dependency::IsFull() const {
  for (const Row& r : head_.rows()) {
    for (int attr = 0; attr < schema().arity(); ++attr) {
      if (!IsUniversal(attr, r[attr])) return false;
    }
  }
  return true;
}

bool Dependency::IsTrivial() const {
  // Trivial iff the head maps into the frozen body while fixing every
  // universal variable (identity on body variables).
  Instance frozen = body_.Freeze();
  HomomorphismSearch search(head_, frozen);
  Valuation initial = Valuation::For(head_);
  for (int attr = 0; attr < schema().arity(); ++attr) {
    for (int v = 0; v < head_.NumVars(attr); ++v) {
      if (IsUniversal(attr, v)) initial.Set(head_.VarIndex(attr, v), v);
    }
  }
  search.SetInitial(initial);
  return search.FindAny(nullptr) == HomSearchStatus::kFound;
}

std::string Dependency::ToString() const {
  auto render = [&](const Tableau& t) {
    std::vector<std::string> atoms;
    for (const Row& r : t.rows()) {
      std::string atom = "R(";
      for (int attr = 0; attr < schema().arity(); ++attr) {
        if (attr > 0) atom += ",";
        atom += t.VarName(attr, r[attr]);
      }
      atom += ")";
      atoms.push_back(std::move(atom));
    }
    std::string out;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += " & ";
      out += atoms[i];
    }
    return out;
  };
  return render(body_) + " => " + render(head_);
}

std::string Dependency::CheckInvariants() const {
  if (std::string err = body_.CheckInvariants(); !err.empty()) return err;
  if (std::string err = head_.CheckInvariants(); !err.empty()) return err;
  for (int attr = 0; attr < schema().arity(); ++attr) {
    if (body_.NumVars(attr) != head_.NumVars(attr)) {
      return "body/head variable space mismatch";
    }
    for (int v = 0; v < body_.NumVars(attr); ++v) {
      if (body_.VarName(attr, v) != head_.VarName(attr, v)) {
        return "body/head variable name mismatch";
      }
    }
  }
  if (body_.num_rows() == 0) return "empty body";
  if (head_.num_rows() == 0) return "empty head";
  return "";
}

Dependency Dependency::RenameVariables(const std::string& suffix) const {
  Builder b(schema_ptr());
  for (int attr = 0; attr < schema().arity(); ++attr) {
    for (int v = 0; v < body_.NumVars(attr); ++v) {
      b.Var(attr, std::string(body_.VarName(attr, v)) + suffix);
    }
  }
  for (const Row& r : body_.rows()) b.AddBodyRow(r);
  for (const Row& r : head_.rows()) b.AddHeadRow(r);
  Result<Dependency> result = std::move(b).Build();
  // Renaming a valid dependency cannot fail.
  return std::move(result).value();
}

void DependencySet::Add(Dependency d, std::string name) {
  items.push_back(std::move(d));
  names.push_back(std::move(name));
}

std::string DependencySet::ToString() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i < names.size() && !names[i].empty()) oss << names[i] << ": ";
    oss << items[i].ToString() << "\n";
  }
  return oss.str();
}

}  // namespace tdlib
