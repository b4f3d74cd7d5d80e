#include "logic/schema.h"

#include <unordered_set>

namespace tdlib {

Schema::Schema(std::vector<std::string> attribute_names)
    : names_(std::move(attribute_names)) {}

int Schema::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Schema::Validate() const {
  if (names_.empty()) return "schema has no attributes";
  std::unordered_set<std::string_view> seen;
  for (const auto& n : names_) {
    if (n.empty()) return "schema has an empty attribute name";
    if (!seen.insert(n).second) return "duplicate attribute name: " + n;
  }
  return "";
}

Schema Schema::Numbered(int arity, std::string_view prefix) {
  std::vector<std::string> names;
  names.reserve(arity);
  for (int i = 0; i < arity; ++i) {
    names.push_back(std::string(prefix) + std::to_string(i));
  }
  return Schema(std::move(names));
}

SchemaPtr MakeSchema(std::vector<std::string> attribute_names) {
  return std::make_shared<const Schema>(std::move(attribute_names));
}

}  // namespace tdlib
