// Tableaux: finite sets of atoms R(x, y, ...) over typed variables.
//
// A tableau is the syntactic object underlying both the antecedents and the
// conclusions of template dependencies: a list of rows, each row holding one
// *typed variable* per attribute. Variables are identified by (attribute,
// index); because the index space is per-attribute, "no variable can appear
// in two different columns" (the paper's typing restriction) holds by
// construction.
#ifndef TDLIB_LOGIC_TABLEAU_H_
#define TDLIB_LOGIC_TABLEAU_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "logic/instance.h"
#include "logic/schema.h"

namespace tdlib {

/// A row assigns one variable id per attribute (schema order).
using Row = std::vector<int>;

/// A set of rows over a shared, per-attribute variable space.
///
/// The variable space may be larger than what the rows mention (a dependency
/// keeps body and head rows in one numbering; head-only variables are the
/// existentially quantified ones).
///
/// Variable names live in one character arena; a flat slot table, grouped
/// by attribute, points into it. Copying or freeing a tableau therefore
/// costs a fixed number of allocations plus one per row, however many
/// variables it has.
class Tableau {
 public:
  explicit Tableau(SchemaPtr schema);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  /// Allocates a fresh variable for `attr`; returns its id (dense per attr).
  /// An empty name picks the default: lowercase attribute name + id. O(1)
  /// amortized when no later attribute has variables yet; otherwise the
  /// slots of the later attributes shift by one.
  int NewVariable(int attr, std::string_view name = {});

  /// Ensures at least `count` variables exist for `attr`.
  void EnsureVariables(int attr, int count);

  /// Appends a row. Every entry must be an existing variable id of its
  /// attribute; rows are NOT deduplicated (callers may rely on row indices).
  void AddRow(Row row);

  /// Capacity hint: room for `rows` rows and `vars` variables in total.
  void Reserve(int rows, int vars);

  int num_rows() const { return static_cast<int>(rows_.size()); }
  const Row& row(int i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Number of variables allocated for `attr`.
  int NumVars(int attr) const {
    return attr_begin_[attr + 1] - attr_begin_[attr];
  }

  /// Total number of variables across attributes.
  int TotalVars() const { return static_cast<int>(names_.size()); }

  /// Flat slot of variable (attr, v) in [0, TotalVars()): attributes in
  /// schema order, ids in order within each. Invalidated by NewVariable on
  /// an earlier attribute.
  int VarIndex(int attr, int v) const { return attr_begin_[attr] + v; }

  /// Display name of variable (attr, v); the view is invalidated by any
  /// later NewVariable or SetVarName.
  std::string_view VarName(int attr, int v) const {
    const NameRef& ref = names_[VarIndex(attr, v)];
    return std::string_view(arena_).substr(ref.begin, ref.size);
  }

  /// Renames variable (attr, v); name must be unique per attribute for
  /// parse/print round-trips, which `CheckInvariants` verifies. The old
  /// name's bytes stay in the arena until the tableau is destroyed.
  void SetVarName(int attr, int v, std::string_view name);

  /// The frozen instance: each variable becomes a distinct constant, each
  /// row a tuple. Homomorphism tests into frozen tableaux implement tableau
  /// containment; the chase starts from a frozen antecedent.
  Instance Freeze() const;

  /// Renders rows as R(x, y, z) lines.
  std::string ToString() const;

  /// Returns "" or a description of the first structural violation.
  std::string CheckInvariants() const;

 private:
  struct NameRef {
    std::uint32_t begin;  // offset into arena_
    std::uint32_t size;
  };

  NameRef AppendName(std::string_view name);

  SchemaPtr schema_;
  std::vector<Row> rows_;
  std::string arena_;            // every variable name, back to back
  std::vector<NameRef> names_;   // [VarIndex(attr, var)]
  std::vector<int> attr_begin_;  // arity + 1 slot offsets into names_
};

}  // namespace tdlib

#endif  // TDLIB_LOGIC_TABLEAU_H_
