// Finite relation instances (the paper's "databases").
//
// An Instance is a finite set of tuples over a Schema. Domain values are
// dense integers *per attribute* — the typing restriction ("the domains of
// the various attributes are disjoint") is therefore structural: a value id
// is meaningless without its attribute. Values may optionally carry names
// (for examples and debugging) and a labeled-null flag (for chase-invented
// values, which matters when reading a chase result as a universal model).
//
// Storage: tuples live in a flat row-major TupleStore slab
// (logic/tuple_store.h); `tuple(id)` hands out TupleRef views into it.
// Dedup is keyed on slab offsets (tuple ids), never on owning vectors, so
// the hot chase/matching paths touch contiguous buffers.
// TupleRefs are invalidated by AddTuple; ids are stable (never removed).
//
// Inverted index: the (attribute, value) -> tuple ids map the homomorphism
// search probes on every node is a flat CSR layout — one `ids` slab per
// attribute plus a per-value offset table — covering all tuples with
// id < csr_count_, plus small per-value tail vectors for ids inserted since
// the last rebuild. TuplesWith hands out a CandidateList of (at most) two
// borrowed spans; base ids are all smaller than tail ids and each run is
// ascending, so the concatenation is one sorted posting list. The CSR slab
// is rebuilt when the tails reach the size of the base (geometric cadence:
// O(log n) rebuilds, amortized O(arity) per insert), which only ever happens
// inside a mutation — never under a concurrent reader.
//
// Concurrent-read contract: Instance has no internal synchronization, but
// every const member (tuple, TuplesWith, NumTuples, FindTuple, Contains,
// DomainSize, ValueName, IsLabeledNull, ...) is a pure read — no lazy
// caches, no mutable members, no shared scratch (TupleStore::Find probes
// the hash table in place; TuplesWith only reads the CSR slab and tails).
// Any number of threads may therefore call const members concurrently AS
// LONG AS no thread mutates the instance (AddTuple, AddValue, InternValue,
// Reserve, CompactIndex). Mutations must be fenced from reads by the
// caller; the chase mutates (fires, rebuilds the index) only between body
// searches, never during one.
#ifndef TDLIB_LOGIC_INSTANCE_H_
#define TDLIB_LOGIC_INSTANCE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "logic/schema.h"
#include "logic/tuple_store.h"

namespace tdlib {

/// A tuple is one domain-value id per attribute, in schema order. Owning
/// form, used when building rows; stored tuples are read back as TupleRefs.
using Tuple = std::vector<int>;

/// A borrowed ascending run of tuple ids (a slice of a posting list).
class IdSpan {
 public:
  IdSpan() : data_(nullptr), size_(0) {}
  IdSpan(const int* data, std::size_t size) : data_(data), size_(size) {}

  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](std::size_t i) const { return data_[i]; }

  /// Drops the prefix of ids < min_id (one binary search; ids ascending).
  IdSpan SuffixFrom(int min_id) const {
    const int* p = std::lower_bound(data_, data_ + size_, min_id);
    return IdSpan(p, static_cast<std::size_t>(data_ + size_ - p));
  }

 private:
  const int* data_;
  std::size_t size_;
};

/// One (attribute, value) posting list: `base` is a slice of the CSR ids
/// slab, `tail` the appends since the last rebuild. Each run is ascending
/// and every base id is smaller than every tail id, so base ⧺ tail is one
/// sorted list. Borrowed views — invalidated by any Instance mutation.
class CandidateList {
 public:
  CandidateList() = default;
  CandidateList(IdSpan base, IdSpan tail) : base_(base), tail_(tail) {}

  IdSpan base() const { return base_; }
  IdSpan tail() const { return tail_; }
  std::size_t size() const { return base_.size() + tail_.size(); }
  bool empty() const { return base_.empty() && tail_.empty(); }
  int operator[](std::size_t i) const {
    return i < base_.size() ? base_[i] : tail_[i - base_.size()];
  }

  /// Materializes the concatenated list (tests / cold paths only).
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(size());
    out.insert(out.end(), base_.begin(), base_.end());
    out.insert(out.end(), tail_.begin(), tail_.end());
    return out;
  }

 private:
  IdSpan base_;
  IdSpan tail_;
};

/// A finite set of tuples over a fixed schema, with per-attribute domains.
///
/// Tuples are deduplicated on insertion. The CSR inverted index (attribute,
/// value) -> tuple ids is maintained incrementally; homomorphism search
/// relies on it. Posting lists are ascending (ids are appended in insertion
/// order), which the delta-driven chase exploits.
class Instance {
 public:
  explicit Instance(SchemaPtr schema);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  // ---- Domains -------------------------------------------------------------

  /// Adds a fresh domain value for `attr`, optionally named, and returns its
  /// id. Ids are dense per attribute.
  int AddValue(int attr, std::string name = "", bool labeled_null = false);

  /// Adds (or finds) the value named `name` in `attr`'s domain.
  int InternValue(int attr, const std::string& name);

  /// Number of values in `attr`'s domain.
  int DomainSize(int attr) const {
    return static_cast<int>(value_names_[attr].size());
  }

  /// Name of value `v` in attribute `attr` (auto-generated if none given).
  const std::string& ValueName(int attr, int v) const {
    return value_names_[attr][v];
  }

  /// True iff value `v` of `attr` was created as a labeled null.
  bool IsLabeledNull(int attr, int v) const { return is_null_[attr][v]; }

  /// Total number of labeled nulls across all attributes.
  int NullCount() const;

  // ---- Tuples --------------------------------------------------------------

  /// Inserts `t` (one value id per attribute; each must be a valid domain
  /// id). Returns true if the tuple was new. One dedup lookup per call.
  bool AddTuple(const Tuple& t) {
    assert(static_cast<int>(t.size()) == schema_->arity());
    return FinishInsert(store_.Insert(t.data()));
  }

  /// Brace-init convenience: AddTuple({0, 1}).
  bool AddTuple(std::initializer_list<int> t) {
    assert(static_cast<int>(t.size()) == schema_->arity());
    return FinishInsert(store_.Insert(t.begin()));
  }

  /// Inserts a tuple viewed through a TupleRef (possibly into another
  /// instance's arena, or this one's; self-insertion is safe).
  bool AddTuple(TupleRef t) {
    assert(t.arity() == schema_->arity());
    return FinishInsert(store_.Insert(t.data()));
  }

  /// Returns true iff `t` is present.
  bool Contains(const Tuple& t) const { return store_.Find(t.data()) >= 0; }

  /// Returns the id of tuple `t`, or -1 if absent.
  int FindTuple(const Tuple& t) const { return store_.Find(t.data()); }

  std::size_t NumTuples() const { return store_.size(); }

  /// Borrowed view of tuple `i`; invalidated by AddTuple/AddValue growth of
  /// the arena. Persist ids across mutations, not refs.
  TupleRef tuple(int i) const { return store_[static_cast<std::size_t>(i)]; }

  /// Posting-list length for (attr, value) without materializing the view —
  /// the most-constrained-first heuristic reads sizes for every (row, attr)
  /// pair on every search node, so this stays two loads and an add.
  std::size_t CountWith(int attr, int value) const {
    const std::vector<std::int32_t>& offsets = csr_offsets_[attr];
    std::size_t n = tail_[attr][value].size();
    if (static_cast<std::size_t>(value) + 1 < offsets.size()) {
      n += static_cast<std::size_t>(offsets[value + 1] - offsets[value]);
    }
    return n;
  }

  /// Tuple ids whose `attr` component equals `value`, as a two-run sorted
  /// view (CSR base + recent tail). Borrowed; invalidated by any mutation.
  CandidateList TuplesWith(int attr, int value) const {
    IdSpan base;
    const std::vector<std::int32_t>& offsets = csr_offsets_[attr];
    if (static_cast<std::size_t>(value) + 1 < offsets.size()) {
      base = IdSpan(csr_ids_[attr].data() + offsets[value],
                    static_cast<std::size_t>(offsets[value + 1] -
                                             offsets[value]));
    }
    const std::vector<int>& tail = tail_[attr][value];
    return CandidateList(base, IdSpan(tail.data(), tail.size()));
  }

  /// Merges the index tails into the CSR slab so every posting list becomes
  /// one contiguous base run. O(domain + tuples·arity); a mutation (must be
  /// fenced from concurrent readers like any other). Called automatically on
  /// a geometric cadence from AddTuple; exposed for callers that want a
  /// fully flat index before a long read-only phase.
  void CompactIndex();

  /// Pre-sizes the tuple arena, dedup table, CSR ids slabs and per-attribute
  /// domain vectors; cuts rehash/realloc churn when the final shape is known
  /// (chase seeds, budget-bounded runs, generators, Freeze).
  void Reserve(std::size_t tuples, std::size_t values_per_attr);

  // ---- Persistence ---------------------------------------------------------

  /// Writes domains (names length-prefixed, so any byte except the
  /// terminator survives), null flags and the tuple arena as portable text.
  /// The schema itself is NOT written — the caller owns it and passes it
  /// back to Deserialize (a chase checkpoint's consumer already holds the
  /// dependency set, and with it the schema).
  ///
  /// Restoration invariant: value ids, tuple ids, names, null flags and the
  /// inverted index are all reproduced exactly, so a restored instance is
  /// indistinguishable from the original to every reader — including a
  /// resumed chase, whose checkpoints persist ids into this id space.
  void Serialize(std::ostream& os) const;

  /// Round-trips Serialize against `schema` (which must have the serialized
  /// arity). The stream is
  /// untrusted: every domain size, null flag, name length and tuple value
  /// is bounds-checked, and malformed input yields ErrorCode::kCorrupt with
  /// a field-level message — never UB or an unchecked allocation.
  static Result<Instance> Deserialize(SchemaPtr schema, std::istream& is);

  // ---- Debugging -----------------------------------------------------------

  /// Renders the instance as an aligned table of value names.
  std::string ToString() const;

  /// Internal-consistency check; returns an empty string or a description of
  /// the first violation (bad ids, index mismatch, duplicate tuples).
  std::string CheckInvariants() const;

 private:
  bool FinishInsert(std::pair<int, bool> inserted);

  SchemaPtr schema_;
  std::vector<std::vector<std::string>> value_names_;  // [attr][value]
  std::vector<std::vector<bool>> is_null_;             // [attr][value]
  TupleStore store_;                                   // flat tuple arena

  // CSR inverted index over tuples with id < csr_count_: csr_ids_[attr] is
  // one slab of csr_count_ tuple ids grouped by value (ascending within a
  // group); csr_offsets_[attr][v .. v+1] brackets value v's group. Tuples
  // with id >= csr_count_ live in tail_[attr][value] until the next rebuild.
  std::vector<std::vector<int>> csr_ids_;               // [attr] -> ids slab
  std::vector<std::vector<std::int32_t>> csr_offsets_;  // [attr] -> offsets
  std::vector<std::vector<std::vector<int>>> tail_;     // [attr][value] -> ids
  std::size_t csr_count_ = 0;
};

}  // namespace tdlib

#endif  // TDLIB_LOGIC_INSTANCE_H_
