// TupleStore: a flat, deduplicating arena of fixed-arity int32 tuples.
//
// The chase spends its life reading tuples: every homomorphism-search node
// dereferences one, every dedup probe hashes one. Storing each tuple as its
// own std::vector puts a heap allocation and a pointer chase on that path.
// TupleStore instead lays all components out in one row-major int32_t slab
// — tuple id i occupies arena[i*arity .. (i+1)*arity) — and hands out
// TupleRef views (pointer + arity) into it.
//
// The dedup structure is an open-addressing table of tuple *ids* (slab
// offsets), not owning copies: a probe hashes the slab components in place,
// so insertion does exactly one table walk.
//
// Invalidation contract: a TupleRef is a borrowed view; any Insert may grow
// the slab and invalidate outstanding refs. Ids are stable forever (tuples
// are never removed), so persist ids, not refs, across mutations.
//
// Concurrent-read contract: const members (operator[], Find, size,
// CheckInvariants) perform pure reads — Find probes the slot table in place
// and never touches the mutable `scratch_` staging row (only Insert does).
// Concurrent const calls from many threads are safe while no thread calls
// Insert/Reserve; writers must be externally fenced from readers. This is
// the foundation of the chase's read-only parallel match phase.
#ifndef TDLIB_LOGIC_TUPLE_STORE_H_
#define TDLIB_LOGIC_TUPLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tdlib {

// Domain values are plain `int` throughout tdlib; the arena stores them as
// int32_t so spans over caller-provided rows need no conversion.
static_assert(sizeof(int) == sizeof(std::int32_t),
              "tdlib assumes 32-bit int (TupleRef aliases int rows)");

/// A borrowed, span-like view of one stored tuple: `arity` consecutive
/// int32 components (so it can alias any caller-owned row as well). Cheap to
/// copy; never owns memory.
class TupleRef {
 public:
  TupleRef() : data_(nullptr), arity_(0) {}
  TupleRef(const std::int32_t* data, int arity) : data_(data), arity_(arity) {}

  int operator[](int attr) const { return data_[attr]; }
  int arity() const { return arity_; }
  int size() const { return arity_; }
  const std::int32_t* data() const { return data_; }

  friend bool operator==(TupleRef a, TupleRef b) {
    if (a.arity_ != b.arity_) return false;
    for (int i = 0; i < a.arity_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator!=(TupleRef a, TupleRef b) { return !(a == b); }

 private:
  const std::int32_t* data_;
  int arity_;
};

/// The arena. All tuples share one contiguous slab; a private
/// open-addressing hash table over tuple ids provides O(1) dedup without a
/// second copy of any tuple. Value semantics (copy/move) are the defaults —
/// the table stores ids, never pointers into the slab.
class TupleStore {
 public:
  explicit TupleStore(int arity);

  int arity() const { return arity_; }
  std::size_t size() const { return num_tuples_; }

  /// View of tuple `id` (0 <= id < size()). Invalidated by Insert.
  TupleRef operator[](std::size_t id) const {
    return TupleRef(arena_.data() + id * arity_, arity_);
  }

  /// Inserts the row at `row` (arity() contiguous components). Returns
  /// {id, true} for a new tuple, {existing id, false} for a duplicate.
  /// Exactly one hash-table walk either way. `row` may alias this store's
  /// own slab.
  std::pair<int, bool> Insert(const std::int32_t* row);

  /// Id of the stored tuple equal to `row` (contiguous), or -1.
  int Find(const std::int32_t* row) const;

  /// Pre-sizes the slab and hash table for `tuples` insertions.
  void Reserve(std::size_t tuples);

  /// "" when consistent, else a description of the first violation
  /// (slab/table size drift, table entry out of range, missed dedup).
  std::string CheckInvariants() const;

  /// Writes the store as portable whitespace-separated text
  /// ("tdstore1 arity count" + the raw components in id order). Ids are the
  /// persistence contract: tuples are written — and re-inserted — in id
  /// order, so a restored store assigns every tuple its original id and the
  /// dedup table converges to the same slot assignment. This is what lets a
  /// chase checkpoint (which persists ids, not refs) resume against a
  /// restored instance byte for byte.
  void Serialize(std::ostream& os) const;

  /// Round-trips Serialize. The stream is untrusted: arity and count are
  /// bounds-checked before any allocation, and malformed input — bad magic,
  /// truncation, a duplicate row (a serialized store is dedup-consistent by
  /// construction) — yields ErrorCode::kCorrupt with a field-level message.
  static Result<TupleStore> Deserialize(std::istream& is);

 private:
  std::size_t HashRow(const std::int32_t* row) const;
  bool RowEquals(std::size_t id, const std::int32_t* row) const;
  void Grow();
  void Rehash(std::size_t target);

  int arity_;
  std::size_t num_tuples_ = 0;
  std::vector<std::int32_t> arena_;    // the component slab, row-major
  std::vector<std::int32_t> slots_;    // open addressing; id + 1, 0 = empty
  std::size_t slot_mask_ = 0;          // slots_.size() - 1 (power of two)
  std::vector<std::int32_t> scratch_;  // staging row (self-insert safety)
};

}  // namespace tdlib

#endif  // TDLIB_LOGIC_TUPLE_STORE_H_
