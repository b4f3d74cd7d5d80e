#include "logic/tuple_store.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/simd.h"

namespace tdlib {
namespace {

constexpr std::size_t kInitialSlots = 16;  // power of two

constexpr char kStoreMagic[] = "tdstore1";

}  // namespace

TupleStore::TupleStore(int arity)
    : arity_(arity), slots_(kInitialSlots, 0), slot_mask_(kInitialSlots - 1) {}

std::size_t TupleStore::HashRow(const std::int32_t* row) const {
  return static_cast<std::size_t>(HashRowI32(row, arity_));
}

bool TupleStore::RowEquals(std::size_t id, const std::int32_t* row) const {
  const std::int32_t* stored = arena_.data() + id * arity_;
  for (int i = 0; i < arity_; ++i) {
    if (stored[i] != row[i]) return false;
  }
  return true;
}

void TupleStore::Grow() { Rehash(slots_.size() * 2); }

void TupleStore::Rehash(std::size_t target) {
  slots_.assign(target, 0);
  slot_mask_ = target - 1;
  for (std::size_t id = 0; id < num_tuples_; ++id) {
    std::size_t slot = HashRow(arena_.data() + id * arity_) & slot_mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & slot_mask_;
    slots_[slot] = static_cast<std::int32_t>(id + 1);
  }
}

std::pair<int, bool> TupleStore::Insert(const std::int32_t* row) {
  // Stage the row first: `row` may point into our own slab, which the
  // append below can reallocate.
  scratch_.assign(row, row + arity_);
  std::size_t slot = HashRow(scratch_.data()) & slot_mask_;
  while (slots_[slot] != 0) {
    std::size_t id = static_cast<std::size_t>(slots_[slot] - 1);
    if (RowEquals(id, scratch_.data())) return {static_cast<int>(id), false};
    slot = (slot + 1) & slot_mask_;
  }

  int id = static_cast<int>(num_tuples_);
  arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
  ++num_tuples_;
  slots_[slot] = id + 1;
  // Keep the load factor under ~0.75 so probe chains stay short.
  if (num_tuples_ * 4 >= slots_.size() * 3) Grow();
  return {id, true};
}

int TupleStore::Find(const std::int32_t* row) const {
  std::size_t slot = HashRow(row) & slot_mask_;
  while (slots_[slot] != 0) {
    std::size_t id = static_cast<std::size_t>(slots_[slot] - 1);
    if (RowEquals(id, row)) return static_cast<int>(id);
    slot = (slot + 1) & slot_mask_;
  }
  return -1;
}

void TupleStore::Reserve(std::size_t tuples) {
  arena_.reserve(tuples * static_cast<std::size_t>(arity_));
  std::size_t want = kInitialSlots;
  // Size the table so `tuples` entries stay under the 0.75 load factor.
  while (want * 3 < tuples * 4) want *= 2;
  if (want > slots_.size()) Rehash(want);
}

void TupleStore::Serialize(std::ostream& os) const {
  os << kStoreMagic << ' ' << arity_ << ' ' << num_tuples_ << '\n';
  for (std::size_t id = 0; id < num_tuples_; ++id) {
    const std::int32_t* row = arena_.data() + id * arity_;
    for (int i = 0; i < arity_; ++i) {
      os << row[i] << (i + 1 == arity_ ? '\n' : ' ');
    }
  }
}

Result<TupleStore> TupleStore::Deserialize(std::istream& is) {
  using R = Result<TupleStore>;
  auto corrupt = [](const char* what) {
    return R::Error(ErrorCode::kCorrupt, std::string("tuple store: ") + what);
  };
  std::string magic;
  int arity;
  std::size_t count;
  if (!(is >> magic >> arity >> count)) return corrupt("truncated header");
  if (magic != kStoreMagic) return corrupt("bad magic");
  if (arity < 0 || arity > (1 << 20)) {
    // Untrusted arity: reject before row allocation.
    return corrupt("arity out of range");
  }
  TupleStore store(arity);
  // The count is untrusted input: pre-size only up to a sane bound (the
  // table grows on demand past it), so a corrupt header cannot OOM here —
  // a lying count just fails at end of input below.
  store.Reserve(std::min<std::size_t>(count, 1u << 20));
  std::vector<std::int32_t> row(static_cast<std::size_t>(arity));
  for (std::size_t id = 0; id < count; ++id) {
    for (std::int32_t& x : row) {
      if (!(is >> x)) return corrupt("truncated tuple block");
    }
    auto [got_id, inserted] = store.Insert(row.data());
    // Re-insertion in id order must reproduce the original ids exactly.
    if (!inserted || got_id != static_cast<int>(id)) {
      return corrupt("duplicate row breaks id assignment");
    }
  }
  return store;
}

std::string TupleStore::CheckInvariants() const {
  if (arena_.size() != num_tuples_ * static_cast<std::size_t>(arity_)) {
    return "arena size is not tuples * arity";
  }
  if ((slots_.size() & slot_mask_) != 0 || slot_mask_ + 1 != slots_.size()) {
    return "slot table size is not a power of two";
  }
  std::size_t occupied = 0;
  for (std::int32_t entry : slots_) {
    if (entry == 0) continue;
    ++occupied;
    std::size_t id = static_cast<std::size_t>(entry - 1);
    if (id >= num_tuples_) return "slot refers to a missing tuple";
  }
  if (occupied != num_tuples_) return "slot count differs from tuple count";
  for (std::size_t id = 0; id < num_tuples_; ++id) {
    int found = Find(arena_.data() + id * arity_);
    if (found != static_cast<int>(id)) {
      return found < 0 ? "stored tuple not findable" : "duplicate tuple";
    }
  }
  return "";
}

}  // namespace tdlib
