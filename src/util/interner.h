// String interning: bidirectional mapping between names and dense ids.
#ifndef TDLIB_UTIL_INTERNER_H_
#define TDLIB_UTIL_INTERNER_H_

#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace tdlib {

/// Maps strings to dense ids (0, 1, 2, ...) and back.
///
/// tdlib uses interners for attribute names, semigroup symbols and variable
/// names so that all hot-path comparisons are integer comparisons.
///
/// Thread-safety: all members may be called concurrently. The name -> id
/// map is sharded by string hash with one mutex per shard, so concurrent
/// Intern/Lookup calls on different names proceed in parallel instead of
/// serializing on one global mutex. The id -> name
/// side stays global (ids must be dense across shards) behind its own
/// mutex, but its critical sections are a deque push_back or an index read;
/// the string hashing and map probing — the actual work — happen under the
/// shard lock only. Names are stored in a deque so the reference returned
/// by NameOf stays valid while other threads intern.
///
/// Lock order: shard mutex, then names mutex; nothing ever takes them the
/// other way around, so the pair cannot deadlock.
///
/// Determinism note: ids are assigned in Intern arrival order. Single-
/// threaded construction (parsing, generators — all current callers) gets
/// the same dense ids as before; concurrent interning of NEW names gets
/// scheduling-dependent ids, so keep construction single-threaded where id
/// stability matters (hot paths only intern existing names, which is
/// id-stable and shard-parallel).
class Interner {
 public:
  /// Returns the id of `name`, interning it if new.
  int Intern(std::string_view name);

  /// Returns the id of `name`, or -1 if it has never been interned.
  int Lookup(std::string_view name) const;

  /// Returns the name for `id`. Precondition: 0 <= id < size(). The
  /// reference stays valid for the interner's lifetime.
  const std::string& NameOf(int id) const;

  /// Returns true if `name` has been interned.
  bool Contains(std::string_view name) const { return Lookup(name) >= 0; }

  std::size_t size() const;

 private:
  // 16 shards: enough to make same-shard collisions rare at the pool widths
  // the engine runs (hardware threads), small enough that the array of
  // mutexes stays cache-resident.
  static constexpr std::size_t kNumShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, int> ids;
  };

  Shard& ShardFor(std::string_view name) const;

  mutable Shard shards_[kNumShards];
  mutable std::mutex names_mu_;
  std::deque<std::string> names_;  ///< deque: stable references under growth
};

}  // namespace tdlib

#endif  // TDLIB_UTIL_INTERNER_H_
