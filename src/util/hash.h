// Hash-combining utilities shared by all tdlib containers.
#ifndef TDLIB_UTIL_HASH_H_
#define TDLIB_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tdlib {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline void HashCombine(std::size_t* seed, std::size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Hashes a range of hashable elements into a single value.
template <typename It>
std::size_t HashRange(It first, It last) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) {
    HashCombine(&seed, std::hash<typename std::iterator_traits<It>::value_type>{}(*first));
  }
  return seed;
}

/// std::hash specialization helper for pairs of hashable types.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t seed = std::hash<A>{}(p.first);
    HashCombine(&seed, std::hash<B>{}(p.second));
    return seed;
  }
};

/// std::hash for vectors of hashable types.
struct VectorHash {
  template <typename T>
  std::size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

/// SplitMix64 finalizer: a full-avalanche bijection on 64 bits, used to
/// decorrelate the two lanes of HashBytes128 below.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A 128-bit content hash (two finalized 64-bit lanes). Not cryptographic:
/// it addresses content in trusted stores (the result cache's canonical-form
/// fingerprints), where 128 bits make accidental collisions negligible but
/// no adversary is feeding inputs.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

/// Incremental form of HashBytes128: two FNV-1a-style lanes walked over the
/// same bytes with different seeds and mixing orders, cross-finalized with
/// SplitMix64 so each output word depends on both lanes and the length.
/// The lanes carry across Update calls, so Update over any split of a buffer
/// followed by Finish equals HashBytes128 over the whole buffer — callers can
/// stream content through without ever materializing it.
class Hasher128 {
 public:
  void Update(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    for (std::size_t i = 0; i < len; ++i) {
      a = (a ^ p[i]) * kPrime;
      b = (b + p[i] + 1) * kPrime;
    }
    a_ = a;
    b_ = b;
    len_ += len;
  }

  Hash128 Finish() const {
    Hash128 h;
    h.hi = SplitMix64(a_ ^ (len_ * kPrime));
    h.lo = SplitMix64(b_ ^ (a_ << 32 | a_ >> 32));
    return h;
  }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a prime
  std::uint64_t a_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t b_ = 0x9ae16a3b2f90404fULL;  // independent second seed
  std::uint64_t len_ = 0;
};

/// Hashes a byte range into 128 bits (one Hasher128 pass).
inline Hash128 HashBytes128(const void* data, std::size_t len) {
  Hasher128 hasher;
  hasher.Update(data, len);
  return hasher.Finish();
}

}  // namespace tdlib

#endif  // TDLIB_UTIL_HASH_H_
