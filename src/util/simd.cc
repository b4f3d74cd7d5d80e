#include "util/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define TDLIB_SIMD_X86 1
#include <immintrin.h>
#else
#define TDLIB_SIMD_X86 0
#endif

namespace tdlib {
namespace {

// ---- Dispatch ---------------------------------------------------------------

SimdLevel DetectHardware() {
#if TDLIB_SIMD_X86 && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel InitialLevel() {
  const char* force = std::getenv("TDLIB_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return SimdLevel::kScalar;
  return DetectHardware();
}

// Relaxed atomic: read on every hash call (one load, always the same
// value after startup), written only by SetSimdLevelForTesting.
std::atomic<SimdLevel>& ActiveLevelStorage() {
  static std::atomic<SimdLevel> level{InitialLevel()};
  return level;
}

// ---- Hash -------------------------------------------------------------------
//
// The scalar fold defines the semantics; the AVX2 path below must match it
// bit for bit (tests/simd_test.cc compares across all supported levels).
//
// Position-mixed additive hash: mix(component, position) avalanches each
// component together with its index, and the mixes are SUMMED — addition
// mod 2^32 is associative and commutative, so eight positions can be mixed
// in lanes and folded in any order while matching the scalar left-to-right
// fold bit for bit. A sequential boost-style combine chain could not be
// vectorized without changing its value.

inline std::uint32_t MixComponent(std::uint32_t x, std::uint32_t position) {
  x ^= (position + 1) * 0x9E3779B9u;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

inline std::uint64_t FinalizeHash(std::uint32_t acc, int arity) {
  std::uint64_t h =
      acc + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(arity) + 1);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t HashRowScalar(const std::int32_t* row, int arity) {
  std::uint32_t acc = 0;
  for (int i = 0; i < arity; ++i) {
    acc += MixComponent(static_cast<std::uint32_t>(row[i]),
                        static_cast<std::uint32_t>(i));
  }
  return FinalizeHash(acc, arity);
}

// ---- AVX2 kernel ------------------------------------------------------------
//
// Compiled with a per-function target attribute so the TU (and the whole
// library) builds without -mavx2; dispatch guarantees it only runs on
// hardware that has the instructions.

#if TDLIB_SIMD_X86 && defined(__GNUC__)
#define TDLIB_TARGET_AVX2 __attribute__((target("avx2")))

TDLIB_TARGET_AVX2
std::uint64_t HashRowAvx2(const std::int32_t* row, int arity) {
  // Lanes hold positions i..i+7; the mix runs per lane and the lane sums
  // fold into the scalar accumulator — addition mod 2^32 commutes, so the
  // result equals the scalar left-to-right fold exactly.
  const __m256i golden = _mm256_set1_epi32(static_cast<int>(0x9E3779B9u));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(0x85EBCA6Bu));
  const __m256i m2 = _mm256_set1_epi32(static_cast<int>(0xC2B2AE35u));
  __m256i pos1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 8);  // position + 1
  const __m256i step = _mm256_set1_epi32(8);
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 8 <= arity; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    x = _mm256_xor_si256(x, _mm256_mullo_epi32(pos1, golden));
    x = _mm256_mullo_epi32(x, m1);
    x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 13));
    x = _mm256_mullo_epi32(x, m2);
    x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
    acc = _mm256_add_epi32(acc, x);
    pos1 = _mm256_add_epi32(pos1, step);
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint32_t sum = 0;
  for (std::uint32_t lane : lanes) sum += lane;
  for (; i < arity; ++i) {
    sum += MixComponent(static_cast<std::uint32_t>(row[i]),
                        static_cast<std::uint32_t>(i));
  }
  return FinalizeHash(sum, arity);
}

#undef TDLIB_TARGET_AVX2
#endif  // AVX2

}  // namespace

SimdLevel ActiveSimdLevel() {
  return ActiveLevelStorage().load(std::memory_order_relaxed);
}

SimdLevel DetectedSimdLevel() { return DetectHardware(); }

void SetSimdLevelForTesting(SimdLevel level) {
  if (level > DetectHardware()) level = DetectHardware();
  ActiveLevelStorage().store(level, std::memory_order_relaxed);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAVX2: return "avx2";
  }
  return "?";
}

std::uint64_t HashRowI32(const std::int32_t* row, int arity) {
#if TDLIB_SIMD_X86 && defined(__GNUC__)
  if (ActiveSimdLevel() == SimdLevel::kAVX2 && arity >= 8) {
    return HashRowAvx2(row, arity);
  }
#endif
  return HashRowScalar(row, arity);
}

}  // namespace tdlib
