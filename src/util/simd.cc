#include "util/simd.h"

#include <atomic>
#include <cassert>
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
#if TDLIB_SIMD_X86 && defined(__SSE2__)
  return SimdLevel::kSSE2;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel InitialLevel() {
  const char* force = std::getenv("TDLIB_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1') return SimdLevel::kScalar;
  return DetectHardware();
}

// Relaxed atomic: read on every kernel call (one load, always the same
// value after startup), written only by SetSimdLevelForTesting.
std::atomic<SimdLevel>& ActiveLevelStorage() {
  static std::atomic<SimdLevel> level{InitialLevel()};
  return level;
}

// ---- Scalar reference kernels ----------------------------------------------
//
// These define the semantics; every vector path below must match them bit
// for bit (tests/simd_test.cc compares across all supported levels).

std::uint64_t EqMaskScalar(const std::int32_t* base, std::ptrdiff_t stride,
                           std::size_t n, std::int32_t value) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(base[static_cast<std::ptrdiff_t>(i) *
                                            stride] == value)
            << i;
  }
  return mask;
}

std::uint64_t EqMaskGatherScalar(const std::int32_t* base,
                                 std::ptrdiff_t stride,
                                 const std::int32_t* ids, std::size_t n,
                                 std::int32_t value) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(
                base[static_cast<std::ptrdiff_t>(ids[i]) * stride] == value)
            << i;
  }
  return mask;
}

// ---- Hash -------------------------------------------------------------------
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

// ---- SSE2 kernels -----------------------------------------------------------

#if TDLIB_SIMD_X86 && defined(__SSE2__)

std::uint64_t EqMaskSse2(const std::int32_t* base, std::size_t n,
                         std::int32_t value) {
  std::uint64_t mask = 0;
  const __m128i needle = _mm_set1_epi32(value);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + i));
    const int bits =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(block, needle)));
    mask |= static_cast<std::uint64_t>(bits) << i;
  }
  if (i < n) mask |= EqMaskScalar(base + i, 1, n - i, value) << i;
  return mask;
}

#endif  // SSE2

// ---- AVX2 kernels -----------------------------------------------------------
//
// Compiled with per-function target attributes so the TU (and the whole
// library) builds without -mavx2; dispatch guarantees these only run on
// hardware that has the instructions.

#if TDLIB_SIMD_X86 && defined(__GNUC__)
#define TDLIB_TARGET_AVX2 __attribute__((target("avx2")))

TDLIB_TARGET_AVX2
std::uint64_t EqMaskAvx2(const std::int32_t* base, std::size_t n,
                         std::int32_t value) {
  std::uint64_t mask = 0;
  const __m256i needle = _mm256_set1_epi32(value);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i));
    const int bits = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(block, needle)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(bits)) << i;
  }
  if (i < n) mask |= EqMaskScalar(base + i, 1, n - i, value) << i;
  return mask;
}

TDLIB_TARGET_AVX2
std::uint64_t EqMaskStridedAvx2(const std::int32_t* base,
                                std::ptrdiff_t stride, std::size_t n,
                                std::int32_t value) {
  std::uint64_t mask = 0;
  const __m256i needle = _mm256_set1_epi32(value);
  const __m256i vstride = _mm256_set1_epi32(static_cast<int>(stride));
  __m256i idx = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), vstride);
  const __m256i step = _mm256_set1_epi32(static_cast<int>(8 * stride));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i block = _mm256_i32gather_epi32(base, idx, 4);
    const int bits = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(block, needle)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(bits)) << i;
    idx = _mm256_add_epi32(idx, step);
  }
  if (i < n) {
    mask |= EqMaskScalar(base + static_cast<std::ptrdiff_t>(i) * stride,
                         stride, n - i, value)
            << i;
  }
  return mask;
}

TDLIB_TARGET_AVX2
std::uint64_t EqMaskGatherAvx2(const std::int32_t* base, std::ptrdiff_t stride,
                               const std::int32_t* ids, std::size_t n,
                               std::int32_t value) {
  std::uint64_t mask = 0;
  const __m256i needle = _mm256_set1_epi32(value);
  const __m256i vstride = _mm256_set1_epi32(static_cast<int>(stride));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    if (stride != 1) idx = _mm256_mullo_epi32(idx, vstride);
    const __m256i block = _mm256_i32gather_epi32(base, idx, 4);
    const int bits = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(block, needle)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(bits)) << i;
  }
  if (i < n) mask |= EqMaskGatherScalar(base, stride, ids + i, n - i, value)
                     << i;
  return mask;
}

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

// Gather indices are 32-bit lanes: an id * stride product past INT32_MAX
// would wrap and load the wrong component. All call sites keep arenas well
// under 2^31 int32s (ids are int), but the kernels guard anyway and fall
// back to scalar on the (never-seen) overflow.
bool GatherIndexFits(std::int64_t max_index, std::ptrdiff_t stride) {
  return max_index * stride <= INT32_MAX;
}

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
    case SimdLevel::kSSE2: return "sse2";
    case SimdLevel::kAVX2: return "avx2";
  }
  return "?";
}

std::uint64_t EqMaskI32(const std::int32_t* base, std::ptrdiff_t stride,
                        std::size_t n, std::int32_t value) {
  assert(n <= 64 && "EqMaskI32 blocks are at most 64 wide");
  const SimdLevel level = ActiveSimdLevel();
#if TDLIB_SIMD_X86 && defined(__GNUC__)
  if (level == SimdLevel::kAVX2) {
    if (stride == 1) return EqMaskAvx2(base, n, value);
    if (GatherIndexFits(static_cast<std::int64_t>(n), stride)) {
      return EqMaskStridedAvx2(base, stride, n, value);
    }
  }
#endif
#if TDLIB_SIMD_X86 && defined(__SSE2__)
  if (level >= SimdLevel::kSSE2 && stride == 1) {
    return EqMaskSse2(base, n, value);
  }
#endif
  (void)level;
  return EqMaskScalar(base, stride, n, value);
}

std::uint64_t EqMaskGatherI32(const std::int32_t* base, std::ptrdiff_t stride,
                              const std::int32_t* ids, std::size_t n,
                              std::int32_t value) {
  assert(n <= 64 && "EqMaskGatherI32 blocks are at most 64 wide");
  const SimdLevel level = ActiveSimdLevel();
#if TDLIB_SIMD_X86 && defined(__GNUC__)
  if (level == SimdLevel::kAVX2 && n > 0 &&
      GatherIndexFits(ids[n - 1], stride)) {  // ids ascend at every call site
    return EqMaskGatherAvx2(base, stride, ids, n, value);
  }
#endif
  (void)level;
  return EqMaskGatherScalar(base, stride, ids, n, value);
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
