// SIMD kernels for the match hot path, behind runtime CPU dispatch.
//
// The chase's inner loops are memory-bound scans over flat int32 slabs
// (logic/tuple_store.h's arenas, logic/instance.h's CSR posting lists) —
// exactly the shape vector units pay for. This header exposes the two
// kernel families those loops need:
//
//   * EqMaskI32 / EqMaskGatherI32 — evaluate one bound body-row position
//     over a whole candidate block at once, producing a survivor bitmask
//     (up to 64 candidates per call). The strided form walks a row-major
//     column over consecutive tuple ids (stride 1 is a plain contiguous
//     load); the gather form covers posting-list candidate blocks, whose
//     ids are dense in the list but scattered in the arena.
//   * HashRowI32 — the TupleStore dedup hash, as a pure function of the
//     row components that is lane-parallel (positions hash independently
//     and combine associatively).
//
// Bit-identity contract: every kernel computes a pure function of its
// inputs, and the SSE2/AVX2 paths are bit-for-bit identical to the scalar
// fallbacks — same masks, same hashes. Dispatch is therefore invisible to
// everything above: hom_nodes, hom_candidates, fired steps, instances and
// traces do not depend on the CPU the process landed on. tests/simd_test.cc enforces the kernel-level identity across
// every level the host supports; the chase parity suites enforce it end to
// end.
//
// Dispatch: the level is detected once per process (AVX2 when the CPU has
// it, else SSE2 on x86-64, else scalar) and can be capped — never raised —
// by the TDLIB_FORCE_SCALAR=1 environment variable or, for tests, by
// SetSimdLevelForTesting. Kernels branch on the cached level internally;
// callers never see function pointers. The AVX2 bodies are compiled with
// per-function target attributes, so the library itself builds without
// -mavx2 and still uses AVX2 where the CPU offers it.
#ifndef TDLIB_UTIL_SIMD_H_
#define TDLIB_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace tdlib {

/// Instruction-set tier a kernel call may use. Levels are totally ordered;
/// dispatch picks the highest level the host CPU (and any forced cap)
/// allows.
enum class SimdLevel {
  kScalar = 0,  ///< portable C++ (always available; the reference semantics)
  kSSE2 = 1,    ///< 128-bit compares/masks (x86-64 baseline)
  kAVX2 = 2,    ///< 256-bit compares, hardware gathers, 32-bit lane multiply
};

/// The level kernels currently dispatch to: min(detected hardware, forced
/// cap). Detection runs once on first use; TDLIB_FORCE_SCALAR=1 in the
/// environment caps it at kScalar for the whole process (the CI leg that
/// exercises the scalar fallbacks on AVX2 machines).
SimdLevel ActiveSimdLevel();

/// The hardware ceiling, ignoring any forced cap.
SimdLevel DetectedSimdLevel();

/// Caps dispatch at `level` for testing (clamped to the hardware ceiling —
/// requesting AVX2 on an SSE2-only host yields SSE2). Pass DetectedSimdLevel()
/// to restore. Not thread-safe against concurrent kernel calls; tests only.
void SetSimdLevelForTesting(SimdLevel level);

/// Short name ("scalar", "sse2", "avx2") for logs and bench labels.
const char* SimdLevelName(SimdLevel level);

// ---- Block equality masks ---------------------------------------------------

/// Compares up to 64 strided components against `value`: bit i of the
/// result is set iff base[i * stride] == value, for i in [0, n); bits >= n
/// are zero. n must be <= 64. stride 1 is the contiguous fast path (one or
/// two cache lines per block); larger strides walk a row-major column.
std::uint64_t EqMaskI32(const std::int32_t* base, std::ptrdiff_t stride,
                        std::size_t n, std::int32_t value);

/// Gathered form: bit i set iff base[ids[i] * stride] == value. `ids` is a
/// dense block of tuple ids (a slice of a posting list); the components they
/// select are scattered in the arena, which is what the AVX2 hardware
/// gather covers.
std::uint64_t EqMaskGatherI32(const std::int32_t* base, std::ptrdiff_t stride,
                              const std::int32_t* ids, std::size_t n,
                              std::int32_t value);

// ---- Row hashing ------------------------------------------------------------

/// The TupleStore dedup hash of one row of `arity` consecutive components.
/// Position-mixed additive combine: each component is avalanche-mixed with
/// its index and the mixes are summed, which is what lets the SIMD path hash
/// eight positions per vector and still match the scalar fold bit for bit.
std::uint64_t HashRowI32(const std::int32_t* row, int arity);

}  // namespace tdlib

#endif  // TDLIB_UTIL_SIMD_H_
