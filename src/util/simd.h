// The TupleStore dedup hash, behind runtime CPU dispatch.
//
// HashRowI32 is a pure function of a row's components that is
// lane-parallel (positions hash independently and combine associatively),
// so an AVX2 body can hash eight positions per vector.
//
// Bit-identity contract: the AVX2 path is bit-for-bit identical to the
// scalar fallback. Dispatch is therefore invisible to everything above:
// tuple ids, hom_nodes, hom_candidates, fired steps, instances and traces
// do not depend on the CPU the process landed on. tests/simd_test.cc
// enforces the identity across every level the host supports.
//
// Dispatch: the level is detected once per process (AVX2 when the CPU has
// it, else scalar) and can be capped — never raised — by the
// TDLIB_FORCE_SCALAR=1 environment variable or, for tests, by
// SetSimdLevelForTesting. The kernel branches on the cached level
// internally; callers never see function pointers. The AVX2 body is
// compiled with a per-function target attribute, so the library itself
// builds without -mavx2 and still uses AVX2 where the CPU offers it.
#ifndef TDLIB_UTIL_SIMD_H_
#define TDLIB_UTIL_SIMD_H_

#include <cstdint>

namespace tdlib {

/// Instruction-set tier a hash call may use. Levels are totally ordered;
/// dispatch picks the highest level the host CPU (and any forced cap)
/// allows.
enum class SimdLevel {
  kScalar = 0,  ///< portable C++ (always available; the reference semantics)
  kAVX2 = 1,    ///< 256-bit lanes with 32-bit multiply
};

/// The level the hash currently dispatches to: min(detected hardware, forced
/// cap). Detection runs once on first use; TDLIB_FORCE_SCALAR=1 in the
/// environment caps it at kScalar for the whole process (the CI leg that
/// exercises the scalar fallback on AVX2 machines).
SimdLevel ActiveSimdLevel();

/// The hardware ceiling, ignoring any forced cap.
SimdLevel DetectedSimdLevel();

/// Caps dispatch at `level` for testing (clamped to the hardware ceiling —
/// requesting AVX2 on a host without it yields scalar). Pass
/// DetectedSimdLevel() to restore. Not thread-safe against concurrent hash
/// calls; tests only.
void SetSimdLevelForTesting(SimdLevel level);

/// Short name ("scalar", "avx2") for logs and bench labels.
const char* SimdLevelName(SimdLevel level);

// ---- Row hashing ------------------------------------------------------------

/// The TupleStore dedup hash of one row of `arity` consecutive components.
/// Position-mixed additive combine: each component is avalanche-mixed with
/// its index and the mixes are summed, which is what lets the SIMD path hash
/// eight positions per vector and still match the scalar fold bit for bit.
std::uint64_t HashRowI32(const std::int32_t* row, int arity);

}  // namespace tdlib

#endif  // TDLIB_UTIL_SIMD_H_
