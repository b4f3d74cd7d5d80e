// Kernel-level tests for util/simd.h: bit-identity of every dispatch level
// against the scalar reference at block boundaries, unaligned tails, empty
// and all-survivor masks — plus end-to-end chase parity with use_simd
// on/off across thread counts and dispatch levels. The classic bug class
// here is a vector tail reading past the end of a block; the boundary sweeps
// below (and the ASan/UBSan CI leg over this binary) are aimed at exactly
// that.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/parser.h"
#include "engine/thread_pool.h"
#include "logic/instance.h"
#include "logic/schema.h"
#include "util/rng.h"

namespace tdlib {
namespace {

// Every level this host can actually run (dispatch clamps to hardware, so
// asking for more than DetectedSimdLevel() would silently retest the same
// tier).
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSSE2) levels.push_back(SimdLevel::kSSE2);
  if (DetectedSimdLevel() >= SimdLevel::kAVX2) levels.push_back(SimdLevel::kAVX2);
  return levels;
}

// Restores the process-wide dispatch level on scope exit, so a failing
// test cannot leave the rest of the binary capped at scalar.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetSimdLevelForTesting(level); }
  ~ScopedSimdLevel() { SetSimdLevelForTesting(DetectedSimdLevel()); }
};

// The boundary sweep: one below / at / above every vector width in play
// (4 for SSE2, 8 for AVX2) plus the 64-wide block cap.
const std::size_t kBoundarySizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                      15, 16, 17, 31, 32, 33, 63, 64};

TEST(SimdDispatch, LevelClampsToHardwareAndRestores) {
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    // Requesting more than the hardware has yields the hardware ceiling,
    // never a level whose instructions would fault.
    SetSimdLevelForTesting(SimdLevel::kAVX2);
    EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
  }
  EXPECT_EQ(ActiveSimdLevel(), DetectedSimdLevel());
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAVX2), "avx2");
}

TEST(EqMask, MatchesScalarAtEveryLevelStrideAndBoundary) {
  Rng rng(0xE9);
  for (std::ptrdiff_t stride : {1, 2, 3, 7}) {
    // One slab serving every (n, stride) pair, values drawn from a tiny
    // domain so hits and misses both occur in every block.
    std::vector<std::int32_t> slab(64 * static_cast<std::size_t>(stride) + 8);
    for (std::int32_t& x : slab) x = static_cast<std::int32_t>(rng.Below(5));
    for (std::size_t n : kBoundarySizes) {
      for (std::int32_t value = -1; value <= 5; ++value) {
        std::uint64_t expected;
        {
          ScopedSimdLevel scalar(SimdLevel::kScalar);
          expected = EqMaskI32(slab.data(), stride, n, value);
        }
        // Bits at and above n must be zero, whatever follows in memory.
        if (n < 64) EXPECT_EQ(expected >> n, 0u) << n;
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel active(level);
          EXPECT_EQ(EqMaskI32(slab.data(), stride, n, value), expected)
              << "level=" << SimdLevelName(level) << " stride=" << stride
              << " n=" << n << " value=" << value;
        }
      }
    }
  }
}

TEST(EqMask, AllSurvivorAndEmptyMasks) {
  std::vector<std::int32_t> same(64, 7);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel active(level);
    EXPECT_EQ(EqMaskI32(same.data(), 1, 64, 7), ~std::uint64_t{0})
        << SimdLevelName(level);
    EXPECT_EQ(EqMaskI32(same.data(), 1, 64, 8), 0u) << SimdLevelName(level);
    EXPECT_EQ(EqMaskI32(same.data(), 1, 0, 7), 0u) << SimdLevelName(level);
    EXPECT_EQ(EqMaskI32(same.data(), 1, 3, 7), 0x7u) << SimdLevelName(level);
  }
}

TEST(EqMaskGather, MatchesScalarOnScatteredAscendingIds) {
  Rng rng(0x6A);
  for (std::ptrdiff_t stride : {1, 2, 5}) {
    std::vector<std::int32_t> arena(512 * static_cast<std::size_t>(stride));
    for (std::int32_t& x : arena) x = static_cast<std::int32_t>(rng.Below(6));
    for (std::size_t n : kBoundarySizes) {
      // Ascending unique ids with gaps — the shape posting lists actually
      // have.
      std::vector<std::int32_t> ids;
      std::int32_t next = static_cast<std::int32_t>(rng.Below(3));
      while (ids.size() < n) {
        ids.push_back(next);
        next += 1 + static_cast<std::int32_t>(rng.Below(7));
      }
      for (std::int32_t value = 0; value < 6; ++value) {
        std::uint64_t expected;
        {
          ScopedSimdLevel scalar(SimdLevel::kScalar);
          expected = EqMaskGatherI32(arena.data(), stride, ids.data(), n,
                                     value);
        }
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel active(level);
          EXPECT_EQ(EqMaskGatherI32(arena.data(), stride, ids.data(), n,
                                    value),
                    expected)
              << "level=" << SimdLevelName(level) << " stride=" << stride
              << " n=" << n << " value=" << value;
        }
      }
    }
  }
}

TEST(HashRows, BitIdenticalAcrossLevels) {
  Rng r(0x4A5);
  for (int arity : {1, 2, 3, 7, 8, 9, 12, 16, 23}) {
    const std::size_t rows = 37;
    std::vector<std::int32_t> slab(rows * static_cast<std::size_t>(arity));
    for (std::int32_t& x : slab) {
      x = static_cast<std::int32_t>(r.Below(1u << 30));
    }
    std::vector<std::uint64_t> expected(rows);
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      for (std::size_t i = 0; i < rows; ++i) {
        expected[i] = HashRowI32(
            slab.data() + i * static_cast<std::size_t>(arity), arity);
      }
    }
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel active(level);
      for (std::size_t i = 0; i < rows; ++i) {
        const std::int32_t* row =
            slab.data() + i * static_cast<std::size_t>(arity);
        EXPECT_EQ(HashRowI32(row, arity), expected[i])
            << SimdLevelName(level) << " arity=" << arity << " row=" << i;
      }
    }
  }
}

// ---- End-to-end chase parity ------------------------------------------------

struct ChaseFingerprint {
  std::string instance;
  ChaseStatus status;
  std::uint64_t steps, passes, hom_nodes, hom_candidates, match_tasks;

  bool operator==(const ChaseFingerprint& o) const {
    return instance == o.instance && status == o.status && steps == o.steps &&
           passes == o.passes && hom_nodes == o.hom_nodes &&
           hom_candidates == o.hom_candidates && match_tasks == o.match_tasks;
  }
};

ChaseFingerprint RunOnce(const Instance& seed, const DependencySet& deps,
                         ChaseConfig config, bool simd, int threads) {
  Instance instance = seed;
  config.use_simd = simd;
  ChaseFingerprint fp;
  if (threads > 1) {
    ThreadPool pool(threads);
    config.pool = &pool;
    ChaseResult result = RunChase(&instance, deps, config);
    fp.status = result.status;
    fp.steps = result.steps;
    fp.passes = result.passes;
    fp.hom_nodes = result.hom_nodes;
    fp.hom_candidates = result.hom_candidates;
    fp.match_tasks = result.match_tasks;
  } else {
    config.pool = nullptr;
    ChaseResult result = RunChase(&instance, deps, config);
    fp.status = result.status;
    fp.steps = result.steps;
    fp.passes = result.passes;
    fp.hom_nodes = result.hom_nodes;
    fp.hom_candidates = result.hom_candidates;
    fp.match_tasks = result.match_tasks;
  }
  fp.instance = instance.ToString();
  EXPECT_EQ(instance.CheckInvariants(), "");
  return fp;
}

TEST(ChaseSimdParity, ByteIdenticalAcrossSimdAndThreads) {
  // A wide existential program (nulls invented, multi-position joins) plus
  // a cross-product closure: the two shapes that stress the block filter.
  // use_simd must be invisible in every byte, hom_candidates included.
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a2,b2) => R(a,b2)"))
               .value());
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a,b2) => R(a3,b)"))
               .value());
  Rng rng(2026);
  Instance seed(schema);
  const int domain = 7;
  for (int attr = 0; attr < 2; ++attr) {
    for (int v = 0; v < domain; ++v) seed.AddValue(attr);
  }
  for (int i = 0; i < 25; ++i) {
    seed.AddTuple({static_cast<int>(rng.Below(domain)),
                   static_cast<int>(rng.Below(domain))});
  }

  ChaseConfig config;
  config.max_steps = 120;
  config.max_tuples = 2500;

  ChaseFingerprint baseline =
      RunOnce(seed, deps, config, /*simd=*/false, /*threads=*/1);
  EXPECT_GT(baseline.steps, 0u);
  for (bool simd : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      ChaseFingerprint got = RunOnce(seed, deps, config, simd, threads);
      EXPECT_TRUE(got == baseline)
          << "simd=" << simd << " threads=" << threads
          << "\n steps " << got.steps << " vs " << baseline.steps
          << "\n nodes " << got.hom_nodes << " vs " << baseline.hom_nodes
          << "\n cands " << got.hom_candidates << " vs "
          << baseline.hom_candidates;
    }
  }
}

TEST(ChaseSimdParity, ForcedScalarDispatchIsAlsoByteIdentical) {
  // use_simd on with kernel dispatch capped at scalar — the block-filter
  // code path with the fallback kernels, which is what the
  // TDLIB_FORCE_SCALAR=1 CI leg runs process-wide.
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a2,b) => R(a,b2)"))
               .value());
  Instance seed(schema);
  for (int v = 0; v < 5; ++v) {
    seed.AddValue(0);
    seed.AddValue(1);
  }
  for (int i = 0; i < 5; ++i) seed.AddTuple({i, (i * 2) % 5});
  ChaseConfig config;
  config.max_steps = 60;
  config.max_tuples = 800;

  ChaseFingerprint baseline =
      RunOnce(seed, deps, config, /*simd=*/true, /*threads=*/1);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel active(level);
    ChaseFingerprint got =
        RunOnce(seed, deps, config, /*simd=*/true, /*threads=*/1);
    EXPECT_TRUE(got == baseline) << "level=" << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace tdlib
