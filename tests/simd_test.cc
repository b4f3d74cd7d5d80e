// Tests for util/simd.h: the dispatch level clamps and restores, the row
// hash is bit-identical at every dispatch level (arities below, at and
// past the 8-lane width, so the vector tail is covered), and a chase is
// byte-identical whichever level hashes its tuples. The ASan/UBSan CI leg
// runs this binary too, against a vector tail reading past a row.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/parser.h"
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
                         const ChaseConfig& config) {
  Instance instance = seed;
  ChaseResult result = RunChase(&instance, deps, config);
  ChaseFingerprint fp;
  fp.status = result.status;
  fp.steps = result.steps;
  fp.passes = result.passes;
  fp.hom_nodes = result.hom_nodes;
  fp.hom_candidates = result.hom_candidates;
  fp.match_tasks = result.match_tasks;
  fp.instance = instance.ToString();
  EXPECT_EQ(instance.CheckInvariants(), "");
  return fp;
}

TEST(ChaseSimdParity, ForcedScalarDispatchIsAlsoByteIdentical) {
  // The chase with the row hash capped at scalar — what the
  // TDLIB_FORCE_SCALAR=1 CI leg runs process-wide — against the detected
  // level. Every insert probes the dedup table, so a vector hash that gave
  // equal rows different values (a tail read past the row, say) would let
  // duplicates in and change the instance.
  // Arity 9, so each row hash takes the 8-lane AVX2 body plus a scalar
  // tail. A cross product of two rows: every fire inserts a new row.
  const int arity = 9;
  std::vector<std::string> names;
  for (int a = 0; a < arity; ++a) names.push_back("X" + std::to_string(a));
  SchemaPtr schema = MakeSchema(names);
  DependencySet deps;
  deps.Add(std::move(ParseDependency(
                         schema,
                         "R(a,b,c2,c3,c4,c5,c6,c7,c8) & "
                         "R(a2,b2,d2,d3,d4,d5,d6,d7,d8) => "
                         "R(a,b2,c2,c3,c4,c5,c6,c7,d8)"))
               .value());
  Instance seed(schema);
  for (int attr = 0; attr < arity; ++attr) {
    for (int v = 0; v < 5; ++v) seed.AddValue(attr);
  }
  for (int i = 0; i < 5; ++i) {
    Tuple t(arity);
    for (int attr = 0; attr < arity; ++attr) t[attr] = (i * (attr + 1)) % 5;
    seed.AddTuple(t);
  }
  ChaseConfig config;
  config.max_steps = 60;
  config.max_tuples = 800;

  ChaseFingerprint baseline = RunOnce(seed, deps, config);
  EXPECT_GT(baseline.steps, 0u);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel active(level);
    ChaseFingerprint got = RunOnce(seed, deps, config);
    EXPECT_TRUE(got == baseline) << "level=" << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace tdlib
