// Tests for the canonical-form result cache: fingerprint invariance and
// sensitivity (src/cache/canonical.h), the sharded LRU (result_cache.h),
// the persistent store (store.h), and the SolverService integration —
// byte-identical hits, in-flight dedup, last-waiter cancellation, and the
// exactly-once outcome accounting of cache-served completions.
#include "cache/canonical.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "cache/result_cache.h"
#include "cache/store.h"
#include "engine/batch_solver.h"
#include "engine/service.h"
#include "engine/workload.h"
#include "fuzz/fuzz.h"
#include "logic/schema.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tdlib {
namespace {

// A small deterministic solver config with no wall-clock deadlines
// (cacheable by construction).
DualSolverConfig SmallConfig() {
  DualSolverConfig config;
  config.rounds = 1;
  config.base_chase.max_steps = 500;
  config.base_chase.max_tuples = 100000;
  config.base_counterexample.max_tuples = 2;
  config.base_counterexample.max_candidates = 50000;
  return config;
}

// Builds R(x,s) & R(y,t) => R(x,t) over `schema` with the variables
// registered in the given order; `swap` registers them reversed and maps
// the row ids accordingly, producing a variable-renamed isomorph.
Dependency MakeDep(const SchemaPtr& schema, bool swap) {
  Dependency::Builder b(schema);
  int x, y, s, t;
  if (!swap) {
    x = b.Var(0, "x"); y = b.Var(0, "y");
    s = b.Var(1, "s"); t = b.Var(1, "t");
  } else {
    y = b.Var(0, "v0"); x = b.Var(0, "v1");
    t = b.Var(1, "w0"); s = b.Var(1, "w1");
  }
  b.AddBodyRow({x, s});
  b.AddBodyRow({y, t});
  b.AddHeadRow({x, t});
  return std::move(b).Build().value();
}

// One-premise problem around MakeDep; the goal is the same shape.
void MakeProblem(const SchemaPtr& schema, bool swap, DependencySet* d,
                 Dependency* d0) {
  d->Add(MakeDep(schema, swap), "premise");
  *d0 = MakeDep(schema, swap);
}

// The pumping job from service_test.cc: "A A0 = A0" makes the chase feed
// itself forever under unbounded budgets — only cancellation stops it.
// With a step budget it terminates deterministically instead.
Job MakePumpingJob(const std::string& name, std::uint64_t max_steps) {
  Presentation p;
  p.AddSymbol("A");
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  EXPECT_TRUE(red.ok());
  DualSolverConfig config;
  config.rounds = 1;
  config.base_chase.max_steps = max_steps;  // 0 = pump forever
  config.base_chase.max_tuples = 0;
  config.base_counterexample.max_tuples = 0;
  return Job{name, red.value().dependencies(), red.value().goal(), config, 0};
}

// Strips the leading "name|" of a DeterministicSummary so isomorphic jobs
// with different names can be compared field-for-field.
std::string SummarySansName(const JobResult& result) {
  const std::string summary = result.DeterministicSummary();
  return summary.substr(summary.find('|'));
}

// An EID with a two-row head over a three-attribute schema; z and w are
// existential, so both head rows introduce fresh canonical ids.
Dependency MakeEid(const SchemaPtr& schema) {
  Dependency::Builder b(schema);
  const int x = b.Var(0, "x"), y = b.Var(0, "y"), z = b.Var(0, "z");
  const int s = b.Var(1, "s"), t = b.Var(1, "t");
  const int u = b.Var(2, "u"), w = b.Var(2, "w");
  b.AddBodyRow({x, s, u});
  b.AddBodyRow({y, t, u});
  b.AddHeadRow({x, t, w});
  b.AddHeadRow({z, s, w});
  return std::move(b).Build().value();
}

// Premises {MakeEid, a three-attribute TD}; the goal is MakeEid again.
void MakeEidProblem(DependencySet* d, Dependency* d0) {
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  d->Add(MakeEid(schema), "eid");
  Dependency::Builder b(schema);
  const int x = b.Var(0, "x"), y = b.Var(0, "y");
  const int s = b.Var(1, "s"), t = b.Var(1, "t");
  const int u = b.Var(2, "u"), w = b.Var(2, "w");
  b.AddBodyRow({x, s, u});
  b.AddBodyRow({y, t, w});
  b.AddHeadRow({x, t, u});
  d->Add(std::move(b).Build().value(), "td");
  *d0 = MakeEid(schema);
}

// Every uint64 budget set to `budget` and the flags flipped off their
// defaults, so the cfg line holds the widest and the narrowest numbers.
DualSolverConfig ExtremeConfig(std::uint64_t budget) {
  DualSolverConfig config;
  config.rounds = 2;
  config.resume_chase = false;
  ChaseConfig& chase = config.base_chase;
  chase.max_steps = budget;
  chase.max_tuples = budget;
  chase.hom_max_nodes = budget;
  chase.max_fires_per_pass = budget;
  chase.match_slice_ids = budget;
  chase.record_trace = true;
  chase.use_delta = false;
  config.base_counterexample.max_candidates = budget;
  return config;
}

// Gurevich–Lewis reduction instances over a family of word problems from
// src/semigroup/: each presentation is normalized, then reduced.
std::vector<Job> WordProblemFamily() {
  const std::vector<std::vector<std::string>> family = {
      {"A A0 = A0"},
      {"A B = B A", "A A = A"},
      {"A B = A0", "B A = B"},
      {"A B C = A0", "C C = C", "A A = B"},
  };
  std::vector<Job> jobs;
  for (const std::vector<std::string>& equations : family) {
    Presentation p;
    for (const char* symbol : {"A", "B", "C"}) p.AddSymbol(symbol);
    for (const std::string& e : equations) {
      EXPECT_TRUE(p.AddEquationFromText(e)) << e;
    }
    p.AddAbsorptionEquations();
    NormalizationResult norm = NormalizeTo21(p);
    Result<GurevichLewisReduction> red =
        GurevichLewisReduction::Create(norm.normalized);
    EXPECT_TRUE(red.ok());
    if (!red.ok()) continue;
    jobs.push_back(Job{equations.front(), red.value().dependencies(),
                       red.value().goal(), SmallConfig(), 0});
  }
  return jobs;
}

// The streaming contract: hashing the canonical bytes as they are encoded
// yields exactly the hash of the rendered text.
void ExpectStreamedFingerprintMatchesText(const DependencySet& d,
                                          const Dependency& d0,
                                          const DualSolverConfig& config,
                                          const std::string& label) {
  const std::string text = CanonicalProblemText(d, d0, config);
  const Hash128 h = HashBytes128(text.data(), text.size());
  const CacheFingerprint fp = FingerprintProblem(d, d0, config);
  ASSERT_TRUE(fp.valid) << label;
  EXPECT_EQ(fp.hi, h.hi) << label;
  EXPECT_EQ(fp.lo, h.lo) << label;
}

// ---- Canonicalizer ---------------------------------------------------------

TEST(Canonical, FingerprintInvariantUnderVariableRenaming) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d1, d2;
  Dependency g1 = MakeDep(schema, false), g2 = MakeDep(schema, true);
  MakeProblem(schema, false, &d1, &g1);
  MakeProblem(schema, true, &d2, &g2);

  const DualSolverConfig config = SmallConfig();
  EXPECT_EQ(CanonicalProblemText(d1, g1, config),
            CanonicalProblemText(d2, g2, config));
  EXPECT_EQ(FingerprintProblem(d1, g1, config),
            FingerprintProblem(d2, g2, config));
  EXPECT_TRUE(FingerprintProblem(d1, g1, config).valid);
}

TEST(Canonical, FingerprintInvariantUnderAttributeRenaming) {
  DependencySet d1, d2;
  Dependency g1 = MakeDep(MakeSchema({"A", "B"}), false);
  Dependency g2 = MakeDep(MakeSchema({"X", "Y"}), false);
  MakeProblem(MakeSchema({"A", "B"}), false, &d1, &g1);
  MakeProblem(MakeSchema({"X", "Y"}), false, &d2, &g2);
  EXPECT_EQ(FingerprintProblem(d1, g1, SmallConfig()),
            FingerprintProblem(d2, g2, SmallConfig()));
}

TEST(Canonical, FingerprintIgnoresDependencyAndJobNames) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d1, d2;
  d1.Add(MakeDep(schema, false), "alpha");
  d2.Add(MakeDep(schema, false), "completely-different-name");
  Dependency goal = MakeDep(schema, false);
  EXPECT_EQ(FingerprintProblem(d1, goal, SmallConfig()),
            FingerprintProblem(d2, goal, SmallConfig()));
}

TEST(Canonical, FingerprintSensitiveToStructureAndBudgets) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d;
  Dependency goal = MakeDep(schema, false);
  MakeProblem(schema, false, &d, &goal);

  // Structure: a second premise changes the problem.
  DependencySet bigger = d;
  bigger.Add(MakeDep(schema, false), "again");
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(bigger, goal, SmallConfig()));

  // Budgets steer the deterministic counters, so they are part of the key.
  DualSolverConfig more_rounds = SmallConfig();
  more_rounds.rounds = 3;
  DualSolverConfig more_steps = SmallConfig();
  more_steps.base_chase.max_steps = 501;
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(d, goal, more_rounds));
  EXPECT_NE(FingerprintProblem(d, goal, SmallConfig()),
            FingerprintProblem(d, goal, more_steps));
}

TEST(Canonical, WallClockDeadlinesAreNotCacheable) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet d;
  Dependency goal = MakeDep(schema, false);
  MakeProblem(schema, false, &d, &goal);
  DualSolverConfig with_deadline = SmallConfig();
  with_deadline.base_chase.deadline_seconds = 1.0;
  EXPECT_FALSE(CacheableConfig(with_deadline));
  EXPECT_FALSE(FingerprintProblem(d, goal, with_deadline).valid);
  EXPECT_TRUE(CacheableConfig(SmallConfig()));
}

TEST(Canonical, FuzzGeneratorCasesHaveDistinctFingerprints) {
  FuzzOptions options;
  options.cases_per_round = 6;
  std::set<std::string> seen;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (const Job& job : GenerateFuzzCases(options, round)) {
      CacheFingerprint fp =
          FingerprintProblem(job.dependencies, job.goal, job.config);
      ASSERT_TRUE(fp.valid);
      EXPECT_TRUE(seen.insert(fp.ToHex()).second)
          << "fingerprint collision on " << job.name;
    }
  }
}

TEST(Canonical, StreamedFingerprintEqualsHashOfTheText) {
  const std::uint64_t kExtremes[] = {0,
                                     std::numeric_limits<std::uint64_t>::max()};
  FuzzOptions fuzz;
  fuzz.cases_per_round = 6;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (const Job& job : GenerateFuzzCases(fuzz, round)) {
      ExpectStreamedFingerprintMatchesText(job.dependencies, job.goal,
                                           job.config, "fuzz " + job.name);
    }
  }

  WorkloadOptions sweep;
  sweep.size = 6;  // implied/refuted/gap at pads 0 and 1
  std::vector<Job> jobs = ReductionSweepWorkload(sweep);
  for (Job& job : WordProblemFamily()) jobs.push_back(std::move(job));
  for (const Job& job : jobs) {
    ExpectStreamedFingerprintMatchesText(job.dependencies, job.goal,
                                         job.config, job.name);
    for (std::uint64_t budget : kExtremes) {
      ExpectStreamedFingerprintMatchesText(
          job.dependencies, job.goal, ExtremeConfig(budget),
          job.name + " budget " + std::to_string(budget));
    }
  }

  DependencySet d;
  Dependency goal = MakeEid(MakeSchema({"A", "B", "C"}));
  MakeEidProblem(&d, &goal);
  ExpectStreamedFingerprintMatchesText(d, goal, SmallConfig(), "eid");
  for (std::uint64_t budget : kExtremes) {
    ExpectStreamedFingerprintMatchesText(
        d, goal, ExtremeConfig(budget), "eid budget " + std::to_string(budget));
  }
}

// Fingerprints are persisted (warm-start files) and place jobs on the
// router's ring, so the encoding must never drift without a version bump.
// These values were recorded before the streaming encoder replaced the
// text-building one.
TEST(Canonical, GoldenFingerprintsAreStable) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet tiny;
  Dependency tiny_goal = MakeDep(schema, false);
  MakeProblem(schema, false, &tiny, &tiny_goal);
  EXPECT_EQ(FingerprintProblem(tiny, tiny_goal, SmallConfig()).ToHex(),
            "cbc9df628bf278cf1c74078b68a1abee");

  Job pump = MakePumpingJob("golden", 400);
  EXPECT_EQ(FingerprintProblem(pump.dependencies, pump.goal, pump.config)
                .ToHex(),
            "5de7595de2c1987eb17910e42aeadddc");

  DependencySet eid;
  Dependency eid_goal = MakeEid(MakeSchema({"A", "B", "C"}));
  MakeEidProblem(&eid, &eid_goal);
  const DualSolverConfig extreme =
      ExtremeConfig(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(FingerprintProblem(eid, eid_goal, extreme).ToHex(),
            "ae2ffea94547ca1d4c409dc1f57fca3d");
}

// ---- LRU -------------------------------------------------------------------

CacheFingerprint Fp(std::uint64_t n) {
  CacheFingerprint fp;
  fp.hi = n;
  fp.lo = ~n;
  fp.valid = true;
  return fp;
}

CachedVerdict Verdict(int rounds) {
  CachedVerdict v;
  v.verdict = DualVerdict::kImplied;
  v.rounds_used = rounds;
  return v;
}

TEST(ResultCacheLru, EvictsOldestWhenOverTheByteBudget) {
  CacheOptions options;
  options.shards = 1;  // deterministic recency order
  options.max_bytes = 3 * ResultCache::kEntryCost;
  ResultCache cache(options);

  cache.Insert(Fp(1), Verdict(1));
  cache.Insert(Fp(2), Verdict(2));
  cache.Insert(Fp(3), Verdict(3));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.bytes, 3 * ResultCache::kEntryCost);
  EXPECT_EQ(stats.evictions, 0);

  // A lookup refreshes recency: 1 becomes MRU, so inserting 4 evicts 2.
  CachedVerdict out;
  ASSERT_TRUE(cache.Lookup(Fp(1), &out));
  EXPECT_EQ(out.rounds_used, 1);
  cache.Insert(Fp(4), Verdict(4));

  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_TRUE(cache.Lookup(Fp(1), &out));
  EXPECT_FALSE(cache.Lookup(Fp(2), &out));
  EXPECT_TRUE(cache.Lookup(Fp(3), &out));
  EXPECT_TRUE(cache.Lookup(Fp(4), &out));
}

TEST(ResultCacheLru, ReinsertRefreshesInsteadOfDuplicating) {
  CacheOptions options;
  options.shards = 1;
  options.max_bytes = 8 * ResultCache::kEntryCost;
  ResultCache cache(options);
  cache.Insert(Fp(1), Verdict(1));
  cache.Insert(Fp(1), Verdict(1));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, ResultCache::kEntryCost);
}

TEST(ResultCacheLru, InvalidFingerprintsAreNeverStored) {
  ResultCache cache;
  CacheFingerprint invalid;  // valid == false
  cache.Insert(invalid, Verdict(1));
  CachedVerdict out;
  EXPECT_FALSE(cache.Lookup(invalid, &out));
  EXPECT_EQ(cache.Stats().entries, 0);
}

// ---- Persistent store ------------------------------------------------------

TEST(ResultCacheStore, SaveLoadRoundTripsEveryEntry) {
  CacheOptions options;
  options.shards = 1;
  ResultCache cache(options);
  CachedVerdict v = Verdict(2);
  v.verdict = DualVerdict::kRefutedFinite;
  v.chase_steps = 123;
  v.chase_passes = 7;
  v.hom_nodes = 4567;
  v.match_tasks = 89;
  v.carried_passes = 1;
  v.candidates_checked = 42;
  cache.Insert(Fp(10), v);
  cache.Insert(Fp(11), Verdict(1));

  std::stringstream stream;
  SaveResultCache(stream, cache);

  ResultCache reloaded(options);
  Result<int> loaded = LoadResultCache(stream, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 2);

  CachedVerdict out;
  ASSERT_TRUE(reloaded.Lookup(Fp(10), &out));
  EXPECT_EQ(out.verdict, DualVerdict::kRefutedFinite);
  EXPECT_EQ(out.rounds_used, 2);
  EXPECT_EQ(out.chase_steps, 123u);
  EXPECT_EQ(out.chase_passes, 7u);
  EXPECT_EQ(out.hom_nodes, 4567u);
  EXPECT_EQ(out.match_tasks, 89u);
  EXPECT_EQ(out.carried_passes, 1u);
  EXPECT_EQ(out.candidates_checked, 42u);
  ASSERT_TRUE(reloaded.Lookup(Fp(11), &out));
}

TEST(ResultCacheStore, RejectsDamageWithTypedCorruptErrors) {
  ResultCache scratch;
  const auto load = [&scratch](const std::string& text) {
    std::istringstream in(text);
    return LoadResultCache(in, &scratch);
  };

  Result<int> bad_magic = load("not-a-cache 1\n0\nend\n");
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.code(), ErrorCode::kCorrupt);

  Result<int> bad_version = load("tdlib-result-cache 9\n0\nend\n");
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.code(), ErrorCode::kCorrupt);

  Result<int> absurd_count = load("tdlib-result-cache 2\n99999999999\nend\n");
  ASSERT_FALSE(absurd_count.ok());
  EXPECT_EQ(absurd_count.code(), ErrorCode::kCorrupt);

  Result<int> bad_verdict = load(
      "tdlib-result-cache 2\n1\n"
      "00000000000000aa 00000000000000bb 7 1 2 3 4 5 6 7\nend\n");
  ASSERT_FALSE(bad_verdict.ok());
  EXPECT_EQ(bad_verdict.code(), ErrorCode::kCorrupt);

  Result<int> truncated = load("tdlib-result-cache 2\n2\n"
                               "00000000000000aa 00000000000000bb 0 1 2 3 4 5 6 7\n");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), ErrorCode::kCorrupt);

  Result<int> trailing = load("tdlib-result-cache 2\n0\nend\ngarbage\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.code(), ErrorCode::kCorrupt);

  Result<int> missing = LoadResultCacheFile("/nonexistent/tdlib.cache",
                                            &scratch);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(ResultCacheStore, FailedSaveKeepsTheOldFileAndLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tdlib_cache_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "cache.bin").string();

  CacheOptions options;
  options.shards = 1;
  ResultCache old_cache(options);
  old_cache.Insert(Fp(1), Verdict(1));
  old_cache.Insert(Fp(2), Verdict(2));
  Result<int> saved = SaveResultCacheFile(path, old_cache);
  ASSERT_TRUE(saved.ok()) << saved.error();
  EXPECT_EQ(saved.value(), 2);

  // The save dies between the fsync and the rename.
  ResultCache new_cache(options);
  new_cache.Insert(Fp(3), Verdict(3));
  DisarmAllFaults();
  ArmFault(FaultSite::kStoreRename, 1);
  Result<int> failed = SaveResultCacheFile(path, new_cache);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(FaultInjectionCount(FaultSite::kStoreRename), 1u);
  DisarmAllFaults();

  ResultCache reloaded(options);
  Result<int> loaded = LoadResultCacheFile(path, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 2);
  CachedVerdict out;
  EXPECT_TRUE(reloaded.Lookup(Fp(1), &out));
  EXPECT_TRUE(reloaded.Lookup(Fp(2), &out));
  EXPECT_FALSE(reloaded.Lookup(Fp(3), &out));

  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"cache.bin"});
  fs::remove_all(dir);
}

// A save whose directory fsync fails has already renamed its file into
// place: it reports the failure, yet the target loads whole with the new
// entries and no temp file is left beside it.
TEST(ResultCacheStore, FailedDirectorySyncKeepsTheNewFileAndLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tdlib_cache_dirsync_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "cache.bin").string();

  CacheOptions options;
  options.shards = 1;
  ResultCache old_cache(options);
  old_cache.Insert(Fp(1), Verdict(1));
  Result<int> saved = SaveResultCacheFile(path, old_cache);
  ASSERT_TRUE(saved.ok()) << saved.error();

  ResultCache new_cache(options);
  new_cache.Insert(Fp(3), Verdict(3));
  new_cache.Insert(Fp(4), Verdict(4));
  DisarmAllFaults();
  ArmFault(FaultSite::kStoreDirSync, 1);
  Result<int> failed = SaveResultCacheFile(path, new_cache);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), ErrorCode::kUnknown);
  EXPECT_EQ(FaultInjectionCount(FaultSite::kStoreDirSync), 1u);
  DisarmAllFaults();

  ResultCache reloaded(options);
  Result<int> loaded = LoadResultCacheFile(path, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 2);
  CachedVerdict out;
  EXPECT_FALSE(reloaded.Lookup(Fp(1), &out));
  EXPECT_TRUE(reloaded.Lookup(Fp(3), &out));
  EXPECT_TRUE(reloaded.Lookup(Fp(4), &out));

  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"cache.bin"});
  fs::remove_all(dir);
}

TEST(ResultCacheStore, SaveRemovesOrphanTempFilesOfDeadSavers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tdlib_cache_orphans_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "cache.bin").string();

  // A saver that died mid-save: its pid belongs to a reaped child.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  const std::string orphan = path + ".tmp." + std::to_string(child) + ".0";
  const std::string own = path + ".tmp." + std::to_string(::getpid()) + ".77";
  const std::string unrelated =
      (dir / "other.bin.tmp.").string() + std::to_string(child) + ".0";
  for (const std::string& file : {orphan, own, unrelated}) {
    std::ofstream(file) << "partial";
  }

  CacheOptions options;
  options.shards = 1;
  ResultCache cache(options);
  cache.Insert(Fp(1), Verdict(1));
  Result<int> saved = SaveResultCacheFile(path, cache);
  ASSERT_TRUE(saved.ok()) << saved.error();

  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(own));
  EXPECT_TRUE(fs::exists(unrelated));
  ResultCache reloaded(options);
  Result<int> loaded = LoadResultCacheFile(path, &reloaded);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), 1);
  fs::remove_all(dir);
}

TEST(ResultCacheStore, SaverKilledMidWriteLeavesOldOrNewFileWhole) {
  // A real saver SIGKILLed at a seeded moment: a child saves the "new"
  // cache in a loop over the "old" file until it dies. Whatever instant the
  // kill lands on — mid-write, mid-fsync, around the rename — the target
  // must load as the complete old or the complete new cache, and the
  // parent's next save must sweep up the temp file the child left behind.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tdlib_cache_kill_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "cache.bin").string();

  constexpr int kEntries = 3000;
  constexpr std::uint64_t kNewBase = 1000000;
  CacheOptions options;
  options.shards = 1;
  ResultCache old_cache(options);
  ResultCache new_cache(options);
  for (int i = 0; i < kEntries; ++i) {
    old_cache.Insert(Fp(static_cast<std::uint64_t>(i)), Verdict(1));
    new_cache.Insert(Fp(kNewBase + static_cast<std::uint64_t>(i)), Verdict(2));
  }
  // Which cache a loaded file holds: 1 = old, 2 = new, 0 = neither whole.
  const auto whole_cache_in = [&](ResultCache& loaded) {
    CachedVerdict out;
    const std::uint64_t base = loaded.Lookup(Fp(0), &out) ? 0 : kNewBase;
    for (int i = 0; i < kEntries; ++i) {
      if (!loaded.Lookup(Fp(base + static_cast<std::uint64_t>(i)), &out) ||
          out.rounds_used != (base == 0 ? 1 : 2)) {
        return 0;
      }
    }
    return base == 0 ? 1 : 2;
  };

  Rng rng(20261018);
  int orphans_seen = 0;
  for (int round = 0; round < 20; ++round) {
    // The parent's save also removes the previous round's orphan.
    Result<int> saved = SaveResultCacheFile(path, old_cache);
    ASSERT_TRUE(saved.ok()) << saved.error();
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path().filename().string());
    }
    ASSERT_EQ(files, std::vector<std::string>{"cache.bin"}) << round;

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      for (;;) SaveResultCacheFile(path, new_cache);
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(500 + rng.Below(20000)));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << round;

    const std::string orphan_prefix =
        "cache.bin.tmp." + std::to_string(child) + ".";
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind(orphan_prefix, 0) == 0) {
        ++orphans_seen;
      }
    }
    ResultCache reloaded(options);
    Result<int> loaded = LoadResultCacheFile(path, &reloaded);
    ASSERT_TRUE(loaded.ok()) << "round " << round << ": " << loaded.error();
    ASSERT_EQ(loaded.value(), kEntries) << round;
    EXPECT_NE(whole_cache_in(reloaded), 0) << round;
  }
  // The child spends nearly all its time between creating a temp file and
  // renaming it, so some kill must have landed there.
  EXPECT_GT(orphans_seen, 0);
  Result<int> saved = SaveResultCacheFile(path, old_cache);
  ASSERT_TRUE(saved.ok()) << saved.error();
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"cache.bin"});
  fs::remove_all(dir);
}

// ---- Service integration ---------------------------------------------------

TEST(ServiceCache, WarmSubmitsAreByteIdenticalHits) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult cold = service.Submit(jobs[i]).Wait();
    EXPECT_EQ(cold.DeterministicSummary(),
              serial.results[i].DeterministicSummary());
    EXPECT_EQ(cold.cache_source, CacheSource::kMiss);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult warm = service.Submit(jobs[i]).Wait();
    EXPECT_EQ(warm.DeterministicSummary(),
              serial.results[i].DeterministicSummary());
    EXPECT_EQ(warm.cache_source, CacheSource::kHit);
    EXPECT_EQ(warm.status, JobStatus::kCompleted);
  }
  const CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.hits, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(jobs.size()));
}

TEST(ServiceCache, IsomorphicJobWithDifferentNameHits) {
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobResult first = service.Submit(jobs[0]).Wait();
  Job renamed = jobs[0];
  renamed.name = "same-problem-different-name";
  JobResult second = service.Submit(renamed).Wait();
  EXPECT_EQ(second.cache_source, CacheSource::kHit);
  EXPECT_EQ(second.name, renamed.name);
  EXPECT_EQ(SummarySansName(second), SummarySansName(first));
}

TEST(ServiceCache, ByteIdentityAcrossThreadCountsWithCacheOnAndOff) {
  WorkloadOptions options;
  options.size = 6;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  BatchSummary serial = RunSerial(jobs);

  for (int threads : {1, 2, 4, 8}) {
    for (bool cache_on : {false, true}) {
      ServiceOptions service_options;
      service_options.num_threads = threads;
      if (cache_on) {
        service_options.result_cache = std::make_shared<ResultCache>();
      }
      SolverService service(service_options);
      std::vector<JobHandle> handles;
      for (const Job& job : jobs) handles.push_back(service.Submit(job));
      for (std::size_t i = 0; i < handles.size(); ++i) {
        EXPECT_EQ(handles[i].Wait().DeterministicSummary(),
                  serial.results[i].DeterministicSummary())
            << "threads=" << threads << " cache=" << cache_on;
      }
    }
  }
}

TEST(ServiceCache, DeadlineSubmissionsBypassTheCache) {
  WorkloadOptions options;
  options.size = 1;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  SubmitOptions submit;
  submit.deadline_seconds = 60;  // generous: the job itself is fast
  JobResult r = service.Submit(jobs[0], submit).Wait();
  EXPECT_EQ(r.cache_source, CacheSource::kNone);
  EXPECT_EQ(service_options.result_cache->Stats().entries, 0);
}

TEST(ServiceCache, InFlightDedupOneChaseLastWaiterCancels) {
  // A single worker pinned by an unbounded pumping job keeps every later
  // submission queued, which makes the coalescing sequence deterministic.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobHandle blocker = service.Submit(MakePumpingJob("blocker", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Job bounded = MakePumpingJob("bounded-a", 400);
  Job bounded_iso = MakePumpingJob("bounded-b", 400);
  JobHandle a = service.Submit(bounded);
  JobHandle b = service.Submit(bounded_iso);

  // Every submission probes the cache first, so the blocker, a, and b each
  // count one probe miss; the dedup shows up as b ATTACHING instead of
  // creating a second runner.
  CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.coalesced, 1);  // the isomorph attached to a's runner
  EXPECT_EQ(stats.insertions, 0);  // nothing has completed yet

  // Cancelling ONE waiter terminates that submission only — the shared run
  // survives for the other.
  EXPECT_TRUE(a.Cancel());
  EXPECT_EQ(a.Wait().status, JobStatus::kCancelled);
  EXPECT_FALSE(b.Poll().has_value());

  // Free the worker; the surviving waiter completes with the same bytes a
  // fresh serial solve of the SAME problem produces.
  EXPECT_TRUE(blocker.Cancel());
  JobResult via_dedup = b.Wait();
  EXPECT_EQ(via_dedup.status, JobStatus::kCompleted);
  EXPECT_EQ(via_dedup.cache_source, CacheSource::kCoalesced);
  EXPECT_EQ(SummarySansName(via_dedup), SummarySansName(RunJob(bounded)));
  EXPECT_EQ(service_options.result_cache->Stats().insertions, 1);
}

TEST(ServiceCache, CancellingEveryWaiterCancelsTheSharedRun) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobHandle blocker = service.Submit(MakePumpingJob("blocker", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  JobHandle a = service.Submit(MakePumpingJob("bounded-a", 400));
  JobHandle b = service.Submit(MakePumpingJob("bounded-b", 400));
  EXPECT_TRUE(a.Cancel());
  EXPECT_TRUE(b.Cancel());
  EXPECT_EQ(a.Wait().status, JobStatus::kCancelled);
  EXPECT_EQ(b.Wait().status, JobStatus::kCancelled);

  EXPECT_TRUE(blocker.Cancel());
  service.WaitIdle();
  // The audience-less run was cancelled before a worker ever picked it up,
  // so nothing was solved and nothing was cached.
  EXPECT_EQ(service_options.result_cache->Stats().entries, 0);

  // A fresh isomorphic submission therefore misses and runs for real.
  JobResult fresh = service.Submit(MakePumpingJob("bounded-c", 400)).Wait();
  EXPECT_EQ(fresh.status, JobStatus::kCompleted);
  EXPECT_EQ(fresh.cache_source, CacheSource::kMiss);
  // Four probe misses (blocker, a, b, c) and exactly one insertion: only
  // the fresh re-run ever completed a chase.
  EXPECT_EQ(service_options.result_cache->Stats().misses, 4);
  EXPECT_EQ(service_options.result_cache->Stats().insertions, 1);
}

TEST(ServiceCache, ConcurrentIsomorphicSubmissionsSolveOnce) {
  // Race-tolerant form (also the TSan exercise): N isomorphic submissions
  // in quick succession must produce ONE solve — every result equal, each
  // submission a miss, a hit, or a coalesced attach.
  ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  constexpr int kCopies = 8;
  std::vector<JobHandle> handles;
  for (int i = 0; i < kCopies; ++i) {
    handles.push_back(service.Submit(
        MakePumpingJob("iso-" + std::to_string(i), 400)));
  }
  std::vector<JobResult> results;
  for (JobHandle& handle : handles) results.push_back(handle.Wait());
  const std::string expected = SummarySansName(results[0]);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kCompleted);
    EXPECT_EQ(SummarySansName(r), expected);
    EXPECT_NE(r.cache_source, CacheSource::kNone);
  }
  // Probe accounting partitions the submissions: every probe either hits
  // or misses, and every probe miss either created a runner (whose
  // completion is an insertion) or attached to one. Timing decides the
  // hit/coalesce split, never the totals.
  const CacheStats stats = service_options.result_cache->Stats();
  EXPECT_EQ(stats.hits + stats.misses, kCopies);
  EXPECT_EQ(stats.misses, stats.insertions + stats.coalesced);
  EXPECT_GE(stats.insertions, 1);
}

TEST(ServiceCache, ResumeAfterHitRunsFreshWithoutPoisoningTheCache) {
  Job small = MakePumpingJob("resumable", 400);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = std::make_shared<ResultCache>();
  SolverService service(service_options);

  JobResult miss = service.Submit(small).Wait();
  JobHandle hit = service.Submit(small);
  ASSERT_EQ(hit.Wait().cache_source, CacheSource::kHit);

  // Resuming the hit handle with a bigger budget re-solves for real and
  // matches a from-scratch run under that budget.
  DualSolverConfig bigger = small.config;
  bigger.base_chase.max_steps = 900;
  ASSERT_TRUE(hit.ResumeWithBudget(bigger));
  JobResult resumed = hit.Wait();
  EXPECT_EQ(resumed.cache_source, CacheSource::kNone);
  EXPECT_EQ(resumed.DeterministicSummary(),
            RunJob(small, bigger).DeterministicSummary());

  // The resumed run must not have overwritten the small-budget cache entry.
  JobResult warm_again = service.Submit(small).Wait();
  EXPECT_EQ(warm_again.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm_again.DeterministicSummary(), miss.DeterministicSummary());
}

TEST(ServiceCache, OutcomeCountersCountEachLogicalSubmissionOnce) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();

  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.result_cache = std::make_shared<ResultCache>();
  {
    SolverService service(service_options);
    constexpr int kCopies = 6;
    std::vector<JobHandle> handles;
    for (int i = 0; i < kCopies; ++i) {
      handles.push_back(service.Submit(
          MakePumpingJob("counted-" + std::to_string(i), 400)));
    }
    for (JobHandle& handle : handles) {
      EXPECT_EQ(handle.Wait().status, JobStatus::kCompleted);
    }
  }
  SetMetricsEnabled(false);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  // Six logical submissions, six completions — the internal dedup runner is
  // not a submission and must not inflate either side of the ledger.
  EXPECT_EQ(snapshot.counters["engine.jobs_submitted"], 6);
  EXPECT_EQ(snapshot.counters["engine.jobs_completed"], 6);
  EXPECT_EQ(snapshot.counters["engine.jobs_skipped"], 0);
  EXPECT_EQ(snapshot.counters["engine.jobs_cancelled"], 0);
  EXPECT_EQ(snapshot.gauges["engine.jobs_inflight"], 0);
  // The cache.* family is published alongside, with the probe-accounting
  // invariants (see ConcurrentIsomorphicSubmissionsSolveOnce).
  EXPECT_EQ(snapshot.counters["cache.hits"] + snapshot.counters["cache.misses"],
            6);
  EXPECT_EQ(snapshot.counters["cache.misses"],
            snapshot.counters["cache.insertions"] +
                snapshot.counters["cache.inflight_coalesced"]);
  EXPECT_GE(snapshot.counters["cache.insertions"], 1);
  MetricsRegistry::Global().Reset();
}

TEST(ServiceCache, WarmStartFromAStoreServesHitsAcrossServices) {
  Job job = MakePumpingJob("persisted", 400);
  std::stringstream stream;
  JobResult fresh;
  {
    ServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.result_cache = std::make_shared<ResultCache>();
    SolverService service(service_options);
    fresh = service.Submit(job).Wait();
    SaveResultCache(stream, *service_options.result_cache);
  }

  auto reloaded = std::make_shared<ResultCache>();
  Result<int> loaded = LoadResultCache(stream, reloaded.get());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value(), 1);

  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = reloaded;
  SolverService service(service_options);
  JobResult warm = service.Submit(job).Wait();
  EXPECT_EQ(warm.cache_source, CacheSource::kHit);
  EXPECT_EQ(warm.DeterministicSummary(), fresh.DeterministicSummary());
}

TEST(ServiceCache, VersionOneStoreIsRefusedAndTheWarmStartRunsCold) {
  // Version-1 entries carry counters of a chase that matched every
  // dependency before firing; loading them would serve hom_nodes no
  // current run reproduces.
  Job job = MakePumpingJob("versioned", 400);
  std::stringstream stream;
  JobResult fresh;
  {
    ServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.result_cache = std::make_shared<ResultCache>();
    SolverService service(service_options);
    fresh = service.Submit(job).Wait();
    SaveResultCache(stream, *service_options.result_cache);
  }
  std::string text = stream.str();
  const std::string current = "tdlib-result-cache 2\n";
  ASSERT_EQ(text.rfind(current, 0), 0u);
  std::istringstream version_one("tdlib-result-cache 1\n" +
                                 text.substr(current.size()));

  auto reloaded = std::make_shared<ResultCache>();
  Result<int> loaded = LoadResultCache(version_one, reloaded.get());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), ErrorCode::kCorrupt);
  EXPECT_NE(loaded.error().find("unsupported version"), std::string::npos)
      << loaded.error();
  EXPECT_EQ(reloaded->Stats().entries, 0);

  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.result_cache = reloaded;
  SolverService service(service_options);
  JobResult cold = service.Submit(job).Wait();
  EXPECT_EQ(cold.cache_source, CacheSource::kMiss);
  EXPECT_EQ(cold.DeterministicSummary(), fresh.DeterministicSummary());
}

}  // namespace
}  // namespace tdlib
