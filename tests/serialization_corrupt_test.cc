// Corrupt-corpus regression suite: every deserializer in the persistence
// stack (TupleStore, Instance, ChaseCheckpoint, ChaseSession, the result
// cache store) is fed a
// sweep of deterministically damaged inputs — truncations at every offset
// regime, single bit flips, and outright garbage — and must return either
// a typed error (ErrorCode::kCorrupt for damaged wire bytes) or a
// well-formed value. Crashing, hanging, or unchecked huge allocations are
// the failure modes under test; the suite also runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "cache/store.h"
#include "chase/chase.h"
#include "chase/implication.h"
#include "cluster/wire.h"
#include "core/parser.h"
#include "engine/job.h"
#include "logic/instance.h"
#include "logic/schema.h"
#include "logic/tuple_store.h"
#include "util/fault.h"

namespace tdlib {
namespace {

// A healthy serialized corpus to damage: an instance pumped a few chase
// steps (so it has invented nulls), its checkpoint, and a full session.
struct Corpus {
  SchemaPtr schema;
  std::string tuple_store_bytes;
  std::string instance_bytes;
  std::string checkpoint_bytes;
  std::string session_bytes;
  std::string cache_bytes;
  // The cluster wire protocol (framed router<->worker sockets).
  std::string frame_bytes;
  std::string job_payload_bytes;
  std::string result_payload_bytes;
};

Corpus MakeCorpus() {
  Corpus corpus;
  corpus.schema = MakeSchema({"A", "B", "C"});
  Result<Dependency> dep = ParseDependency(
      corpus.schema, "R(a,b,c) & R(a,b2,c2) => R(a9,b,c2)");
  EXPECT_TRUE(dep.ok());
  DependencySet deps;
  deps.Add(dep.value(), "d");

  Instance instance = dep.value().body().Freeze();
  ChaseConfig config;
  config.max_steps = 1;  // stop mid-derivation so the checkpoint is live
  config.record_trace = true;
  ChaseCheckpoint checkpoint;
  RunChase(&instance, deps, config, {}, &checkpoint);

  {
    TupleStore store(3);
    const std::int32_t rows[][3] = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}};
    for (const auto& row : rows) store.Insert(row);
    std::ostringstream oss;
    store.Serialize(oss);
    corpus.tuple_store_bytes = oss.str();
  }
  {
    std::ostringstream oss;
    instance.Serialize(oss);
    corpus.instance_bytes = oss.str();
  }
  {
    std::ostringstream oss;
    checkpoint.Serialize(oss);
    corpus.checkpoint_bytes = oss.str();
  }
  {
    ChaseSession session;
    ImplicationResult unused = ChaseImplies(deps, dep.value(), config,
                                            &session);
    (void)unused;
    std::ostringstream oss;
    session.Serialize(oss);
    corpus.session_bytes = oss.str();
  }
  {
    CacheOptions options;
    options.shards = 1;
    ResultCache cache(options);
    for (std::uint64_t n = 1; n <= 4; ++n) {
      CacheFingerprint fp;
      fp.hi = n;
      fp.lo = n * 1000003;
      fp.valid = true;
      CachedVerdict verdict;
      verdict.verdict = DualVerdict::kImplied;
      verdict.rounds_used = static_cast<int>(n);
      verdict.chase_steps = n * 17;
      cache.Insert(fp, verdict);
    }
    std::ostringstream oss;
    SaveResultCache(oss, cache);
    corpus.cache_bytes = oss.str();
  }
  {
    Job job{"corpus job", deps, dep.value(), DualSolverConfig{}, 3};
    job.config.rounds = 2;
    WireJob wire_job(std::move(job));
    wire_job.job_id = 9;
    corpus.job_payload_bytes = EncodeJobPayload(wire_job);
    corpus.frame_bytes = EncodeFrame(FrameType::kJob, corpus.job_payload_bytes);

    WireResult wire_result;
    wire_result.job_id = 9;
    wire_result.result.name = "corpus job";
    wire_result.result.status = JobStatus::kCompleted;
    wire_result.result.verdict = DualVerdict::kUnknown;
    wire_result.result.chase_steps = 100;
    corpus.result_payload_bytes = EncodeResultPayload(wire_result);
  }
  return corpus;
}

// The damage sweep: CorruptBytes truncates on even seeds and bit-flips on
// odd seeds, both at seed-derived positions, so [0, 2n) seeds cover both
// modes across the whole buffer.
std::vector<std::string> DamagedVariants(const std::string& healthy) {
  std::vector<std::string> variants;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    std::string damaged = healthy;
    CorruptBytes(&damaged, seed);
    variants.push_back(std::move(damaged));
  }
  // Hand-picked nasties the sweep might miss.
  variants.push_back("");
  variants.push_back("garbage");
  variants.push_back(std::string(1024, '\0'));
  variants.push_back("9999999999999999999 1 1");  // absurd count header
  variants.push_back(healthy + " trailing garbage");
  return variants;
}

TEST(SerializationCorruptTest, TupleStoreSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.tuple_store_bytes)) {
    std::istringstream in(damaged);
    Result<TupleStore> result = TupleStore::Deserialize(in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  // Most of the sweep must actually reject (a sweep that accepts
  // everything is not exercising the validation paths).
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, InstanceSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.instance_bytes)) {
    std::istringstream in(damaged);
    Result<Instance> result = Instance::Deserialize(corpus.schema, in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, CheckpointSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.checkpoint_bytes)) {
    std::istringstream in(damaged);
    Result<ChaseCheckpoint> result = ChaseCheckpoint::Deserialize(in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, SessionSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.session_bytes)) {
    std::istringstream in(damaged);
    Result<ChaseSession> result =
        ChaseSession::Deserialize(corpus.schema, in);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, ResultCacheStoreSurvivesTheDamageSweep) {
  // The store load is best-effort: a damaged file must either load cleanly
  // (flips can land in payload digits and still parse) or report kCorrupt,
  // keeping whatever prefix parsed — never crash, hang, or fabricate
  // entries beyond the declared count.
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.cache_bytes)) {
    ResultCache cache;
    std::istringstream in(damaged);
    Result<int> result = LoadResultCache(in, &cache);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    } else {
      EXPECT_LE(result.value(), 4);
    }
    EXPECT_LE(cache.Stats().entries, 4);
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireFrameSurvivesTheDamageSweep) {
  // The framed socket protocol: a payload-hash header means nearly every
  // damaged variant must be rejected (trailing garbage is legitimately
  // fine — frames are length-delimited on a stream).
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged : DamagedVariants(corpus.frame_bytes)) {
    Result<Frame> result = DecodeFrame(damaged, nullptr);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireJobPayloadSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.job_payload_bytes)) {
    Result<WireJob> result = DecodeJobPayload(damaged);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, WireResultPayloadSurvivesTheDamageSweep) {
  Corpus corpus = MakeCorpus();
  int rejected = 0;
  for (const std::string& damaged :
       DamagedVariants(corpus.result_payload_bytes)) {
    Result<WireResult> result = DecodeResultPayload(damaged);
    if (!result.ok()) {
      ++rejected;
      EXPECT_EQ(result.code(), ErrorCode::kCorrupt) << result.error();
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(SerializationCorruptTest, HealthyBytesStillRoundTrip) {
  // The sweep is only meaningful if the undamaged corpus parses.
  Corpus corpus = MakeCorpus();
  {
    std::istringstream in(corpus.tuple_store_bytes);
    EXPECT_TRUE(TupleStore::Deserialize(in).ok());
  }
  {
    std::istringstream in(corpus.instance_bytes);
    EXPECT_TRUE(Instance::Deserialize(corpus.schema, in).ok());
  }
  {
    std::istringstream in(corpus.checkpoint_bytes);
    EXPECT_TRUE(ChaseCheckpoint::Deserialize(in).ok());
  }
  {
    std::istringstream in(corpus.session_bytes);
    EXPECT_TRUE(ChaseSession::Deserialize(corpus.schema, in).ok());
  }
  {
    ResultCache cache;
    std::istringstream in(corpus.cache_bytes);
    Result<int> loaded = LoadResultCache(in, &cache);
    EXPECT_TRUE(loaded.ok());
    EXPECT_EQ(cache.Stats().entries, 4);
  }
  {
    std::size_t consumed = 0;
    Result<Frame> frame = DecodeFrame(corpus.frame_bytes, &consumed);
    EXPECT_TRUE(frame.ok());
    EXPECT_EQ(consumed, corpus.frame_bytes.size());
    Result<WireJob> job = DecodeJobPayload(corpus.job_payload_bytes);
    EXPECT_TRUE(job.ok());
    Result<WireResult> result =
        DecodeResultPayload(corpus.result_payload_bytes);
    EXPECT_TRUE(result.ok());
  }
}

}  // namespace
}  // namespace tdlib
