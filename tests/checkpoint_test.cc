// Checkpoint/resume round-trip tests: TupleStore and Instance persistence,
// ChaseCheckpoint capture at deterministic budget stops, and the
// interrupted-vs-uninterrupted byte-identity contract — including through a
// full serialize → restore → continue cycle — across hand-built TDs, the
// pumping reduction instance, random TDs and the reduction sweep.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "chase/chase.h"
#include "chase/dual_solver.h"
#include "chase/implication.h"
#include "core/parser.h"
#include "engine/workload.h"
#include "logic/instance.h"
#include "logic/tuple_store.h"
#include "reduction/reduction.h"
#include "semigroup/normalizer.h"
#include "semigroup/presentation.h"

namespace tdlib {
namespace {

// ---- Store / instance persistence ------------------------------------------

TEST(TupleStoreSerialize, RoundTripReproducesIdsAndInvariants) {
  TupleStore store(3);
  std::int32_t rows[][3] = {{0, 1, 2}, {2, 1, 0}, {0, 0, 0}, {5, 4, 3}};
  for (auto& row : rows) store.Insert(row);
  std::ostringstream out;
  store.Serialize(out);

  std::istringstream in(out.str());
  Result<TupleStore> restored = TupleStore::Deserialize(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), store.size());
  EXPECT_EQ(restored.value().arity(), store.arity());
  EXPECT_EQ(restored.value().CheckInvariants(), "");
  for (std::size_t id = 0; id < store.size(); ++id) {
    EXPECT_EQ(restored.value()[id], store[id]) << id;
  }
  // Find must agree, i.e. the dedup table was rebuilt correctly.
  EXPECT_EQ(restored.value().Find(rows[2]), 2);
}

TEST(TupleStoreSerialize, RejectsGarbage) {
  std::istringstream bad("not-a-store 2 1\n0 0");
  Result<TupleStore> bad_result = TupleStore::Deserialize(bad);
  EXPECT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.code(), ErrorCode::kCorrupt);
  std::istringstream truncated("tdstore1 2 3\n0 0\n");
  Result<TupleStore> truncated_result = TupleStore::Deserialize(truncated);
  EXPECT_FALSE(truncated_result.ok());
  EXPECT_EQ(truncated_result.code(), ErrorCode::kCorrupt);
}

TEST(InstanceSerialize, RoundTripPreservesDomainsNullsAndIndex) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Instance instance(schema);
  instance.AddValue(0, "alice smith");  // name with a space must survive
  instance.AddValue(0, "", /*labeled_null=*/true);
  instance.AddValue(1, "x:1");  // name with the length-prefix delimiter
  instance.AddValue(1);
  instance.AddTuple({0, 0});
  instance.AddTuple({1, 1});
  instance.AddTuple({0, 1});

  std::ostringstream out;
  instance.Serialize(out);
  std::istringstream in(out.str());
  Result<Instance> restored = Instance::Deserialize(schema, in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().CheckInvariants(), "");
  EXPECT_EQ(restored.value().ToString(), instance.ToString());
  EXPECT_EQ(restored.value().NumTuples(), instance.NumTuples());
  EXPECT_EQ(restored.value().ValueName(0, 0), "alice smith");
  EXPECT_EQ(restored.value().ValueName(1, 0), "x:1");
  EXPECT_TRUE(restored.value().IsLabeledNull(0, 1));
  EXPECT_FALSE(restored.value().IsLabeledNull(0, 0));
  EXPECT_EQ(restored.value().TuplesWith(0, 0).ToVector(),
            instance.TuplesWith(0, 0).ToVector());
  EXPECT_EQ(restored.value().FindTuple({0, 1}), instance.FindTuple({0, 1}));
}

TEST(InstanceSerialize, RejectsSchemaMismatch) {
  SchemaPtr ab = MakeSchema({"A", "B"});
  Instance instance(ab);
  instance.AddValue(0);
  instance.AddValue(1);
  instance.AddTuple({0, 0});
  std::ostringstream out;
  instance.Serialize(out);
  SchemaPtr abc = MakeSchema({"A", "B", "C"});
  std::istringstream in(out.str());
  Result<Instance> mismatched = Instance::Deserialize(abc, in);
  EXPECT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.code(), ErrorCode::kCorrupt);
}

// ---- Chase checkpoint: capture and resume ----------------------------------

// The non-terminating reduction instance (tests/chase_test.cc): every fire
// enables the next, so any step budget trips deterministically mid-stream.
struct Pumping {
  DependencySet deps;
  Dependency goal;
};

Pumping MakePumping() {
  Presentation p;
  p.AddEquationFromText("A A0 = A0");
  p.AddAbsorptionEquations();
  NormalizationResult norm = NormalizeTo21(p);
  Result<GurevichLewisReduction> red =
      GurevichLewisReduction::Create(norm.normalized);
  EXPECT_TRUE(red.ok());
  return Pumping{red.value().dependencies(), red.value().goal()};
}

bool SameTrace(const std::vector<ChaseStep>& a,
               const std::vector<ChaseStep>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dependency_index != b[i].dependency_index ||
        a[i].body_match.values != b[i].body_match.values ||
        a[i].new_tuples != b[i].new_tuples) {
      return false;
    }
  }
  return true;
}

void ExpectSameResult(const ChaseResult& a, const ChaseResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.hom_nodes, b.hom_nodes);
  EXPECT_EQ(a.hom_candidates, b.hom_candidates);
  EXPECT_EQ(a.match_tasks, b.match_tasks);
  EXPECT_EQ(a.carried_passes, b.carried_passes);
  EXPECT_TRUE(SameTrace(a.trace, b.trace));
}

// Runs the interrupted-vs-uninterrupted contract for one (deps, seed,
// config) triple: chase to `small` steps, checkpoint, resume to `big`
// (in-memory AND through a serialize/restore cycle), and compare both
// against one uninterrupted run to `big`.
void CheckResumeParity(const DependencySet& deps, const Instance& seed,
                       ChaseConfig config, std::uint64_t small,
                       std::uint64_t big) {
  config.record_trace = true;

  // Reference: uninterrupted run to `big`.
  ChaseConfig big_config = config;
  big_config.max_steps = big;
  Instance reference = seed;
  ChaseResult reference_result = RunChase(&reference, deps, big_config);

  // Interrupted run to `small`...
  ChaseConfig small_config = config;
  small_config.max_steps = small;
  Instance interrupted = seed;
  ChaseCheckpoint checkpoint;
  ChaseResult first = RunChase(&interrupted, deps, small_config, {},
                               &checkpoint);
  ASSERT_EQ(first.status, ChaseStatus::kStepLimit);
  ASSERT_TRUE(checkpoint.valid);
  ASSERT_TRUE(checkpoint.ResumableWith(big_config, interrupted, deps));

  // ...through a serialize → restore cycle...
  std::ostringstream out;
  interrupted.Serialize(out);
  checkpoint.Serialize(out);
  std::istringstream in(out.str());
  Result<Instance> restored_instance =
      Instance::Deserialize(seed.schema_ptr(), in);
  ASSERT_TRUE(restored_instance.ok());
  Result<ChaseCheckpoint> restored_checkpoint =
      ChaseCheckpoint::Deserialize(in);
  ASSERT_TRUE(restored_checkpoint.ok());
  ASSERT_TRUE(restored_checkpoint.value().valid);

  // ...then continued, in memory and from the restored copy.
  ChaseResult resumed = RunChase(&interrupted, deps, big_config, {},
                                 &checkpoint);
  ChaseResult restored_resumed = RunChase(&restored_instance.value(), deps,
                                          big_config, {},
                                          &restored_checkpoint.value());

  ExpectSameResult(resumed, reference_result);
  ExpectSameResult(restored_resumed, reference_result);
  EXPECT_EQ(interrupted.ToString(), reference.ToString());
  EXPECT_EQ(restored_instance.value().ToString(), reference.ToString());
}

TEST(ChaseCheckpoint, ResumeParityOnThePumpingReduction) {
  Pumping pumping = MakePumping();
  Instance seed = pumping.goal.body().Freeze();
  ChaseConfig config;
  CheckResumeParity(pumping.deps, seed, config, /*small=*/17, /*big=*/120);
}

TEST(ChaseCheckpoint, ResumeParityUnderABurstCapWithCarriedSteps) {
  Pumping pumping = MakePumping();
  Instance seed = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.max_fires_per_pass = 4;  // forces carried pending between passes
  CheckResumeParity(pumping.deps, seed, config, /*small=*/23, /*big=*/90);

  // And the carried-pass counter itself must be nonzero in this regime.
  ChaseConfig capped = config;
  capped.max_steps = 90;
  Instance instance = pumping.goal.body().Freeze();
  ChaseResult r = RunChase(&instance, pumping.deps, capped);
  EXPECT_GT(r.carried_passes, 0u);
}

TEST(ChaseCheckpoint, ResumeParityInNaiveMode) {
  Pumping pumping = MakePumping();
  Instance seed = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.use_delta = false;
  CheckResumeParity(pumping.deps, seed, config, /*small=*/11, /*big=*/60);
}

TEST(ChaseCheckpoint, CrossProductClosureParity) {
  SchemaPtr schema = MakeSchema({"A", "B"});
  Result<Dependency> cross =
      ParseDependency(schema, "R(a,b) & R(a2,b2) => R(a,b2)");
  ASSERT_TRUE(cross.ok());
  DependencySet deps;
  deps.Add(std::move(cross).value(), "cross");
  Instance seed(schema);
  for (int i = 0; i < 4; ++i) seed.AddValue(0);
  for (int i = 0; i < 4; ++i) seed.AddValue(1);
  for (int i = 0; i < 4; ++i) seed.AddTuple({i, i});
  ChaseConfig config;
  config.max_fires_per_pass = 3;
  CheckResumeParity(deps, seed, config, /*small=*/5, /*big=*/1000);
}

TEST(ChaseCheckpoint, SliceShapeGuardRefusesResume) {
  Pumping pumping = MakePumping();
  Instance instance = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.max_steps = 10;
  ChaseCheckpoint checkpoint;
  ChaseResult r = RunChase(&instance, pumping.deps, config, {}, &checkpoint);
  ASSERT_EQ(r.status, ChaseStatus::kStepLimit);
  ASSERT_TRUE(checkpoint.valid);

  ChaseConfig bigger = config;
  bigger.max_steps = 100;
  EXPECT_TRUE(checkpoint.ResumableWith(bigger, instance, pumping.deps));
  ChaseConfig sliced = bigger;
  sliced.match_slice_ids = 7;
  EXPECT_FALSE(checkpoint.ResumableWith(sliced, instance, pumping.deps));
}

TEST(ChaseCheckpoint, NonResumableStopLeavesNoCheckpoint) {
  Pumping pumping = MakePumping();
  Instance instance = pumping.goal.body().Freeze();
  ChaseConfig config;
  config.hom_max_nodes = 50;  // trips a search mid-stream: not resumable
  ChaseCheckpoint checkpoint;
  ChaseResult r = RunChase(&instance, pumping.deps, config, {}, &checkpoint);
  EXPECT_EQ(r.status, ChaseStatus::kHomBudget);
  EXPECT_FALSE(checkpoint.valid);
}

TEST(ChaseCheckpoint, ShapeMismatchRefusesResume) {
  Pumping pumping = MakePumping();
  Instance instance = pumping.goal.body().Freeze();
  ChaseConfig config;
  ChaseCheckpoint checkpoint;
  config.max_steps = 10;
  ChaseResult r = RunChase(&instance, pumping.deps, config, {}, &checkpoint);
  ASSERT_EQ(r.status, ChaseStatus::kStepLimit);
  ASSERT_TRUE(checkpoint.valid);

  ChaseConfig bigger = config;
  bigger.max_steps = 100;
  EXPECT_TRUE(checkpoint.ResumableWith(bigger, instance, pumping.deps));
  ChaseConfig naive = bigger;
  naive.use_delta = false;
  EXPECT_FALSE(checkpoint.ResumableWith(naive, instance, pumping.deps));
  ChaseConfig capped = bigger;
  capped.max_fires_per_pass = 8;
  EXPECT_FALSE(checkpoint.ResumableWith(capped, instance, pumping.deps));
  ChaseConfig not_bigger = config;  // same 10-step budget: no progress
  EXPECT_FALSE(checkpoint.ResumableWith(not_bigger, instance, pumping.deps));
}

TEST(ChaseCheckpoint, RejectsCorruptCountsWithoutCrashing) {
  // A lying element count must fail cleanly at end of input — never feed a
  // resize/reserve (std::length_error / OOM). Regression: these inputs used
  // to abort the process.
  std::istringstream huge_pending(
      "tdckpt7 1\n0 0 0 0\n0 0 0 0 0 0\n1 0 0 0 0\n"
      "18446744073709551615\n");
  EXPECT_FALSE(ChaseCheckpoint::Deserialize(huge_pending).ok());
  // Old formats must be rejected, never resumed under a guessed shape:
  // tdckpt1 predates the match-strategy shape fields, tdckpt2 carries the
  // retired intersection flag (its hom_candidates may have been counted
  // with intersection on), tdckpt3 writes valuations per attribute (here
  // one pending step over 2 attributes of one variable each), tdckpt4
  // carries the retired lazy-goal-check flag in its shape line, tdckpt5
  // carries the retired burst auto-tune flag and per-pass fire cap, and a
  // tdckpt6 pending list holds a whole pass's matches with no resume point
  // inside the pass. All texts are otherwise well formed.
  for (const char* old_format :
       {"tdckpt1 1\n0 0\n0 0 0 0 0\n1 0 0 1 0\n0\n0\n",
        "tdckpt2 1\n0 0 0\n0 0 0 0 0 0\n1 0 0 0 1 0 1 0\n0\n0\n",
        "tdckpt3 1\n0 0 0\n1 1 0 0 1 0\n1 0 0 0 0 1 0\n"
        "1\n0\n2\n1 0\n1 0\n1 0\n0\n",
        "tdckpt4 1\n0 0 0\n0 0 0 0 0 0\n1 0 0 0 0 1 0\n0\n0\n",
        "tdckpt5 1\n0 0 0\n0 0 0 0 0 0\n1 0 0 0 0 0\n0\n0\n",
        "tdckpt6 1\n0 0\n0 0 0 0 0 0\n1 0 0 0 0\n0\n0\n"}) {
    std::istringstream in(old_format);
    Result<ChaseCheckpoint> old = ChaseCheckpoint::Deserialize(in);
    ASSERT_FALSE(old.ok()) << old_format;
    EXPECT_EQ(old.code(), ErrorCode::kCorrupt) << old_format;
  }
  // The same checkpoint in the current format loads.
  std::istringstream current(
      "tdckpt7 1\n0 0 0 0\n0 0 0 0 0 0\n1 0 0 0 0\n0\n0\n");
  EXPECT_TRUE(ChaseCheckpoint::Deserialize(current).ok());
  std::istringstream huge_store("tdstore1 2 18446744073709551615\n0 0\n");
  EXPECT_FALSE(TupleStore::Deserialize(huge_store).ok());
  std::istringstream huge_arity("tdstore1 2147483647 1\n");
  EXPECT_FALSE(TupleStore::Deserialize(huge_arity).ok());
}

TEST(ChaseCheckpoint, FlatValuationsRoundTripAndAreValidated) {
  // A tdckpt7 checkpoint with pending steps writes each valuation as one
  // vector of TotalVars() slots, re-serializes to the same bytes, and
  // resumes exactly like the in-memory checkpoint it came from.
  Pumping pumping = MakePumping();
  ChaseConfig config;
  config.record_trace = true;
  config.max_fires_per_pass = 4;
  config.max_steps = 9;
  Instance instance = pumping.goal.body().Freeze();
  ChaseCheckpoint checkpoint;
  ASSERT_EQ(RunChase(&instance, pumping.deps, config, {}, &checkpoint).status,
            ChaseStatus::kStepLimit);
  ASSERT_FALSE(checkpoint.pending.empty());
  ASSERT_FALSE(checkpoint.trace.empty());
  for (const PendingChaseStep& step : checkpoint.pending) {
    EXPECT_EQ(step.match.values.size(),
              static_cast<std::size_t>(
                  pumping.deps.items[step.dep_index].body().TotalVars()));
  }
  std::ostringstream out;
  checkpoint.Serialize(out);
  EXPECT_EQ(out.str().rfind("tdckpt7 1\n", 0), 0u);
  std::istringstream in(out.str());
  Result<ChaseCheckpoint> restored = ChaseCheckpoint::Deserialize(in);
  ASSERT_TRUE(restored.ok());
  std::ostringstream again;
  restored.value().Serialize(again);
  EXPECT_EQ(again.str(), out.str());

  ChaseConfig bigger = config;
  bigger.max_steps = 60;
  ASSERT_TRUE(restored.value().ResumableWith(bigger, instance, pumping.deps));

  // A valuation one slot short of its dependency's variable space, or one
  // binding a slot past its attribute's domain, is refused before the
  // chase indexes it.
  ChaseCheckpoint short_slot = restored.value();
  short_slot.pending.front().match.values.pop_back();
  EXPECT_FALSE(short_slot.ResumableWith(bigger, instance, pumping.deps));
  ChaseCheckpoint past_domain = restored.value();
  past_domain.pending.front().match.values.back() = instance.DomainSize(
      instance.schema().arity() - 1);
  EXPECT_FALSE(past_domain.ResumableWith(bigger, instance, pumping.deps));

  Instance restored_instance = instance;
  ChaseResult resumed =
      RunChase(&instance, pumping.deps, bigger, {}, &checkpoint);
  ChaseResult restored_resumed = RunChase(&restored_instance, pumping.deps,
                                          bigger, {}, &restored.value());
  ExpectSameResult(restored_resumed, resumed);
  EXPECT_EQ(restored_instance.ToString(), instance.ToString());
}

// A finite closure under two dependencies. With a burst cap, the steps of
// the second wait as a backlog while the first fires, and since the run
// ends at a fixpoint every backlog step is checked at last; a pumping
// instance can instead carry a late dependency's backlog past any budget.
struct Closure {
  DependencySet deps;
  Instance seed;
};

Closure MakeTwoWayClosure() {
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  for (const char* text : {"R(a,b) & R(a2,b2) => R(a,b2)",
                           "R(a,b) & R(a2,b2) => R(a2,b)"}) {
    Result<Dependency> dep = ParseDependency(schema, text);
    EXPECT_TRUE(dep.ok());
    deps.Add(std::move(dep).value(), text);
  }
  Instance seed(schema);
  for (int i = 0; i < 5; ++i) seed.AddValue(0);
  for (int i = 0; i < 5; ++i) seed.AddValue(1);
  for (int i = 0; i < 5; ++i) seed.AddTuple({i, i});
  return Closure{std::move(deps), std::move(seed)};
}

// A budget stop in the middle of a pass: the first dependencies of the
// pass are matched and fired, the interrupted one has an unfired tail, and
// a burst-cap backlog of later dependencies waits for its turn.
struct MidPassStop {
  std::uint64_t steps = 0;  ///< the step budget that stops there (0 = none)
  Instance instance;
  ChaseCheckpoint checkpoint;
};

MidPassStop FindMidPassStop(const Closure& closure, ChaseConfig config) {
  for (std::uint64_t steps = 1; steps <= 100; ++steps) {
    config.max_steps = steps;
    MidPassStop stop{steps, closure.seed, {}};
    if (RunChase(&stop.instance, closure.deps, config, {}, &stop.checkpoint)
            .status != ChaseStatus::kStepLimit) {
      continue;
    }
    const std::size_t next_dep = stop.checkpoint.next_dep;
    bool tail = false;
    bool backlog = false;
    for (const PendingChaseStep& step : stop.checkpoint.pending) {
      const std::size_t dep = static_cast<std::size_t>(step.dep_index);
      tail = tail || dep + 1 == next_dep;
      backlog = backlog || dep >= next_dep;
    }
    if (next_dep > 0 && next_dep < closure.deps.items.size() && tail &&
        backlog && stop.checkpoint.delta_begin > 0) {
      return stop;
    }
  }
  return MidPassStop{0, closure.seed, {}};
}

TEST(ChaseCheckpoint, ResumeParityFromTheMiddleOfAPassWithABacklog) {
  Closure closure = MakeTwoWayClosure();
  ChaseConfig config;
  config.max_fires_per_pass = 3;
  config.record_trace = true;
  MidPassStop stop = FindMidPassStop(closure, config);
  ASSERT_GT(stop.steps, 0u) << "no mid-pass stop with a backlog found";
  const std::uint64_t big = 1000;  // past the fixpoint

  // Directly and through ChaseCheckpoint text.
  CheckResumeParity(closure.deps, closure.seed, config, stop.steps, big);

  // Through ChaseSession text.
  ChaseConfig big_config = config;
  big_config.max_steps = big;
  Instance reference = closure.seed;
  ChaseResult reference_result =
      RunChase(&reference, closure.deps, big_config);
  ASSERT_EQ(reference_result.status, ChaseStatus::kFixpoint);
  ChaseSession session;
  session.instance = stop.instance;
  session.checkpoint = stop.checkpoint;
  std::ostringstream out;
  session.Serialize(out);
  std::istringstream in(out.str());
  Result<ChaseSession> restored =
      ChaseSession::Deserialize(closure.seed.schema_ptr(), in);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ASSERT_TRUE(restored.value().CanResume());
  ASSERT_TRUE(restored.value().checkpoint.ResumableWith(
      big_config, *restored.value().instance, closure.deps));
  ChaseResult resumed =
      RunChase(&*restored.value().instance, closure.deps, big_config, {},
               &restored.value().checkpoint);
  ExpectSameResult(resumed, reference_result);
  EXPECT_EQ(restored.value().instance->ToString(), reference.ToString());
}

// Rewrites the resume-point line (delta_begin pass_start next_dep
// fired_this_pass) of a serialized checkpoint.
std::string WithResumePoint(const std::string& text, std::size_t pass_start,
                            std::size_t next_dep) {
  std::istringstream in(text);
  std::string header, point, rest;
  std::getline(in, header);
  std::getline(in, point);
  std::getline(in, rest, '\0');
  std::istringstream fields(point);
  std::size_t delta_begin, old_pass_start, old_next_dep, fired;
  fields >> delta_begin >> old_pass_start >> old_next_dep >> fired;
  std::ostringstream out;
  out << header << '\n' << delta_begin << ' ' << pass_start << ' '
      << next_dep << ' ' << fired << '\n' << rest;
  return out.str();
}

TEST(ChaseCheckpoint, RefusesADamagedResumePoint) {
  Closure closure = MakeTwoWayClosure();
  ChaseConfig config;
  config.max_fires_per_pass = 3;
  MidPassStop stop = FindMidPassStop(closure, config);
  ASSERT_GT(stop.steps, 0u);
  const ChaseCheckpoint& ckpt = stop.checkpoint;
  ChaseConfig bigger = config;
  bigger.max_steps = stop.steps + 50;
  ASSERT_TRUE(ckpt.ResumableWith(bigger, stop.instance, closure.deps));

  std::ostringstream out;
  ckpt.Serialize(out);
  auto load = [](const std::string& text) {
    std::istringstream in(text);
    return ChaseCheckpoint::Deserialize(in);
  };
  ASSERT_TRUE(load(out.str()).ok());
  // A pass cannot start before the delta it matches.
  Result<ChaseCheckpoint> early =
      load(WithResumePoint(out.str(), ckpt.delta_begin - 1, ckpt.next_dep));
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.code(), ErrorCode::kCorrupt);
  // One dependency further on, the interrupted dependency's tail no longer
  // fits the resume point.
  Result<ChaseCheckpoint> later =
      load(WithResumePoint(out.str(), ckpt.pass_start, ckpt.next_dep + 1));
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.code(), ErrorCode::kCorrupt);

  // A session whose pass starts past its own instance is corrupt.
  ChaseSession session;
  session.instance = stop.instance;
  session.checkpoint = ckpt;
  std::ostringstream session_out;
  session.Serialize(session_out);
  const std::string session_text = session_out.str();
  const std::string ckpt_text = out.str();
  const std::size_t at = session_text.find(ckpt_text);
  ASSERT_NE(at, std::string::npos);
  std::istringstream past(
      session_text.substr(0, at) +
      WithResumePoint(ckpt_text, stop.instance.NumTuples() + 1,
                      ckpt.next_dep));
  Result<ChaseSession> past_session =
      ChaseSession::Deserialize(closure.seed.schema_ptr(), past);
  ASSERT_FALSE(past_session.ok());
  EXPECT_EQ(past_session.code(), ErrorCode::kCorrupt);

  // In memory, a resume point beyond the instance or the dependency set is
  // refused before RunChase indexes it.
  ChaseCheckpoint past_instance = ckpt;
  past_instance.pass_start = stop.instance.NumTuples() + 1;
  EXPECT_FALSE(past_instance.ResumableWith(bigger, stop.instance,
                                           closure.deps));
  ChaseCheckpoint past_deps = ckpt;
  past_deps.pending.clear();
  past_deps.next_dep = closure.deps.items.size() + 1;
  EXPECT_FALSE(past_deps.ResumableWith(bigger, stop.instance, closure.deps));
}

TEST(ChaseCheckpoint, SerializeRoundTripsTheInvalidCheckpoint) {
  ChaseCheckpoint empty;
  std::ostringstream out;
  empty.Serialize(out);
  std::istringstream in(out.str());
  Result<ChaseCheckpoint> restored = ChaseCheckpoint::Deserialize(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored.value().valid);
  std::istringstream bad("wrong-magic 1");
  Result<ChaseCheckpoint> bad_result = ChaseCheckpoint::Deserialize(bad);
  EXPECT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.code(), ErrorCode::kCorrupt);
}

// ---- ChaseSession through the implication / dual-solver layers -------------

// For every job in a workload whose small-budget chase stops resumably:
// continue it (a) in memory and (b) through a session serialize/restore, and
// demand byte-identity with a from-scratch big-budget ChaseImplies.
void CheckSessionParity(const std::vector<Job>& jobs, std::uint64_t small,
                        std::uint64_t big) {
  int resumable_jobs = 0;
  for (const Job& job : jobs) {
    ChaseConfig small_config;
    small_config.max_steps = small;
    ChaseConfig big_config;
    big_config.max_steps = big;

    ImplicationResult reference =
        ChaseImplies(job.dependencies, job.goal, big_config);

    ChaseSession session;
    ImplicationResult first =
        ChaseImplies(job.dependencies, job.goal, small_config, &session);
    if (!session.CanResume()) {
      // Terminal before the budget: the session contract is simply that a
      // rerun matches the reference.
      ImplicationResult again =
          ChaseImplies(job.dependencies, job.goal, big_config, &session);
      EXPECT_EQ(again.verdict, reference.verdict) << job.name;
      ExpectSameResult(again.chase, reference.chase);
      continue;
    }
    ++resumable_jobs;
    EXPECT_EQ(first.verdict, Implication::kUnknown) << job.name;

    // Serialize the session, restore it, and continue BOTH copies.
    std::ostringstream out;
    session.Serialize(out);
    std::istringstream in(out.str());
    Result<ChaseSession> restored =
        ChaseSession::Deserialize(job.goal.schema_ptr(), in);
    ASSERT_TRUE(restored.ok()) << job.name;

    ImplicationResult resumed =
        ChaseImplies(job.dependencies, job.goal, big_config, &session);
    ImplicationResult restored_resumed =
        ChaseImplies(job.dependencies, job.goal, big_config,
                     &restored.value());

    EXPECT_EQ(resumed.verdict, reference.verdict) << job.name;
    EXPECT_EQ(restored_resumed.verdict, reference.verdict) << job.name;
    ExpectSameResult(resumed.chase, reference.chase);
    ExpectSameResult(restored_resumed.chase, reference.chase);
    if (reference.counterexample.has_value()) {
      ASSERT_TRUE(resumed.counterexample.has_value()) << job.name;
      ASSERT_TRUE(restored_resumed.counterexample.has_value()) << job.name;
      EXPECT_EQ(resumed.counterexample->ToString(),
                reference.counterexample->ToString());
      EXPECT_EQ(restored_resumed.counterexample->ToString(),
                reference.counterexample->ToString());
    }
  }
  // The families are chosen to actually exercise resume; if nothing was
  // resumable the test silently degenerated — fail loudly instead.
  EXPECT_GT(resumable_jobs, 0);
}

TEST(ChaseSession, RoundTripParityAcrossTheReductionSweep) {
  WorkloadOptions options;
  options.size = 6;
  CheckSessionParity(ReductionSweepWorkload(options), /*small=*/40,
                     /*big=*/400);
}

TEST(ChaseSession, RoundTripParityAcrossRandomTds) {
  // Most random-TD chases terminate in a handful of steps (fixpoint or
  // goal); seed 1 is known to contain a pumping job, which is the one that
  // actually exercises resume — the rest check the terminal-rerun contract.
  WorkloadOptions options;
  options.size = 20;
  options.seed = 1;
  CheckSessionParity(RandomTdWorkload(options), /*small=*/2, /*big=*/200);
}

TEST(ChaseSession, RefusesToResumeADifferentQuestion) {
  // A session parked for question A must not be resumed for question B —
  // same dependency set, different goal, so every index-range check would
  // pass and only the question fingerprint can catch the mismatch.
  Pumping pumping = MakePumping();
  const Dependency& other_goal = pumping.deps.items[0];

  ChaseConfig small;
  small.max_steps = 20;
  ChaseSession session;
  ImplicationResult first =
      ChaseImplies(pumping.deps, pumping.goal, small, &session);
  ASSERT_EQ(first.verdict, Implication::kUnknown);
  ASSERT_TRUE(session.CanResume());

  ChaseConfig big;
  big.max_steps = 100;
  ImplicationResult reference = ChaseImplies(pumping.deps, other_goal, big);
  ImplicationResult poisoned =
      ChaseImplies(pumping.deps, other_goal, big, &session);
  EXPECT_EQ(poisoned.verdict, reference.verdict);
  ExpectSameResult(poisoned.chase, reference.chase);
}

TEST(DualSolver, EscalationResumeIsInvisibleInResults) {
  // resume_chase on vs off must produce identical verdicts and identical
  // last-attempt statistics across the sweep — the resumed round k replays
  // the from-scratch round k exactly.
  WorkloadOptions options;
  options.size = 9;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  for (const Job& job : jobs) {
    DualSolverConfig resume = job.config;
    resume.rounds = 3;
    resume.base_chase.max_steps = 300;
    resume.base_counterexample.max_tuples = 1;  // forces several rounds
    DualSolverConfig rerun = resume;
    rerun.resume_chase = false;

    DualResult with_resume = SolveImplication(job.dependencies, job.goal,
                                              resume);
    DualResult with_rerun = SolveImplication(job.dependencies, job.goal,
                                             rerun);
    EXPECT_EQ(with_resume.verdict, with_rerun.verdict) << job.name;
    EXPECT_EQ(with_resume.rounds_used, with_rerun.rounds_used) << job.name;
    ExpectSameResult(with_resume.implication.chase,
                     with_rerun.implication.chase);
    EXPECT_EQ(with_resume.counterexample.candidates_checked,
              with_rerun.counterexample.candidates_checked)
        << job.name;
  }
}

}  // namespace
}  // namespace tdlib
