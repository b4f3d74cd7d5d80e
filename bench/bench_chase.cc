// EXP-CHASE: chase throughput as the workload scales, naive vs. delta.
//
// Series reported: chase wall time, fired steps and homomorphism-search
// nodes vs. (a) instance size for a fixed full-TD set, (b) number of
// dependencies, (c) schema arity, (d) the reduction-sweep implication jobs —
// each at use_delta ∈ {0, 1}. The paper's undecidability result is about
// the limit of this machine; these series characterize the machine itself on
// terminating (or budgeted) inputs. run_benchmarks.sh turns the JSON into
// BENCH_chase.json so the delta speedup is tracked across PRs.
#include <benchmark/benchmark.h>

#include <memory>

#include "chase/chase.h"
#include "chase/implication.h"
#include "core/parser.h"
#include "engine/workload.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace_span.h"

namespace tdlib {
namespace {

// A full-TD workload: the cross-product dependency on a 2-attribute schema,
// seeded with `n` random tuples over a sqrt(n)-sized domain (so the closure
// does real work without exploding).
Instance SeedInstance(const SchemaPtr& schema, int n, int domain,
                      std::uint64_t seed) {
  Rng rng(seed);
  Instance inst(schema);
  inst.Reserve(n, domain);
  for (int attr = 0; attr < schema->arity(); ++attr) {
    for (int v = 0; v < domain; ++v) inst.AddValue(attr);
  }
  for (int i = 0; i < n; ++i) {
    Tuple t(schema->arity());
    for (int attr = 0; attr < schema->arity(); ++attr) {
      t[attr] = static_cast<int>(rng.Below(domain));
    }
    inst.AddTuple(t);
  }
  return inst;
}

ChaseConfig UnboundedConfig(bool use_delta) {
  ChaseConfig config;
  config.max_steps = 0;
  config.max_tuples = 0;
  config.use_delta = use_delta;
  return config;
}

void BM_ChaseCrossProductClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool use_delta = state.range(1) != 0;
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(
               ParseDependency(schema, "R(a,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "cross");
  std::uint64_t steps = 0;
  std::uint64_t final_tuples = 0;
  std::uint64_t hom_nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst = SeedInstance(schema, n, std::max(2, n / 2), 42);
    state.ResumeTiming();
    ChaseResult result = RunChase(&inst, deps, UnboundedConfig(use_delta));
    benchmark::DoNotOptimize(result.steps);
    steps = result.steps;
    final_tuples = inst.NumTuples();
    hom_nodes = result.hom_nodes;
  }
  state.counters["seed_tuples"] = n;
  state.counters["use_delta"] = use_delta ? 1 : 0;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["final_tuples"] = static_cast<double>(final_tuples);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseCrossProductClosure)
    ->ArgsProduct({{4, 8, 16, 32}, {0, 1}});

void BM_ChaseManyDependencies(benchmark::State& state) {
  // Several joined full TDs over 3 attributes; measures per-pass cost as
  // |D| grows.
  const int num_deps = static_cast<int>(state.range(0));
  const bool use_delta = state.range(1) != 0;
  SchemaPtr schema = MakeSchema({"A", "B", "C"});
  const char* pool[] = {
      "R(a,b,c) & R(a,b2,c2) => R(a,b,c2)",
      "R(a,b,c) & R(a,b2,c2) => R(a,b2,c)",
      "R(a,b,c) & R(a2,b,c2) => R(a,b,c2)",
      "R(a,b,c) & R(a2,b2,c) => R(a,b2,c)",
      "R(a,b,c) & R(a,b2,c2) & R(a2,b,c) => R(a2,b,c2)",
      "R(a,b,c) & R(a2,b,c) & R(a2,b2,c2) => R(a,b2,c)",
  };
  DependencySet deps;
  for (int i = 0; i < num_deps; ++i) {
    deps.Add(std::move(ParseDependency(schema, pool[i % 6])).value());
  }
  std::uint64_t steps = 0;
  std::uint64_t hom_nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst = SeedInstance(schema, 8, 3, 7);
    state.ResumeTiming();
    ChaseResult result = RunChase(&inst, deps, UnboundedConfig(use_delta));
    benchmark::DoNotOptimize(result.passes);
    steps = result.steps;
    hom_nodes = result.hom_nodes;
  }
  state.counters["num_deps"] = num_deps;
  state.counters["use_delta"] = use_delta ? 1 : 0;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseManyDependencies)->ArgsProduct({{1, 2, 4, 6}, {0, 1}});

void BM_ChaseWideSchema(benchmark::State& state) {
  // Arity sweep: the same join-style dependency lifted to wider schemas —
  // the regime the paper's reduction lives in (2n + 2 attributes).
  const int arity = static_cast<int>(state.range(0));
  const bool use_delta = state.range(1) != 0;
  SchemaPtr schema =
      std::make_shared<const Schema>(Schema::Numbered(arity, "X"));
  // Body: two rows agreeing on attribute 0; head: first row with last
  // column from the second (a generalized join TD).
  Dependency::Builder builder(schema);
  Row r1(arity), r2(arity), head(arity);
  int shared = builder.Var(0);
  r1[0] = r2[0] = head[0] = shared;
  for (int attr = 1; attr < arity; ++attr) {
    r1[attr] = builder.Var(attr);
    r2[attr] = builder.Var(attr);
    head[attr] = attr + 1 == arity ? r2[attr] : r1[attr];
  }
  Dependency::Builder b2 = std::move(builder);
  b2.AddBodyRow(r1);
  b2.AddBodyRow(r2);
  b2.AddHeadRow(head);
  DependencySet deps;
  deps.Add(std::move(b2).Build().value());
  std::uint64_t steps = 0;
  std::uint64_t hom_nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst = SeedInstance(schema, 10, 3, 11);
    state.ResumeTiming();
    ChaseResult result = RunChase(&inst, deps, UnboundedConfig(use_delta));
    benchmark::DoNotOptimize(result.steps);
    steps = result.steps;
    hom_nodes = result.hom_nodes;
  }
  state.counters["arity"] = arity;
  state.counters["use_delta"] = use_delta ? 1 : 0;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseWideSchema)->ArgsProduct({{2, 6, 12, 24}, {0, 1}});

void BM_ChaseReductionSweep(benchmark::State& state) {
  // The headline series for the delta refactor: the chase side of every
  // reduction-sweep job (the paper's own gadget instances — implied /
  // refuted / gap regimes at growing presentation size), naive vs delta.
  // BENCH_chase.json tracks hom_nodes(naive) / hom_nodes(delta) across PRs.
  //
  // The fire_cap axis bounds fires per pass (ChaseConfig::
  // max_fires_per_pass). Uncapped, the gap-regime chases pump the instance
  // geometrically, so almost every body match touches the frontier and NO
  // matching strategy can avoid the work (delta ≈ naive). Capped bursts are
  // the production regime — smooth growth, bounded pass latency — and
  // there naive re-matching dominates the run while delta scales with the
  // frontier (≥5x fewer nodes at cap 64 on this sweep).
  const bool use_delta = state.range(0) != 0;
  const std::uint64_t fire_cap = static_cast<std::uint64_t>(state.range(2));
  WorkloadOptions options;
  options.size = static_cast<int>(state.range(1));
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  std::uint64_t hom_nodes = 0;
  std::uint64_t steps = 0;
  std::uint64_t passes = 0;
  for (auto _ : state) {
    hom_nodes = 0;
    steps = 0;
    passes = 0;
    for (const Job& job : jobs) {
      ChaseConfig config = job.config.base_chase;
      config.use_delta = use_delta;
      config.max_fires_per_pass = fire_cap;
      ImplicationResult r = ChaseImplies(job.dependencies, job.goal, config);
      benchmark::DoNotOptimize(r.verdict);
      hom_nodes += r.chase.hom_nodes;
      steps += r.chase.steps;
      passes += r.chase.passes;
    }
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["use_delta"] = use_delta ? 1 : 0;
  state.counters["fire_cap"] = static_cast<double>(fire_cap);
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["passes"] = static_cast<double>(passes);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseReductionSweep)->ArgsProduct({{0, 1}, {6, 12}, {0, 64}});

void BM_ChaseObservability(benchmark::State& state) {
  // Overhead audit for the metrics/tracing layer: the capped reduction
  // sweep (the production regime) with the global registry and trace
  // buffer toggled per series. The acceptance bar is wall time within 2%
  // of the observe=0 twin; fired_steps/hom_nodes are exported so the
  // recap can also assert the instrumented run does byte-identical work
  // (observability measures the chase, it must never steer it).
  const bool observe = state.range(0) != 0;
  WorkloadOptions options;
  options.size = static_cast<int>(state.range(1));
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  SetMetricsEnabled(observe);
  SetTracingEnabled(observe);
  std::uint64_t hom_nodes = 0;
  std::uint64_t steps = 0;
  std::uint64_t passes = 0;
  for (auto _ : state) {
    hom_nodes = 0;
    steps = 0;
    passes = 0;
    for (const Job& job : jobs) {
      ChaseConfig config = job.config.base_chase;
      config.max_fires_per_pass = 64;
      ImplicationResult r = ChaseImplies(job.dependencies, job.goal, config);
      benchmark::DoNotOptimize(r.verdict);
      hom_nodes += r.chase.hom_nodes;
      steps += r.chase.steps;
      passes += r.chase.passes;
    }
  }
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  MetricsRegistry::Global().Reset();
  TraceBuffer::Global().Clear();
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["observe"] = observe ? 1 : 0;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["passes"] = static_cast<double>(passes);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseObservability)->ArgsProduct({{0, 1}, {12}});

void BM_ChaseZigzagReachability(benchmark::State& state) {
  // Full-TD reachability closure (the typed cousin of transitive closure):
  // seed a zigzag path, close under the join TD until fixpoint. The
  // closure converges through passes with shrinking frontiers — the
  // classic regime where semi-naive matching wins even without a burst
  // cap (and the final fixpoint-confirmation pass is nearly free).
  const int n = static_cast<int>(state.range(0));
  const bool use_delta = state.range(1) != 0;
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(ParseDependency(
               schema, "R(a,b) & R(a2,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "reach");
  std::uint64_t hom_nodes = 0;
  std::uint64_t final_tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst(schema);
    inst.Reserve(static_cast<std::size_t>(n) * n, n + 1);
    for (int v = 0; v <= n; ++v) {
      inst.AddValue(0);
      inst.AddValue(1);
    }
    for (int i = 0; i < n; ++i) {
      inst.AddTuple({i, i});
      inst.AddTuple({i + 1, i});
    }
    state.ResumeTiming();
    ChaseResult result = RunChase(&inst, deps, UnboundedConfig(use_delta));
    benchmark::DoNotOptimize(result.steps);
    hom_nodes = result.hom_nodes;
    final_tuples = inst.NumTuples();
  }
  state.counters["path_length"] = n;
  state.counters["use_delta"] = use_delta ? 1 : 0;
  state.counters["final_tuples"] = static_cast<double>(final_tuples);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
}
BENCHMARK(BM_ChaseZigzagReachability)->ArgsProduct({{8, 16, 32}, {0, 1}});

// ---- Matcher timings --------------------------------------------------------
//
// The BM_Layout* family: the row-major matcher on three shapes, with its
// deterministic counters (fired_steps, hom_nodes, hom_candidates) beside
// the wall time.

void BM_LayoutReductionSweep(benchmark::State& state) {
  // The headline series: the paper's own gadget instances (arity = 2n + 2,
  // a wide schema) in the capped production regime.
  WorkloadOptions options;
  options.size = 12;
  std::vector<Job> jobs = ReductionSweepWorkload(options);
  std::uint64_t hom_nodes = 0;
  std::uint64_t hom_candidates = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    hom_nodes = 0;
    hom_candidates = 0;
    steps = 0;
    for (const Job& job : jobs) {
      ChaseConfig config = job.config.base_chase;
      config.max_fires_per_pass = 64;
      ImplicationResult r = ChaseImplies(job.dependencies, job.goal, config);
      benchmark::DoNotOptimize(r.verdict);
      hom_nodes += r.chase.hom_nodes;
      hom_candidates += r.chase.hom_candidates;
      steps += r.chase.steps;
    }
  }
  state.counters["jobs"] = static_cast<double>(jobs.size());
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
  state.counters["hom_candidates"] = static_cast<double>(hom_candidates);
}
BENCHMARK(BM_LayoutReductionSweep);

void BM_LayoutWideSchema(benchmark::State& state) {
  // The arity sweep's widest point, isolated: two-row join TD over 24
  // attributes — rows span 96 bytes, so candidate probes touch two cache
  // lines.
  const int arity = 24;
  SchemaPtr schema =
      std::make_shared<const Schema>(Schema::Numbered(arity, "X"));
  Dependency::Builder builder(schema);
  Row r1(arity), r2(arity), head(arity);
  int shared = builder.Var(0);
  r1[0] = r2[0] = head[0] = shared;
  for (int attr = 1; attr < arity; ++attr) {
    r1[attr] = builder.Var(attr);
    r2[attr] = builder.Var(attr);
    head[attr] = attr + 1 == arity ? r2[attr] : r1[attr];
  }
  Dependency::Builder b2 = std::move(builder);
  b2.AddBodyRow(r1);
  b2.AddBodyRow(r2);
  b2.AddHeadRow(head);
  DependencySet deps;
  deps.Add(std::move(b2).Build().value());
  std::uint64_t hom_nodes = 0;
  std::uint64_t hom_candidates = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst = SeedInstance(schema, 10, 3, 11);
    state.ResumeTiming();
    ChaseConfig config = UnboundedConfig(/*use_delta=*/true);
    ChaseResult result = RunChase(&inst, deps, config);
    benchmark::DoNotOptimize(result.steps);
    steps = result.steps;
    hom_nodes = result.hom_nodes;
    hom_candidates = result.hom_candidates;
  }
  state.counters["arity"] = arity;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
  state.counters["hom_candidates"] = static_cast<double>(hom_candidates);
}
BENCHMARK(BM_LayoutWideSchema);

void BM_LayoutZigzag(benchmark::State& state) {
  // The fixpoint-heavy closure: many small partition members per pass, rows
  // with 2+ bound positions once the chain is under way.
  const int n = 32;
  SchemaPtr schema = MakeSchema({"A", "B"});
  DependencySet deps;
  deps.Add(std::move(ParseDependency(
               schema, "R(a,b) & R(a2,b) & R(a2,b2) => R(a,b2)"))
               .value(),
           "reach");
  std::uint64_t hom_nodes = 0;
  std::uint64_t hom_candidates = 0;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Instance inst(schema);
    inst.Reserve(static_cast<std::size_t>(n) * n, n + 1);
    for (int v = 0; v <= n; ++v) {
      inst.AddValue(0);
      inst.AddValue(1);
    }
    for (int i = 0; i < n; ++i) {
      inst.AddTuple({i, i});
      inst.AddTuple({i + 1, i});
    }
    state.ResumeTiming();
    ChaseConfig config = UnboundedConfig(/*use_delta=*/true);
    ChaseResult result = RunChase(&inst, deps, config);
    benchmark::DoNotOptimize(result.steps);
    steps = result.steps;
    hom_nodes = result.hom_nodes;
    hom_candidates = result.hom_candidates;
  }
  state.counters["path_length"] = n;
  state.counters["fired_steps"] = static_cast<double>(steps);
  state.counters["hom_nodes"] = static_cast<double>(hom_nodes);
  state.counters["hom_candidates"] = static_cast<double>(hom_candidates);
}
BENCHMARK(BM_LayoutZigzag);

}  // namespace
}  // namespace tdlib
