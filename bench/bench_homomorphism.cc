// EXP-CHASE ablation: what the inverted index and the most-constrained-first
// row ordering buy the homomorphism search. Same query, same data, four
// engine configurations — the shape to look for is indexed search staying
// flat while the naive scan grows with instance size.
#include <benchmark/benchmark.h>

#include "logic/homomorphism.h"
#include "util/rng.h"

namespace tdlib {
namespace {

struct Workload {
  SchemaPtr schema;
  Instance instance;
  Tableau query;

  Workload(int tuples, int domain, std::uint64_t seed)
      : schema(MakeSchema({"A", "B", "C"})),
        instance(schema),
        query(schema) {
    Rng rng(seed);
    for (int attr = 0; attr < 3; ++attr) {
      for (int v = 0; v < domain; ++v) instance.AddValue(attr);
    }
    for (int i = 0; i < tuples; ++i) {
      instance.AddTuple({static_cast<int>(rng.Below(domain)),
                         static_cast<int>(rng.Below(domain)),
                         static_cast<int>(rng.Below(domain))});
    }
    // A 3-row chain query: rows linked through shared B and C variables.
    int a1 = query.NewVariable(0), a2 = query.NewVariable(0),
        a3 = query.NewVariable(0);
    int b_shared = query.NewVariable(1), b2 = query.NewVariable(1);
    int c1 = query.NewVariable(2), c_shared = query.NewVariable(2);
    query.AddRow({a1, b_shared, c1});
    query.AddRow({a2, b_shared, c_shared});
    query.AddRow({a3, b2, c_shared});
  }
};

void RunConfig(benchmark::State& state, bool use_index, bool use_order) {
  const int tuples = static_cast<int>(state.range(0));
  Workload w(tuples, std::max(2, tuples / 4), 1234);
  HomSearchOptions options;
  options.use_index = use_index;
  options.use_dynamic_order = use_order;
  std::uint64_t matches = 0;
  std::uint64_t nodes = 0;
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    HomomorphismSearch search(w.query, w.instance, options);
    matches = 0;
    search.ForEach([&](const Valuation&) {
      ++matches;
      return true;
    });
    nodes = search.stats().nodes;
    candidates = search.stats().candidates;
    benchmark::DoNotOptimize(matches);
  }
  state.counters["tuples"] = tuples;
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["candidates"] = static_cast<double>(candidates);
}

void BM_HomIndexedOrdered(benchmark::State& state) {
  RunConfig(state, true, true);
}
void BM_HomIndexedUnordered(benchmark::State& state) {
  RunConfig(state, true, false);
}
void BM_HomNaiveOrdered(benchmark::State& state) {
  RunConfig(state, false, true);
}
void BM_HomNaiveUnordered(benchmark::State& state) {
  RunConfig(state, false, false);
}

BENCHMARK(BM_HomIndexedOrdered)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_HomIndexedUnordered)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_HomNaiveOrdered)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_HomNaiveUnordered)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace tdlib
