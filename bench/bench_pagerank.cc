// E8 — PageRank with a stop condition (Section 5.4): the non-stratified
// recursion through `empty`/`not stop`, vs the level-indexed recursive-sum
// formulation on the lowered Datalog engine (and the same program on the
// interpreter), vs the handwritten level-indexed iteration.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(8)->Arg(16)->Arg(32)->ArgName("n");
}

// The level-indexed series also run at n=200, the relbench pagerank_levels
// size, where the fixpoint rather than per-query fixed cost dominates.
void ApplyLevelArgs(benchmark::internal::Benchmark* b) {
  ApplyArgs(b);
  b->Arg(200);
}

constexpr int kSteps = 10;

void BM_PageRank_Rel(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> g = benchutil::StochasticMatrix(n, 3, 11);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"G", &g}});
    Relation out = engine.Query("def output : PageRank[G]");
    benchmark::DoNotOptimize(out.size());
    state.counters["entries"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_PageRank_Rel)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

// Level-indexed power iteration as one recursive sum (Section 5.2): rank
// at step t sums the scaled ranks of in-neighbors at t - 1, with the unit
// start mass as an extra contribution row at t = 0. Every contribution to
// a level's groups arrives in one semi-naive round, so the engine's
// emit-once guard for recursive sums never fires and the component takes
// the fast path.
std::string PageRankSumSource(int n, int steps) {
  return "def pr(v, t, r) : r = sum[(u, x) :\n"
         "    (t = 0 and u = 0 and range(1, " + std::to_string(n) +
         ", 1, v) and x = 1.0) or\n"
         "    (range(1, " + std::to_string(steps) +
         ", 1, t) and exists((s, rr, w) |\n"
         "        s = t - 1 and G(v, u, w) and pr(u, s, rr) and\n"
         "        x = w * rr))]\n"
         "def output(v, r) : pr(v, " + std::to_string(steps) + ", r)";
}

// The engine and G are set up once; only the query is timed. Its rules are
// query-local, so every Query lowers and evaluates the fixpoint afresh.
void RunPageRankSum(benchmark::State& state, bool lower) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> g = benchutil::StochasticMatrix(n, 3, 11);
  std::string source = PageRankSumSource(n, kSteps);
  Engine engine;
  engine.options().lower_recursion = lower;
  bench::LoadEngine(engine, {{"G", &g}});
  for (auto _ : state) {
    Relation out = engine.Query(source);
    if (lower && engine.last_lowering_stats().components_lowered < 1) {
      state.SkipWithError("recursive-sum component did not lower");
      return;
    }
    benchmark::DoNotOptimize(out.size());
    state.counters["entries"] = static_cast<double>(out.size());
  }
}

void BM_PageRank_RelSumLowered(benchmark::State& state) {
  RunPageRankSum(state, /*lower=*/true);
}
BENCHMARK(BM_PageRank_RelSumLowered)
    ->Apply(ApplyLevelArgs)
    ->Unit(benchmark::kMillisecond);

void BM_PageRank_RelSumInterp(benchmark::State& state) {
  RunPageRankSum(state, /*lower=*/false);
}
BENCHMARK(BM_PageRank_RelSumInterp)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

// The machine-speed reference the CI gate divides by: the same ten-level
// power iteration in plain C++, repeated until one timed iteration does
// about 2e5 multiply-adds (0.1-0.3 ms at every n), so it measures the
// machine rather than the timer.
void BM_PageRank_Handwritten(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> g = benchutil::StochasticMatrix(n, 3, 11);
  const size_t reps = 200000 / (g.size() * kSteps) + 1;
  for (auto _ : state) {
    for (size_t r = 0; r < reps; ++r) {
      std::vector<double> p = benchutil::PageRankLevelsRef(n, g, kSteps);
      benchmark::DoNotOptimize(p.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_PageRank_Handwritten)
    ->Apply(ApplyLevelArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
