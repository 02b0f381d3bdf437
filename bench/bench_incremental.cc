// Incremental maintenance (PR 9): the cost of keeping derived state alive
// across updates versus recomputing it.
//
//   * BM_ColdRecompute_TC        — the pre-PR-9 regime: a fresh session per
//     iteration re-derives the tc fixpoint from scratch (plus the output
//     scan that serves the answer).
//   * BM_SingleTupleUpdate_TC    — one edge toggled per committed
//     transaction, derived state maintained forward (writer cache inside
//     Exec, session cache inside Refresh): EvaluateDelta resumes semi-naive
//     from the single-tuple delta. The headline claim (ISSUE 9): >= 10x
//     faster than the cold recompute at n >= 128.
//   * BM_SingleTupleUpdateServe_TC — the same update plus a query served
//     from the maintained cache: end-to-end latency. The serving scan
//     (evaluating the output rule over the cached extent) is identical in
//     both regimes and predates this PR, so it is kept out of the headline
//     pair and measured here.
//   * BM_BatchedUpdate_TC        — 8 edges per transaction, amortizing the
//     per-commit overhead across a batch delta.
//   * BM_MidChainDeleteDRed_TC   — toggling a load-bearing mid-chain edge:
//     the DRed over-delete cascade touches O(n^2/4) closure pairs, the
//     worst case for delete maintenance (no 10x claim here; this series
//     bounds the cost of the expensive path against full recompute).
//
// The update benchmarks alternate insert/delete of the same edge(s) so the
// database returns to its initial state every two iterations — steady
// state, no unbounded growth across benchmark iterations. The toggled
// edges leave a node outside the chain (kFresh), so both directions have a
// delta cone proportional to the batch, not to |tc|. Each update benchmark
// checks after the timed loop that the maintained answer matches a fresh
// session's recomputation. BM_SingleTupleUpdate_TC and
// BM_MidChainDeleteDRed_TC also report index_builds and index_repairs per
// iteration: after warm-up the maintained indexes repair themselves from
// the extents' erase journals, so builds per iteration fall towards 0.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "core/session.h"

namespace rel {
namespace {

constexpr char kTcRules[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

constexpr int kFresh = 100000;  // a source node no ChainGraph ever contains

constexpr char kPointQuery[] = "def output(y) : tc(0, y)";

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(128)->Arg(256)->ArgName("n");
}

std::unique_ptr<Engine> ChainEngine(int n) {
  auto engine = std::make_unique<Engine>();
  engine->Define(kTcRules);
  engine->Insert("edge", benchutil::ChainGraph(n));
  return engine;
}

/// Post-loop correctness gate: the maintained session and a fresh session
/// must serve the same answer of the final database state.
void CheckMaintainedAnswer(benchmark::State& state, Engine* engine,
                           Session* maintained) {
  Relation served = maintained->Query(kPointQuery);
  Relation fresh = engine->OpenSession()->Query(kPointQuery);
  if (served.ToString() != fresh.ToString()) {
    state.SkipWithError("maintained answer diverged from recomputation");
  }
}

/// Cold baseline: a fresh session per iteration, so every query re-derives
/// the full tc fixpoint (a new session's extent cache starts empty).
void BM_ColdRecompute_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  for (auto _ : state) {
    std::unique_ptr<Session> session = engine->OpenSession();
    Relation out = session->Query(kPointQuery);
    benchmark::DoNotOptimize(out);
  }
}

/// One edge(kFresh, n-1) toggled per transaction through the commit
/// pipeline, derived state maintained forward: Exec maintains the writer
/// cache, Refresh walks the snapshot's delta chain and maintains the
/// session cache. The delta cone is a single tc tuple in both directions
/// (kFresh has no other edges), so each iteration costs commit + O(1)
/// maintenance — against BM_ColdRecompute_TC's full re-derivation.
/// Full index builds and journal repairs per iteration of the session's
/// maintenance passes (warm-up included): after warm-up an update repairs
/// the indexes it probes instead of rebuilding them.
void ReportIndexCounters(benchmark::State& state, const Session& session) {
  const datalog::EvalStats& stats = session.extent_cache().maintain_stats();
  state.counters["index_builds"] =
      benchmark::Counter(static_cast<double>(stats.index_builds),
                         benchmark::Counter::kAvgIterations);
  state.counters["index_repairs"] =
      benchmark::Counter(static_cast<double>(stats.index_repairs),
                         benchmark::Counter::kAvgIterations);
}

void BM_SingleTupleUpdate_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kPointQuery);  // warm: populates the session extent cache
  const std::string src = std::to_string(kFresh);
  const std::string dst = std::to_string(n - 1);
  const std::string ins =
      "def insert(:edge, x, y) : x = " + src + " and y = " + dst;
  const std::string del =
      "def delete(:edge, x, y) : x = " + src + " and y = " + dst;
  bool inserting = true;
  for (auto _ : state) {
    engine->Exec(inserting ? ins : del);
    session->Refresh();
    inserting = !inserting;
  }
  state.counters["extent_maintained"] = benchmark::Counter(
      static_cast<double>(session->extent_cache().maintained()));
  ReportIndexCounters(state, *session);
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// The same single-tuple update plus a query served from the maintained
/// cache — end-to-end latency including the (regime-independent) output
/// scan over the cached extent.
void BM_SingleTupleUpdateServe_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kPointQuery);
  const std::string src = std::to_string(kFresh);
  const std::string dst = std::to_string(n - 1);
  const std::string ins =
      "def insert(:edge, x, y) : x = " + src + " and y = " + dst;
  const std::string del =
      "def delete(:edge, x, y) : x = " + src + " and y = " + dst;
  bool inserting = true;
  for (auto _ : state) {
    engine->Exec(inserting ? ins : del);
    session->Refresh();
    Relation out = session->Query(kPointQuery);
    benchmark::DoNotOptimize(out);
    inserting = !inserting;
  }
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(session->extent_cache().hits()));
}

/// Batched: 8 edges from kFresh into the chain interior per transaction
/// (then deleted), amortizing the commit and maintenance overhead. The
/// delta cone is tc(kFresh, *) — O(n/2) tuples — in both directions.
void BM_BatchedUpdate_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kPointQuery);
  const std::string src = std::to_string(kFresh);
  const std::string lo = std::to_string(n / 2);
  const std::string hi = std::to_string(n / 2 + 7);
  const std::string ins = "def insert(:edge, x, y) : x = " + src +
                          " and range(" + lo + ", " + hi + ", 1, y)";
  const std::string del = "def delete(:edge, x, y) : x = " + src +
                          " and range(" + lo + ", " + hi + ", 1, y)";
  bool inserting = true;
  for (auto _ : state) {
    engine->Exec(inserting ? ins : del);
    session->Refresh();
    inserting = !inserting;
  }
  state.counters["extent_maintained"] = benchmark::Counter(
      static_cast<double>(session->extent_cache().maintained()));
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

/// Worst-case delete: toggling a mid-chain edge cuts the chain, so DRed
/// over-deletes every closure pair crossing the cut (~n^2/4 tuples) and the
/// restoring insert re-derives them. This bounds the expensive path; the
/// alternative is the full recompute BM_ColdRecompute_TC measures.
void BM_MidChainDeleteDRed_TC(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = ChainEngine(n);
  std::unique_ptr<Session> session = engine->OpenSession();
  session->Query(kPointQuery);
  const std::string a = std::to_string(n / 2);
  const std::string b = std::to_string(n / 2 + 1);
  const std::string del =
      "def delete(:edge, x, y) : x = " + a + " and y = " + b;
  const std::string ins =
      "def insert(:edge, x, y) : x = " + a + " and y = " + b;
  bool deleting = true;
  for (auto _ : state) {
    engine->Exec(deleting ? del : ins);
    session->Refresh();
    deleting = !deleting;
  }
  state.counters["delta_deletes"] = benchmark::Counter(static_cast<double>(
      session->extent_cache().maintain_stats().delta_deletes));
  ReportIndexCounters(state, *session);
  CheckMaintainedAnswer(state, engine.get(), session.get());
}

BENCHMARK(BM_ColdRecompute_TC)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleTupleUpdate_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SingleTupleUpdateServe_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchedUpdate_TC)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MidChainDeleteDRed_TC)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
