// E13 — concurrent serving (the sessions/snapshot redesign): read
// throughput as session count grows, and reader latency while a writer
// commits transaction after transaction underneath them. Every thread is
// one Session on one shared Engine, exactly the server's execution model.

#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "benchutil/generators.h"

namespace rel {
namespace {

constexpr int kChain = 256;  // tc over a 256-node chain

/// The engine shared by all threads of one benchmark run. Threads enter the
/// benchmark function concurrently, so construction is refcounted under a
/// mutex: the first thread in builds, the last one out tears down.
class SharedEngine {
 public:
  Engine* Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_++ == 0) {
      engine_ = std::make_unique<Engine>();
      engine_->Define(
          "def tc(x, y) : edge(x, y)\n"
          "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
      std::vector<Tuple> edges = benchutil::ChainGraph(kChain);
      engine_->Insert("edge", edges);
    }
    return engine_.get();
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--active_ == 0) engine_.reset();
  }

 private:
  std::mutex mu_;
  std::unique_ptr<Engine> engine_;
  int active_ = 0;
};

SharedEngine read_engine;
SharedEngine mixed_engine;

/// N sessions, all readers: each one pins a snapshot and runs bound tc
/// reads against it (rotating the start node; every read after a session's
/// first hits its whole-component extent cache). Scaling is the point: the per-iteration time should hold roughly
/// flat as threads grow, because pinned reads take no locks.
void BM_Serving_ReaderThroughput(benchmark::State& state) {
  Engine* engine = read_engine.Acquire();
  std::unique_ptr<Session> session = engine->OpenSession();
  int64_t queries = 0;
  for (auto _ : state) {
    int start = static_cast<int>(queries % 4);
    Relation out =
        session->Query("def output(y) : tc(" + std::to_string(start) + ", y)");
    benchmark::DoNotOptimize(out);
    ++queries;
  }
  state.counters["queries"] =
      benchmark::Counter(static_cast<double>(queries),
                         benchmark::Counter::kIsRate);
  read_engine.Release();
}
BENCHMARK(BM_Serving_ReaderThroughput)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Writer interference: thread 0 commits insert transactions through the
/// single-writer pipeline while every other thread reads against its pinned
/// snapshot, refreshing each iteration. Readers report their own rate; the
/// series shows what an active writer costs concurrent readers (on this
/// design: nothing but the refresh, since reads never take the writer
/// lock).
void BM_Serving_WriterInterference(benchmark::State& state) {
  Engine* engine = mixed_engine.Acquire();
  std::unique_ptr<Session> session = engine->OpenSession();
  int64_t ops = 0;
  if (state.thread_index() == 0) {
    // The writer: one committed transaction per iteration.
    for (auto _ : state) {
      TxnResult txn = session->Exec(
          "def insert(:W, x) : x = " + std::to_string(ops));
      benchmark::DoNotOptimize(txn.snapshot_version);
      ++ops;
    }
    state.counters["commits"] =
        benchmark::Counter(static_cast<double>(ops),
                           benchmark::Counter::kIsRate);
  } else {
    for (auto _ : state) {
      session->Refresh();
      Relation out = session->Query("def output(y) : tc(0, y)");
      benchmark::DoNotOptimize(out);
      ++ops;
    }
    state.counters["reads"] =
        benchmark::Counter(static_cast<double>(ops),
                           benchmark::Counter::kIsRate);
  }
  mixed_engine.Release();
}
BENCHMARK(BM_Serving_WriterInterference)
    ->ThreadRange(2, 8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
