// E12 — transactions and integrity constraints (Sections 3.4 and 3.5):
// insert/delete throughput through the control relations, with and without
// installed constraints, plus the cost of an aborting transaction.
//
// The one-row series (BM_OneRowInsertCommit, BM_OneRowDeleteCommit, next to
// BM_PointQuery) commit a single-tuple delta into a relation of 1k, 16k and
// 128k rows. A commit should cost what its delta costs; the gap between
// the rows=1024 and rows=131072 lines is what the per-commit work that
// still scales with the relation (publish, copy-on-write) costs.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "bench_common.h"
#include "benchutil/generators.h"
#include "storage/file.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(32)->Arg(128)->Arg(512)->ArgName("tuples");
}

void BM_InsertTxn_NoConstraints(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    TxnResult txn = engine.Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.inserted);
  }
}
BENCHMARK(BM_InsertTxn_NoConstraints)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_InsertTxn_WithConstraint(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    engine.Define(
        "ic positive_numbers() requires\n"
        "  forall((x) | Numbers(x) implies x > 0)");
    TxnResult txn = engine.Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.inserted);
  }
}
BENCHMARK(BM_InsertTxn_WithConstraint)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_AbortingTxn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    engine.Define(
        "ic small_numbers() requires\n"
        "  forall((x) | Numbers(x) implies x < " + std::to_string(n / 2) +
        ")");
    bool aborted = false;
    try {
      engine.Exec("def insert(:Numbers, x) : range(1, " + std::to_string(n) +
                  ", 1, x)");
    } catch (const ConstraintViolation&) {
      aborted = true;
    }
    benchmark::DoNotOptimize(aborted);
    // Rollback must leave the database empty.
    if (engine.Base("Numbers").size() != 0) state.SkipWithError("no rollback");
  }
}
BENCHMARK(BM_AbortingTxn)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

// The same insert transaction as BM_InsertTxn_NoConstraints, but with a
// durable store attached (in-memory file system, so this series tracks the
// WAL encode/append overhead of the commit pipeline, not disk speed;
// bench_wal measures real fsync cost).
void BM_InsertTxn_Durable(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    auto fs = std::make_shared<storage::MemFileSystem>();
    if (!engine.AttachStorage("db", {}, fs).status.ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    TxnResult txn = engine.Exec(
        "def insert(:Numbers, x) : range(1, " + std::to_string(n) +
        ", 1, x)");
    benchmark::DoNotOptimize(txn.txn_id);
  }
}
BENCHMARK(BM_InsertTxn_Durable)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_DeleteTxn(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Tuple> numbers;
  for (int i = 1; i <= n; ++i) numbers.push_back(Tuple({Value::Int(i)}));
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {{"Numbers", &numbers}});
    TxnResult txn =
        engine.Exec("def delete(:Numbers, x) : Numbers(x) and x % 2 = 0");
    benchmark::DoNotOptimize(txn.deleted);
  }
}
BENCHMARK(BM_DeleteTxn)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

// --- one-row commits into a relation of n rows ------------------------------

void RowsArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)->ArgName("rows");
}

/// An engine whose base relation Rows holds n (int, string) rows — strings,
/// so sorted views pay the interned-string compares real data does.
std::unique_ptr<Engine> RowsEngine(int n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value::Int(i),
                          Value::String("item" + std::to_string(i % 997))}));
  }
  auto engine = std::make_unique<Engine>();
  engine->Insert("Rows", rows);
  return engine;
}

std::string RowCommit(const char* verb, int key) {
  return std::string("def ") + verb + "(:Rows, x, y) : x = " +
         std::to_string(key) + " and y = \"fresh\"";
}

/// Timed: a commit inserting one row. Untimed: the commit deleting it again,
/// so every iteration starts from the same n rows.
void BM_OneRowInsertCommit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = RowsEngine(n);
  const std::string ins = RowCommit("insert", n);
  const std::string del = RowCommit("delete", n);
  for (auto _ : state) {
    TxnResult txn = engine->Exec(ins);
    benchmark::DoNotOptimize(txn.inserted);
    state.PauseTiming();
    engine->Exec(del);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_OneRowInsertCommit)
    ->Apply(RowsArgs)
    ->Unit(benchmark::kMillisecond);

/// BM_OneRowInsertCommit with two constraints over Rows: a per-row
/// comparison and a probe into a second relation. Each commit checks only
/// its own row (core/ic_check.h), so the series should track the unguarded
/// one at every size. The untimed first commit runs the full pass that
/// verifies the bulk-loaded base.
void BM_OneRowInsertCommit_Guarded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = RowsEngine(n);
  engine->Define(
      "ic key_nonnegative(x) requires Rows(x, _) implies x >= 0\n"
      "ic labelled(y) requires Rows(_, y) implies Label(y)");
  std::vector<Tuple> labels = {Tuple({Value::String("fresh")})};
  for (int i = 0; i < 997; ++i) {
    labels.push_back(Tuple({Value::String("item" + std::to_string(i))}));
  }
  engine->Insert("Label", labels);
  const std::string ins = RowCommit("insert", n);
  const std::string del = RowCommit("delete", n);
  engine->Exec(ins);
  engine->Exec(del);
  for (auto _ : state) {
    TxnResult txn = engine->Exec(ins);
    benchmark::DoNotOptimize(txn.inserted);
    state.PauseTiming();
    engine->Exec(del);
    state.ResumeTiming();
  }
  state.counters["ic_full"] = static_cast<double>(engine->ic_stats().full);
}
BENCHMARK(BM_OneRowInsertCommit_Guarded)
    ->Apply(RowsArgs)
    ->Unit(benchmark::kMillisecond);

/// Timed: a commit deleting one row from the middle of the relation.
/// Untimed: the commit restoring it.
void BM_OneRowDeleteCommit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = RowsEngine(n);
  engine->Exec(RowCommit("insert", n / 2 + n));
  const std::string del = RowCommit("delete", n / 2 + n);
  const std::string ins = RowCommit("insert", n / 2 + n);
  for (auto _ : state) {
    TxnResult txn = engine->Exec(del);
    benchmark::DoNotOptimize(txn.deleted);
    state.PauseTiming();
    engine->Exec(ins);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_OneRowDeleteCommit)
    ->Apply(RowsArgs)
    ->Unit(benchmark::kMillisecond);

/// The point query the commits are measured against.
void BM_PointQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<Engine> engine = RowsEngine(n);
  const std::string query =
      "def output(y) : Rows(" + std::to_string(n / 3) + ", y)";
  for (auto _ : state) {
    Relation out = engine->Query(query);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PointQuery)->Apply(RowsArgs)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
