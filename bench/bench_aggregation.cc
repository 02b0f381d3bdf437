// E7 — aggregation under set semantics (Section 5.2): grouped sums over the
// order/payment workload, in Rel (grouping via partial application in the
// head) vs the handwritten group-by.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"

namespace rel {
namespace {

void ApplyArgs(benchmark::internal::Benchmark* b) {
  b->Arg(50)->Arg(100)->Arg(200)->ArgName("orders");
}

benchutil::OrdersWorkload Workload(const benchmark::State& state) {
  int orders = static_cast<int>(state.range(0));
  return benchutil::MakeOrders(orders, orders / 2 + 5, 4, 3, 123);
}

void BM_GroupedSum_Rel(benchmark::State& state) {
  benchutil::OrdersWorkload w = Workload(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {
        {"OrderProductQuantity", &w.order_product_quantity},
        {"PaymentOrder", &w.payment_order},
        {"PaymentAmount", &w.payment_amount},
    });
    Relation out = engine.Query(
        "def Ord(x) : OrderProductQuantity(x,_,_)\n"
        "def OrderPaymentAmount(x,y,z) :\n"
        "  PaymentOrder(y,x) and PaymentAmount(y,z)\n"
        "def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0\n"
        "def output : OrderPaid");
    benchmark::DoNotOptimize(out.size());
    state.counters["groups"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_GroupedSum_Rel)->Apply(ApplyArgs)->Unit(benchmark::kMillisecond);

void BM_GroupedSum_RelLowered(benchmark::State& state) {
  // The aggregate head form the lowering routes onto the planned engine
  // (groups with no payments produce no row, unlike the <++ 0 default of
  // the series above — a deliberate shape difference, not a bug).
  benchutil::OrdersWorkload w = Workload(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, {
        {"OrderProductQuantity", &w.order_product_quantity},
        {"PaymentOrder", &w.payment_order},
        {"PaymentAmount", &w.payment_amount},
    });
    Relation out = engine.Query(
        "def OrderPaid(x, s) : s = sum[(y, z) :\n"
        "    PaymentOrder(y, x) and PaymentAmount(y, z)]\n"
        "def output : OrderPaid");
    if (engine.last_lowering_stats().components_lowered < 1) {
      state.SkipWithError("grouped-sum component did not lower");
      return;
    }
    benchmark::DoNotOptimize(out.size());
    state.counters["groups"] = static_cast<double>(out.size());
  }
}
BENCHMARK(BM_GroupedSum_RelLowered)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_GroupedSum_Handwritten(benchmark::State& state) {
  benchutil::OrdersWorkload w = Workload(state);
  // The gate's normalizer: repeated to about 1e3 payments per timed
  // iteration, so its ratio tracks the machine rather than the timer.
  const size_t reps = 1000 / w.payment_order.size() + 1;
  for (auto _ : state) {
    for (size_t r = 0; r < reps; ++r) {
      // Join payment_order with payment_amount, then group by order.
      std::map<Value, Value> amounts;
      for (const Tuple& t : w.payment_amount) amounts.emplace(t[0], t[1]);
      std::vector<Tuple> joined;
      joined.reserve(w.payment_order.size());
      for (const Tuple& t : w.payment_order) {
        joined.push_back(Tuple({t[1], amounts.at(t[0])}));
      }
      auto grouped = benchutil::GroupSumRef(joined);
      benchmark::DoNotOptimize(grouped.size());
      benchmark::ClobberMemory();
    }
  }
  state.counters["reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_GroupedSum_Handwritten)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

void BM_CountDistinct_Rel(benchmark::State& state) {
  // Set semantics makes COUNT(DISTINCT ...) the default count (Section 5.2).
  benchutil::OrdersWorkload w = Workload(state);
  for (auto _ : state) {
    Engine engine;
    bench::LoadEngine(engine, 
        {{"OrderProductQuantity", &w.order_product_quantity}});
    Relation out = engine.Query(
        "def output : count[(p) : OrderProductQuantity(_, p, _)]");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CountDistinct_Rel)
    ->Apply(ApplyArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rel

BENCHMARK_MAIN();
