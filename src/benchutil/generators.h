// Synthetic workload generators for benchmarks and property tests.
//
// The paper's evaluation is qualitative (worked examples + deployment
// claims); these generators provide the controlled synthetic equivalents
// documented in DESIGN.md: random graphs for the recursion workloads,
// sparse matrices for the linear-algebra workloads, and an order/payment
// workload shaped like the Figure 1 schema for aggregation and GNF.

#ifndef REL_BENCHUTIL_GENERATORS_H_
#define REL_BENCHUTIL_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "data/tuple.h"

namespace rel {
namespace benchutil {

/// Directed random graph: `m` distinct edges over nodes 0..n-1 (no self
/// loops). Deterministic in `seed`.
std::vector<Tuple> RandomGraph(int n, int m, uint64_t seed);

/// The path graph 0 -> 1 -> ... -> n-1 (worst-case TC depth).
std::vector<Tuple> ChainGraph(int n);

/// The cycle 0 -> 1 -> ... -> n-1 -> 0.
std::vector<Tuple> CycleGraph(int n);

/// The w x h directed grid: node (r, c) is r*w + c, with edges right
/// ((r,c) -> (r,c+1)) and down ((r,c) -> (r+1,c)). A corner reaches the
/// whole grid along many short paths — the shape between the chain (deep,
/// thin) and the random graph (shallow, dense) among the fuzz generator's
/// EDB graphs.
std::vector<Tuple> GridGraph(int w, int h);

/// A hub-skewed graph: `hubs` nodes connect densely among themselves and to
/// a ring of `n` spokes — triangle-heavy, where binary join plans blow up.
std::vector<Tuple> SkewedTriangleGraph(int n, int hubs, uint64_t seed);

/// Node tuples 0..n-1 (for APSP's V argument).
std::vector<Tuple> NodeSet(int n);

/// Sparse random matrix: triples (row, col, value) with 1-based indexes,
/// about `density` * n * m entries, values in [0, 1).
std::vector<Tuple> SparseMatrix(int n, int m, double density, uint64_t seed);

/// Column-stochastic link matrix for PageRank: each column j holds 1/d(j)
/// for d(j) random out-targets (1-based, n x n). Every column is non-empty.
std::vector<Tuple> StochasticMatrix(int n, int links_per_node, uint64_t seed);

/// An order/payment workload shaped like Figure 1.
struct OrdersWorkload {
  std::vector<Tuple> product_price;           // (product, price)
  std::vector<Tuple> order_product_quantity;  // (order, product, quantity)
  std::vector<Tuple> payment_order;           // (payment, order)
  std::vector<Tuple> payment_amount;          // (payment, amount)
};
OrdersWorkload MakeOrders(int orders, int products, int max_lines,
                          int max_payments, uint64_t seed);

/// The same workload as one wide denormalized table
/// (order, product, quantity, price, payment, amount) — the record-model
/// strawman for the GNF benchmark. NULL-less by construction: rows are the
/// join of the four relations.
std::vector<Tuple> OrdersWideTable(const OrdersWorkload& w);

}  // namespace benchutil
}  // namespace rel

#endif  // REL_BENCHUTIL_GENERATORS_H_
