// Seeded input generators. They live with the benchmark, not in src/, so a
// change to the library can never shift what the workloads feed it: the same
// --seed gives byte-identical inputs at every commit.

#ifndef RELBENCH_GENERATORS_H_
#define RELBENCH_GENERATORS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace relbench {

using Edge = std::pair<int, int>;

struct WeightedEdge {
  int from, to, weight;
};

// Graph shapes are chosen so that answer sizes, and so the work per query,
// do not depend on the seed: only which nodes play which role does.

/// `m` distinct directed edges over nodes first..first+n-1, no self loops.
std::vector<Edge> RandomDigraph(Rng& rng, int n, int m, int first = 0);

/// `m` distinct edges over nodes 0..n-1, no self loops: a cycle through a
/// random order of all nodes (so the graph is strongly connected) plus
/// random chords.
std::vector<Edge> StronglyConnected(Rng& rng, int n, int m);

/// StronglyConnected over the core 0..core-1 with `core_m` edges, plus
/// nodes core..core+sources-1 with `fanout` edges each into the core and
/// none in: every core node reaches exactly the core.
std::vector<Edge> CoreWithSources(Rng& rng, int core, int core_m, int sources,
                                  int fanout);

/// Edges i -> i + o (mod n) for every node i and offset o, under a random
/// relabelling of the nodes: a fixed shape (and diameter) for every seed.
std::vector<Edge> Circulant(Rng& rng, int n, const std::vector<int>& offsets);

/// `edges` with integer weights in [1, 9].
std::vector<WeightedEdge> Weighted(Rng& rng, const std::vector<Edge>& edges);

/// A parts hierarchy: 384 parts in five levels of widths 24, 48, 72, 96 and
/// 144, and `m` distinct edges from a part to a part one level down (two
/// levels down with probability 0.1), dealt round-robin over the parts that
/// have a level below so out-degrees differ by at most one. Acyclic by
/// construction; m = 1152 gives a closure of about 11.2k pairs.
struct PartsDag {
  int n = 0;
  std::vector<int> level;       // level of each part
  std::vector<int> level_start; // first part of each level
  std::vector<int> level_width;
  std::vector<Edge> edges;
};
PartsDag MakePartsDag(Rng& rng, int m);

/// A random edge from part `parent` absent from `present`, to a part a
/// level (or two) below, so the hierarchy stays layered (and acyclic).
Edge RandomAbsentDagEdge(Rng& rng, const PartsDag& dag, int parent,
                         const std::set<Edge>& present);

/// The Figure-1 order/payment data: `products` priced products, `orders`
/// orders of 1-5 distinct lines each, and one payment for about half of the
/// orders (the steady state of the orders workload, whose writes add 0.5
/// payments per new order). Ids are strings ("P007", "O000042", "Pm000013").
struct OrderLine {
  std::string order, product;
  int64_t qty;
};
struct Payment {
  std::string id, order;
  int64_t amount;
};
struct OrdersData {
  std::vector<std::pair<std::string, int64_t>> prices;
  std::vector<OrderLine> lines;
  std::vector<Payment> payments;
  int next_order = 0;    // numeric part of the next fresh order id
  int next_payment = 0;  // numeric part of the next fresh payment id
};
OrdersData MakeOrders(Rng& rng, int products, int orders);

std::string ProductId(int i);
std::string OrderId(int i);
std::string PaymentId(int i);

}  // namespace relbench

#endif  // RELBENCH_GENERATORS_H_
