// Reference answers, computed by hand-written algorithms that share no code
// with the system under test: BFS, Dijkstra, level-indexed PageRank in
// doubles, and a mirror of the order/payment application that also knows
// which transactions an integrity constraint must abort.

#ifndef RELBENCH_ORACLES_H_
#define RELBENCH_ORACLES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "generators.h"

namespace relbench {

/// The relation holding `rows` (Int values), to compare an answer with.
rel::Relation IntRows(const std::vector<std::vector<int64_t>>& rows);
/// The unary relation {(x) : x in xs}.
rel::Relation IntSet(const std::vector<int>& xs);
/// "" when `got` equals `want`, else a one-line description of the gap.
std::string Mismatch(const rel::Relation& got, const rel::Relation& want);

/// Out-adjacency over nodes 0..n-1.
std::vector<std::vector<int>> Adjacency(int n, const std::vector<Edge>& edges);

/// Sorted nodes reachable from `src` by a path of at least one edge, plus
/// `src` itself when `include_src`.
std::vector<int> Reachable(const std::vector<std::vector<int>>& adj, int src,
                           bool include_src);

/// Dijkstra from `src` over nodes 0..n-1: node -> shortest distance, for
/// every reachable node (src maps to 0).
std::map<int, int64_t> ShortestPaths(int n,
                                     const std::vector<WeightedEdge>& edges,
                                     int src);

/// Level-indexed PageRank over nodes 1..n: every node starts at rank 1.0;
/// the rank of v at level t sums rank(u, t-1) / outdeg(u) over edges u->v
/// whose source has a rank at t-1. Returns node -> rank at `levels`, for
/// the nodes that have one.
std::map<int, double> PageRankLevels(int n, const std::vector<Edge>& edges,
                                     int levels);

/// The order/payment application's state, kept in step with every
/// committed transaction of the `orders` workload.
class OrdersMirror {
 public:
  explicit OrdersMirror(const OrdersData& data);

  /// Live orders, oldest first.
  const std::deque<std::string>& live() const { return live_; }

  /// (product, qty) of order `o`, sorted by product.
  std::vector<std::pair<std::string, int64_t>> Lines(const std::string& o) const;
  /// Sum of qty * price over the order's lines; nullopt without lines.
  std::optional<int64_t> Total(const std::string& o) const;
  /// Sum of the order's payments (0 when none); nullopt when the order has
  /// no lines (it is then not in Ord).
  std::optional<int64_t> Paid(const std::string& o) const;
  /// Sum of qty * price over all lines of product `p`; nullopt when none.
  std::optional<int64_t> Revenue(const std::string& p) const;
  /// Number of payments of order `o`.
  size_t PaymentCount(const std::string& o) const;

  /// A committed new order: adds `lines` under a fresh order id and removes
  /// the oldest order with its payments.
  void NewOrder(const std::string& order,
                const std::vector<std::pair<std::string, int64_t>>& lines);
  void AddPayment(const std::string& id, const std::string& order,
                  int64_t amount);

 private:
  std::map<std::string, int64_t> price_;
  std::map<std::string, std::map<std::string, int64_t>> lines_;
  std::map<std::string, std::pair<std::string, int64_t>> payments_;
  std::deque<std::string> live_;
};

}  // namespace relbench

#endif  // RELBENCH_ORACLES_H_
