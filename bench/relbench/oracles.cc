#include "oracles.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

namespace relbench {

rel::Relation IntRows(const std::vector<std::vector<int64_t>>& rows) {
  rel::Relation r;
  for (const auto& row : rows) {
    std::vector<rel::Value> values;
    for (int64_t v : row) values.push_back(rel::Value::Int(v));
    r.Insert(rel::Tuple(std::move(values)));
  }
  return r;
}

rel::Relation IntSet(const std::vector<int>& xs) {
  rel::Relation r;
  for (int x : xs) r.Insert(rel::Tuple({rel::Value::Int(x)}));
  return r;
}

std::string Mismatch(const rel::Relation& got, const rel::Relation& want) {
  if (got == want) return "";
  std::string out = "got " + std::to_string(got.size()) + " tuples, want " +
                    std::to_string(want.size());
  for (const rel::Tuple& t : want.SortedTuples()) {
    if (!got.Contains(t)) return out + "; missing " + t.ToString();
  }
  for (const rel::Tuple& t : got.SortedTuples()) {
    if (!want.Contains(t)) return out + "; unexpected " + t.ToString();
  }
  return out;
}

std::vector<std::vector<int>> Adjacency(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> adj(n);
  for (const Edge& e : edges) adj[e.first].push_back(e.second);
  return adj;
}

std::vector<int> Reachable(const std::vector<std::vector<int>>& adj, int src,
                           bool include_src) {
  std::vector<bool> seen(adj.size(), false);
  std::vector<int> queue;
  if (include_src) {
    seen[src] = true;
    queue.push_back(src);
  }
  for (int v : adj[src]) {
    if (!seen[v]) {
      seen[v] = true;
      queue.push_back(v);
    }
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    for (int v : adj[queue[i]]) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

std::map<int, int64_t> ShortestPaths(int n,
                                     const std::vector<WeightedEdge>& edges,
                                     int src) {
  std::vector<std::vector<std::pair<int, int>>> adj(n);
  for (const WeightedEdge& e : edges) adj[e.from].push_back({e.to, e.weight});
  std::map<int, int64_t> dist;
  using Item = std::pair<int64_t, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  heap.push({0, src});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (dist.count(u)) continue;
    dist[u] = d;
    for (auto [v, w] : adj[u]) {
      if (!dist.count(v)) heap.push({d + w, v});
    }
  }
  return dist;
}

std::map<int, double> PageRankLevels(int n, const std::vector<Edge>& edges,
                                     int levels) {
  std::vector<int> outdeg(n + 1, 0);
  for (const Edge& e : edges) ++outdeg[e.first];
  std::vector<std::optional<double>> rank(n + 1);
  for (int v = 1; v <= n; ++v) rank[v] = 1.0;
  for (int t = 1; t <= levels; ++t) {
    std::vector<std::optional<double>> next(n + 1);
    for (const Edge& e : edges) {
      if (!rank[e.first]) continue;
      double x = (1.0 / outdeg[e.first]) * *rank[e.first];
      next[e.second] = next[e.second].value_or(0.0) + x;
    }
    rank = std::move(next);
  }
  std::map<int, double> out;
  for (int v = 1; v <= n; ++v) {
    if (rank[v]) out[v] = *rank[v];
  }
  return out;
}

OrdersMirror::OrdersMirror(const OrdersData& data) {
  for (const auto& [p, price] : data.prices) price_[p] = price;
  for (const OrderLine& l : data.lines) {
    if (!lines_.count(l.order)) live_.push_back(l.order);
    lines_[l.order][l.product] = l.qty;
  }
  for (const Payment& p : data.payments) {
    payments_[p.id] = {p.order, p.amount};
  }
}

std::vector<std::pair<std::string, int64_t>> OrdersMirror::Lines(
    const std::string& o) const {
  std::vector<std::pair<std::string, int64_t>> out;
  auto it = lines_.find(o);
  if (it == lines_.end()) return out;
  for (const auto& [p, q] : it->second) out.push_back({p, q});
  return out;
}

std::optional<int64_t> OrdersMirror::Total(const std::string& o) const {
  auto it = lines_.find(o);
  if (it == lines_.end()) return std::nullopt;
  int64_t total = 0;
  for (const auto& [p, q] : it->second) total += q * price_.at(p);
  return total;
}

std::optional<int64_t> OrdersMirror::Paid(const std::string& o) const {
  if (!lines_.count(o)) return std::nullopt;
  int64_t paid = 0;
  for (const auto& [id, pay] : payments_) {
    if (pay.first == o) paid += pay.second;
  }
  return paid;
}

std::optional<int64_t> OrdersMirror::Revenue(const std::string& p) const {
  std::optional<int64_t> revenue;
  for (const auto& [o, lines] : lines_) {
    auto it = lines.find(p);
    if (it != lines.end()) {
      revenue = revenue.value_or(0) + it->second * price_.at(p);
    }
  }
  return revenue;
}

size_t OrdersMirror::PaymentCount(const std::string& o) const {
  size_t n = 0;
  for (const auto& [id, pay] : payments_) n += pay.first == o;
  return n;
}

void OrdersMirror::NewOrder(
    const std::string& order,
    const std::vector<std::pair<std::string, int64_t>>& lines) {
  for (const auto& [p, q] : lines) lines_[order][p] = q;
  live_.push_back(order);
  const std::string oldest = live_.front();
  live_.pop_front();
  lines_.erase(oldest);
  for (auto it = payments_.begin(); it != payments_.end();) {
    it = it->second.first == oldest ? payments_.erase(it) : std::next(it);
  }
}

void OrdersMirror::AddPayment(const std::string& id, const std::string& order,
                              int64_t amount) {
  payments_[id] = {order, amount};
}

}  // namespace relbench
