#include "benchutil/reference.h"

#include <algorithm>
#include <deque>

namespace rel {
namespace benchutil {

std::set<std::pair<int64_t, int64_t>> TransitiveClosureRef(
    const std::vector<Tuple>& edges) {
  std::map<int64_t, std::vector<int64_t>> adj;
  std::set<int64_t> nodes;
  for (const Tuple& e : edges) {
    adj[e[0].AsInt()].push_back(e[1].AsInt());
    nodes.insert(e[0].AsInt());
    nodes.insert(e[1].AsInt());
  }
  std::set<std::pair<int64_t, int64_t>> closure;
  for (int64_t s : nodes) {
    std::deque<int64_t> queue = {s};
    std::set<int64_t> visited;
    while (!queue.empty()) {
      int64_t u = queue.front();
      queue.pop_front();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (int64_t v : it->second) {
        if (visited.insert(v).second) {
          closure.emplace(s, v);
          queue.push_back(v);
        }
      }
    }
  }
  return closure;
}

std::map<std::pair<int64_t, int64_t>, int64_t> ApspRef(
    int n, const std::vector<Tuple>& edges) {
  std::map<int64_t, std::vector<int64_t>> adj;
  for (const Tuple& e : edges) adj[e[0].AsInt()].push_back(e[1].AsInt());
  std::map<std::pair<int64_t, int64_t>, int64_t> dist;
  for (int64_t s = 0; s < n; ++s) {
    dist[{s, s}] = 0;
    std::deque<int64_t> queue = {s};
    std::map<int64_t, int64_t> d;
    d[s] = 0;
    while (!queue.empty()) {
      int64_t u = queue.front();
      queue.pop_front();
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (int64_t v : it->second) {
        if (v < 0 || v >= n) continue;
        if (d.count(v)) continue;
        d[v] = d[u] + 1;
        dist[{s, v}] = d[v];
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<Tuple> MatMulRef(const std::vector<Tuple>& a,
                             const std::vector<Tuple>& b) {
  // Index B by row.
  std::map<int64_t, std::vector<std::pair<int64_t, double>>> b_rows;
  for (const Tuple& t : b) {
    b_rows[t[0].AsInt()].emplace_back(t[1].AsInt(), t[2].AsDouble());
  }
  std::map<std::pair<int64_t, int64_t>, double> acc;
  for (const Tuple& t : a) {
    auto it = b_rows.find(t[1].AsInt());
    if (it == b_rows.end()) continue;
    double av = t[2].AsDouble();
    int64_t i = t[0].AsInt();
    for (const auto& [j, bv] : it->second) {
      acc[{i, j}] += av * bv;
    }
  }
  std::vector<Tuple> out;
  out.reserve(acc.size());
  for (const auto& [ij, v] : acc) {
    if (v == 0) continue;
    out.push_back(
        Tuple({Value::Int(ij.first), Value::Int(ij.second), Value::Float(v)}));
  }
  return out;
}

std::vector<double> PageRankRef(int n, const std::vector<Tuple>& g, double eps,
                                int* iterations) {
  std::vector<std::tuple<int64_t, int64_t, double>> entries;
  entries.reserve(g.size());
  for (const Tuple& t : g) {
    entries.emplace_back(t[0].AsInt(), t[1].AsInt(), t[2].AsDouble());
  }
  std::vector<double> p(n + 1, 1.0 / n);
  int iters = 0;
  for (;;) {
    ++iters;
    std::vector<double> next(n + 1, 0.0);
    for (const auto& [i, j, v] : entries) next[i] += v * p[j];
    double delta = 0;
    for (int i = 1; i <= n; ++i) {
      delta = std::max(delta, std::abs(next[i] - p[i]));
    }
    p = std::move(next);
    if (delta <= eps) break;
  }
  if (iterations) *iterations = iters;
  return p;
}

std::vector<double> PageRankLevelsRef(int n, const std::vector<Tuple>& g,
                                      int levels) {
  std::vector<std::tuple<int64_t, int64_t, double>> entries;
  entries.reserve(g.size());
  for (const Tuple& t : g) {
    entries.emplace_back(t[0].AsInt(), t[1].AsInt(), t[2].AsDouble());
  }
  std::vector<double> p(n + 1, 1.0);
  std::vector<double> next(n + 1);
  for (int t = 0; t < levels; ++t) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const auto& [i, j, v] : entries) next[i] += v * p[j];
    p.swap(next);
  }
  return p;
}

std::map<Value, int64_t> GroupSumRef(const std::vector<Tuple>& rows) {
  std::map<Value, int64_t> out;
  for (const Tuple& t : rows) {
    out[t[0]] += t[t.arity() - 1].AsInt();
  }
  return out;
}

size_t CountTrianglesRef(const std::vector<Tuple>& edges) {
  std::set<std::pair<int64_t, int64_t>> edge_set;
  std::map<int64_t, std::vector<int64_t>> adj;
  for (const Tuple& e : edges) {
    edge_set.emplace(e[0].AsInt(), e[1].AsInt());
    adj[e[0].AsInt()].push_back(e[1].AsInt());
  }
  size_t count = 0;
  for (const auto& [x, ys] : adj) {
    for (int64_t y : ys) {
      auto it = adj.find(y);
      if (it == adj.end()) continue;
      for (int64_t z : it->second) {
        if (edge_set.count({z, x})) ++count;
      }
    }
  }
  return count;
}

}  // namespace benchutil
}  // namespace rel
