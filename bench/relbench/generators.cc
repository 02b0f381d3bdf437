#include "generators.h"

#include <cstdio>

namespace relbench {

std::vector<Edge> RandomDigraph(Rng& rng, int n, int m, int first) {
  std::set<Edge> seen;
  std::vector<Edge> edges;
  while (static_cast<int>(edges.size()) < m) {
    int u = first + static_cast<int>(rng.Below(n));
    int v = first + static_cast<int>(rng.Below(n));
    if (u != v && seen.insert({u, v}).second) edges.push_back({u, v});
  }
  return edges;
}

std::vector<Edge> StronglyConnected(Rng& rng, int n, int m) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(order[i], order[rng.Below(i + 1)]);
  std::set<Edge> seen;
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    edges.push_back({order[i], order[(i + 1) % n]});
    seen.insert(edges.back());
  }
  while (static_cast<int>(edges.size()) < m) {
    int u = static_cast<int>(rng.Below(n));
    int v = static_cast<int>(rng.Below(n));
    if (u != v && seen.insert({u, v}).second) edges.push_back({u, v});
  }
  return edges;
}

std::vector<Edge> CoreWithSources(Rng& rng, int core, int core_m, int sources,
                                  int fanout) {
  std::vector<Edge> edges = StronglyConnected(rng, core, core_m);
  for (int s = core; s < core + sources; ++s) {
    std::set<int> targets;
    while (static_cast<int>(targets.size()) < fanout) {
      targets.insert(static_cast<int>(rng.Below(core)));
    }
    for (int t : targets) edges.push_back({s, t});
  }
  return edges;
}

std::vector<Edge> Circulant(Rng& rng, int n, const std::vector<int>& offsets) {
  std::vector<int> label(n);
  for (int i = 0; i < n; ++i) label[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(label[i], label[rng.Below(i + 1)]);
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    for (int o : offsets) edges.push_back({label[i], label[(i + o) % n]});
  }
  return edges;
}

std::vector<WeightedEdge> Weighted(Rng& rng, const std::vector<Edge>& edges) {
  std::vector<WeightedEdge> out;
  for (const Edge& e : edges) {
    out.push_back({e.first, e.second, static_cast<int>(rng.Between(1, 9))});
  }
  return out;
}

namespace {

/// A child for part `u`, which is not in the last level: a random part one
/// level down, or two with probability 0.1.
int DrawChild(Rng& rng, const PartsDag& dag, int u) {
  const int levels = static_cast<int>(dag.level_width.size());
  const int l = dag.level[u];
  int t = l + 1;
  if (rng.Unit() < 0.1 && l + 2 < levels) t = l + 2;
  return dag.level_start[t] + static_cast<int>(rng.Below(dag.level_width[t]));
}

/// Parts with a level below them are 0..ParentCount-1 (levels are
/// numbered top down, parts level by level).
int ParentCount(const PartsDag& dag) {
  return dag.n - dag.level_width.back();
}

}  // namespace

PartsDag MakePartsDag(Rng& rng, int m) {
  PartsDag dag;
  dag.level_width = {24, 48, 72, 96, 144};
  for (size_t l = 0; l < dag.level_width.size(); ++l) {
    dag.level_start.push_back(dag.n);
    for (int i = 0; i < dag.level_width[l]; ++i) {
      dag.level.push_back(static_cast<int>(l));
    }
    dag.n += dag.level_width[l];
  }
  std::set<Edge> seen;
  for (int i = 0; static_cast<int>(dag.edges.size()) < m; ++i) {
    const int u = i % ParentCount(dag);
    for (;;) {
      Edge e{u, DrawChild(rng, dag, u)};
      if (seen.insert(e).second) {
        dag.edges.push_back(e);
        break;
      }
    }
  }
  return dag;
}

Edge RandomAbsentDagEdge(Rng& rng, const PartsDag& dag, int parent,
                         const std::set<Edge>& present) {
  for (;;) {
    Edge e{parent, DrawChild(rng, dag, parent)};
    if (!present.count(e)) return e;
  }
}

std::string ProductId(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "P%03d", i);
  return buf;
}

std::string OrderId(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "O%06d", i);
  return buf;
}

std::string PaymentId(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "Pm%06d", i);
  return buf;
}

OrdersData MakeOrders(Rng& rng, int products, int orders) {
  OrdersData data;
  for (int p = 0; p < products; ++p) {
    data.prices.push_back({ProductId(p), rng.Between(1, 100)});
  }
  for (; data.next_order < orders; ++data.next_order) {
    const std::string order = OrderId(data.next_order);
    std::set<int> chosen;
    const int lines = static_cast<int>(rng.Between(1, 5));
    while (static_cast<int>(chosen.size()) < lines) {
      chosen.insert(static_cast<int>(rng.Below(products)));
    }
    for (int p : chosen) {
      data.lines.push_back({order, ProductId(p), rng.Between(1, 10)});
    }
    if (rng.Unit() < 0.5) {
      data.payments.push_back(
          {PaymentId(data.next_payment++), order, rng.Between(1, 200)});
    }
  }
  return data;
}

}  // namespace relbench
