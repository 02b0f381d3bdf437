// analytics: ad-hoc queries that carry their own recursive rules, on one
// session with no commits. Query-local rules never enter the extent cache,
// so every query pays lowering and the Datalog fixpoint (or, for the
// second-order stdlib TC, the interpreter's saturation loop).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "layers.h"
#include "oracles.h"
#include "workloads.h"

namespace relbench {
namespace {

// E, V (reach_from, unreached): a strongly connected core of 150 nodes with
// 500 edges, plus 50 source-only nodes with 2 edges each into the core, so
// a reach set is always 150 or 151 nodes.
constexpr int kCore = 150, kCoreEdges = 500, kSources = 50, kFanout = 2;
constexpr int kNodes = kCore + kSources;
constexpr int kWNodes = 96, kWEdges = 288;   // W: sssp_min, strongly connected
constexpr int kPrNodes = 200, kPrEdges = 600;  // G: pagerank_levels
constexpr int kPrLevels = 10, kPrWindow = 20;
// E2 (stdlib_tc): i -> i+1, i+5, i+17 (mod 48), relabelled. The
// interpreter's saturation runs once per diameter step, so the shape is
// fixed rather than random.
constexpr int kTcNodes = 48;

enum Template { kReachFrom, kUnreached, kSsspMin, kPageRank, kStdlibTc };
const char* const kNames[] = {"reach_from", "unreached", "sssp_min",
                              "pagerank_levels", "stdlib_tc"};

struct Inputs {
  std::vector<Edge> e, g, e2;
  std::vector<WeightedEdge> w;
};

std::string ReachRules(int src) {
  return "def reach(x) : x = " + std::to_string(src) +
         "\n"
         "def reach(y) : exists((x) | reach(x) and E(x, y))\n";
}

/// The source of one query; `param` is its source node (pagerank_levels:
/// the first node of the window of ranks it outputs).
std::string Source(Template t, int param) {
  const std::string p = std::to_string(param);
  switch (t) {
    case kReachFrom:
      return ReachRules(param) + "def output(y) : reach(y)";
    case kUnreached:
      return ReachRules(param) + "def output(y) : V(y) and not reach(y)";
    case kSsspMin:
      return "def dist(y, d) : d = min[(j) : (y = " + p +
             " and j = 0) or\n"
             "    exists((x, j1, w) | dist(x, j1) and W(x, y, w) and "
             "j = j1 + w)]\n"
             "def output(y, d) : dist(y, d)";
    case kPageRank:
      // Level-indexed power iteration as one recursive sum: the unit start
      // mass is the contribution row (0, 1.0) at level 0.
      return "def pr(v, t, r) : r = sum[(u, x) :\n"
             "    (t = 0 and u = 0 and range(1, " +
             std::to_string(kPrNodes) +
             ", 1, v) and x = 1.0) or\n"
             "    (range(1, " +
             std::to_string(kPrLevels) +
             ", 1, t) and exists((s, rr, w) |\n"
             "        s = t - 1 and G(v, u, w) and pr(u, s, rr) and "
             "x = w * rr))]\n"
             "def output(v, r) : pr(v, " +
             std::to_string(kPrLevels) + ", r) and v >= " + p +
             " and v <= " + std::to_string(param + kPrWindow - 1);
    case kStdlibTc:
      return "def output(y) : TC[E2](" + p + ", y)";
  }
  return "";
}

/// Mix weights, in Template order: 25/15/20/30/10 percent. stdlib_tc, the
/// slowest template, is the top 10%, so the p95 falls on its median: the
/// upper tail of a template moves about four times more from run to run.
const std::vector<int> kWeights = {5, 3, 4, 6, 2};

/// A random parameter for one query of template `t`.
int DrawParam(Rng& rng, Template t) {
  switch (t) {
    case kReachFrom:
    case kUnreached: return static_cast<int>(rng.Below(kNodes));
    case kSsspMin: return static_cast<int>(rng.Below(kWNodes));
    case kPageRank:
      return 1 + static_cast<int>(rng.Below(kPrNodes - kPrWindow + 1));
    case kStdlibTc: return static_cast<int>(rng.Below(kTcNodes));
  }
  return 0;
}

/// The oracle's verdict on one answer: "" when right.
class Checker {
 public:
  explicit Checker(const Inputs& in)
      : in_(in),
        adj_e_(Adjacency(kNodes, in.e)),
        adj_e2_(Adjacency(kTcNodes, in.e2)),
        ranks_(PageRankLevels(kPrNodes, in.g, kPrLevels)) {}

  std::string Check(Template t, int param, const rel::Relation& got) const {
    switch (t) {
      case kReachFrom:
        return Mismatch(got, IntSet(Reachable(adj_e_, param, true)));
      case kUnreached: {
        std::vector<bool> reached(kNodes, false);
        for (int v : Reachable(adj_e_, param, true)) reached[v] = true;
        std::vector<int> rest;
        for (int v = 0; v < kNodes; ++v) {
          if (!reached[v]) rest.push_back(v);
        }
        return Mismatch(got, IntSet(rest));
      }
      case kSsspMin: {
        std::vector<std::vector<int64_t>> rows;
        for (auto [v, d] : ShortestPaths(kWNodes, in_.w, param)) {
          rows.push_back({v, d});
        }
        return Mismatch(got, IntRows(rows));
      }
      case kPageRank: return CheckRanks(param, got);
      case kStdlibTc:
        return Mismatch(got, IntSet(Reachable(adj_e2_, param, false)));
    }
    return "unknown template";
  }

 private:
  // Ranks are sums of doubles whose order the engine chooses: compare with
  // a relative tolerance of 1e-9.
  std::string CheckRanks(int first, const rel::Relation& got) const {
    size_t want = 0;
    for (int v = first; v < first + kPrWindow; ++v) want += ranks_.count(v);
    if (got.size() != want) {
      return "got " + std::to_string(got.size()) + " ranks, want " +
             std::to_string(want);
    }
    for (const rel::Tuple& t : got.SortedTuples()) {
      if (t.arity() != 2 || !t[0].is_int() || !t[1].is_number()) {
        return "malformed rank " + t.ToString();
      }
      auto it = ranks_.find(static_cast<int>(t[0].AsInt()));
      if (it == ranks_.end() ||
          std::fabs(t[1].AsDouble() - it->second) > 1e-9 * it->second) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "rank of %lld is %.17g, want %.17g",
                      static_cast<long long>(t[0].AsInt()), t[1].AsDouble(),
                      it == ranks_.end() ? 0.0 : it->second);
        return buf;
      }
    }
    return "";
  }

  const Inputs& in_;
  std::vector<std::vector<int>> adj_e_, adj_e2_;
  std::map<int, double> ranks_;
};

struct State {
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::Session> session;
};

std::vector<rel::Tuple> Pairs(const std::vector<Edge>& edges) {
  std::vector<rel::Tuple> out;
  for (const Edge& e : edges) {
    out.push_back(rel::Tuple({rel::Value::Int(e.first), rel::Value::Int(e.second)}));
  }
  return out;
}

}  // namespace

void RunAnalytics(const Options& opt, RunContext* ctx) {
  Rng data(opt.seed);
  Inputs in;
  in.e = CoreWithSources(data, kCore, kCoreEdges, kSources, kFanout);
  in.w = Weighted(data, StronglyConnected(data, kWNodes, kWEdges));
  in.g = RandomDigraph(data, kPrNodes, kPrEdges, /*first=*/1);
  in.e2 = Circulant(data, kTcNodes, {1, 5, 17});

  // G(v, u, w): edge u -> v carries weight 1 / outdeg(u).
  std::map<int, int> outdeg;
  for (const Edge& e : in.g) ++outdeg[e.first];
  std::vector<rel::Tuple> g, w, v;
  for (const Edge& e : in.g) {
    g.push_back(rel::Tuple({rel::Value::Int(e.second), rel::Value::Int(e.first),
                            rel::Value::Float(1.0 / outdeg[e.first])}));
  }
  for (const WeightedEdge& e : in.w) {
    w.push_back(rel::Tuple({rel::Value::Int(e.from), rel::Value::Int(e.to),
                            rel::Value::Int(e.weight)}));
  }
  for (int i = 0; i < kNodes; ++i) v.push_back(rel::Tuple({rel::Value::Int(i)}));
  const std::vector<rel::Tuple> e = Pairs(in.e), e2 = Pairs(in.e2);

  auto state = SetupRepeatedly<State>(ctx, [&] {
    auto s = std::make_unique<State>();
    ctx->SetupCall("core.engine.ctor_ms",
                   [&] { s->engine = std::make_unique<rel::Engine>(); });
    ctx->SetupCall("core.engine.insert_ms", [&] {
      s->engine->Insert("E", e);
      s->engine->Insert("V", v);
      s->engine->Insert("W", w);
      s->engine->Insert("G", g);
      s->engine->Insert("E2", e2);
    });
    s->session = s->engine->OpenSession();
    for (Template t : {kReachFrom, kUnreached, kSsspMin, kPageRank, kStdlibTc}) {
      s->session->Query(Source(t, 1));
    }
    return s;
  });

  const Checker checker(in);
  Rng rng(opt.seed ^ 0x5851f42d4c957f2dull);
  Mix mix(kWeights);
  rel::Session& session = *state->session;
  ctx->timed_s = ClosedLoop(ctx, opt.seconds, [&] {
    const Template t = static_cast<Template>(mix.Next(rng));
    const int param = DrawParam(rng, t);
    const std::string source = Source(t, param);
    const uint64_t op = ctx->BeginOp(kNames[t]);
    CacheCounters before;
    if (ctx->trace) before = ReadCounters(session.extent_cache());

    rel::Relation got;
    std::string error;
    Clock::time_point t0 = Clock::now();
    try {
      got = session.Query(source);
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    Clock::time_point t1 = Clock::now();

    const double ms = MsBetween(t0, t1);
    ctx->AddLatency("read", kNames[t], ms);
    const std::string bad =
        error.empty() ? checker.Check(t, param, got) : "error: " + error;
    if (!bad.empty()) {
      ctx->Fail(std::string(kNames[t]) + "(" + std::to_string(param) + "): " + bad);
    }
    if (ctx->trace && error.empty()) {
      OpRecord rec;
      rec.tmpl = kNames[t];
      rec.op_ms = ms;
      rec.ms["core.session.query_ms"] = ms;
      rec.counts["data.output_tuples"] = static_cast<double>(got.size());
      SpanScope scope{ctx->tracer, op, rec.tmpl,
                      ctx->tracer->Add(rec.tmpl, "op", op, rec.tmpl, 0, t0, t1)};
      ReplayRead(session.snapshot(), source, session.last_lowering_stats(), ms,
                 scope, &rec);
      AddCacheDelta(before, ReadCounters(session.extent_cache()), &rec);
      ctx->AddOp(std::move(rec));
    }
    return MsBetween(t1, Clock::now());
  });
}

}  // namespace relbench
