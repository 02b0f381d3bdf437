// Tests for aggregate rule heads in the Datalog engine and for the Rel
// aggregate lowering that targets them (core/lowering.cc): per-group fold
// semantics, the edge cases both paths must pin identically (empty groups,
// unordered payloads, set-semantics dedup, i64 overflow), the monotonicity
// qualification for recursive aggregates, the incremental-maintenance
// refusal, and byte-identical interpreter-vs-lowered differentials for the
// shapes the paper leans on (shortest paths, PageRank-style level sums,
// matrix products).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value F(double v) { return Value::Float(v); }
Value S(const char* v) { return Value::String(v); }

const Strategy kAllStrategies[] = {Strategy::kNaive, Strategy::kSemiNaive};

/// Deterministic weighted digraph: edge(a, b, w) triples.
std::vector<Tuple> WeightedGraph(int n) {
  std::vector<Tuple> edges;
  for (int i = 0; i < n; ++i) {
    edges.push_back(Tuple({I(i), I((i + 1) % n), I(i % 4 + 1)}));
    edges.push_back(Tuple({I(i), I((i + 3) % n), I(7 - i % 3)}));
    if (i % 2 == 0) edges.push_back(Tuple({I(i), I((i * 2 + 1) % n), I(2)}));
  }
  return edges;
}

/// Floyd–Warshall over WeightedGraph(n) — the reference for sp(X, Y, min D).
std::map<std::pair<int, int>, int64_t> ShortestPathsRef(int n) {
  const int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<std::vector<int64_t>> d(n, std::vector<int64_t>(n, kInf));
  for (const Tuple& e : WeightedGraph(n)) {
    int a = static_cast<int>(e[0].AsInt());
    int b = static_cast<int>(e[1].AsInt());
    d[a][b] = std::min(d[a][b], e[2].AsInt());
  }
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
  std::map<std::pair<int, int>, int64_t> out;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (d[i][j] < kInf) out[{i, j}] = d[i][j];
  return out;
}

/// Evaluates `pred` under every strategy x thread count and checks the
/// sorted renderings are byte-identical; returns the common extent.
Relation EvalAllConfigs(const std::string& source, const std::string& pred,
                        const std::map<std::string, std::vector<Tuple>>& facts,
                        EvalStats* stats = nullptr) {
  Relation reference;
  std::string reference_text;
  bool first = true;
  for (Strategy strategy : kAllStrategies) {
    for (int threads : {1, 4}) {
      if (strategy != Strategy::kSemiNaive && threads != 1) continue;
      Program p = ParseDatalog(source);
      for (const auto& [name, tuples] : facts) {
        for (const Tuple& t : tuples) p.AddFact(name, t);
      }
      EvalOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      EvalStats local;
      Relation r = EvaluatePredicate(p, pred, options, &local);
      if (first) {
        reference = r;
        reference_text = r.ToString();
        if (stats) *stats = local;
        first = false;
      } else {
        EXPECT_EQ(r.ToString(), reference_text)
            << "strategy " << static_cast<int>(strategy) << " threads "
            << threads << " diverges for '" << pred << "'";
        if (stats) {
          EXPECT_EQ(local.aggregate_updates, stats->aggregate_updates);
          EXPECT_EQ(local.groups_improved, stats->groups_improved);
        }
      }
    }
  }
  return reference;
}

// --- fold semantics over EDB facts -------------------------------------------

TEST(Aggregate, GroupByFoldsMinMaxSumCount) {
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"sale", {Tuple({I(1), I(10)}), Tuple({I(1), I(3)}), Tuple({I(2), I(7)}),
                Tuple({I(1), I(10)})}}};  // duplicate row: set semantics
  Relation lo = EvalAllConfigs("lo(G, min(V)) :- sale(G, V).", "lo", facts);
  EXPECT_EQ(lo.ToString(), "{(1, 3); (2, 7)}");
  Relation hi = EvalAllConfigs("hi(G, max(V)) :- sale(G, V).", "hi", facts);
  EXPECT_EQ(hi.ToString(), "{(1, 10); (2, 7)}");
  Relation tot = EvalAllConfigs("tot(G, sum(V)) :- sale(G, V).", "tot", facts);
  EXPECT_EQ(tot.ToString(), "{(1, 13); (2, 7)}");
  Relation cnt = EvalAllConfigs("cnt(G, count(V)) :- sale(G, V).", "cnt",
                                facts);
  EXPECT_EQ(cnt.ToString(), "{(1, 2); (2, 1)}");
}

TEST(Aggregate, EmptyGroupProducesNoRowNeverADefault) {
  // No sale rows match the filter: the aggregate relation is empty — there
  // is no (group, 0) or (group, null) row.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"sale", {Tuple({I(1), I(10)})}}};
  Relation r = EvalAllConfigs("t(G, sum(V)) :- sale(G, V), V > 100.", "t",
                              facts);
  EXPECT_EQ(r.size(), 0u);
}

TEST(Aggregate, WitnessColumnsDistinguishContributions) {
  // Same value through different witnesses counts twice; without the
  // witness the set-deduplicated bucket counts it once. This is the Rel
  // abstraction-binder semantics: sum[(w, v) : ...] vs sum[[g]: v].
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"sale", {Tuple({I(1), I(100), I(5)}), Tuple({I(1), I(200), I(5)})}}};
  Relation with_witness = EvalAllConfigs(
      "t(G, sum(V; W)) :- sale(G, W, V).", "t", facts);
  EXPECT_EQ(with_witness.ToString(), "{(1, 10)}");
  Relation without = EvalAllConfigs("t(G, sum(V)) :- sale(G, W, V).", "t",
                                    facts);
  EXPECT_EQ(without.ToString(), "{(1, 5)}");
}

TEST(Aggregate, UnorderedPayloadsYieldNoResultRow) {
  // min/max over an incomparable bucket (int vs string) mirrors the Rel
  // reduce kernels: the fold produces no value, so the group emits no row.
  // An all-comparable group in the same relation still folds.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v", {Tuple({I(1), I(3)}), Tuple({I(1), S("a")}), Tuple({I(2), I(9)})}}};
  Relation r = EvalAllConfigs("m(G, min(V)) :- v(G, V).", "m", facts);
  EXPECT_EQ(r.ToString(), "{(2, 9)}");
}

TEST(Aggregate, NanPayloadKeepsItsUnorderedSemantics) {
  // NaN compares unordered against everything including itself, so a
  // bucket containing NaN folds to nothing — same as the Rel interpreter.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v",
       {Tuple({I(1), F(std::numeric_limits<double>::quiet_NaN())}),
        Tuple({I(1), F(2.0)}), Tuple({I(2), F(4.0)})}}};
  Relation r = EvalAllConfigs("m(G, max(V)) :- v(G, V).", "m", facts);
  EXPECT_EQ(r.ToString(), "{(2, 4.0)}");
}

TEST(Aggregate, SumOverflowThrowsTypeError) {
  Program p = ParseDatalog("t(G, sum(V)) :- v(G, V).");
  p.AddFact("v", Tuple({I(1), I(std::numeric_limits<int64_t>::max())}));
  p.AddFact("v", Tuple({I(1), I(1)}));
  try {
    EvaluatePredicate(p, "t", Strategy::kSemiNaive);
    FAIL() << "expected kType on i64 sum overflow";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType);
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
  }
}

// --- fold order and refold order ---------------------------------------------
//
// A group folds its contributions in Relation::SortedTuples order — payload
// arity first, then lexicographic — and dirty groups refold in group order.
// Both orders are observable: float sums are not associative, min/max keep
// the first sorted operand on an Int/Float tie, and the first group to
// overflow names the error.

TEST(Aggregate, FloatSumFoldsInSortedWitnessOrder) {
  // Sorted by witness, group 1 folds 1e16 + 1.0 (absorbed) - 1e16 = 0.0 and
  // group 2 folds 1e16 - 1e16 + 1.0 = 1.0. Fact order is deliberately not
  // the fold order.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v",
       {Tuple({I(1), I(3), F(-1e16)}), Tuple({I(1), I(2), F(1.0)}),
        Tuple({I(1), I(1), F(1e16)}), Tuple({I(2), I(3), F(1.0)}),
        Tuple({I(2), I(2), F(-1e16)}), Tuple({I(2), I(1), F(1e16)})}}};
  Relation r = EvalAllConfigs("t(G, sum(V; W)) :- v(G, W, V).", "t", facts);
  EXPECT_EQ(r.ToString(), "{(1, 0.0); (2, 1.0)}");
}

TEST(Aggregate, MixedWitnessAritiesFoldArityFirst) {
  // One group fed by a one-witness and a two-witness rule. Arity-first order
  // folds (5, 1e16), (9, 1.0), then (1, 1, -1e16): 0.0. A plain
  // lexicographic order would start from (1, 1, -1e16) and give 1.0.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"a", {Tuple({I(1), I(9), F(1.0)}), Tuple({I(1), I(5), F(1e16)})}},
      {"b", {Tuple({I(1), I(1), I(1), F(-1e16)})}}};
  Relation r = EvalAllConfigs(
      "t(G, sum(V; W)) :- a(G, W, V). "
      "t(G, sum(V; W1, W2)) :- b(G, W1, W2, V).",
      "t", facts);
  EXPECT_EQ(r.ToString(), "{(1, 0.0)}");
}

TEST(Aggregate, IntFloatTieKeepsFirstSortedOperand) {
  // 1 and 1.0 compare equal numerically; the fold keeps whichever sorts
  // first. Groups 1 and 3 sort the Int first, group 2 the Float.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v",
       {Tuple({I(1), I(2), F(1.0)}), Tuple({I(1), I(1), I(1)}),
        Tuple({I(2), I(2), I(1)}), Tuple({I(2), I(1), F(1.0)})}},
      {"u", {Tuple({I(3), F(1.0)}), Tuple({I(3), I(1)})}}};
  for (const char* op : {"min", "max"}) {
    Relation w = EvalAllConfigs(
        std::string("t(G, ") + op + "(V; W)) :- v(G, W, V).", "t", facts);
    EXPECT_EQ(w.ToString(), "{(1, 1); (2, 1.0)}") << op;
    Relation p = EvalAllConfigs(
        std::string("t(G, ") + op + "(V)) :- u(G, V).", "t", facts);
    EXPECT_EQ(p.ToString(), "{(3, 1)}") << op;
  }
}

TEST(Aggregate, RecursiveMinTieRefoldsAcrossRounds) {
  // Node 4 publishes 1.0 (via 1) a round before the Int 1 arrives (via
  // 2 -> 3); the refold over the merged bucket sorts the Int first, so the
  // published row is replaced by its Int representation.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"seed", {Tuple({I(1), F(1.0)}), Tuple({I(2), I(1)})}},
      {"e", {Tuple({I(1), I(4)}), Tuple({I(2), I(3)}), Tuple({I(3), I(4)})}}};
  EvalStats stats;
  Relation r = EvalAllConfigs(
      "m(X, min(D)) :- seed(X, D). m(X, min(D)) :- m(Y, D), e(Y, X).", "m",
      facts, &stats);
  EXPECT_EQ(r.ToString(), "{(1, 1.0); (2, 1); (3, 1); (4, 1)}");
  EXPECT_EQ(stats.aggregate_updates, 5u);
}

/// Group 1's sorted bucket is (1), (INT64_MAX): its fold adds them in that
/// order.
constexpr const char* kOverflowGroup1 =
    "type error: integer overflow: 1 + 9223372036854775807 exceeds the "
    "int64 range";

TEST(Aggregate, FirstOverflowingGroupInGroupOrderNamesTheError) {
  // Groups 2 and 1 overflow in the same round; group 1 refolds first
  // whatever order its contributions arrived in.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v",
       {Tuple({I(2), I(std::numeric_limits<int64_t>::max())}),
        Tuple({I(2), I(2)}),
        Tuple({I(1), I(std::numeric_limits<int64_t>::max())}),
        Tuple({I(1), I(1)})}}};
  for (Strategy strategy : kAllStrategies) {
    for (int threads : {1, 4}) {
      if (strategy != Strategy::kSemiNaive && threads != 1) continue;
      Program p = ParseDatalog("t(G, sum(V)) :- v(G, V).");
      for (const Tuple& t : facts.at("v")) p.AddFact("v", t);
      EvalOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      try {
        EvaluatePredicate(p, "t", options);
        FAIL() << "expected kType on i64 sum overflow";
      } catch (const RelError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kType);
        EXPECT_STREQ(e.what(), kOverflowGroup1);
      }
    }
  }
}

// --- static and dynamic qualification ----------------------------------------

TEST(Aggregate, MixedPlainAndAggregateRulesRefused) {
  Program p = ParseDatalog(
      "t(G, sum(V)) :- v(G, V). t(G, W) :- w(G, W).");
  p.AddFact("v", Tuple({I(1), I(1)}));
  try {
    EvaluatePredicate(p, "t", Strategy::kSemiNaive);
    FAIL() << "expected kType";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType);
  }
}

TEST(Aggregate, AggregatePredicateCannotCarryEdbFacts) {
  Program p = ParseDatalog("t(G, sum(V)) :- v(G, V).");
  p.AddFact("v", Tuple({I(1), I(1)}));
  p.AddFact("t", Tuple({I(1), I(1)}));
  EXPECT_THROW(EvaluatePredicate(p, "t", Strategy::kSemiNaive), RelError);
}

TEST(Aggregate, RecursiveMinTaintViolationsRefused) {
  // The changing result D2 feeds a comparison filter: statically rejected.
  const char* kFiltered =
      "sp(X, Y, min(D)) :- edge(X, Y, D). "
      "sp(X, Z, min(D)) :- edge(X, Y, W), sp(Y, Z, D2), D2 < 100, "
      "D = W + D2.";
  // The changing result flows through multiplication (not direction-
  // preserving under negative operands).
  const char* kScaled =
      "sp(X, Y, min(D)) :- edge(X, Y, D). "
      "sp(X, Z, min(D)) :- edge(X, Y, W), sp(Y, Z, D2), D = W * D2.";
  for (const char* source : {kFiltered, kScaled}) {
    Program p = ParseDatalog(source);
    p.AddFact("edge", Tuple({I(0), I(1), I(2)}));
    try {
      EvaluatePredicate(p, "sp", Strategy::kSemiNaive);
      FAIL() << "expected kType for: " << source;
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kType);
      EXPECT_NE(
          std::string(e.what()).find("non-monotone recursive aggregate"),
          std::string::npos);
    }
  }
}

TEST(Aggregate, RecursiveSumEmitOnceViolationThrows) {
  // A self-feeding sum with no level index: the group's own result loops
  // back into its bucket, so a contribution arrives after publication.
  Program p = ParseDatalog(
      "s(G, sum(V)) :- seed(G, V). s(G, sum(V)) :- s(G, W), V = W + 1.");
  p.AddFact("seed", Tuple({I(1), I(1)}));
  try {
    EvaluatePredicate(p, "s", Strategy::kSemiNaive);
    FAIL() << "expected kType";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType);
    EXPECT_NE(std::string(e.what()).find("after its group published"),
              std::string::npos);
  }
}

TEST(Aggregate, MixedOperatorsInOneRecursiveComponentRefused) {
  Program p = ParseDatalog(
      "a(X, min(V)) :- seed(X, V). a(X, min(V)) :- b(X, V). "
      "b(X, max(V)) :- a(X, V).");
  p.AddFact("seed", Tuple({I(1), I(1)}));
  try {
    EvaluatePredicate(p, "a", Strategy::kSemiNaive);
    FAIL() << "expected kType";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType);
    EXPECT_NE(std::string(e.what()).find("mixed aggregate operators"),
              std::string::npos);
  }
}

// --- recursive aggregation on the fast path ----------------------------------

TEST(Aggregate, RecursiveShortestPathsMatchFloydWarshall) {
  const std::string rules =
      "sp(X, Y, min(D)) :- edge(X, Y, D). "
      "sp(X, Z, min(D)) :- edge(X, Y, W), sp(Y, Z, D2), D = W + D2.";
  for (int n : {5, 9, 14}) {
    EvalStats stats;
    Relation sp = EvalAllConfigs(rules, "sp", {{"edge", WeightedGraph(n)}},
                                 &stats);
    auto ref = ShortestPathsRef(n);
    ASSERT_EQ(sp.size(), ref.size()) << "n=" << n;
    for (const auto& [key, dist] : ref) {
      EXPECT_TRUE(sp.Contains(Tuple({I(key.first), I(key.second), I(dist)})))
          << "n=" << n << " pair (" << key.first << ", " << key.second << ")";
    }
    EXPECT_GT(stats.aggregate_updates, 0u);
    EXPECT_GE(stats.groups_improved, sp.size());
  }
}

TEST(Aggregate, LevelIndexedRecursiveSumEvaluates) {
  // Each level's groups receive all contributions in one round, so the
  // emit-once guard never fires: s(L) = 2 * s(L-1), four levels deep.
  Program p = ParseDatalog(
      "s(L, sum(V; U)) :- seed(L, U, V). "
      "s(L, sum(V; U)) :- level(L), K = L - 1, s(K, W), u(U), V = W + 0.");
  p.AddFact("seed", Tuple({I(0), I(0), I(3)}));
  p.AddFact("level", Tuple({I(1)}));
  p.AddFact("level", Tuple({I(2)}));
  p.AddFact("u", Tuple({I(0)}));
  p.AddFact("u", Tuple({I(1)}));
  Relation s = EvaluatePredicate(p, "s", Strategy::kSemiNaive);
  EXPECT_EQ(s.ToString(), "{(0, 3); (1, 6); (2, 12)}");
}

/// Sorted rendering with every float as its bit pattern (Relation::ToString
/// rounds to six decimals, which would hide a changed summation order).
std::string ExactText(const Relation& r) {
  std::string out;
  char buf[32];
  for (const Tuple& t : r.SortedTuples()) {
    out += '(';
    for (size_t i = 0; i < t.arity(); ++i) {
      if (i > 0) out += ", ";
      if (t[i].is_float()) {
        double d = t[i].AsFloat();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        std::snprintf(buf, sizeof(buf), "f%016llx",
                      static_cast<unsigned long long>(bits));
        out += buf;
      } else {
        out += t[i].ToString();
      }
    }
    out += ")\n";
  }
  return out;
}

/// FNV-1a, so the pinned digest does not depend on the standard library.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pinned from the evaluator before its aggregate accumulators were
// rewritten; a change to any of them is a change of semantics or cost.
constexpr uint64_t kPageRankAggregateUpdates = 5904;
constexpr uint64_t kPageRankGroupsImproved = 2122;
constexpr uint64_t kPageRankTuplesDerived = 5904;
constexpr uint64_t kPageRankIterations = 12;
constexpr size_t kPageRankRows = 2122;
constexpr uint64_t kPageRankDigest = 4490225006389083538ULL;

/// The relbench pagerank_levels shape as a Datalog program: 200 nodes, 600
/// distinct non-loop edges, weight 1/outdeg, ten levels of power iteration
/// from unit start mass. Every level's groups fill in one round.
Program PageRankProgram() {
  constexpr int kN = 200, kM = 600, kLevels = 10;
  std::set<std::pair<int, int>> edges;
  uint64_t state = 12345;
  auto next = [&state](int bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % static_cast<uint64_t>(bound));
  };
  while (edges.size() < static_cast<size_t>(kM)) {
    int u = 1 + next(kN), v = 1 + next(kN);
    if (u != v) edges.insert({u, v});
  }
  std::map<int, int> outdeg;
  for (const auto& [u, v] : edges) ++outdeg[u];
  Program p = ParseDatalog(
      "pr(V, T, sum(X; U)) :- init(V, T, U, X). "
      "pr(V, T, sum(X; U)) :- level(T), S = T - 1, g(V, U, W), "
      "pr(U, S, RR), X = W * RR.");
  for (int v = 1; v <= kN; ++v) {
    p.AddFact("init", Tuple({I(v), I(0), I(0), F(1.0)}));
  }
  for (int t = 1; t <= kLevels; ++t) p.AddFact("level", Tuple({I(t)}));
  for (const auto& [u, v] : edges) {
    p.AddFact("g", Tuple({I(v), I(u), F(1.0 / outdeg[u])}));
  }
  return p;
}

TEST(Aggregate, LevelIndexedPageRankPinsCountersAndExtent) {
  std::string text_at_1;
  for (int threads : {1, 4}) {
    EvalOptions options;
    options.num_threads = threads;
    EvalStats stats;
    Relation pr = EvaluatePredicate(PageRankProgram(), "pr", options, &stats);
    EXPECT_EQ(stats.aggregate_updates, kPageRankAggregateUpdates)
        << "threads " << threads;
    EXPECT_EQ(stats.groups_improved, kPageRankGroupsImproved)
        << "threads " << threads;
    EXPECT_EQ(stats.tuples_derived, kPageRankTuplesDerived)
        << "threads " << threads;
    EXPECT_EQ(stats.iterations, kPageRankIterations) << "threads " << threads;
    EXPECT_EQ(pr.size(), kPageRankRows) << "threads " << threads;
    std::string text = ExactText(pr);
    EXPECT_EQ(Fnv1a(text), kPageRankDigest) << "threads " << threads;
    if (threads == 1) {
      text_at_1 = text;
    } else {
      EXPECT_EQ(text, text_at_1);
    }
  }
}

// --- where contributions are stored ------------------------------------------
//
// A contribution is stored once, in its predicate's contribution store: the
// group key once per group, the witness and value columns once per
// contribution. A sequential round adds to it directly, a parallel round
// stages per thread and adds at the barrier. Both must fold, count and fail
// alike.

TEST(Aggregate, ThreadsAndPlanSeedsAgreeOnExtentAndCounters) {
  const std::string sp_rules =
      "sp(X, Y, min(D)) :- edge(X, Y, D). "
      "sp(X, Z, min(D)) :- edge(X, Y, W), sp(Y, Z, D2), D = W + D2.";
  struct Case {
    std::string pred;
    std::function<Program()> make;
  };
  const std::vector<Case> cases = {
      {"pr", PageRankProgram},
      {"sp", [&sp_rules] {
         Program p = ParseDatalog(sp_rules);
         for (const Tuple& t : WeightedGraph(24)) p.AddFact("edge", t);
         return p;
       }}};
  for (const Case& c : cases) {
    std::string reference;
    EvalStats first;
    bool have_reference = false;
    for (uint64_t plan_seed : {0ULL, 977ULL}) {
      for (int threads : {1, 2, 8}) {
        EvalOptions options;
        options.num_threads = threads;
        options.plan_order_seed = plan_seed;
        EvalStats stats;
        std::string text =
            ExactText(EvaluatePredicate(c.make(), c.pred, options, &stats));
        if (!have_reference) {
          reference = text;
          first = stats;
          have_reference = true;
          continue;
        }
        const std::string where = c.pred + " threads " +
                                  std::to_string(threads) + " seed " +
                                  std::to_string(plan_seed);
        EXPECT_EQ(text, reference) << where;
        EXPECT_EQ(stats.aggregate_updates, first.aggregate_updates) << where;
        EXPECT_EQ(stats.groups_improved, first.groups_improved) << where;
      }
    }
  }
}

TEST(Aggregate, RecursiveSumOverTwoWitnessAritiesFoldsArityFirst) {
  // Level 1 of `s` is fed by a one-witness and a two-witness rule, so its
  // contributions have two payload arities. Arity-first order folds
  // (5, 1e16), (9, 1.0), then (1, 1, -1e16): 0.0. A plain lexicographic
  // order would start from (1, 1, -1e16) and give 1.0. Level 2 scales
  // level 1's 0.0 the same way and folds (5, 0.0), (9, 0.0), (1, 1, -0.0).
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"seed", {Tuple({I(0), I(0), F(1.0)})}},
      {"level", {Tuple({I(1)}), Tuple({I(2)})}},
      {"a", {Tuple({I(9), F(1.0)}), Tuple({I(5), F(1e16)})}},
      {"b", {Tuple({I(1), I(1), F(-1e16)})}}};
  EvalStats stats;
  Relation s = EvalAllConfigs(
      "s(L, sum(V; W)) :- seed(L, W, V). "
      "s(L, sum(V; W)) :- level(L), K = L - 1, s(K, X), a(W, M), V = X * M. "
      "s(L, sum(V; W1, W2)) :- level(L), K = L - 1, s(K, X), b(W1, W2, M), "
      "V = X * M.",
      "s", facts, &stats);
  EXPECT_EQ(ExactText(s),
            "(0, f3ff0000000000000)\n(1, f0000000000000000)\n"
            "(2, f0000000000000000)\n");
  EXPECT_EQ(stats.aggregate_updates, 7u);
  EXPECT_EQ(stats.groups_improved, 3u);
}

TEST(Aggregate, ContributionRederivedInALaterRoundCountsOnce) {
  // The step rule derives (5, U, 3) for both U in round 1, through either
  // s occurrence over s(0). In round 2 s(1) arrives, and its second
  // occurrence derives the same two rows again through step(0, 1, 5).
  // The store drops them: group 5 already published, and a duplicate is not a
  // contribution, so neither the sum nor the emit-once guard sees them.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"seed", {Tuple({I(0), I(0), I(3)})}},
      {"next", {Tuple({I(0), I(1)})}},
      {"step", {Tuple({I(0), I(0), I(5)}), Tuple({I(0), I(1), I(5)})}},
      {"u", {Tuple({I(0)}), Tuple({I(1)})}}};
  EvalStats stats;
  Relation s = EvalAllConfigs(
      "s(L, sum(V; U)) :- seed(L, U, V). "
      "s(L, sum(V; U)) :- s(K, X), next(K, L), u(U), V = X + 0. "
      "s(L, sum(V; U)) :- s(K, X), s(J, Y), step(K, J, L), u(U), V = X + 0.",
      "s", facts, &stats);
  EXPECT_EQ(s.ToString(), "{(0, 3); (1, 6); (5, 6)}");
  EXPECT_EQ(stats.aggregate_updates, 5u);
  EXPECT_EQ(stats.groups_improved, 3u);
}

TEST(Aggregate, KeysAndContributionsDifferingOnlyInKindStayDistinct) {
  // Int 1, Float 1.0 and String "1" are three values under the storage
  // order, so they key three groups, and as witnesses or values they make
  // three contributions to one group.
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"v", {Tuple({I(1), I(5)}), Tuple({F(1.0), I(7)}),
             Tuple({S("1"), I(9)})}},
      {"w", {Tuple({I(0), I(1), I(5)}), Tuple({I(0), F(1.0), I(5)}),
             Tuple({I(0), S("1"), I(5)})}},
      {"x", {Tuple({I(0), I(1)}), Tuple({I(0), F(1.0)}),
             Tuple({I(1), S("1")}), Tuple({I(1), I(1)})}}};
  EvalStats stats;
  Relation by_key =
      EvalAllConfigs("t(G, sum(V)) :- v(G, V).", "t", facts, &stats);
  EXPECT_EQ(by_key.ToString(), "{(1, 5); (1.0, 7); (\"1\", 9)}");
  EXPECT_EQ(stats.aggregate_updates, 3u);
  EXPECT_EQ(stats.groups_improved, 3u);
  Relation by_witness =
      EvalAllConfigs("t(G, sum(V; W)) :- w(G, W, V).", "t", facts, &stats);
  EXPECT_EQ(by_witness.ToString(), "{(0, 15)}");
  EXPECT_EQ(stats.aggregate_updates, 3u);
  // Group 0 sums 1, then 1.0. Group 1's String makes its sum undefined, so
  // it has no sum row, but count counts both of its values.
  Relation by_value =
      EvalAllConfigs("t(G, sum(V)) :- x(G, V).", "t", facts, &stats);
  EXPECT_EQ(by_value.ToString(), "{(0, 2.0)}");
  Relation counted =
      EvalAllConfigs("t(G, count(V)) :- x(G, V).", "t", facts, &stats);
  EXPECT_EQ(counted.ToString(), "{(0, 2); (1, 2)}");
  EXPECT_EQ(stats.aggregate_updates, 4u);
}

TEST(Aggregate, RecursiveMinDuplicateFromAnEarlierRoundCountsOnce) {
  // Round 2 derives (3, 5) through 1 -> 3. Round 3 derives it again through
  // 2 -> 4 -> 3: the same contribution, so group 3 is not refolded and
  // neither counter moves. Every configuration must agree.
  auto make = [] {
    Program p = ParseDatalog(
        "m(X, min(D)) :- seed(X, D). m(X, min(D)) :- m(Y, D), e(Y, X).");
    p.AddFact("seed", Tuple({I(1), I(5)}));
    p.AddFact("seed", Tuple({I(2), I(5)}));
    for (auto [a, b] : {std::pair{1, 3}, std::pair{2, 4}, std::pair{4, 3}}) {
      p.AddFact("e", Tuple({I(a), I(b)}));
    }
    return p;
  };
  struct Config {
    Strategy strategy;
    int threads;
    uint64_t plan_seed;
  };
  std::vector<Config> configs = {{Strategy::kNaive, 1, 0}};
  for (uint64_t plan_seed : {0ULL, 977ULL}) {
    for (int threads : {1, 2, 8}) {
      configs.push_back({Strategy::kSemiNaive, threads, plan_seed});
    }
  }
  for (const Config& c : configs) {
    EvalOptions options;
    options.strategy = c.strategy;
    options.num_threads = c.threads;
    options.plan_order_seed = c.plan_seed;
    EvalStats stats;
    Relation m = EvaluatePredicate(make(), "m", options, &stats);
    const std::string where = "strategy " +
                              std::to_string(static_cast<int>(c.strategy)) +
                              " threads " + std::to_string(c.threads) +
                              " seed " + std::to_string(c.plan_seed);
    EXPECT_EQ(m.ToString(), "{(1, 5); (2, 5); (3, 5); (4, 5)}") << where;
    EXPECT_EQ(stats.aggregate_updates, 4u) << where;
    EXPECT_EQ(stats.groups_improved, 4u) << where;
    if (c.strategy == Strategy::kSemiNaive) {
      // Four contributions plus the rederived (3, 5).
      EXPECT_EQ(stats.tuples_derived, 5u) << where;
    }
  }
}

TEST(Aggregate, EmitOnceErrorIsTheSameSequentialAndParallel) {
  std::string reference;
  for (Strategy strategy : kAllStrategies) {
    for (int threads : {1, 2, 8}) {
      if (strategy != Strategy::kSemiNaive && threads != 1) continue;
      Program p = ParseDatalog(
          "s(G, sum(V)) :- seed(G, V). "
          "s(G, sum(V)) :- s(G, W), V = W + 1.");
      for (int g = 0; g < 300; ++g) p.AddFact("seed", Tuple({I(g), I(g)}));
      EvalOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      try {
        EvaluatePredicate(p, "s", options);
        ADD_FAILURE() << "expected kType, threads " << threads;
      } catch (const RelError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kType);
        if (reference.empty()) {
          reference = e.what();
          EXPECT_NE(reference.find("after its group published"),
                    std::string::npos);
        } else {
          EXPECT_EQ(e.what(), reference) << "threads " << threads;
        }
      }
    }
  }
}

// --- incremental maintenance refuses aggregates ------------------------------

TEST(Aggregate, EvaluateDeltaRefusesAggregatePrograms) {
  Program p = ParseDatalog("t(G, sum(V)) :- v(G, V).");
  p.AddFact("v", Tuple({I(1), I(2)}));
  std::map<std::string, Relation> extents =
      Evaluate(p, Strategy::kSemiNaive);
  std::map<std::string, Relation> before = extents;
  std::map<std::string, Relation> base;
  base["v"].Insert(Tuple({I(1), I(2)}));
  EdbDelta delta;
  delta.inserts["v"].Insert(Tuple({I(1), I(5)}));
  DeltaResult result = EvaluateDelta(p, base, delta, &extents);
  EXPECT_FALSE(result.supported);
  EXPECT_FALSE(result.unsupported_reason.empty());
  // Refusal must leave the extents untouched — the caller recomputes.
  EXPECT_EQ(extents.size(), before.size());
  for (const auto& [name, relation] : before) {
    EXPECT_EQ(extents.at(name).ToString(), relation.ToString()) << name;
  }
}

// --- Rel differentials: interpreter vs lowered, byte-identical ---------------

/// Runs `source` (which must define `output`) on a fresh Engine with the
/// given facts; captures lowering stats.
Relation RunRel(const std::string& source, bool lower, int threads,
                const std::map<std::string, std::vector<Tuple>>& facts,
                LoweringStats* stats = nullptr) {
  Engine engine;
  engine.options().lower_recursion = lower;
  engine.options().num_threads = threads;
  for (const auto& [name, tuples] : facts) engine.Insert(name, tuples);
  Relation out = engine.Query(source);
  if (stats) *stats = engine.last_lowering_stats();
  return out;
}

/// Interpreter-vs-lowered differential: byte-identical extents across
/// thread counts, and the component must actually take the fast path.
void ExpectLoweredMatchesInterp(const std::string& source,
                                const std::map<std::string,
                                               std::vector<Tuple>>& facts,
                                int expect_lowered) {
  Relation expected = RunRel(source, /*lower=*/false, 1, facts);
  for (int threads : {1, 4}) {
    LoweringStats stats;
    Relation got = RunRel(source, /*lower=*/true, threads, facts, &stats);
    EXPECT_EQ(got.ToString(), expected.ToString()) << "threads " << threads;
    EXPECT_EQ(stats.components_lowered, expect_lowered)
        << "threads " << threads;
    EXPECT_EQ(stats.components_rejected, 0) << "threads " << threads;
  }
}

TEST(RelAggregate, ApspLowersAndMatchesInterp) {
  ExpectLoweredMatchesInterp(
      "def apsp(x, y, d) : d = min[(j) :\n"
      "    E(x, y, j) or\n"
      "    exists((z, j1, j2) | E(x, z, j1) and apsp(z, y, j2) and\n"
      "        j = j1 + j2)]\n"
      "def output : apsp",
      {{"E", WeightedGraph(10)}}, /*expect_lowered=*/1);
}

TEST(RelAggregate, PagerankStyleLevelSumLowersAndMatchesInterp) {
  // Level-indexed rank propagation: rank at step t sums the scaled ranks
  // of in-neighbors at t-1, with the base mass as an extra contribution
  // row. Both pr and the outdegree count lower.
  ExpectLoweredMatchesInterp(
      "def N(v) : exists((y, w) | E(v, y, w) or E(y, v, w))\n"
      "def odeg(u, d) : d = count[(y, w) : E(u, y, w)]\n"
      "def pr(v, t, r) : r = sum[(u, x) :\n"
      "    (t = 0 and u = 0 - 1 and N(v) and x = 100) or\n"
      "    (range(1, 4, 1, t) and exists((s, rr, d, w) |\n"
      "        s = t - 1 and E(u, v, w) and pr(u, s, rr) and odeg(u, d)\n"
      "        and x = rr / d))]\n"
      "def output : pr",
      {{"E", WeightedGraph(8)}}, /*expect_lowered=*/2);
}

TEST(RelAggregate, MatmulSquareAbstractionLowersAndMatchesInterp) {
  std::vector<Tuple> A, B;
  for (int i = 0; i < 4; ++i)
    for (int k = 0; k < 4; ++k) {
      A.push_back(Tuple({I(i), I(k), I(i * 3 + k + 1)}));
      B.push_back(Tuple({I(k), I(i), I(k * 2 - i + 5)}));
    }
  ExpectLoweredMatchesInterp(
      "def mm(i, j, s) : s = sum[[k] : A[i, k] * B[k, j]]\n"
      "def output : mm",
      {{"A", A}, {"B", B}}, /*expect_lowered=*/1);
}

TEST(RelAggregate, ResultFilterFallsBackToInterp) {
  // A filter on the aggregate result has no classical-fragment equivalent:
  // the component is rejected and the interpreter answers identically.
  const std::string source =
      "def big(g, s) : s = sum[(y, w) : E(g, y, w)] and s > 5\n"
      "def output : big";
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"E", WeightedGraph(6)}};
  Relation expected = RunRel(source, /*lower=*/false, 1, facts);
  LoweringStats stats;
  Relation got = RunRel(source, /*lower=*/true, 1, facts, &stats);
  EXPECT_EQ(got.ToString(), expected.ToString());
  EXPECT_EQ(stats.components_lowered, 0);
  EXPECT_EQ(stats.components_rejected, 1);
}

TEST(RelAggregate, NonMonotoneRecursiveMinFallsBackToInterp) {
  // The comparison on the changing result keeps replacement semantics on
  // the interpreter; the lowered engine's static check rejects it and the
  // answers still agree.
  const std::string source =
      "def sp(x, y, d) : d = min[(j) :\n"
      "    E(x, y, j) or\n"
      "    exists((z, j1, j2) | E(x, z, j1) and sp(z, y, j2) and j2 < 9\n"
      "        and j = j1 + j2)]\n"
      "def output : sp";
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"E", WeightedGraph(6)}};
  Relation expected = RunRel(source, /*lower=*/false, 1, facts);
  LoweringStats stats;
  Relation got = RunRel(source, /*lower=*/true, 1, facts, &stats);
  EXPECT_EQ(got.ToString(), expected.ToString());
  EXPECT_EQ(stats.components_lowered, 0);
  EXPECT_EQ(stats.components_rejected, 1);
}

TEST(RelAggregate, SumOverflowThrowsTypeOnBothPaths) {
  std::vector<Tuple> big = {
      Tuple({I(0), I(std::numeric_limits<int64_t>::max())}),
      Tuple({I(1), I(1)})};
  const std::string source =
      "def t(s) : s = sum[(x, v) : X(x, v)]\ndef output : t";
  for (bool lower : {false, true}) {
    Engine engine;
    engine.options().lower_recursion = lower;
    engine.Insert("X", big);
    try {
      engine.Query(source);
      FAIL() << "expected kType (lower=" << lower << ")";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kType) << "lower=" << lower;
    }
  }
}

}  // namespace
}  // namespace datalog
}  // namespace rel
