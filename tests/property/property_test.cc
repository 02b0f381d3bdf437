// Property-based tests: parameterized sweeps over random workloads checking
// cross-implementation agreement (Rel engine vs baseline Datalog vs
// handwritten references) and algebraic invariants of the libraries.

#include <gtest/gtest.h>

#include <numeric>

#include "base/rng.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "core/engine.h"
#include "datalog/eval.h"
#include "joins/hash_join.h"
#include "joins/leapfrog.h"
#include "kg/gnf.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

// --- differential: transitive closure across three engines ------------------

struct GraphCase {
  int n;
  int m;
  uint64_t seed;
};

class ClosureProperty : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ClosureProperty, RelEqualsDatalogEqualsReference) {
  const GraphCase& param = GetParam();
  std::vector<Tuple> edges =
      benchutil::RandomGraph(param.n, param.m, param.seed);

  // Rel engine (through the second-order stdlib TC), lowered onto the
  // Datalog engine and on the interpreter's saturation loop.
  Engine engine;
  engine.Insert("E", edges);
  Relation rel_tc = engine.Query("def output : TC[E]");
  EXPECT_EQ(engine.last_lowering_stats().components_lowered, 1);
  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("E", edges);
  EXPECT_EQ(classic.Query("def output : TC[E]").ToString(), rel_tc.ToString());

  // Baseline Datalog engine.
  datalog::Program program = datalog::ParseDatalog(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  for (const Tuple& e : edges) program.AddFact("edge", e);
  Relation datalog_tc = datalog::EvaluatePredicate(program, "tc");

  // Handwritten reference.
  auto ref = benchutil::TransitiveClosureRef(edges);

  EXPECT_EQ(rel_tc, datalog_tc);
  ASSERT_EQ(rel_tc.size(), ref.size());
  for (const auto& [a, b] : ref) {
    EXPECT_TRUE(rel_tc.Contains(Tuple({I(a), I(b)})));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ClosureProperty,
    ::testing::Values(GraphCase{8, 12, 1}, GraphCase{12, 30, 2},
                      GraphCase{16, 20, 3}, GraphCase{16, 64, 4},
                      GraphCase{24, 48, 5}, GraphCase{10, 90, 6}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return "n" + std::to_string(info.param.n) + "m" +
             std::to_string(info.param.m) + "s" +
             std::to_string(info.param.seed);
    });

// --- differential: APSP vs BFS ------------------------------------------------

class ApspProperty : public ::testing::TestWithParam<GraphCase> {};

TEST_P(ApspProperty, BothFormulationsMatchBfs) {
  const GraphCase& param = GetParam();
  std::vector<Tuple> edges =
      benchutil::RandomGraph(param.n, param.m, param.seed);
  std::vector<Tuple> nodes = benchutil::NodeSet(param.n);

  Engine engine;
  engine.Insert("E", edges);
  engine.Insert("V", nodes);
  Relation apsp = engine.Query("def output : APSP[V, E]");
  Relation guarded = engine.Query("def output : APSP_guarded[V, E]");

  // Both answers are the interpreter's literal reading, whether or not an
  // instance lowers.
  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("E", edges);
  classic.Insert("V", nodes);
  EXPECT_EQ(classic.Query("def output : APSP[V, E]").ToString(),
            apsp.ToString());
  EXPECT_EQ(classic.Query("def output : APSP_guarded[V, E]").ToString(),
            guarded.ToString());

  auto ref = benchutil::ApspRef(param.n, edges);

  // The guarded formulation is exactly BFS.
  ASSERT_EQ(guarded.size(), ref.size());
  for (const auto& [pair, dist] : ref) {
    EXPECT_TRUE(
        guarded.Contains(Tuple({I(pair.first), I(pair.second), I(dist)})))
        << pair.first << "->" << pair.second << " = " << dist;
  }

  // The min formulation (read literally, as the engine evaluates it) derives
  // every BFS distance, but on cyclic graphs it additionally derives
  // (x, x, c) for cycle lengths c — rule 2 has no "not already shorter"
  // guard. Check: BFS ⊆ APSP, min per pair == BFS, extras are diagonal.
  std::map<std::pair<int64_t, int64_t>, int64_t> min_per_pair;
  for (const Tuple& t : apsp.TuplesOfArity(3)) {
    auto key = std::make_pair(t[0].AsInt(), t[1].AsInt());
    auto it = min_per_pair.find(key);
    if (it == min_per_pair.end() || t[2].AsInt() < it->second) {
      min_per_pair[key] = t[2].AsInt();
    }
    if (ref.count(key)) {
      EXPECT_GE(t[2].AsInt(), ref.at(key));
    }
    if (t[2].AsInt() > 0 && ref.count(key) && t[2].AsInt() != ref.at(key)) {
      EXPECT_EQ(key.first, key.second)
          << "non-diagonal extra " << t.ToString();
    }
  }
  ASSERT_EQ(min_per_pair.size(), ref.size());
  for (const auto& [pair, dist] : ref) {
    EXPECT_EQ(min_per_pair.at(pair), dist);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ApspProperty,
    ::testing::Values(GraphCase{6, 10, 11}, GraphCase{8, 20, 12},
                      GraphCase{10, 15, 13}, GraphCase{12, 40, 14}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return "n" + std::to_string(info.param.n) + "s" +
             std::to_string(info.param.seed);
    });

// --- differential: matrix multiplication --------------------------------------

class MatMulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatMulProperty, RelMatchesReference) {
  int seed = GetParam();
  std::vector<Tuple> a = benchutil::SparseMatrix(8, 8, 0.4, seed);
  std::vector<Tuple> b = benchutil::SparseMatrix(8, 8, 0.4, seed + 100);
  Engine engine;
  engine.Insert("A", a);
  engine.Insert("B", b);
  Relation rel_product = engine.Query("def output : MatrixMult[A, B]");
  std::vector<Tuple> ref = benchutil::MatMulRef(a, b);
  ASSERT_EQ(rel_product.size(), ref.size());
  for (const Tuple& t : ref) {
    Relation cell = rel_product.Suffixes(t.Slice(0, 2));
    ASSERT_EQ(cell.size(), 1u);
    EXPECT_NEAR(cell.SortedTuples()[0][0].AsDouble(), t[2].AsDouble(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulProperty, ::testing::Range(1, 7));

// --- permutations: |Perm(t)| == n! --------------------------------------------

class PermProperty : public ::testing::TestWithParam<int> {};

TEST_P(PermProperty, CountsFactorial) {
  int n = GetParam();
  std::string tuple = "(";
  for (int i = 1; i <= n; ++i) {
    tuple += (i > 1 ? "," : "") + std::to_string(i * 10);
  }
  tuple += ")";
  Engine engine;
  engine.Define("def R {" + tuple + "}\n"
                "def Perm(x...) : R(x...)\n"
                "def Perm(x...,a,y...,b,z...) : Perm(x...,b,y...,a,z...)");
  Relation perms = engine.Query("def output : Perm");
  int64_t factorial = 1;
  for (int i = 2; i <= n; ++i) factorial *= i;
  EXPECT_EQ(perms.size(), static_cast<size_t>(factorial));
}

INSTANTIATE_TEST_SUITE_P(Arities, PermProperty, ::testing::Range(1, 5));

// --- reduce: order-independence for commutative/associative operators ---------

class ReduceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReduceProperty, SumIndependentOfInsertionOrder) {
  Rng rng(GetParam());
  std::vector<int64_t> values;
  int64_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    int64_t v = static_cast<int64_t>(rng.NextBelow(1000));
    values.push_back(v);
    expected += v;
  }
  // Insert under distinct keys (set semantics would collapse duplicates).
  std::vector<Tuple> forward, backward;
  for (size_t i = 0; i < values.size(); ++i) {
    forward.push_back(Tuple({I(static_cast<int64_t>(i)), I(values[i])}));
  }
  backward.assign(forward.rbegin(), forward.rend());

  Engine e1, e2;
  e1.Insert("R", forward);
  e2.Insert("R", backward);
  EXPECT_EQ(e1.Eval("sum[R]").ToString(), "{(" + std::to_string(expected) + ")}");
  EXPECT_EQ(e1.Eval("sum[R]"), e2.Eval("sum[R]"));
  EXPECT_EQ(e1.Eval("min[R]"), e2.Eval("min[R]"));
  EXPECT_EQ(e1.Eval("max[R]"), e2.Eval("max[R]"));
  EXPECT_EQ(e1.Eval("count[R]").ToString(), "{(20)}");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceProperty,
                         ::testing::Values(21u, 22u, 23u, 24u));

// --- joins: hash join == LFTJ on random inputs ---------------------------------

class JoinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinProperty, HashEqualsLeapfrog) {
  uint64_t seed = GetParam();
  std::vector<Tuple> r = benchutil::RandomGraph(20, 60, seed);
  std::vector<Tuple> s = benchutil::RandomGraph(20, 60, seed * 31 + 7);
  joins::SortedColumns r_sorted = joins::ToSortedColumns(r);
  joins::SortedColumns s_sorted = joins::ToSortedColumns(s);
  std::vector<joins::AtomSpec> atoms = {{&r_sorted, {0, 1}},
                                        {&s_sorted, {1, 2}}};
  EXPECT_EQ(joins::LeapfrogJoinCount(3, atoms),
            joins::HashJoin(r, {1}, s, {0}).size());
  EXPECT_EQ(joins::CountTrianglesLeapfrog(r),
            benchutil::CountTrianglesRef(r));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinProperty,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

// --- grouped aggregation: Rel == reference -------------------------------------

class GroupSumProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupSumProperty, RelMatchesReference) {
  benchutil::OrdersWorkload w = benchutil::MakeOrders(20, 12, 3, 3, GetParam());
  Engine engine;
  engine.Insert("PaymentOrder", w.payment_order);
  engine.Insert("PaymentAmount", w.payment_amount);
  engine.Insert("OrderProductQuantity", w.order_product_quantity);
  Relation grouped = engine.Query(
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OPA(x,y,z) : PaymentOrder(y,x) and PaymentAmount(y,z)\n"
      "def Paid[x in Ord] : sum[OPA[x]] <++ 0\n"
      "def output : Paid");

  std::map<Value, Value> amounts;
  for (const Tuple& t : w.payment_amount) amounts.emplace(t[0], t[1]);
  std::map<Value, int64_t> expected;
  for (const Tuple& t : w.order_product_quantity) expected[t[0]];
  for (const Tuple& t : w.payment_order) {
    if (expected.count(t[1])) expected[t[1]] += amounts.at(t[0]).AsInt();
  }
  ASSERT_EQ(grouped.size(), expected.size());
  for (const auto& [order, total] : expected) {
    EXPECT_TRUE(grouped.Contains(Tuple({order, I(total)})))
        << order.ToString() << " -> " << total;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupSumProperty,
                         ::testing::Values(41u, 42u, 43u, 44u));

// --- GNF round trip --------------------------------------------------------------

class GnfProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GnfProperty, DecomposeReassembleIsLossless) {
  Rng rng(GetParam());
  kg::RecordSpec spec{"item", "Item", {"A", "B", "C"}};
  std::vector<kg::WideRow> rows;
  for (int i = 0; i < 25; ++i) {
    kg::WideRow row;
    row.id = "id" + std::to_string(i);
    for (int a = 0; a < 3; ++a) {
      if (rng.NextBool(0.3)) {
        row.values.push_back(std::nullopt);  // random NULLs
      } else {
        row.values.push_back(I(static_cast<int64_t>(rng.NextBelow(100))));
      }
    }
    // Ensure the row is visible in at least one relation.
    if (!row.values[0] && !row.values[1] && !row.values[2]) {
      row.values[0] = I(0);
    }
    rows.push_back(std::move(row));
  }
  kg::EntityRegistry registry;
  Database db;
  DecomposeRecords(spec, rows, &registry, &db);

  kg::Schema schema;
  DeclareRecord(spec, &schema);
  EXPECT_TRUE(schema.Validate(db).empty());

  std::vector<kg::WideRow> back = ReassembleRecords(spec, db);
  ASSERT_EQ(back.size(), rows.size());
  std::map<std::string, const kg::WideRow*> by_id;
  for (const kg::WideRow& row : rows) by_id[row.id] = &row;
  for (const kg::WideRow& row : back) {
    const kg::WideRow* original = by_id.at(row.id);
    for (int a = 0; a < 3; ++a) {
      EXPECT_EQ(row.values[a].has_value(), original->values[a].has_value());
      if (row.values[a]) EXPECT_EQ(*row.values[a], *original->values[a]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GnfProperty,
                         ::testing::Values(51u, 52u, 53u, 54u));

// --- relational algebra laws (stdlib) -------------------------------------------

class AlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgebraProperty, SetLawsHold) {
  uint64_t seed = GetParam();
  std::vector<Tuple> a = benchutil::RandomGraph(10, 25, seed);
  std::vector<Tuple> b = benchutil::RandomGraph(10, 25, seed + 1000);
  Engine engine;
  engine.Insert("A", a);
  engine.Insert("B", b);

  size_t a_size = engine.Eval("A").size();
  size_t b_size = engine.Eval("B").size();
  size_t union_size = engine.Eval("Union[A, B]").size();
  size_t inter_size = engine.Eval("Intersect[A, B]").size();
  size_t minus_size = engine.Eval("Minus[A, B]").size();

  // |A ∪ B| = |A| + |B| - |A ∩ B| and |A \ B| = |A| - |A ∩ B|.
  EXPECT_EQ(union_size, a_size + b_size - inter_size);
  EXPECT_EQ(minus_size, a_size - inter_size);
  // Product cardinality multiplies.
  EXPECT_EQ(engine.Eval("Product[A, B]").size(), a_size * b_size);
  // Idempotence.
  EXPECT_EQ(engine.Eval("Union[A, A]").size(), a_size);
  EXPECT_EQ(engine.Eval("Intersect[A, A]").size(), a_size);
  EXPECT_EQ(engine.Eval("Minus[A, A]").size(), 0u);
  // Commutativity of union/intersection.
  EXPECT_EQ(engine.Eval("Union[A, B]"), engine.Eval("Union[B, A]"));
  EXPECT_EQ(engine.Eval("Intersect[A, B]"), engine.Eval("Intersect[B, A]"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraProperty,
                         ::testing::Values(61u, 62u, 63u));

// --- PageRank: sums to 1, matches reference ranks --------------------------------

class PageRankProperty : public ::testing::TestWithParam<int> {};

TEST_P(PageRankProperty, MassConservedAndMatchesReference) {
  int n = GetParam();
  std::vector<Tuple> g = benchutil::StochasticMatrix(n, 2, 77);
  Engine engine;
  engine.Insert("G", g);
  Relation pr = engine.Query("def output : PageRank[G]");
  // The relational vector is sparse: nodes with no inbound links have no
  // entry (a relation stores no explicit zeros).
  ASSERT_GT(pr.size(), 0u);
  ASSERT_LE(pr.size(), static_cast<size_t>(n));
  double total = 0;
  std::map<int64_t, double> rel_pr;
  for (const Tuple& t : pr.TuplesOfArity(2)) {
    total += t[1].AsDouble();
    rel_pr[t[0].AsInt()] = t[1].AsDouble();
  }
  EXPECT_NEAR(total, 1.0, 1e-6);  // column-stochastic G conserves mass

  std::vector<double> ref = benchutil::PageRankRef(n, g, 0.005);
  for (int i = 1; i <= n; ++i) {
    double rel_value = rel_pr.count(i) ? rel_pr[i] : 0.0;
    // Same stop threshold: entries agree to within the tolerance.
    EXPECT_NEAR(rel_value, ref[i], 0.02) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageRankProperty,
                         ::testing::Values(4, 8, 12));

// --- property: random monotone recursion, lowered vs tuple-at-a-time ---------
//
// Generates random monotone recursive Rel programs (all within the
// Datalog-lowerable fragment by construction), then evaluates every derived
// predicate three ways: the classic Interp saturation loop, the lowering
// path sequentially, and the lowering path on 4 threads. All three extents
// must be equal with byte-identical sorted renderings.

class LoweringProperty : public ::testing::TestWithParam<uint64_t> {};

namespace lowering_gen {

/// One random program: source text plus the derived predicates to compare.
struct Generated {
  std::string source;
  std::vector<std::string> preds;
};

Generated RandomMonotoneProgram(Rng* rng) {
  Generated out;
  std::string src;

  // Component 1: transitive-closure-like `t`, with a randomly chosen base
  // guard and 1..3 recursive rules of random linearity.
  const char* base_guard = "";
  switch (rng->NextBelow(3)) {
    case 0: base_guard = ""; break;
    case 1: base_guard = " and x != y"; break;
    case 2: base_guard = " and x < y"; break;
  }
  src += "def t(x, y) : edge(x, y)" + std::string(base_guard) + "\n";
  const char* recursive_shapes[] = {
      "def t(x, z) : exists((y) | edge(x, y) and t(y, z))\n",
      "def t(x, z) : exists((y) | t(x, y) and edge(y, z))\n",
      "def t(x, z) : exists((y) | t(x, y) and t(y, z))\n",
  };
  size_t num_rules = 1 + rng->NextBelow(3);
  for (size_t i = 0; i < num_rules; ++i) {
    src += recursive_shapes[rng->NextBelow(3)];
  }
  out.preds.push_back("t");

  // Component 2 (coin flip): mutual recursion over two predicates.
  if (rng->NextBool(0.5)) {
    src +=
        "def podd(x, y) : edge(x, y)\n"
        "def podd(x, z) : exists((y) | edge(x, y) and peven(y, z))\n"
        "def peven(x, z) : exists((y) | edge(x, y) and podd(y, z))\n";
    out.preds.push_back("podd");
    out.preds.push_back("peven");
  }

  // Component 3 (coin flip): depth-bounded arithmetic recursion, with a
  // random bound so the fixpoint terminates on both paths.
  if (rng->NextBool(0.5)) {
    int bound = 2 + static_cast<int>(rng->NextBelow(4));
    src += "def dist(x, y, d) : edge(x, y) and d = 1\n";
    src += "def dist(x, z, d) : exists((y, e) | dist(x, y, e) and "
           "edge(y, z) and d = e + 1 and e < " +
           std::to_string(bound) + ")\n";
    out.preds.push_back("dist");
  }

  // A non-recursive consumer joining the recursive extent (coin flip),
  // exercising the member-as-external hand-off.
  if (rng->NextBool(0.5)) {
    src += "def joined(x, z) : exists((y) | t(x, y) and edge(y, z))\n";
    out.preds.push_back("joined");
  }

  out.source = src;
  return out;
}

}  // namespace lowering_gen

TEST_P(LoweringProperty, LoweredEqualsInterpAcrossThreadCounts) {
  Rng rng(GetParam());
  std::vector<Tuple> edges =
      benchutil::RandomGraph(10 + static_cast<int>(rng.NextBelow(8)),
                            20 + static_cast<int>(rng.NextBelow(25)),
                            rng.Next());
  lowering_gen::Generated gen = lowering_gen::RandomMonotoneProgram(&rng);

  struct Config {
    bool lower;
    int threads;
  };
  const Config configs[] = {{false, 1}, {true, 1}, {true, 4}};
  std::map<std::string, Relation> reference;
  std::map<std::string, std::string> reference_rendering;
  for (const Config& config : configs) {
    Engine engine;
    engine.options().lower_recursion = config.lower;
    engine.options().num_threads = config.threads;
    engine.Insert("edge", edges);
    for (const std::string& pred : gen.preds) {
      Relation got = engine.Query(gen.source + "def output : " + pred);
      if (!config.lower) {
        EXPECT_EQ(engine.last_lowering_stats().components_lowered, 0);
        reference[pred] = got;
        reference_rendering[pred] = got.ToString();
        continue;
      }
      // Every generated component is in the fragment: the lowering must
      // actually fire, and agree byte-for-byte.
      EXPECT_GE(engine.last_lowering_stats().components_lowered, 1)
          << "lowering did not fire for:\n" << gen.source;
      EXPECT_EQ(reference[pred], got)
          << "threads=" << config.threads << " pred='" << pred
          << "' diverges for:\n" << gen.source;
      EXPECT_EQ(reference_rendering[pred], got.ToString())
          << "rendering not byte-identical, pred='" << pred << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// --- property: random binding patterns equal the filtered full query ---------
//
// The same random monotone programs, queried through applications with
// random binding patterns (constants at bound positions, fresh variables at
// free ones). A bound query must return exactly the full extent filtered to
// the pattern and projected onto its free positions; an all-bound pattern
// degenerates to a boolean reachability check.

class BoundQueryProperty : public ::testing::TestWithParam<uint64_t> {};

namespace bound_gen {

/// Query text for `pred` under `pattern`: bound positions become integer
/// literals, free ones output variables. All-bound yields a boolean query.
std::string QueryFor(const std::string& pred,
                     const std::vector<std::optional<int64_t>>& pattern) {
  std::string head;
  std::string args;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i) args += ", ";
    if (pattern[i]) {
      args += std::to_string(*pattern[i]);
    } else {
      std::string var = "q" + std::to_string(i);
      head += head.empty() ? var : ", " + var;
      args += var;
    }
  }
  std::string out = "def output";
  if (!head.empty()) out += "(" + head + ")";
  return out + " : " + pred + "(" + args + ")";
}

/// The rows of `full` matching `pattern`, projected onto its free
/// positions.
Relation FilterAndProject(const Relation& full,
                          const std::vector<std::optional<int64_t>>& pattern) {
  Relation out;
  full.ForEach([&](const TupleRef& row) {
    if (row.arity() != pattern.size()) return;
    Tuple proj;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (!pattern[i]) {
        proj.Append(row[i]);
      } else if (!(row[i] == Value::Int(*pattern[i]))) {
        return;
      }
    }
    out.Insert(proj);
  });
  return out;
}

}  // namespace bound_gen

TEST_P(BoundQueryProperty, BoundQueriesEqualFilteredFullQuery) {
  Rng rng(GetParam());
  int n = 10 + static_cast<int>(rng.NextBelow(8));
  std::vector<Tuple> edges = benchutil::RandomGraph(
      n, 20 + static_cast<int>(rng.NextBelow(25)), rng.Next());
  lowering_gen::Generated gen = lowering_gen::RandomMonotoneProgram(&rng);

  std::map<std::string, size_t> arity;
  for (const std::string& pred : gen.preds) {
    arity[pred] = pred == "dist" ? 3 : 2;
  }
  for (const std::string& pred : gen.preds) {
    for (int trial = 0; trial < 3; ++trial) {
      // trial 0: random pattern; trial 1: all-free; trial 2: all-bound.
      std::vector<std::optional<int64_t>> pattern;
      for (size_t i = 0; i < arity[pred]; ++i) {
        bool bind = trial == 2 || (trial == 0 && rng.NextBool(0.5));
        if (bind) {
          pattern.emplace_back(
              static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n) + 2)));
        } else {
          pattern.emplace_back(std::nullopt);
        }
      }
      std::string query = bound_gen::QueryFor(pred, pattern);

      Engine full;
      full.Insert("edge", edges);
      Relation expected = bound_gen::FilterAndProject(
          full.Query(gen.source + "def output : " + pred), pattern);

      Engine bound;
      bound.Insert("edge", edges);
      Relation got = bound.Query(gen.source + query);

      EXPECT_EQ(expected, got)
          << "bound query diverges for '" << query << "' over:\n"
          << gen.source;
      EXPECT_EQ(expected.ToString(), got.ToString())
          << "rendering not byte-identical for '" << query << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundQueryProperty,
                         ::testing::Values(111, 222, 333, 444, 555, 666, 777,
                                           888));

}  // namespace
}  // namespace rel
