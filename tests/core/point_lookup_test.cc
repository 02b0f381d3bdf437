// Keyed reads of non-recursive defs: a lookup with bound positions
// evaluates only the matching slice (the rules with their parameters
// seeded, plus matching base facts) instead of the full extent.
//
// Every point read below is checked differentially: its answer must be
// byte-identical (sorted rendering) to datalog::FilterByPattern of the full
// extent, projected onto the free positions. LoweringStats::seeded_lookups
// tells which path a read took. Cases that must not seed (numeric keys
// where a numeric builtin could bind the parameter, unsafe defs) pin the
// full path's answer instead.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "datalog/program.h"

namespace rel {
namespace {

using Pattern = std::vector<std::optional<Value>>;

Value I(int64_t v) { return Value::Int(v); }
Value F(double v) { return Value::Float(v); }
Value S(const std::string& s) { return Value::String(s); }

std::string Render(const Relation& rel) {
  std::string out;
  for (const Tuple& t : rel.SortedTuples()) out += t.ToString() + "\n";
  return out;
}

/// The point read of `name` under `pattern`: `def output(free...) :
/// name(args)`, with bound positions written as literals.
std::string PointQuery(const std::string& name, const Pattern& pattern) {
  std::string head, args;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i) args += ", ";
    if (pattern[i]) {
      args += pattern[i]->ToString();
    } else {
      std::string var = "v" + std::to_string(i);
      head += (head.empty() ? "" : ", ") + var;
      args += var;
    }
  }
  return "def output" + (head.empty() ? "" : "(" + head + ")") + " : " +
         name + "(" + args + ")";
}

/// FilterByPattern of `full`, projected onto the free positions.
Relation Expected(const Relation& full, const Pattern& pattern) {
  Relation out;
  const Relation matching = datalog::FilterByPattern(full, pattern);
  for (const Tuple& t : matching.SortedTuples()) {
    Tuple proj;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (!pattern[i]) proj.Append(t[i]);
    }
    out.Insert(proj);
  }
  return out;
}

/// Checks one point read against the full extent; returns the seeded
/// lookups the read took.
int CheckPointRead(Engine& engine, const std::string& name,
                   const Pattern& pattern) {
  Relation full = engine.Query("def output : " + name);
  const std::string query = PointQuery(name, pattern);
  Relation got = engine.Query(query);
  int seeded = engine.last_lowering_stats().seeded_lookups;
  EXPECT_EQ(Render(got), Render(Expected(full, pattern))) << query;
  return seeded;
}

/// Every single-position pattern of `arity` over `keys` at `pos`.
std::vector<Pattern> KeyPatterns(size_t arity, size_t pos,
                                 const std::vector<Value>& keys) {
  std::vector<Pattern> out;
  for (const Value& k : keys) {
    Pattern p(arity);
    p[pos] = k;
    out.push_back(p);
  }
  return out;
}

// --- the orders model (the paper's Figure 1) -------------------------------

const char kOrdersModel[] =
    "def Ord(x) : OrderProductQuantity(x, _, _)\n"
    "def OrderLineAmount(o, p, a) :\n"
    "  exists((q, pr) | OrderProductQuantity(o, p, q) and\n"
    "                   ProductPrice(p, pr) and a = q * pr)\n"
    "def OrderTotal[x in Ord] : sum[OrderLineAmount[x]]\n"
    "def OrderPaymentAmount(x, y, z) : PaymentOrder(y, x) and "
    "PaymentAmount(y, z)\n"
    "def Paid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0\n";

struct Orders {
  Engine engine;
  std::vector<Value> orders, products;

  Orders() {
    engine.Define(kOrdersModel);
    std::vector<Tuple> prices, lines, pay_order, pay_amount;
    for (int p = 0; p < 5; ++p) {
      products.push_back(S("P" + std::to_string(p)));
      prices.push_back(Tuple({products.back(), I(10 + 3 * p)}));
    }
    for (int o = 0; o < 7; ++o) {
      orders.push_back(S("o" + std::to_string(o)));
      for (int p = 0; p < 5; ++p) {
        if ((o + p) % 3 == 0) continue;
        lines.push_back(
            Tuple({orders.back(), products[p], I(1 + (o * p) % 4)}));
      }
      if (o % 2 == 0) {
        std::string id = "y" + std::to_string(o);
        pay_order.push_back(Tuple({S(id), orders.back()}));
        pay_amount.push_back(Tuple({S(id), I(5 * o + 1)}));
      }
    }
    engine.Insert("ProductPrice", prices);
    engine.Insert("OrderProductQuantity", lines);
    engine.Insert("PaymentOrder", pay_order);
    engine.Insert("PaymentAmount", pay_amount);
  }
};

TEST(PointLookup, OrdersReadsEqualTheFilteredFullExtent) {
  Orders m;
  std::vector<Value> order_keys = m.orders;
  order_keys.push_back(S("absent"));
  std::vector<Value> product_keys = m.products;
  product_keys.push_back(S("P-none"));
  for (const Pattern& p : KeyPatterns(2, 0, order_keys)) {
    EXPECT_GT(CheckPointRead(m.engine, "OrderTotal", p), 0);
    EXPECT_GT(CheckPointRead(m.engine, "Paid", p), 0);
  }
  for (const Pattern& p : KeyPatterns(3, 0, order_keys)) {
    EXPECT_GT(CheckPointRead(m.engine, "OrderLineAmount", p), 0);
  }
  for (const Pattern& p : KeyPatterns(3, 1, product_keys)) {
    EXPECT_GT(CheckPointRead(m.engine, "OrderLineAmount", p), 0);
  }
  // A bound `[]`-head output never seeds: the aggregate compares its
  // result numerically, the full extent's row kind-strictly.
  for (const Tuple& t :
       m.engine.Query("def output : OrderTotal").SortedTuples()) {
    const Value as_float = F(static_cast<double>(t[1].AsInt()));
    CheckPointRead(m.engine, "OrderTotal", {t[0], t[1]});
    CheckPointRead(m.engine, "OrderTotal", {t[0], as_float});
    CheckPointRead(m.engine, "OrderTotal", {{}, as_float});
    CheckPointRead(m.engine, "OrderTotal", {{}, t[1]});
  }
  // Both keys bound.
  for (const Value& o : m.orders) {
    for (const Value& p : m.products) {
      EXPECT_GT(CheckPointRead(m.engine, "OrderLineAmount", {o, p, {}}), 0);
    }
  }
}

TEST(PointLookup, OrdersPartialApplicationsTakeTheSeededPath) {
  Orders m;
  // The reads the application issues: `[]` applications leave the arity
  // open (a tuple variable follows the key), and the aggregate's closure
  // reads OrderLineAmount with the key bound from its environment.
  for (const Value& o : m.orders) {
    const std::string key = o.ToString();
    Relation total = m.engine.Query("def output : OrderTotal[" + key + "]");
    const LoweringStats stats = m.engine.last_lowering_stats();
    EXPECT_GE(stats.seeded_lookups, 2) << key;  // OrderTotal, OrderLineAmount
    EXPECT_EQ(stats.components_rejected, 0) << key;
    EXPECT_EQ(Render(total),
              Render(Expected(m.engine.Query("def output : OrderTotal"),
                              {o, {}})))
        << key;
    Relation paid = m.engine.Query("def output : Paid[" + key + "]");
    EXPECT_GE(m.engine.last_lowering_stats().seeded_lookups, 2) << key;
    EXPECT_EQ(m.engine.last_lowering_stats().components_rejected, 0) << key;
    Relation full = m.engine.Query("def output : Paid");
    EXPECT_EQ(Render(paid), Render(Expected(full, {o, {}}))) << key;
  }
  // Absent key: the domain `x in Ord` is empty, so are both reads.
  EXPECT_TRUE(m.engine.Query("def output : OrderTotal[\"zz\"]").empty());
  EXPECT_TRUE(m.engine.Query("def output : Paid[\"zz\"]").empty());
}

// --- other rule shapes -------------------------------------------------------

TEST(PointLookup, HeadLiteralParameterBesideAVariableOne) {
  Engine engine;
  engine.Define(
      "def h(5, y) : B(y)\n"
      "def h(x, y) : A(x, y)\n");
  engine.Insert("A", {Tuple({I(5), S("a")}), Tuple({I(6), S("b")}),
                      Tuple({F(5.0), S("c")})});
  engine.Insert("B", {Tuple({S("x")}), Tuple({S("y")})});
  for (const Value& k : {I(5), I(6), F(5.0), I(7), S("5")}) {
    CheckPointRead(engine, "h", {k, {}});
  }
  for (const Value& k : {S("a"), S("x"), S("none")}) {
    CheckPointRead(engine, "h", {{}, k});
  }
  EXPECT_GT(CheckPointRead(engine, "h", {I(5), {}}), 0);
}

TEST(PointLookup, BaseFactsBesideRules) {
  Engine engine;
  engine.Define("def r(x, y) : A(x, y) and y > 1\n");
  engine.Insert("A", {Tuple({S("k"), I(1)}), Tuple({S("k"), I(2)}),
                      Tuple({S("m"), I(3)})});
  engine.Insert("r", {Tuple({S("k"), I(0)}), Tuple({S("n"), I(9)}),
                      Tuple({S("k"), I(2)})});
  for (const Value& k : {S("k"), S("m"), S("n"), S("none")}) {
    EXPECT_GT(CheckPointRead(engine, "r", {k, {}}), 0);
  }
  for (const Value& k : {I(0), I(2), I(3), I(9), F(2.0)}) {
    CheckPointRead(engine, "r", {{}, k});
  }
}

TEST(PointLookup, MixedHeadArities) {
  Engine engine;
  engine.Define(
      "def m(x) : A(x, _)\n"
      "def m(x, y) : A(x, y)\n"
      "def m(x, y, z) : A(x, y) and A(y, z)\n");
  engine.Insert("A", {Tuple({S("a"), S("b")}), Tuple({S("b"), S("c")}),
                      Tuple({S("c"), S("a")})});
  for (const Value& k : {S("a"), S("b"), S("c"), S("d")}) {
    for (size_t arity = 1; arity <= 3; ++arity) {
      for (size_t pos = 0; pos < arity; ++pos) {
        for (const Pattern& p : KeyPatterns(arity, pos, {k})) {
          CheckPointRead(engine, "m", p);
        }
      }
    }
  }
  EXPECT_GT(CheckPointRead(engine, "m", {S("a"), {}, {}}), 0);
}

TEST(PointLookup, OrBodies) {
  Engine engine;
  engine.Define(
      "def d(x, y) : A(x, y) or (B(y) and x = \"k\")\n"
      "def e(x, y) : (A(x, y) or A(y, x)) and not B(y)\n");
  engine.Insert("A", {Tuple({S("a"), S("b")}), Tuple({S("b"), S("c")})});
  engine.Insert("B", {Tuple({S("b")}), Tuple({S("z")})});
  for (const Value& k : {S("a"), S("b"), S("c"), S("k"), S("z")}) {
    CheckPointRead(engine, "d", {k, {}});
    CheckPointRead(engine, "d", {{}, k});
    CheckPointRead(engine, "e", {k, {}});
    CheckPointRead(engine, "e", {{}, k});
  }
  // x is bound only inside a disjunction branch of d: no top-level binder,
  // so it never seeds; e's x is not bound by a top-level atom either.
  EXPECT_EQ(CheckPointRead(engine, "d", {S("k"), {}}), 0);
  EXPECT_EQ(CheckPointRead(engine, "e", {S("a"), {}}), 0);
}

TEST(PointLookup, TupleVariableParameters) {
  Engine engine;
  engine.Define("def t(x, ys...) : T(x, ys...)\n");
  engine.Insert("T", {Tuple({S("a")}), Tuple({S("a"), I(1)}),
                      Tuple({S("a"), I(1), I(2)}), Tuple({S("b"), I(3)})});
  for (const Value& k : {S("a"), S("b"), S("c")}) {
    for (size_t arity = 1; arity <= 3; ++arity) {
      EXPECT_GT(CheckPointRead(engine, "t", KeyPatterns(arity, 0, {k})[0]), 0);
    }
  }
  // Positions at or after the tuple-variable parameter never seed.
  EXPECT_EQ(CheckPointRead(engine, "t", {{}, I(1)}), 0);
  // A partial application leaves the arity open.
  EXPECT_EQ(Render(engine.Query("def output : t[\"a\"]")),
            Render(engine.Query("def output(ys...) : T(\"a\", ys...)")));
  // A tuple variable before the bound position: the full extent serves it.
  Relation got = engine.Query("def output(xs...) : t(xs..., 2)");
  EXPECT_EQ(engine.last_lowering_stats().seeded_lookups, 0);
  EXPECT_EQ(Render(got), Render(engine.Query(
                             "def output(xs...) : T(xs..., 2)")));
}

// --- numeric keys ----------------------------------------------------------

// `=`, arithmetic and range compare Int and Float numerically while atom
// matching is kind-strict, so a bound number must not seed a parameter that
// such a literal could bind. Each answer is the full path's.
TEST(PointLookup, NumericKeysDoNotSeedThroughNumericBuiltins) {
  Engine engine;
  engine.Define(
      "def n(x) : x = 2\n"
      "def n2(x, y) : x = 2 and y = 3\n"
      "def k(x) : exists((a) | E(a) and x = a * 1.0)\n");
  engine.Insert("E", {Tuple({I(5)})});
  EXPECT_TRUE(engine.Query("def output : n(2.0)").empty());
  EXPECT_TRUE(engine.Query("def output(y) : n2(2.0, y)").empty());
  EXPECT_EQ(Render(engine.Query("def output : k(5.0)")), "()\n");
  EXPECT_EQ(engine.last_lowering_stats().seeded_lookups, 0);
}

TEST(PointLookup, NumericKeysSeedWhenOnlyAtomsBind) {
  Engine engine;
  engine.Define(
      "def q(x, y) : E(x, y) and x > 1\n"
      "def w(x, y) : exists((z) | E(x, z) and y = z + 1)\n"
      "def u(x, y) : exists((z) | E(x, z) and y = x + z)\n");
  engine.Insert("E", {Tuple({I(2), I(10)}), Tuple({F(2.0), I(20)}),
                      Tuple({S("s"), I(30)})});
  // q's x is bound only by E (`>` cannot bind): every key seeds.
  for (const Value& k : {I(2), F(2.0), I(3), S("s")}) {
    EXPECT_GT(CheckPointRead(engine, "q", {k, {}}), 0) << k.ToString();
  }
  // w's x is bound only by E as well, so numbers seed there too.
  EXPECT_GT(CheckPointRead(engine, "w", {F(2.0), {}}), 0);
  // u's x also feeds `+`, an inlined def: strings seed, numbers do not.
  EXPECT_GT(CheckPointRead(engine, "u", {S("s"), {}}), 0);
  EXPECT_EQ(CheckPointRead(engine, "u", {F(2.0), {}}), 0);
  EXPECT_EQ(CheckPointRead(engine, "u", {I(2), {}}), 0);
}

// A bound position that cannot seed still filters the slice, so the memo
// holds only the rows the read returns.
TEST(PointLookup, SliceHoldsOnlyTheMatchingRows) {
  Engine engine;
  engine.Define("def p(k, n) : exists((m) | A(k, m) and n = m + 1)\n");
  engine.Insert("A", {Tuple({S("a"), I(1)}), Tuple({S("a"), I(2)}),
                      Tuple({S("b"), I(3)})});
  EXPECT_EQ(CheckPointRead(engine, "p", {S("a"), I(3)}), 1);
  EXPECT_EQ(engine.last_lowering_stats().seeded_tuples, 1u);
}

// Only parameters seed, never a `[]`-head output: `y = z * 1.0` would
// accept a bound 5 where the full extent holds 5.0.
TEST(PointLookup, BracketHeadOutputsNeverSeed) {
  Engine engine;
  engine.Define(
      "def g[x in D] : ([y] : exists((z) | E(x, z) and y = z * 1.0))\n");
  engine.Insert("D", {Tuple({S("a")}), Tuple({S("b")})});
  engine.Insert("E", {Tuple({S("a"), I(5)}), Tuple({S("b"), I(7)})});
  for (const Value& v : {I(5), F(5.0), I(7), F(7.0)}) {
    EXPECT_GT(CheckPointRead(engine, "g", {S("a"), v}), 0) << v.ToString();
    CheckPointRead(engine, "g", {{}, v});
  }
  EXPECT_TRUE(engine.Query("def output : g(\"a\", 5)").empty());
}

// --- the per-name pattern cutoff -------------------------------------------

TEST(PointLookup, JoinOverManyKeysSeedsEightTimesThenEvaluatesOnce) {
  Engine engine;
  engine.Define("def R[k in Key] : sum[S[k]]\n");
  std::vector<Tuple> keys, s;
  for (int i = 0; i < 20; ++i) {
    keys.push_back(Tuple({S("k" + std::to_string(i))}));
    s.push_back(Tuple({S("k" + std::to_string(i)), I(i), I(i * 2)}));
    s.push_back(Tuple({S("k" + std::to_string(i)), I(i + 100), I(1)}));
  }
  engine.Insert("Key", keys);
  engine.Insert("S", s);
  Relation joined = engine.Query("def output(k, v) : Key(k) and R(k, v)");
  const LoweringStats stats = engine.last_lowering_stats();
  EXPECT_EQ(stats.seeded_lookups, 8);
  // The full instance ran once: its one lowering attempt rejects the
  // []-headed rule (the seeded slices never attempt lowering).
  EXPECT_EQ(stats.components_rejected, 1);
  EXPECT_EQ(joined.size(), 20u);
  EXPECT_EQ(Render(joined), Render(engine.Query("def output : R")));
}

// --- errors ----------------------------------------------------------------

std::string ErrorOf(Engine& engine, const std::string& query) {
  try {
    engine.Query(query);
  } catch (const RelError& err) {
    return err.what();
  }
  return "no error";
}

constexpr int64_t kHuge = 9000000000000000000;

TEST(PointLookup, OverflowInsideTheSliceRaisesTheFullReadsError) {
  Engine engine;
  engine.Define("def big(k, v) : exists((x) | A(k, x) and v = x + x)\n");
  engine.Insert("A",
                {Tuple({S("a"), I(kHuge)}), Tuple({S("b"), I(kHuge - 1)})});
  const std::string full = ErrorOf(engine, "def output : big");
  ASSERT_EQ(full.rfind("type error: integer overflow", 0), 0u) << full;
  // Both keys overflow; each point read raises exactly the full read's
  // error (the first one the full evaluation meets), not its own row's.
  EXPECT_EQ(ErrorOf(engine, "def output(v) : big(\"a\", v)"), full);
  EXPECT_EQ(ErrorOf(engine, "def output(v) : big(\"b\", v)"), full);
}

TEST(PointLookup, OverflowConfinedToAnotherKeyIsNotRaised) {
  Engine engine;
  engine.Define("def big(k, v) : exists((x) | A(k, x) and v = x + x)\n");
  engine.Insert("A", {Tuple({S("a"), I(4)}), Tuple({S("b"), I(kHuge)})});
  EXPECT_EQ(Render(engine.Query("def output(v) : big(\"a\", v)")), "(8)\n");
  EXPECT_EQ(engine.last_lowering_stats().seeded_lookups, 1);
  try {
    engine.Query("def output : big");
    ADD_FAILURE() << "the full read must overflow";
  } catch (const RelError& err) {
    EXPECT_EQ(err.kind(), ErrorKind::kType);
  }
}

TEST(PointLookup, UnsafeStandaloneDefsStillInline) {
  Engine engine;
  engine.Define(
      "def plus1(x, y) : y = x + 1\n"
      "def w(x, y) : E(x) and exists((z) | z = y + 1 and z > 0)\n");
  engine.Insert("E", {Tuple({S("a")}), Tuple({S("b")})});
  // plus1 has no finite binder: never seeded, inlined with its arguments.
  EXPECT_EQ(Render(engine.Query("def output(y) : plus1(3, y)")), "(4)\n");
  EXPECT_EQ(engine.last_lowering_stats().seeded_lookups, 0);
  // w seeds x, but y stays unbound: the slice is unsafe, so the read
  // falls back to the full instance, whose safety error sends it to
  // use-site inlining exactly as before.
  EXPECT_EQ(Render(engine.Query("def output : w(\"a\", 5)")), "()\n");
  EXPECT_EQ(engine.last_lowering_stats().seeded_lookups, 0);
  EXPECT_EQ(Render(engine.Query("def output(x) : w(x, 5)")),
            "(\"a\")\n(\"b\")\n");
  EXPECT_EQ(ErrorOf(engine, "def output : w").rfind("safety error", 0), 0u);
}

}  // namespace
}  // namespace rel
