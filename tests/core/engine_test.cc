// Engine-level tests: transactions, persistence, failure injection, and
// the evaluation limits.

#include <gtest/gtest.h>

#include "base/error.h"
#include "core/engine.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* s) { return Value::String(s); }

TEST(Engine, DefinePersistsAcrossQueries) {
  Engine engine;
  engine.Define("def double[x in Nums] : x * 2");
  engine.Insert("Nums", {Tuple({I(1)}), Tuple({I(2)})});
  EXPECT_EQ(engine.Query("def output : double").ToString(),
            "{(1, 2); (2, 4)}");
  // Query-local rules do not persist: `tmp` is unknown (empty) afterwards.
  EXPECT_EQ(engine.Query("def tmp(x) : x = 1\ndef output : tmp").size(), 1u);
  EXPECT_EQ(engine.Query("def output : tmp").size(), 0u);
}

TEST(Engine, QueryDoesNotApplyUpdates) {
  Engine engine;
  engine.Query("def insert(:R, x) : x = 1");
  EXPECT_EQ(engine.Base("R").size(), 0u);
  engine.Exec("def insert(:R, x) : x = 1");
  EXPECT_EQ(engine.Base("R").size(), 1u);
}

TEST(Engine, InsertCreatesRelationOnTheSpot) {
  // Section 3.4: "if ClosedOrders does not exist, it will be created".
  Engine engine;
  TxnResult txn = engine.Exec("def insert(:Fresh, x, y) : x = 1 and y = 2");
  EXPECT_EQ(txn.inserted, 1u);
  EXPECT_TRUE(engine.Base("Fresh").Contains(Tuple({I(1), I(2)})));
}

TEST(Engine, DeleteAndInsertInOneTransaction) {
  Engine engine;
  engine.Insert("R", {Tuple({I(1)}), Tuple({I(2)})});
  TxnResult txn = engine.Exec(
      "def delete(:R, x) : R(x) and x = 1\n"
      "def insert(:R, x) : x = 9");
  EXPECT_EQ(txn.deleted, 1u);
  EXPECT_EQ(txn.inserted, 1u);
  EXPECT_EQ(engine.Base("R").ToString(), "{(2); (9)}");
}

TEST(Engine, UpdatesComputedAgainstPreState) {
  // Both control relations see the snapshot, not each other's effects.
  Engine engine;
  engine.Insert("R", {Tuple({I(1)})});
  engine.Exec("def insert(:R, x) : exists((y) | R(y) and x = y + 1)");
  EXPECT_EQ(engine.Base("R").ToString(), "{(1); (2)}");
}

TEST(Engine, MalformedControlTupleIsError) {
  Engine engine;
  EXPECT_THROW(engine.Exec("def insert(x) : x = 1"), RelError);
  EXPECT_EQ(engine.db().TotalTuples(), 0u);
}

TEST(Engine, ConstraintViolationRollsBackEverything) {
  Engine engine;
  engine.Insert("R", {Tuple({I(5)})});
  engine.Define("ic small(x) requires R(x) implies x < 10");
  EXPECT_THROW(engine.Exec("def insert(:R, x) : x = 50\n"
                           "def delete(:R, x) : R(x) and x = 5"),
               ConstraintViolation);
  // Both the insert and the delete were rolled back.
  EXPECT_EQ(engine.Base("R").ToString(), "{(5)}");
}

TEST(Engine, RollbackDoesNotLeakExtentsAcrossTransactions) {
  // Regression guard for bound reads of a recursive component: the
  // transaction's Interp memoizes the lowered extent and the writer's
  // extent cache stores it stamped with the working version, so a
  // rolled-back transaction must leave no trace — the next query reads the
  // restored base relations. A leak would surface as tc answering from the
  // rolled-back edge set.
  Engine engine;
  engine.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))\n"
      "ic no_self_loop() requires forall((x, y) | edge(x, y) implies x != y)");
  engine.Exec("def insert(:edge, x, y) : (x = 1 and y = 2) or "
              "(x = 2 and y = 3)");
  EXPECT_EQ(engine.Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3)}");

  // This transaction extends the graph AND violates the constraint: the
  // whole edge delta rolls back after tc was demanded against it.
  EXPECT_THROW(engine.Exec("def insert(:edge, x, y) : (x = 3 and y = 4) or "
                           "(x = 5 and y = 5)\n"
                           "def output(y) : tc(1, y)"),
               ConstraintViolation);
  EXPECT_EQ(engine.Base("edge").ToString(), "{(1, 2); (2, 3)}");

  // Re-query the bound reads: the rolled-back edges must be gone.
  EXPECT_EQ(engine.Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3)}");
  EXPECT_EQ(engine.Query("def output(y) : tc(3, y)").size(), 0u);
}

TEST(Engine, IcWithParametersReportsWitnesses) {
  Engine engine;
  engine.Insert("Quantity", {Tuple({S("a"), I(1)}), Tuple({S("b"), S("x")})});
  engine.Define("ic int_quantities(q) requires Quantity(_, q) implies Int(q)");
  try {
    engine.CheckConstraints();
    FAIL() << "expected violation";
  } catch (const ConstraintViolation& v) {
    EXPECT_EQ(v.ic_name(), "int_quantities");
    EXPECT_NE(std::string(v.what()).find("\"x\""), std::string::npos);
  }
}

TEST(Engine, TransactionLocalIcApplies) {
  Engine engine;
  engine.Insert("R", {Tuple({I(5)})});
  // The ic arrives with the transaction, not via Define.
  EXPECT_THROW(engine.Exec("ic none() requires empty(R)\n"
                           "def insert(:S, x) : x = 1"),
               ConstraintViolation);
  EXPECT_EQ(engine.Base("S").size(), 0u);
}

TEST(Engine, EvalIsExpressionSugar) {
  Engine engine;
  EXPECT_EQ(engine.Eval("1 + 1").ToString(), "{(2)}");
  EXPECT_EQ(engine.Eval("count[{(1);(2)}]").ToString(), "{(2)}");
}

TEST(Engine, OutputAbsentGivesEmpty) {
  Engine engine;
  EXPECT_TRUE(engine.Query("def foo(x) : x = 1").empty());
}

TEST(Engine, UnknownRelationIsEmptyNotError) {
  // Datalog convention: a never-defined name denotes the empty relation.
  Engine engine;
  EXPECT_EQ(engine.Query("def output(x) : NoSuchRel(x)").size(), 0u);
  EXPECT_EQ(engine.Eval("count[NoSuchRel] <++ 0").ToString(), "{(0)}");
}

// --- failure injection -------------------------------------------------------

TEST(Engine, NonConvergentReplacementFixpointIsCapped) {
  Engine engine;
  engine.options().max_iterations = 50;
  // flip oscillates: {()} <-> {} under replacement semantics. The cap must
  // raise a diagnostic naming the offending component and its mode — never
  // return a partial extent.
  try {
    engine.Query("def flip() : not flip()\n"
                 "def output() : flip()");
    FAIL() << "expected non-convergence";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
    std::string what = e.what();
    EXPECT_NE(what.find("flip"), std::string::npos) << what;
    EXPECT_NE(what.find("replacement"), std::string::npos) << what;
  }
}

TEST(Engine, RunawayAccumulationIsCapped) {
  Engine engine;
  engine.options().max_iterations = 100;
  // Counts upward forever: accumulate mode. (With recursion lowering on,
  // the Datalog engine hits its inherited cap first and the component falls
  // back; the saturation loop then raises the authoritative diagnostic.)
  try {
    engine.Query("def n(x) : x = 0\n"
                 "def n(x) : exists((y) | n(y) and x = y + 1)\n"
                 "def output : count[n]");
    FAIL() << "expected non-convergence";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
    std::string what = e.what();
    EXPECT_NE(what.find("'n'"), std::string::npos) << what;
    EXPECT_NE(what.find("accumulate"), std::string::npos) << what;
  }
}

TEST(Engine, RunawaySpecializationIsCapped) {
  Engine engine;
  engine.options().max_instances = 64;
  // Every recursive call specializes on a new relation value.
  EXPECT_THROW(engine.Query("def f[{A}] : count[A] + f[(A, 1)]\n"
                            "def output : f[{(1)}]"),
               RelError);
}

TEST(Engine, ParseErrorsCarryPositions) {
  Engine engine;
  try {
    engine.Query("def output(x) :\n  x = ");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Engine, ArityErrorsOnBuiltins) {
  Engine engine;
  try {
    engine.Eval("{(x) : rel_primitive_add(1, 2, 3, x)}");
    FAIL();
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kArity);
  }
}

TEST(Engine, MissingSecondOrderArgs) {
  Engine engine;
  try {
    engine.Eval("sum");  // sum needs its relation argument
    FAIL();
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kArity);
  }
}

TEST(Engine, StdlibCanBeDisabled) {
  Engine engine(/*load_stdlib=*/false);
  EXPECT_EQ(engine.installed_rules(), 0u);
  EXPECT_EQ(engine.Eval("1 + 2").ToString(), "{(3)}");  // builtins remain
  EXPECT_EQ(engine.Query("def output : sum[{(1)}]").size(), 0u);  // no stdlib
}

// --- fixpoint semantics edge cases --------------------------------------------

TEST(Engine, MutualRecursionEvenOdd) {
  Engine engine;
  engine.Define(
      "def even(x) : x = 0\n"
      "def even(x) : exists((y) | x = y + 1 and odd(y) and x <= 10)\n"
      "def odd(x) : exists((y) | x = y + 1 and even(y) and x <= 10)");
  EXPECT_EQ(engine.Query("def output : even").ToString(),
            "{(0); (2); (4); (6); (8); (10)}");
  EXPECT_EQ(engine.Query("def output : odd").size(), 5u);
}

TEST(Engine, StratifiedNegationThroughRecursion) {
  Engine engine;
  engine.Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  engine.Insert("V", {Tuple({I(1)}), Tuple({I(2)}), Tuple({I(3)}),
                      Tuple({I(4)})});
  Relation out = engine.Query(
      "def reach(x) : x = 1\n"
      "def reach(y) : exists((x) | reach(x) and E(x, y))\n"
      "def unreachable(x) : V(x) and not reach(x)\n"
      "def output : unreachable");
  EXPECT_EQ(out.ToString(), "{(4)}");
}

TEST(Engine, SameInstanceSharedWithinQuery) {
  // Two references to TC over the same edges hit the same memoized
  // instance — results must be consistent mid-query.
  Engine engine;
  engine.Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  Relation out = engine.Query(
      "def both(x, y) : TC[E](x, y) and TC[E](x, y)\n"
      "def output : both");
  EXPECT_EQ(out.size(), 3u);
}

TEST(Engine, RecursionThroughSecondOrderTemplate) {
  // A recursive template applied to a derived relation.
  Engine engine;
  engine.Insert("Raw", {Tuple({I(1), I(2), S("x")}), Tuple({I(2), I(3), S("y")})});
  Relation out = engine.Query(
      "def Edges(a, b) : Raw(a, b, _)\n"
      "def output : TC[Edges]");
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace rel
