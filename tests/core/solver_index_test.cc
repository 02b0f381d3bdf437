// The solver's two access paths for an atom over a finite relation: a
// sorted prefix scan when the bound arguments form a leading run, and a hash
// probe on every bound position when a bound argument lies past that run and
// the relation is settled (a base relation, or a finished instance).
//
// Each case checks a literal answer through Interp directly, so the test can
// read solver_index_builds() to see which path ran. Where a case has a
// prefix-scan twin (the same data with the bound column moved to the front),
// both must give the same answer, or the same first error.

#include "core/interp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "core/parser.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& s) { return Value::String(s); }

struct Result {
  std::string answer;
  uint64_t index_builds = 0;
};

/// Evaluates `output` over `db` with the standard library and `source`.
Result Eval(const Database& db, const std::string& source,
            bool lower_recursion = true) {
  std::vector<std::shared_ptr<Def>> defs;
  for (const std::string& text : {std::string(StdlibSource()), source}) {
    Program program = ParseProgram(text);
    for (Def& def : program.defs) {
      defs.push_back(std::make_shared<Def>(std::move(def)));
    }
  }
  InterpOptions options;
  options.lower_recursion = lower_recursion;
  Interp interp(&db, std::move(defs), options);
  Result r;
  r.answer = interp.EvalInstance("output", 0, {}).ToString();
  r.index_builds = interp.solver_index_builds();
  return r;
}

/// The message of the RelError `source` raises (it starts with the kind).
std::string EvalError(const Database& db, const std::string& source) {
  try {
    Eval(db, source);
  } catch (const RelError& err) {
    return err.what();
  }
  return "no error";
}

/// Inserts `rows` into `name`, and into `name + "_p"` with column `col`
/// moved to the front (the other columns keep their order).
void InsertWithTwin(Database* db, const std::string& name, size_t col,
                    const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) {
    db->Insert(name, Tuple(row));
    std::vector<Value> moved = {row[col]};
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != col) moved.push_back(row[i]);
    }
    db->Insert(name + "_p", Tuple(moved));
  }
}

TEST(SolverIndex, ConstantAtANonLeadingPosition) {
  Database db;
  InsertWithTwin(&db, "R", 1,
                 {{I(1), I(3), I(10)},
                  {I(2), I(4), I(20)},
                  {I(3), I(3), I(30)},
                  {I(4), I(3), I(10)},
                  {I(5), I(5), I(50)}});
  Result hash = Eval(db, "def output(y) : R(_, 3, y)");
  EXPECT_EQ(hash.answer, "{(10); (30)}");
  EXPECT_EQ(hash.index_builds, 1u);
  Result scan = Eval(db, "def output(y) : R_p(3, _, y)");
  EXPECT_EQ(scan.answer, hash.answer);
  EXPECT_EQ(scan.index_builds, 0u);
}

// OrderLineAmount from the order/payment application: whichever atom is
// written first, the solver enumerates ProductPrice (fewer unbound
// variables) and then looks up OrderProductQuantity by its middle column.
TEST(SolverIndex, OrderLineAmountInBothAtomOrders) {
  Database db;
  for (const auto& [o, p, q] : std::vector<std::tuple<const char*, const char*,
                                                      int64_t>>{
           {"o1", "apple", 2}, {"o1", "pear", 1}, {"o2", "apple", 5},
           {"o3", "plum", 4}, {"o3", "pear", 3}}) {
    db.Insert("OrderProductQuantity", Tuple({S(o), S(p), I(q)}));
  }
  db.Insert("ProductPrice", Tuple({S("apple"), I(3)}));
  db.Insert("ProductPrice", Tuple({S("pear"), I(7)}));
  db.Insert("ProductPrice", Tuple({S("fig"), I(11)}));
  const std::string want =
      "{(\"o1\", \"apple\", 6); (\"o1\", \"pear\", 7); (\"o2\", \"apple\", 15); "
      "(\"o3\", \"pear\", 21)}";
  Result a = Eval(db,
                  "def output(o, p, a) : exists((q, pr) | "
                  "OrderProductQuantity(o, p, q) and ProductPrice(p, pr) and "
                  "a = q * pr)");
  EXPECT_EQ(a.answer, want);
  EXPECT_EQ(a.index_builds, 1u);
  Result b = Eval(db,
                  "def output(o, p, a) : exists((q, pr) | "
                  "ProductPrice(p, pr) and OrderProductQuantity(o, p, q) and "
                  "a = q * pr)");
  EXPECT_EQ(b.answer, want);
  EXPECT_EQ(b.index_builds, 1u);
}

// The key holds the bound position only; the repeated variable's second
// occurrence is checked against the row, as on the scan path.
TEST(SolverIndex, RepeatedVariableFirstSeenPastTheLeadingRun) {
  Database db;
  InsertWithTwin(&db, "R", 1,
                 {{I(1), I(7), I(7)},
                  {I(2), I(7), I(8)},
                  {I(3), I(8), I(8)},
                  {I(4), I(7), I(7)}});
  db.Insert("K", Tuple({I(7)}));
  db.Insert("K", Tuple({I(8)}));
  Result hash = Eval(db, "def output(x, k) : K(k) and R(x, k, k)");
  EXPECT_EQ(hash.answer, "{(1, 7); (3, 8); (4, 7)}");
  EXPECT_EQ(hash.index_builds, 1u);
  Result unbound = Eval(db, "def output(x, y) : R(x, y, y)");
  EXPECT_EQ(unbound.answer, "{(1, 7); (3, 8); (4, 7)}");
  EXPECT_EQ(unbound.index_builds, 0u);
  Result scan = Eval(db, "def output(x, k) : K(k) and R_p(k, x, k)");
  EXPECT_EQ(scan.answer, hash.answer);
}

// Only rows of the atom's own arity can match, so the probe indexes that
// arity alone; the other arities under the name stay out of the answer.
TEST(SolverIndex, MixedArityRelationUnderOneName) {
  Database db;
  db.Insert("R", Tuple({I(1), I(2)}));
  db.Insert("R", Tuple({I(5), I(2)}));
  db.Insert("R", Tuple({I(1), I(2), I(3)}));
  db.Insert("R", Tuple({I(4), I(2), I(6)}));
  db.Insert("R", Tuple({I(7), I(9), I(6)}));
  db.Insert("R", Tuple({I(1), I(2), I(3), I(4)}));
  Result two = Eval(db, "def output(x) : R(x, 2)");
  EXPECT_EQ(two.answer, "{(1); (5)}");
  Result three = Eval(db, "def output(x, z) : R(x, 2, z)");
  EXPECT_EQ(three.answer, "{(1, 3); (4, 6)}");
  EXPECT_EQ(three.index_builds, 1u);
  Result absent = Eval(db, "def output(x, z, w, v) : R(x, 2, z, w, v)");
  EXPECT_EQ(absent.answer, "{}");
  EXPECT_EQ(absent.index_builds, 0u);
}

// A tuple-variable argument leaves the arity open, so the atom keeps the
// prefix scan and still matches every arity.
TEST(SolverIndex, TupleVariableArgumentsMatchEveryArity) {
  Database db;
  db.Insert("R", Tuple({I(1), I(2)}));
  db.Insert("R", Tuple({I(1), I(2), I(3)}));
  db.Insert("R", Tuple({I(4), I(2), I(5), I(6)}));
  db.Insert("R", Tuple({I(7), I(8), I(9)}));
  Result r = Eval(db, "def output(x, t...) : R(x, 2, t...)");
  EXPECT_EQ(r.answer, "{(1); (1, 3); (4, 5, 6)}");
  EXPECT_EQ(r.index_builds, 0u);
}

TEST(SolverIndex, FloatSumOverAnIndexedJoin) {
  Database db;
  db.Insert("OPQ", Tuple({S("o1"), S("a"), Value::Float(0.1)}));
  db.Insert("OPQ", Tuple({S("o1"), S("b"), Value::Float(0.2)}));
  db.Insert("OPQ", Tuple({S("o2"), S("a"), Value::Float(1e16)}));
  db.Insert("OPQ", Tuple({S("o3"), S("a"), Value::Float(-1e16)}));
  db.Insert("OPQ", Tuple({S("o4"), S("b"), Value::Float(0.3)}));
  db.Insert("Price", Tuple({S("a"), Value::Float(1.0)}));
  db.Insert("Price", Tuple({S("b"), Value::Float(1.0)}));
  Result r = Eval(db,
                  "def Amount(o, p, a) : exists((q, pr) | OPQ(o, p, q) and "
                  "Price(p, pr) and a = q * pr)\n"
                  "def output : sum[Amount]");
  // sum reduces the amounts in ascending tuple order:
  // ((((0.1 + 0.2) + 1e16) + -1e16) + 0.3) = 0.3.
  EXPECT_EQ(r.answer, "{(0.3)}");
  EXPECT_EQ(r.index_builds, 1u);
}

// Two int64 overflows in one join: both paths visit rows in ascending
// order, so both raise the overflow of the smallest row first. The rows
// are inserted out of order, so storage order would report the other one.
TEST(SolverIndex, FirstErrorIsTheSameOnBothPaths) {
  Database db;
  const int64_t big = std::numeric_limits<int64_t>::max() / 2 + 1;
  InsertWithTwin(&db, "OPQ", 1,
                 {{S("o4"), S("a"), I(1)},
                  {S("o3"), S("b"), I(big + 1)},
                  {S("o2"), S("b"), I(big)},
                  {S("o1"), S("a"), I(2)}});
  db.Insert("Price", Tuple({S("a"), I(3)}));
  db.Insert("Price", Tuple({S("b"), I(2)}));
  const std::string want = "type error: integer overflow: " +
                           std::to_string(big) + " * 2 exceeds the int64 range";
  EXPECT_EQ(EvalError(db,
                      "def output(o, a) : exists((p, q, pr) | Price(p, pr) "
                      "and OPQ(o, p, q) and a = q * pr)"),
            want);
  EXPECT_EQ(EvalError(db,
                      "def output(o, a) : exists((p, q, pr) | Price(p, pr) "
                      "and OPQ_p(p, o, q) and a = q * pr)"),
            want);
}

// Instances of one name are distinct relations: alternating probes of
// Sel[R1] and Sel[R2] build one index each, not one per probe.
TEST(SolverIndex, OneBuildPerRelationAcrossInstancesOfOneName) {
  Database db;
  for (int64_t v = 1; v <= 4; ++v) {
    db.Insert("V", Tuple({I(v)}));
    db.Insert("R1", Tuple({I(10 + v), I(v)}));
    db.Insert("R2", Tuple({I(20 + v), I(v)}));
  }
  Result r = Eval(db,
                  "def Sel({A}, k, v) : A(k, v)\n"
                  "def output(k1, k2) : exists((v) | V(v) and Sel(R1, k1, v) "
                  "and Sel(R2, k2, v))");
  EXPECT_EQ(r.answer, "{(11, 21); (12, 22); (13, 23); (14, 24)}");
  EXPECT_EQ(r.index_builds, 2u);
}

// The in-progress value of a saturation loop changes between iterations,
// so a lookup into it by a non-leading column keeps the prefix scan.
TEST(SolverIndex, InProgressFixpointValuesKeepThePrefixScan) {
  Database db;
  db.Insert("E", Tuple({I(1), I(2)}));
  db.Insert("E", Tuple({I(2), I(3)}));
  db.Insert("E", Tuple({I(3), I(4)}));
  Result r = Eval(db,
                  "def T(x, y) : E(x, y)\n"
                  "def T(x, z) : exists((y) | E(y, z) and T(x, y))\n"
                  "def output(x, y) : T(x, y)",
                  /*lower_recursion=*/false);
  EXPECT_EQ(r.answer, "{(1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4)}");
  EXPECT_EQ(r.index_builds, 0u);
}

}  // namespace
}  // namespace rel
