// Differential suite for lowering recursive second-order instances: a
// recursive component whose members take relation parameters and pass them
// through unchanged (stdlib TC[E]) runs on the Datalog engine with each
// relation argument as EDB. Every case evaluates the same query with
// lowering on and off and asserts byte-identical extents (sorted rendering)
// or the same error message, then checks which path ran.

#include "core/lowering.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "core/interp.h"
#include "core/parser.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& s) { return Value::String(s); }

struct Outcome {
  std::string answer;  // the sorted extent of `output`, or the error message
  LoweringStats stats;
};

Outcome Eval(const Database& db, const std::string& source, bool lower,
             int max_iterations = 100000) {
  std::vector<std::shared_ptr<Def>> defs;
  for (const std::string& text : {std::string(StdlibSource()), source}) {
    Program program = ParseProgram(text);
    for (Def& def : program.defs) {
      defs.push_back(std::make_shared<Def>(std::move(def)));
    }
  }
  InterpOptions options;
  options.lower_recursion = lower;
  options.max_iterations = max_iterations;
  Interp interp(&db, std::move(defs), options);
  Outcome out;
  try {
    out.answer = interp.EvalInstance("output", 0, {}).ToString();
  } catch (const RelError& err) {
    out.answer = std::string("error: ") + err.what();
  }
  out.stats = interp.lowering_stats();
  return out;
}

/// Runs `source` both ways, asserts the same outcome and no lowering on the
/// classic path, and returns the lowered run.
Outcome Differential(const Database& db, const std::string& source,
                     int max_iterations = 100000) {
  Outcome lowered = Eval(db, source, true, max_iterations);
  Outcome classic = Eval(db, source, false, max_iterations);
  EXPECT_EQ(lowered.answer, classic.answer) << source;
  EXPECT_EQ(classic.stats.components_lowered, 0) << source;
  return lowered;
}

bool HasNote(const Outcome& o, const std::string& text) {
  for (const std::string& note : o.stats.rejection_notes) {
    if (note.find(text) != std::string::npos) return true;
  }
  return false;
}

Database Cycle() {
  Database db;
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 3}, {3, 4}, {4, 2}, {5, 1}, {6, 6}}) {
    db.Insert("E", Tuple({I(a), I(b)}));
  }
  for (int v = 1; v <= 6; ++v) db.Insert("V", Tuple({I(v)}));
  return db;
}

// --- the stdlib graph library ------------------------------------------------

TEST(SoLowering, TcOverABaseRelation) {
  Outcome o = Differential(Cycle(), "def output : TC[E]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.stats.lowered_names, std::vector<std::string>{"TC"});
  EXPECT_EQ(o.stats.components_rejected, 0);
  EXPECT_NE(o.answer.find("(5, 4)"), std::string::npos);
}

TEST(SoLowering, PointQueryOnTc) {
  Outcome o = Differential(Cycle(), "def output(y) : TC[E](5, y)");
  EXPECT_EQ(o.answer, "{(1); (2); (3); (4)}");
  EXPECT_EQ(o.stats.components_lowered, 1);
}

TEST(SoLowering, ReachableLowersItsTc) {
  // Reachable is not recursive itself; its TC[E] instance is.
  Outcome o = Differential(Cycle(), "def output : Reachable[E]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.stats.lowered_names, std::vector<std::string>{"TC"});
  EXPECT_NE(o.answer.find("(6, 6)"), std::string::npos);
}

TEST(SoLowering, ApspKeepsTheInterpretersReading) {
  // APSP mixes a plain base rule with an aggregate rule for one predicate,
  // which the Datalog engine refuses: the component rejects and the
  // replacement loop gives the literal reading, diagonal extras included.
  Outcome o = Differential(Cycle(), "def output : APSP[V, E]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_EQ(o.stats.components_rejected, 1);
  EXPECT_TRUE(HasNote(o, "APSP: ")) << o.stats.rejection_notes.size();
  EXPECT_NE(o.answer.find("(2, 2, 3)"), std::string::npos);
}

// --- argument kinds ----------------------------------------------------------

TEST(SoLowering, QueryLocalDefArgument) {
  Outcome o = Differential(Cycle(),
                           "def F(x, y) : E(x, y) and x < 4\n"
                           "def output : TC[F]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.answer, "{(1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4)}");
}

TEST(SoLowering, InlineRelationLiteralArgument) {
  Outcome o = Differential(Database(),
                           "def output : TC[{(1, 2); (2, 3); (3, 1)}]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.answer,
            "{(1, 1); (1, 2); (1, 3); (2, 1); (2, 2); (2, 3); (3, 1); (3, 2); "
            "(3, 3)}");
}

TEST(SoLowering, MixedArityArgument) {
  // Only the binary rows are edges; the others must not leak into TC.
  Database db;
  db.Insert("M", Tuple({I(1), I(2)}));
  db.Insert("M", Tuple({I(2), I(3)}));
  db.Insert("M", Tuple({I(3), I(4), I(5)}));
  db.Insert("M", Tuple({I(4)}));
  db.Insert("M", Tuple({I(3), S("x")}));
  Outcome o = Differential(db, "def output : TC[M]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.answer,
            "{(1, 2); (1, 3); (1, \"x\"); (2, 3); (2, \"x\"); (3, \"x\")}");
}

TEST(SoLowering, EmptyArgument) {
  Outcome o = Differential(Cycle(),
                           "def None(x, y) : E(x, y) and x > 100\n"
                           "def output : TC[None]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.answer, "{}");
}

TEST(SoLowering, StringValues) {
  Database db;
  db.Insert("P", Tuple({S("ann"), S("bob")}));
  db.Insert("P", Tuple({S("bob"), S("cy")}));
  db.Insert("P", Tuple({S("cy"), S("ann")}));
  Outcome o = Differential(db, "def output(y) : TC[P](\"bob\", y)");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.answer, "{(\"ann\"); (\"bob\"); (\"cy\")}");
}

TEST(SoLowering, TwoArgumentsAreTwoInstances) {
  Database db = Cycle();
  db.Insert("B", Tuple({I(10), I(11)}));
  db.Insert("B", Tuple({I(11), I(12)}));
  Outcome o = Differential(db,
                           "def output(k, x, y) : (k = 1 and TC[E](x, y)) or\n"
                           "                      (k = 2 and TC[B](x, y))");
  EXPECT_EQ(o.stats.components_lowered, 2);
  EXPECT_EQ(o.stats.lowered_names, (std::vector<std::string>{"TC", "TC"}));
  EXPECT_NE(o.answer.find("(2, 10, 12)"), std::string::npos);
  EXPECT_NE(o.answer.find("(1, 5, 4)"), std::string::npos);
}

TEST(SoLowering, UserDefinedMutualRecursionWithTwoParameters) {
  // Two members, two relation parameters named differently per def, both
  // passed through in order: one lowering finishes both member instances.
  Database db = Cycle();
  db.Insert("R", Tuple({I(4), I(7)}));
  const std::string rules =
      "def Odd({A}, {B}, x, y) : A(x, y)\n"
      "def Odd({F}, {G}, x, y) : exists((z) | Even[F, G](x, z) and "
      "(F(z, y) or G(z, y)))\n"
      "def Even({A}, {B}, x, y) : exists((z) | Odd[A, B](x, z) and "
      "A(z, y))\n";
  Outcome o = Differential(db, rules + "def output : Even[E, R]");
  EXPECT_EQ(o.stats.components_lowered, 1);
  EXPECT_EQ(o.stats.lowered_names, (std::vector<std::string>{"Even", "Odd"}));
  EXPECT_NE(o.answer.find("(1, 4)"), std::string::npos);
  // Each application site passes its own closure over E and R, so these
  // are two instances of the component, lowered once each.
  o = Differential(db, rules +
                           "def output(k, x, y) : (k = 0 and Even[E, R](x, y)) "
                           "or (k = 1 and Odd[E, R](x, y))");
  EXPECT_EQ(o.stats.components_lowered, 2);
  EXPECT_NE(o.answer.find("(1, 1, 7)"), std::string::npos);
}

// --- fallbacks ---------------------------------------------------------------

TEST(SoLowering, BuiltinArgumentFallsBack) {
  // A builtin has no EDB: this instance keeps the saturation loop, where
  // the solver checks `lt` with both columns bound.
  Database db;
  for (int v = 1; v <= 4; ++v) db.Insert("Pt", Tuple({I(v)}));
  Outcome o = Differential(
      db,
      "def Chain({F}, x, y) : Pt(x) and Pt(y) and F(x, y)\n"
      "def Chain({F}, x, y) : exists((z) | Chain[F](x, z) and "
      "Chain[F](z, y))\n"
      "def output : Chain[rel_primitive_lt]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "Chain: relation argument 1: "));
  EXPECT_EQ(o.answer, "{(1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4)}");
}

TEST(SoLowering, InfiniteArgumentFallsBack) {
  // An infinite closure cannot be EDB either; the solver inlines it where
  // both columns are bound. A named infinite def raises the same safety
  // error on both paths.
  Database db;
  for (int v = 1; v <= 4; ++v) db.Insert("Pt", Tuple({I(v)}));
  const std::string rules =
      "def Less(x, y) : x < y\n"
      "def Chain({F}, x, y) : Pt(x) and Pt(y) and F(x, y)\n"
      "def Chain({F}, x, y) : exists((z) | Chain[F](x, z) and "
      "Chain[F](z, y))\n";
  Outcome o = Differential(db, rules + "def output : Chain[(x, y) : x < y]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "Chain: relation argument 1: "));
  EXPECT_EQ(o.answer, "{(1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4)}");

  o = Differential(db, rules + "def output : Chain[Less]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "Chain: relation argument 1: "));
  EXPECT_EQ(o.answer.rfind("error: safety error", 0), 0u) << o.answer;
}

TEST(SoLowering, BuiltinArgumentToTcRaisesTheSameError) {
  Outcome o =
      Differential(Database(), "def output(y) : TC[rel_primitive_lt](1, y)");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_EQ(o.answer.rfind("error: ", 0), 0u) << o.answer;
}

TEST(SoLowering, ArgumentChangingAcrossTheRecursionRejects) {
  // Alt[F] reads Alt[E]: the relation argument is not passed through, so
  // the component rejects and every instance keeps the saturation loop.
  Database db = Cycle();
  db.Insert("G", Tuple({I(9), I(9)}));
  Outcome o = Differential(db,
                           "def Alt({F}, x, y) : F(x, y)\n"
                           "def Alt({F}, x, y) : Alt[E](x, y)\n"
                           "def output : Alt[G]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "Alt: member 'Alt' is applied to other relation "
                         "arguments"));
  EXPECT_NE(o.answer.find("(9, 9)"), std::string::npos);
  EXPECT_NE(o.answer.find("(5, 1)"), std::string::npos);
}

TEST(SoLowering, SwappedArgumentsReject) {
  Database db = Cycle();
  db.Insert("R", Tuple({I(4), I(7)}));
  Outcome o = Differential(db,
                           "def Sw({A}, {B}, x, y) : A(x, y)\n"
                           "def Sw({A}, {B}, x, y) : exists((z) | B(x, z) and "
                           "Sw[B, A](z, y))\n"
                           "def output : Sw[E, R]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "applied to other relation arguments"));
}

TEST(SoLowering, ParameterPassedToAnotherRelationRejects) {
  // Wrap[F] hands the parameter on to a relation outside the component,
  // which has no EDB predicate to read.
  Outcome o = Differential(Cycle(),
                           "def Wrap({F}, x, y) : F(x, y)\n"
                           "def P({F}, x, y) : Wrap[F](x, y)\n"
                           "def P({F}, x, y) : exists((z) | P[F](x, z) and "
                           "F(z, y))\n"
                           "def output : P[E]");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_TRUE(HasNote(o, "P: relation-valued argument 'F'"));
  EXPECT_NE(o.answer.find("(5, 4)"), std::string::npos);
}

TEST(SoLowering, ArgumentReadingAnInProgressFixpointFallsBack) {
  // TC[R] is evaluated while R's own fixpoint is running: its argument is a
  // partial value, so that instance declines and the loop drives it.
  Outcome o = Differential(Cycle(),
                           "def R(x, y) : E(x, y) or TC[R](x, y)\n"
                           "def output : R");
  EXPECT_TRUE(HasNote(o, "TC: input read an in-progress fixpoint"));
  Outcome tc = Differential(Cycle(), "def output : TC[E]");
  EXPECT_EQ(o.answer, tc.answer);
}

TEST(SoLowering, IterationCapRaisesTheSameError) {
  // A capped lowered fixpoint rejects; the saturation loop raises the
  // authoritative diagnostic.
  Database db;
  for (int v = 0; v < 12; ++v) db.Insert("C", Tuple({I(v), I(v + 1)}));
  Outcome o = Differential(db, "def output : TC[C]", /*max_iterations=*/3);
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_NE(o.answer.find("did not converge within max_iterations = 3"),
            std::string::npos)
      << o.answer;
}

TEST(SoLowering, NonRecursiveSecondOrderDefsAreNotAttempted) {
  // Product and left_override take relation arguments but are not
  // recursive: no lowering attempt, so no rejection either.
  Outcome o = Differential(Cycle(),
                           "def output : Product[V, {(7)}] <++ {(0, 0)}");
  EXPECT_EQ(o.stats.components_lowered, 0);
  EXPECT_EQ(o.stats.components_rejected, 0);
}

// --- through the Engine ------------------------------------------------------

TEST(SoLowering, EngineQueriesAgree) {
  Engine lowered;
  Engine classic;
  classic.options().lower_recursion = false;
  for (Engine* e : {&lowered, &classic}) {
    e->Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                    Tuple({I(3), I(1)})});
  }
  const std::string q = "def output(x) : TC[E](x, x)";
  EXPECT_EQ(lowered.Query(q).ToString(), classic.Query(q).ToString());
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1);
  EXPECT_EQ(classic.last_lowering_stats().components_lowered, 0);
}

}  // namespace
}  // namespace rel
