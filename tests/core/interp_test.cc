// Interpreter-internals tests: signature resolution, instance memoization,
// second-order value handling, and fixpoint mode selection — through the
// Interp API directly.

#include "core/interp.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "base/rng.h"
#include "core/engine.h"
#include "core/parser.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

std::vector<std::shared_ptr<Def>> Defs(const std::string& source) {
  Program program = ParseProgram(source);
  std::vector<std::shared_ptr<Def>> out;
  for (Def& def : program.defs) {
    out.push_back(std::make_shared<Def>(std::move(def)));
  }
  return out;
}

TEST(Interp, DefsGroupedBySignature) {
  Database db;
  Interp interp(&db, Defs("def f[{A}] : count[A]\n"
                          "def f(x) : x = 1\n"
                          "def f(x) : x = 2"));
  EXPECT_TRUE(interp.HasDefs("f"));
  EXPECT_EQ(interp.DefsOf("f", 0).size(), 2u);
  EXPECT_EQ(interp.DefsOf("f", 1).size(), 1u);
  EXPECT_EQ(interp.DefsOf("f", 2).size(), 0u);
  EXPECT_FALSE(interp.HasDefs("g"));
}

TEST(Interp, ResolveSigUsesAnnotations) {
  Database db;
  Interp interp(&db, Defs("def f[{A}] : count[A]\n"
                          "def f(x) : x = 1"));
  std::vector<Arg> plain = {Arg{MakeIdent("whatever"), Annotation::kNone}};
  EXPECT_THROW(interp.ResolveSig("f", plain), RelError);

  std::vector<Arg> fo = {Arg{MakeIdent("w"), Annotation::kFirstOrder}};
  EXPECT_EQ(interp.ResolveSig("f", fo), 0u);
  std::vector<Arg> so = {Arg{MakeIdent("w"), Annotation::kSecondOrder}};
  EXPECT_EQ(interp.ResolveSig("f", so), 1u);
}

TEST(Interp, ResolveSigUnknownNameIsFirstOrder) {
  Database db;
  Interp interp(&db, {});
  EXPECT_EQ(interp.ResolveSig("base_rel", {}), 0u);
}

TEST(Interp, InstanceIncludesBaseFactsAndRules) {
  Database db;
  db.Insert("f", Tuple({I(10)}));
  Interp interp(&db, Defs("def f(x) : x = 1"));
  const Relation& f = interp.EvalInstance("f", 0, {});
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.Contains(Tuple({I(10)})));
  EXPECT_TRUE(f.Contains(Tuple({I(1)})));
}

TEST(Interp, InstancesMemoizedBySecondOrderValue) {
  Database db;
  Interp interp(&db, Defs("def double({A}, x, y) : A(x) and y = x * 2"));
  SOValue arg1 = SOValue::Materialized(
      Relation::FromTuples({Tuple({I(1)}), Tuple({I(2)})}));
  SOValue arg2 = SOValue::Materialized(
      Relation::FromTuples({Tuple({I(2)}), Tuple({I(1)})}));  // same content
  const Relation& r1 = interp.EvalInstance("double", 1, {arg1});
  const Relation& r2 = interp.EvalInstance("double", 1, {arg2});
  // Content-equal second-order arguments share the instance.
  EXPECT_EQ(&r1, &r2);
  EXPECT_EQ(r1.ToString(), "{(1, 2); (2, 4)}");

  SOValue arg3 = SOValue::Materialized(
      Relation::FromTuples({Tuple({I(5)})}));
  const Relation& r3 = interp.EvalInstance("double", 1, {arg3});
  EXPECT_EQ(r3.ToString(), "{(5, 10)}");
}

TEST(Interp, BuiltinSOValuesApplyAsFunctions) {
  Database db;
  Interp interp(&db, {});
  SOValue add = SOValue::ForBuiltin(FindBuiltin("add"));
  EXPECT_EQ(*interp.ApplyBinary(add, I(2), I(3)), I(5));
  SOValue table = SOValue::Materialized(
      Relation::FromTuples({Tuple({I(2), I(3), I(99)})}));
  EXPECT_EQ(*interp.ApplyBinary(table, I(2), I(3)), I(99));
  EXPECT_FALSE(interp.ApplyBinary(table, I(1), I(1)).has_value());
}

TEST(Interp, MaterializeSOFailsOnBuiltins) {
  Database db;
  Interp interp(&db, {});
  SOValue add = SOValue::ForBuiltin(FindBuiltin("add"));
  try {
    interp.MaterializeSO(add);
    FAIL();
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSafety);
  }
}

TEST(Interp, SafetyFailureIsCachedPerInstance) {
  Database db;
  Interp interp(&db, Defs("def unsafe(x, y) : x = y"));
  EXPECT_THROW(interp.EvalInstance("unsafe", 0, {}), RelError);
  // Second call hits the cached failure (fast path, same error kind).
  try {
    interp.EvalInstance("unsafe", 0, {});
    FAIL();
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kSafety);
  }
}

TEST(Interp, ReplacementModeSelection) {
  Database db;
  Interp interp(&db, Defs("def tc(x,y) : e(x,y)\n"
                          "def tc(x,y) : exists((z) | tc(x,z) and tc(z,y))\n"
                          "def odd(x) : d(x) and not odd(x)"));
  EXPECT_FALSE(interp.analysis().UsesReplacement("tc"));
  EXPECT_TRUE(interp.analysis().UsesReplacement("odd"));
}

TEST(Interp, SOValueEqualityAndHashing) {
  Relation r = Relation::FromTuples({Tuple({I(1)})});
  SOValue a = SOValue::Materialized(r);
  SOValue b = SOValue::Materialized(r);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  SOValue c = SOValue::ForBuiltin(FindBuiltin("add"));
  EXPECT_FALSE(a == c);

  auto expr = MakeIdent("X");
  auto env1 = std::make_shared<Env>();
  env1->vars["x"] = I(1);
  auto env2 = std::make_shared<Env>();
  env2->vars["x"] = I(1);
  SOValue c1 = SOValue::Closure(expr, env1);
  SOValue c2 = SOValue::Closure(expr, env2);
  EXPECT_TRUE(c1 == c2);  // same expression, equal captured environments
  EXPECT_EQ(c1.Hash(), c2.Hash());
  env2->vars["x"] = I(2);
  SOValue c3 = SOValue::Closure(expr, env2);
  EXPECT_FALSE(c1 == c3);
}

TEST(Interp, EvalExprRelUnderEnvironment) {
  Database db;
  Interp interp(&db, {});
  Env env;
  env.vars["x"] = I(7);
  Relation out = interp.EvalExprRel(ParseExpression("(x, x + 1)"), env);
  EXPECT_EQ(out.ToString(), "{(7, 8)}");
}

TEST(Interp, PartialReadsTracked) {
  // Evaluating a recursive instance tuple-at-a-time reads partial values;
  // the counter lets memo tables refuse to cache provisional results.
  // (Lowering is disabled: a lowered component never reads partial values —
  // see Interp.LoweredRecursionReadsNoPartialValues.)
  Database db;
  db.Insert("e", Tuple({I(1), I(2)}));
  db.Insert("e", Tuple({I(2), I(3)}));
  InterpOptions options;
  options.lower_recursion = false;
  Interp interp(&db,
                Defs("def tc(x,y) : e(x,y)\n"
                     "def tc(x,y) : exists((z) | e(x,z) and tc(z,y))"),
                options);
  uint64_t before = interp.partial_reads();
  interp.EvalInstance("tc", 0, {});
  EXPECT_GT(interp.partial_reads(), before);
}

TEST(Interp, NonRecursiveInstanceRunsOnePass) {
  // Three defs outside every cycle: each instance's first pass reads only
  // finished instances, so it stops there instead of re-running its rules
  // to see that nothing changed.
  Database db;
  db.Insert("e", Tuple({I(1), I(2)}));
  db.Insert("e", Tuple({I(2), I(3)}));
  db.Insert("e", Tuple({I(3), I(4)}));
  InterpOptions options;
  options.lower_recursion = false;
  Interp interp(&db,
                Defs("def src(x) : exists((y) | e(x, y))\n"
                     "def big(x) : src(x) and x > 1\n"
                     "def out(x, y) : big(x) and e(x, y)"),
                options);
  EXPECT_EQ(interp.EvalInstance("out", 0, {}).ToString(), "{(2, 3); (3, 4)}");
  EXPECT_EQ(interp.instance_passes(), 3u);
  // A finished instance is not evaluated again.
  interp.EvalInstance("big", 0, {});
  EXPECT_EQ(interp.instance_passes(), 3u);
}

TEST(Interp, RecursiveComponentStillIteratesToItsFixpoint) {
  // tc grows one path length per pass and stops on the first unchanged
  // pass: four passes over a three-edge chain.
  Database db;
  db.Insert("e", Tuple({I(1), I(2)}));
  db.Insert("e", Tuple({I(2), I(3)}));
  db.Insert("e", Tuple({I(3), I(4)}));
  InterpOptions options;
  options.lower_recursion = false;
  const std::string source =
      "def tc(x,y) : e(x,y)\n"
      "def tc(x,y) : exists((z) | e(x,z) and tc(z,y))\n"
      "def from1(y) : tc(1, y)";
  Interp interp(&db, Defs(source), options);
  EXPECT_EQ(interp.EvalInstance("tc", 0, {}).ToString(),
            "{(1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4)}");
  EXPECT_EQ(interp.instance_passes(), 4u);
  // tc is finished, so from1 reads no in-progress value: one pass.
  EXPECT_EQ(interp.EvalInstance("from1", 0, {}).ToString(), "{(2); (3); (4)}");
  EXPECT_EQ(interp.instance_passes(), 5u);

  // Asked first, from1's pass evaluates tc, which saturates as its own
  // unit. Its partial reads stay inside that unit and tc finishes, so
  // from1 still reads only finished values and runs one pass.
  Interp fresh(&db, Defs(source), options);
  EXPECT_EQ(fresh.EvalInstance("from1", 0, {}).ToString(), "{(2); (3); (4)}");
  EXPECT_EQ(fresh.instance_passes(), 5u);
}

// A mutually recursive component that negates only EDB: accumulate mode,
// so its least fixpoint exists. The interpreter evaluates p0, p1 and p2
// as one unit, round by round, and must agree with the lowered engine.
const char kMutualRecursion[] =
    "def p0(5, 5) : p1(0, 7) and p2(1)\n"
    "def p1(1, v1) : exists((v0) | e0(11) and p2(5) and p0(v0, v1) and "
    "v1 > 2 and v0 > v1 and not e0(v1))\n"
    "def p1(v0, v1) : p2(v0) and p2(v0) and v0 != 8 and v1 = v0\n"
    "def p2(0) : exists((v0) | p1(v0, v0) and v0 <= v0)\n"
    "def p2(v0) : e0(v0) and not e1(v0, v0)";

Database MutualRecursionDb(const std::vector<int>& e0,
                           const std::vector<int>& e1) {
  Database db;
  for (int v : e0) db.Insert("e0", Tuple({I(v)}));
  for (int v : e1) db.Insert("e1", Tuple({I(v), I(v)}));
  return db;
}

// p0, p1, p2 rendered (or the error raised), evaluated in the given
// member order.
std::string MutualRecursionAnswer(const Database& db, bool lower,
                                  const std::vector<std::string>& order) {
  InterpOptions options;
  options.lower_recursion = lower;
  options.max_iterations = 2000;
  Interp interp(&db, Defs(kMutualRecursion), options);
  try {
    for (const std::string& name : order) interp.EvalInstance(name, 0, {});
    return interp.EvalInstance("p0", 0, {}).ToString() + " " +
           interp.EvalInstance("p1", 0, {}).ToString() + " " +
           interp.EvalInstance("p2", 0, {}).ToString();
  } catch (const RelError& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(Interp, MutualRecursionConvergesAsOneUnit) {
  Database db = MutualRecursionDb({2, 3, 5, 6, 11}, {1, 8, 9, 11});
  const std::string want =
      "{} {(0, 0); (2, 2); (3, 3); (5, 5); (6, 6)} "
      "{(0); (2); (3); (5); (6)}";
  for (const std::vector<std::string>& order :
       {std::vector<std::string>{"p0", "p1", "p2"},
        std::vector<std::string>{"p1", "p2", "p0"},
        std::vector<std::string>{"p2", "p0", "p1"}}) {
    EXPECT_EQ(MutualRecursionAnswer(db, false, order), want) << order[0];
    EXPECT_EQ(MutualRecursionAnswer(db, true, order), want) << order[0];
  }
}

TEST(Interp, MutualRecursionMatchesLoweringOnRandomEdbs) {
  Rng rng(25);
  for (int draw = 0; draw < 400; ++draw) {
    std::vector<int> e0, e1;
    for (int v = 0; v < 12; ++v) {
      if (rng.NextBool(0.5)) e0.push_back(v);
      if (rng.NextBool(0.5)) e1.push_back(v);
    }
    Database db = MutualRecursionDb(e0, e1);
    const std::string name = "p" + std::to_string(draw % 3);
    EXPECT_EQ(MutualRecursionAnswer(db, false, {name}),
              MutualRecursionAnswer(db, true, {name}))
        << "draw " << draw;
  }
}

TEST(Interp, NonStratifiedPairDoesNotConvergeInEitherOrder) {
  // a and b negate each other: replacement mode. Every round reads the
  // previous round's values of both, so they flip together and never
  // settle, whichever is asked first.
  Database db;
  db.Insert("d", Tuple({I(1)}));
  db.Insert("d", Tuple({I(2)}));
  InterpOptions options;
  options.lower_recursion = false;
  options.max_iterations = 2000;
  for (const char* source : {"def a() : not b()\ndef b() : not a()",
                             "def a(x) : d(x) and not b(x)\n"
                             "def b(x) : d(x) and not a(x)"}) {
    for (const char* first : {"a", "b"}) {
      Interp interp(&db, Defs(source), options);
      try {
        interp.EvalInstance(first, 0, {});
        ADD_FAILURE() << source << ": " << first << " converged";
      } catch (const RelError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
        const std::string message = e.what();
        EXPECT_NE(message.find("{a, b}"), std::string::npos) << message;
        EXPECT_NE(message.find("replacement"), std::string::npos) << message;
      }
    }
  }
}

TEST(Interp, LoweredRecursionReadsNoPartialValues) {
  // The same component through the lowering pass: the Datalog engine
  // computes the fixpoint without ever handing out an in-progress extent,
  // and the extent matches the saturation loop's exactly.
  Database db;
  db.Insert("e", Tuple({I(1), I(2)}));
  db.Insert("e", Tuple({I(2), I(3)}));
  Interp lowered(&db,
                 Defs("def tc(x,y) : e(x,y)\n"
                      "def tc(x,y) : exists((z) | e(x,z) and tc(z,y))"));
  Relation via_datalog = lowered.EvalInstance("tc", 0, {});
  EXPECT_EQ(lowered.partial_reads(), 0u);
  EXPECT_EQ(lowered.lowering_stats().components_lowered, 1);

  InterpOptions classic;
  classic.lower_recursion = false;
  Interp interp(&db,
                Defs("def tc(x,y) : e(x,y)\n"
                     "def tc(x,y) : exists((z) | e(x,z) and tc(z,y))"),
                classic);
  EXPECT_EQ(via_datalog, interp.EvalInstance("tc", 0, {}));
  EXPECT_EQ(interp.lowering_stats().components_lowered, 0);
}

}  // namespace
}  // namespace rel
