// Tests for the recursion-lowering pass (src/core/lowering.h): which
// components qualify, extent equality against the tuple-at-a-time fixpoint
// (byte-identical sorted renderings), thread-count invariance, the
// fixpoint-cap interplay, and the fallback for everything outside the
// Datalog fragment.

#include "core/lowering.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/error.h"
#include "benchutil/generators.h"
#include "core/engine.h"
#include "core/interp.h"
#include "core/parser.h"
#include "data/database.h"
#include "datalog/to_rel.h"

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

/// Queries `pred` twice — classic fixpoint and lowered — and checks the
/// extents are equal and render byte-identically. Returns the lowered
/// engine's stats-visible component count for further assertions.
int ExpectLoweredEqualsInterp(const std::string& source,
                              const std::vector<Tuple>& edges,
                              const std::string& pred,
                              int num_threads = 1) {
  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  Relation expected = classic.Query(source + "\ndef output : " + pred);
  EXPECT_EQ(classic.last_lowering_stats().components_lowered, 0);

  Engine lowered;
  lowered.options().num_threads = num_threads;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : " + pred);
  EXPECT_EQ(expected, got) << "extent diverges for '" << pred << "'";
  EXPECT_EQ(expected.ToString(), got.ToString())
      << "sorted rendering not byte-identical for '" << pred << "'";
  return lowered.last_lowering_stats().components_lowered;
}

const char kTC[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

TEST(Lowering, TransitiveClosureTakesTheDatalogPath) {
  std::vector<Tuple> edges = benchutil::RandomGraph(24, 70, 3);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc"), 1);
}

TEST(Lowering, ChainClosureAndThreadScalingAgree) {
  std::vector<Tuple> edges = benchutil::ChainGraph(48);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc", /*num_threads=*/1), 1);
  EXPECT_EQ(ExpectLoweredEqualsInterp(kTC, edges, "tc", /*num_threads=*/4), 1);
}

TEST(Lowering, MutualRecursionLowersAsOneComponent) {
  const std::string source =
      "def odd(x, y) : edge(x, y)\n"
      "def odd(x, z) : exists((y) | edge(x, y) and even(y, z))\n"
      "def even(x, z) : exists((y) | edge(x, y) and odd(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 40, 11);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "odd"), 1);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "even"), 1);
}

TEST(Lowering, SameGenerationWithComparisonLowers) {
  const std::string source =
      "def sg(x, y) : exists((p) | edge(p, x) and edge(p, y) and x != y)\n"
      "def sg(x, y) : exists((a, b) | edge(a, x) and edge(b, y) and sg(a, b))";
  std::vector<Tuple> edges = benchutil::RandomGraph(14, 30, 5);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "sg"), 1);
}

TEST(Lowering, ArithmeticBoundedRecursionLowers) {
  const std::string source =
      "def path(x, y, d) : edge(x, y) and d = 1\n"
      "def path(x, z, d) : exists((y, e) | path(x, y, e) and edge(y, z) "
      "and d = e + 1 and e < 5)";
  std::vector<Tuple> edges = benchutil::RandomGraph(12, 30, 7);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "path"), 1);
}

TEST(Lowering, ExternalNegationInsideRecursionLowers) {
  // Negating an out-of-component name is monotone for the SCC and becomes a
  // stratified Datalog negation.
  const std::string source =
      "def blocked(x) : x = 2\n"
      "def reach(y) : exists((x) | edge(x, y) and x = 0)\n"
      "def reach(z) : exists((y) | reach(y) and edge(y, z) "
      "and not blocked(y))";
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 48, 21);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "reach"), 1);
}

TEST(Lowering, DerivedExternalExtentIsMaterialized) {
  // The recursive component joins a *derived* non-recursive relation: its
  // extent must be evaluated and fed to the Datalog program as EDB facts.
  const std::string source =
      "def fwd(x, y) : edge(x, y) and x < y\n"
      "def up(x, y) : fwd(x, y)\n"
      "def up(x, z) : exists((y) | fwd(x, y) and up(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(18, 54, 13);
  EXPECT_EQ(ExpectLoweredEqualsInterp(source, edges, "up"), 1);
}

TEST(Lowering, BaseFactsUnionWithLoweredRules) {
  // A member name holding base tuples *and* rules: the stored facts seed
  // the Datalog program and survive into the extent.
  Engine lowered;
  lowered.Insert("edge", {Tuple({I(1), I(2)})});
  lowered.Insert("tc", {Tuple({I(7), I(8)})});
  Relation got = lowered.Query(std::string(kTC) + "\ndef output : tc");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1);
  EXPECT_TRUE(got.Contains(Tuple({I(7), I(8)})));
  EXPECT_TRUE(got.Contains(Tuple({I(1), I(2)})));

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", {Tuple({I(1), I(2)})});
  classic.Insert("tc", {Tuple({I(7), I(8)})});
  EXPECT_EQ(classic.Query(std::string(kTC) + "\ndef output : tc"), got);
}

// --- fallback: non-qualifying components stay on the Interp path -------------

TEST(Lowering, ReplacementComponentsAreNotAttempted) {
  // Non-monotone self-reference uses replacement iteration; the lowering
  // must not even try (UsesReplacement gates it before translation).
  Engine engine;
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  Relation out = engine.Query(
      "def winning(x) : exists((y) | edge(x, y) and not winning(y))\n"
      "def output : winning");
  EXPECT_EQ(engine.last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(engine.last_lowering_stats().components_rejected, 0);
  EXPECT_EQ(out.ToString(), "{(1)}");
}

TEST(Lowering, DisjunctionLowersViaDnfSplit) {
  const std::string source =
      "def r(x, y) : edge(x, y) or edge(y, x)\n"
      "def r(x, z) : exists((y) | r(x, y) and r(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(10, 20, 17);
  // Disjunctive bodies are split into one Datalog rule per DNF branch, so
  // the component stays on the fast path.
  Engine lowered;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : r");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1);
  EXPECT_EQ(lowered.last_lowering_stats().components_rejected, 0);

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  EXPECT_EQ(classic.Query(source + "\ndef output : r"), got);
}

TEST(Lowering, DnfOverflowFallsBackToInterp) {
  // Each conjunct doubles the DNF branch count; six of them exceed the
  // 16-branch cap, so the component is rejected and the interpreter
  // answers — still correctly.
  std::string body = "(edge(x, y) or edge(y, x))";
  std::string source = "def r(x, y) : " + body;
  for (int i = 0; i < 5; ++i) source += " and " + body;
  source += "\ndef r(x, z) : exists((y) | r(x, y) and r(y, z))";
  std::vector<Tuple> edges = benchutil::RandomGraph(8, 16, 3);
  Engine lowered;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : r");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered.last_lowering_stats().components_rejected, 1);

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  EXPECT_EQ(classic.Query(source + "\ndef output : r"), got);
}

TEST(Lowering, SecondOrderRecursionLowers) {
  // The stdlib TC takes a relation argument and passes it through its
  // recursive reference unchanged, so the TC[E] instance lowers with E as
  // EDB and answers exactly what the saturation loop does.
  Engine engine;
  engine.Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  Relation out = engine.Query("def output : TC[E]");
  EXPECT_EQ(engine.last_lowering_stats().components_lowered, 1);
  EXPECT_EQ(engine.last_lowering_stats().lowered_names,
            std::vector<std::string>{"TC"});
  EXPECT_EQ(out.ToString(), "{(1, 2); (1, 3); (2, 3)}");

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("E", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  EXPECT_EQ(classic.Query("def output : TC[E]").ToString(), out.ToString());
  EXPECT_EQ(classic.last_lowering_stats().components_lowered, 0);
}

TEST(Lowering, AggregationInsideRecursionFallsBack) {
  Engine engine;
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  // count[...] over the component's own predicate is non-monotone:
  // replacement mode, never lowered.
  Relation out = engine.Query(
      "def grow(x) : x = 1\n"
      "def grow(x) : x = count[grow] + 1 and x < 4\n"
      "def output : grow");
  EXPECT_EQ(engine.last_lowering_stats().components_lowered, 0);
  EXPECT_FALSE(out.empty());
}

TEST(Lowering, ArithmeticInsideNegatedAtomFallsBack) {
  // `not r(x + 1)`: the assignment for x + 1 would be emitted positively,
  // outside the negation, so a failing arithmetic ("a" + 1) would falsify
  // the whole body where Rel makes the negation vacuously true. The
  // component must reject and both paths must agree — including on the
  // string row, which only survives via the vacuous negation.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1\n"
      "def r(x) : x = 99\n"
      "def p(x) : q(x) and not r(x + 1)\n"
      "def p(x) : exists((y) | p(y) and edge(y, x))";
  Engine lowered;
  lowered.Insert("edge", {Tuple({I(1), I(5)})});
  Relation got = lowered.Query(source + "\ndef output : p");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered.last_lowering_stats().components_rejected, 1);
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", {Tuple({I(1), I(5)})});
  EXPECT_EQ(classic.Query(source + "\ndef output : p"), got);
}

// --- negated comparisons: kUnordered-faithful inverses ------------------------

TEST(Lowering, NegatedComparisonKeepsUnorderedRows) {
  // `not (x < 1)` must hold for x = "a": comparing a string with an int is
  // kUnordered, so the comparison is false and its negation true — exactly
  // Rel's semantics. The naive inverse `x >= 1` is ALSO false on kUnordered
  // and would silently drop the string row, which is why this construct
  // used to reject the whole component. It now lowers via
  // datalog::Literal::NegatedCompare and must agree with the classic path.
  const std::string source =
      "def q(x) : x = \"a\" or x = 0 or x = 5\n"
      "def p(x) : q(x) and not (x < 1)\n"
      "def p(y) : exists((x) | p(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(5), I(9)})};

  Engine lowered;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : p");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1)
      << "negated comparison must lower, not reject";
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));  // kUnordered row
  EXPECT_TRUE(got.Contains(Tuple({I(5)})));
  EXPECT_TRUE(got.Contains(Tuple({I(9)})));   // derived through the recursion
  EXPECT_FALSE(got.Contains(Tuple({I(0)})));  // 0 < 1 holds, negation drops

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  Relation expected = classic.Query(source + "\ndef output : p");
  EXPECT_EQ(expected, got);
  EXPECT_EQ(expected.ToString(), got.ToString());
}

TEST(Lowering, NegatedEqualityIsNotNeq) {
  // `not (x = 1)` and `x != 1` differ on kUnordered operands: both sides of
  // the Datalog engine's kNeq require comparability, so "a" != 1 is false,
  // while not ("a" = 1) is true. The lowering must emit the complement of
  // equality, never kNeq.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1 or x = 2\n"
      "def keep(x) : q(x) and not (x = 1)\n"
      "def keep(y) : exists((x) | keep(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(2), I(7)})};

  Engine lowered;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : keep");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1);
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));
  EXPECT_TRUE(got.Contains(Tuple({I(2)})));
  EXPECT_TRUE(got.Contains(Tuple({I(7)})));
  EXPECT_FALSE(got.Contains(Tuple({I(1)})));

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  EXPECT_EQ(classic.Query(source + "\ndef output : keep"), got);
}

TEST(Lowering, ComputedArgumentInNegatedComparisonStillFallsBack) {
  // `not (x + 1 < 5)`: the auxiliary assignment for x + 1 would sit outside
  // the negation, so a failing arithmetic ("a" + 1) would falsify the body
  // where Rel makes the negation vacuously true. Must reject and agree.
  const std::string source =
      "def q(x) : x = \"a\" or x = 1 or x = 9\n"
      "def p(x) : q(x) and not (x + 1 < 5)\n"
      "def p(y) : exists((x) | p(x) and edge(x, y))";
  std::vector<Tuple> edges = {Tuple({I(9), I(3)})};

  Engine lowered;
  lowered.Insert("edge", edges);
  Relation got = lowered.Query(source + "\ndef output : p");
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 0);
  EXPECT_EQ(lowered.last_lowering_stats().components_rejected, 1);
  // The string row survives only through the vacuous negation.
  EXPECT_TRUE(got.Contains(Tuple({Value::String("a")})));

  Engine classic;
  classic.options().lower_recursion = false;
  classic.Insert("edge", edges);
  EXPECT_EQ(classic.Query(source + "\ndef output : p"), got);
}

// --- bound reads of a recursive component --------------------------------------

TEST(Lowering, BoundReadRaisesTheOpenReadsError) {
  // A bound read of a recursive component takes the full extent, so under
  // a cap the full fixpoint exceeds it raises exactly what the open read
  // raises.
  std::vector<Tuple> edges = benchutil::ChainGraph(32);
  auto error_of = [&](const std::string& query) {
    Engine engine;
    engine.options().max_iterations = 4;
    engine.Insert("edge", edges);
    try {
      engine.Query(std::string(kTC) + "\n" + query);
    } catch (const RelError& e) {
      return std::string(ErrorKindName(e.kind())) + ": " + e.what();
    }
    return std::string("no error");
  };
  const std::string open = error_of("def output(x, y) : tc(x, y)");
  EXPECT_EQ(open.rfind(ErrorKindName(ErrorKind::kNonConvergent), 0), 0u)
      << open;
  EXPECT_EQ(error_of("def output(y) : tc(0, y)"), open);
}

TEST(Lowering, ZeroIterationCapDoesNotUnboundTheLoweredFixpoint) {
  // InterpOptions::max_iterations = 0 is a strict cap; to the Datalog
  // engine 0 means unbounded. The lowering must clamp, or a divergent
  // lowered component would hang forever instead of throwing.
  for (bool lower : {false, true}) {
    Engine engine;
    engine.options().lower_recursion = lower;
    engine.options().max_iterations = 0;
    try {
      engine.Query(
          "def n(x) : x = 0\n"
          "def n(x) : exists((y) | n(y) and x = y + 1)\n"
          "def output : n");
      FAIL() << "expected non-convergence (lower_recursion=" << lower << ")";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
    }
  }
}

TEST(Lowering, RejectionIsRememberedPerComponent) {
  // A rejected component must be translated at most once per Interp; the
  // second member hitting the hook reuses the failure.
  Database db;
  db.Insert("edge", Tuple({I(1), I(2)}));
  InterpOptions options;
  Interp interp(&db,
                Defs("def a(x, y) : edge(x, y) and abs(x, y)\n"
                     "def a(x, z) : exists((y) | a(x, y) and b(y, z))\n"
                     "def b(x, z) : exists((y) | a(x, y) and edge(y, z))"),
                options);
  interp.EvalInstance("a", 0, {});
  interp.EvalInstance("b", 0, {});
  EXPECT_EQ(interp.lowering_stats().components_rejected, 1);
  EXPECT_EQ(interp.lowering_stats().components_lowered, 0);
  ASSERT_EQ(interp.lowering_stats().rejection_notes.size(), 1u);
}

// --- the LowerComponent translator directly ----------------------------------

TEST(LowerComponent, TranslatesTCAndClassifiesNames) {
  auto defs = Defs(kTC);
  ProgramAnalysis analysis(defs);
  std::string why;
  auto lowered = LowerComponent("tc", analysis, defs, &why);
  ASSERT_TRUE(lowered.has_value()) << why;
  EXPECT_EQ(lowered->members, std::vector<std::string>{"tc"});
  EXPECT_EQ(lowered->externals, std::vector<std::string>{"edge"});
  EXPECT_EQ(lowered->program.rules().size(), 2u);
}

TEST(LowerComponent, RejectsOutsideTheFragment) {
  struct Case {
    const char* source;
    const char* name;
  };
  const Case cases[] = {
      // Unsupported builtin.
      {"def t(x, y) : edge(x, y) and abs(x, y)\n"
       "def t(x, z) : exists((y) | t(x, y) and t(y, z))",
       "t"},
      // Second-order parameter inside the component.
      {"def t[{A}] : A\ndef t(x) : exists((y) | t(y) and edge(y, x))", "t"},
      // Negated builtin application (its auxiliary binding cannot be
      // emitted under the negation).
      {"def t(x) : exists((y) | edge(x, y)) and not range(1, 5, 1, x)\n"
       "def t(x) : exists((y) | t(y) and edge(y, x))",
       "t"},
  };
  for (const Case& c : cases) {
    auto defs = Defs(c.source);
    ProgramAnalysis analysis(defs);
    std::string why;
    EXPECT_FALSE(LowerComponent(c.name, analysis, defs, &why).has_value())
        << c.source;
    EXPECT_FALSE(why.empty()) << c.source;
  }
}

/// The program's rules, in order, rendered as Rel.
std::string RenderRules(const datalog::Program& program) {
  std::string out;
  for (const datalog::Rule& rule : program.rules()) {
    out += datalog::RuleToRel(rule) + "\n";
  }
  return out;
}

TEST(LowerComponent, InterpIndexAndRuleVectorLowerIdentically) {
  // The interpreter lowers through its own def index; tests and replays
  // pass the rule vector. Over the stdlib plus paper-style programs, every
  // name at both signatures must give the same verdict, rules (in order),
  // members, externals and rejection reason either way.
  const std::vector<std::string> programs = {
      "",
      std::string(kTC) + "\ndef e2(x, y) : tc(x, y) and not edge(y, x)",
      "def TC_E(x,y) : E(x,y)\n"
      "def TC_E(x,y) : exists((z) | TC_E(x,z) and TC_E(z,y))\n"
      "def out(x, y) : TC[E](x, y)",
      "def Ord(x) : OrderProductQuantity(x,_,_)\n"
      "def OrderLineAmount(o, p, a) :\n"
      "  exists((q, pr) | OrderProductQuantity(o, p, q) and "
      "ProductPrice(p, pr) and a = q * pr)\n"
      "def OrderTotal[x in Ord] : sum[OrderLineAmount[x]]\n"
      "def Perm(x...) : R(x...)\n"
      "def Perm(x...,a,y...,b,z...) : Perm(x...,b,y...,a,z...)",
      "def dist(y, d) : d = min[(j) : (y = 0 and j = 0) or "
      "exists((x, k, w) | dist(x, k) and W(x, y, w) and j = k + w)]\n"
      "def odd(x, y) : edge(x, y)\n"
      "def odd(x, z) : exists((y) | edge(x, y) and even(y, z))\n"
      "def even(x, z) : exists((y) | edge(x, y) and odd(y, z))",
      "def t[{A}] : A\ndef t(x) : exists((y) | t(y) and edge(y, x))\n"
      "def u(x, y) : edge(x, y) and abs(x, y)\n"
      "def u(x, z) : exists((y) | u(x, y) and u(y, z))",
  };
  int lowered = 0;
  int rejected = 0;
  for (const std::string& source : programs) {
    auto defs = Defs(std::string(StdlibSource()) + "\n" + source);
    Database db;
    Interp interp(&db, defs);
    std::set<std::string> names;
    for (const auto& def : defs) names.insert(def->name);
    for (const std::string& name : names) {
      for (size_t sig : {0, 1}) {
        std::string why_index = "stale";
        std::string why_vector = "stale";
        auto by_index = LowerComponent(name, interp.analysis(),
                                       interp.def_index(), &why_index, sig);
        auto by_vector =
            LowerComponent(name, interp.analysis(), defs, &why_vector, sig);
        const std::string where = name + "/" + std::to_string(sig);
        ASSERT_EQ(by_index.has_value(), by_vector.has_value()) << where;
        EXPECT_EQ(why_index, why_vector) << where;
        if (!by_index) {
          ++rejected;
          continue;
        }
        ++lowered;
        EXPECT_EQ(by_index->members, by_vector->members) << where;
        EXPECT_EQ(by_index->externals, by_vector->externals) << where;
        EXPECT_EQ(by_index->arg_preds, by_vector->arg_preds) << where;
        EXPECT_EQ(RenderRules(by_index->program),
                  RenderRules(by_vector->program))
            << where;
      }
    }
  }
  // Both verdicts occur, so the comparison covered both paths.
  EXPECT_GT(lowered, 10);
  EXPECT_GT(rejected, 10);
}

// --- reader–producer fusion ------------------------------------------------------

const char kReach[] =
    "def reach(x) : x = 0\n"
    "def reach(y) : exists((x) | reach(x) and edge(x, y))";

/// One query's answer (sorted rendering, or "kind: message" for an error)
/// and its lowering counters.
struct Outcome {
  std::string answer;
  LoweringStats stats;
};

struct RunOptions {
  bool lower = true;
  int threads = 1;
  uint64_t plan_seed = 0;
  int max_iterations = InterpOptions().max_iterations;
};

Outcome RunQuery(const std::string& source, const RunOptions& run = {}) {
  Engine engine;
  engine.options().lower_recursion = run.lower;
  engine.options().num_threads = run.threads;
  engine.options().plan_order_seed = run.plan_seed;
  engine.options().max_iterations = run.max_iterations;
  engine.Insert("edge", benchutil::RandomGraph(20, 44, 17));
  std::vector<Tuple> nodes;
  for (int i = 0; i < 22; ++i) nodes.push_back(Tuple({I(i)}));
  engine.Insert("V", nodes);
  // W(x, y, w): every edge weighted 1 + (x + y) mod 4.
  std::vector<Tuple> weighted;
  for (const Tuple& t : benchutil::RandomGraph(20, 44, 17)) {
    weighted.push_back(
        Tuple({t[0], t[1], I(1 + (t[0].AsInt() + t[1].AsInt()) % 4)}));
  }
  engine.Insert("W", weighted);
  Outcome out;
  try {
    out.answer = engine.Query(source).ToString();
  } catch (const RelError& e) {
    out.answer = std::string(ErrorKindName(e.kind())) + ": " + e.what();
  }
  out.stats = engine.last_lowering_stats();
  return out;
}

/// Runs `rules` with `def output(head) : body` three ways: fused (the
/// default path), unfused (the same reader plus a true conjunct outside the
/// Datalog fragment, so the reader cannot lower) and on the saturation
/// loop (lower_recursion = false). All three must give the same answer, or
/// the same error kind and message. Returns the fused run.
Outcome ExpectFusedEqualsUnfused(const std::string& rules,
                                 const std::string& head,
                                 const std::string& body, RunOptions run = {}) {
  const std::string reader = "\ndef output(" + head + ") : ";
  Outcome fused = RunQuery(rules + reader + body, run);
  Outcome unfused =
      RunQuery(rules + reader + body + " and string_length(\"ab\", 2)", run);
  EXPECT_EQ(unfused.stats.fused_readers, 0) << body;
  run.lower = false;
  Outcome classic = RunQuery(rules + reader + body, run);
  EXPECT_EQ(fused.answer, unfused.answer) << body;
  EXPECT_EQ(fused.answer, classic.answer) << body;
  return fused;
}

TEST(Fusion, ProjectionOfAQueryLocalClosure) {
  Outcome fused = ExpectFusedEqualsUnfused(kReach, "y", "reach(y)");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_EQ(fused.stats.fused_names, std::vector<std::string>{"output"});
  // The producer counts as before: one lowered component, its members in
  // lowered_names, its tuples in lowered_tuples; the reader in neither.
  Outcome unfused = RunQuery(std::string(kReach) +
                             "\ndef output(y) : reach(y) and "
                             "string_length(\"ab\", 2)");
  EXPECT_EQ(fused.stats.components_lowered, 1);
  EXPECT_EQ(fused.stats.lowered_names, std::vector<std::string>{"reach"});
  EXPECT_EQ(fused.stats.lowered_tuples, unfused.stats.lowered_tuples);
  EXPECT_GT(fused.stats.lowered_tuples, 0u);
  EXPECT_TRUE(fused.stats.rejection_notes.empty());
}

TEST(Fusion, NegationOfAFusedProducer) {
  Outcome fused =
      ExpectFusedEqualsUnfused(kReach, "y", "V(y) and not reach(y)");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_NE(fused.answer, "{}");
}

TEST(Fusion, FilteredReaderOfARecursiveSum) {
  // Level-indexed mass propagation: each level splits a node's mass over
  // its out-edges.
  const std::string rules =
      "def deg(u, n) : n = count[(v) : edge(u, v)]\n"
      "def pr(v, t, r) : r = sum[(u, x) :\n"
      "    (t = 0 and u = 0 and range(0, 19, 1, v) and x = 1.0) or\n"
      "    (range(1, 4, 1, t) and exists((s, rr, n) |\n"
      "        s = t - 1 and edge(u, v) and deg(u, n) and pr(u, s, rr) and\n"
      "        x = rr / n))]";
  Outcome fused = ExpectFusedEqualsUnfused(rules, "v, r",
                                           "pr(v, 4, r) and v >= 3 and v <= 9");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_NE(fused.answer, "{}");
}

TEST(Fusion, FilteredReaderOfARecursiveMin) {
  const std::string rules =
      "def dist(y, d) : d = min[(j) : (y = 0 and j = 0) or\n"
      "    exists((x, j1, w) | dist(x, j1) and W(x, y, w) and j = j1 + w)]";
  Outcome fused =
      ExpectFusedEqualsUnfused(rules, "y, d", "dist(y, d) and d < 6");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_NE(fused.answer, "{}");
}

TEST(Fusion, RelationArgumentInstance) {
  // Stdlib TC[edge] is a per-instance component; the reader's site reads it
  // under its own predicate name.
  Outcome fused = ExpectFusedEqualsUnfused("", "y", "TC[edge](3, y)");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_EQ(fused.stats.lowered_names, std::vector<std::string>{"TC"});
  EXPECT_NE(fused.answer, "{}");
  // Two instances of one component: one joins the program, the other is
  // evaluated on its own and read as EDB.
  fused = ExpectFusedEqualsUnfused("", "y", "TC[edge](3, y) and TC[edge](y, 3)");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_EQ(fused.stats.components_lowered, 2);
  // A reader of two components, one of which reads the other.
  fused = ExpectFusedEqualsUnfused(
      std::string(kReach) +
          "\ndef far(y) : exists((x) | reach(x) and edge(x, y) and x > 4)\n"
          "def far(y) : exists((x) | far(x) and edge(x, y))",
      "y", "reach(y) and not far(y)");
  EXPECT_EQ(fused.stats.fused_readers, 1);
  EXPECT_EQ(fused.stats.components_lowered, 2);
}

TEST(Fusion, UnsupportedConstructFallsBackWithNothingFused) {
  // In the reader: the producer lowers on its own, the reader is solved.
  Outcome outcome = RunQuery(std::string(kReach) +
                             "\ndef output(y, n) : reach(y) and "
                             "string_length(\"ab\", n)");
  EXPECT_EQ(outcome.stats.fused_readers, 0);
  EXPECT_TRUE(outcome.stats.fused_names.empty());
  EXPECT_EQ(outcome.stats.components_lowered, 1);
  EXPECT_TRUE(outcome.stats.rejection_notes.empty());
  // In the producer: rejected once, exactly as unfused, and saturated.
  const std::string rules =
      "def odd(x) : x = 1\n"
      "def odd(y) : exists((x) | odd(x) and edge(x, y) and "
      "string_length(\"ab\", 2))";
  Outcome fused = ExpectFusedEqualsUnfused(rules, "y", "odd(y)");
  EXPECT_EQ(fused.stats.fused_readers, 0);
  EXPECT_EQ(fused.stats.components_lowered, 0);
  EXPECT_EQ(fused.stats.components_rejected, 1);
  EXPECT_EQ(fused.stats.rejection_notes.size(), 1u);
}

TEST(Fusion, ProducerOverTheIterationCapRaisesTheSameError) {
  RunOptions run;
  run.max_iterations = 32;
  Outcome fused = ExpectFusedEqualsUnfused(
      "def n(x) : x = 0\ndef n(x) : exists((y) | n(y) and x = y + 1)", "x",
      "n(x) and x < 5", run);
  EXPECT_EQ(fused.answer.rfind(ErrorKindName(ErrorKind::kNonConvergent), 0),
            0u)
      << fused.answer;
  EXPECT_NE(fused.answer.find("max_iterations = 32"), std::string::npos);
  EXPECT_EQ(fused.stats.fused_readers, 0);
}

TEST(Fusion, ThreadsAndPlanSeedsAgreeOnExtentsAndCounters) {
  const std::string source =
      std::string(kReach) +
      "\ndef dist(y, d) : d = min[(j) : (y = 0 and j = 0) or\n"
      "    exists((x, j1, w) | dist(x, j1) and W(x, y, w) and j = j1 + w)]\n"
      "def output(y, d) : dist(y, d) and reach(y) and not TC[edge](y, 0)";
  const Outcome base = RunQuery(source);
  EXPECT_EQ(base.stats.fused_readers, 1);
  EXPECT_EQ(base.stats.components_lowered, 3);
  for (int threads : {1, 2, 8}) {
    for (uint64_t seed : {0, 977}) {
      RunOptions run;
      run.threads = threads;
      run.plan_seed = seed;
      const Outcome got = RunQuery(source, run);
      const std::string where =
          "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);
      EXPECT_EQ(got.answer, base.answer) << where;
      EXPECT_EQ(got.stats.fused_readers, base.stats.fused_readers) << where;
      EXPECT_EQ(got.stats.components_lowered, base.stats.components_lowered)
          << where;
      EXPECT_EQ(got.stats.lowered_tuples, base.stats.lowered_tuples) << where;
      EXPECT_EQ(got.stats.lowered_names, base.stats.lowered_names) << where;
      EXPECT_EQ(got.stats.fused_names, base.stats.fused_names) << where;
    }
  }
}

TEST(Fusion, PersistentComponentIsNeverFusedAndServedByTheCache) {
  Engine engine;
  engine.Insert("edge", benchutil::RandomGraph(20, 44, 17));
  engine.Define(kTC);
  auto session = engine.OpenSession();
  const Relation first = session->Query("def output(y) : tc(0, y)");
  EXPECT_EQ(session->last_lowering_stats().fused_readers, 0);
  EXPECT_EQ(session->last_lowering_stats().components_lowered, 1);
  EXPECT_EQ(session->last_lowering_stats().extent_cache_hits, 0);
  EXPECT_EQ(session->Query("def output(y) : tc(0, y)"), first);
  EXPECT_EQ(session->last_lowering_stats().fused_readers, 0);
  EXPECT_EQ(session->last_lowering_stats().extent_cache_hits, 1);
}

TEST(Fusion, TransactionInsertFusesAndCommitsTheSameRows) {
  const std::string txn =
      std::string(kReach) + "\ndef insert(:Reached, y) : reach(y)";
  std::string committed[2];
  for (bool lower : {false, true}) {
    Engine engine;
    engine.options().lower_recursion = lower;
    engine.Insert("edge", benchutil::RandomGraph(20, 44, 17));
    engine.Exec(txn);
    EXPECT_EQ(engine.last_lowering_stats().fused_readers, lower ? 1 : 0);
    committed[lower] = engine.Query("def output : Reached").ToString();
  }
  EXPECT_EQ(committed[0], committed[1]);
  EXPECT_NE(committed[1], "{}");
}

// --- fixpoint cap interplay ---------------------------------------------------

TEST(Lowering, CapSurvivesTheLowering) {
  // Value-generating recursion fits the Datalog fragment but never
  // converges; InterpOptions::max_iterations must cap it on both paths
  // with a diagnostic naming the component.
  for (bool lower : {false, true}) {
    Engine engine;
    engine.options().lower_recursion = lower;
    engine.options().max_iterations = 64;
    try {
      engine.Query(
          "def n(x) : x = 0\n"
          "def n(x) : exists((y) | n(y) and x = y + 1)\n"
          "def output : n");
      FAIL() << "expected non-convergence (lower_recursion=" << lower << ")";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kNonConvergent);
      EXPECT_NE(std::string(e.what()).find("n"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("max_iterations"),
                std::string::npos);
    }
  }
}

TEST(Lowering, TerminatingRecursionIgnoresTightInterpCapsLessDeepThanChain) {
  // A lowered fixpoint needs as many rounds as the longest derivation
  // chain; the cap applies to rounds on both paths, so both succeed when
  // the cap exceeds the chain depth and both diagnose when it does not.
  std::vector<Tuple> edges = benchutil::ChainGraph(12);
  for (bool lower : {false, true}) {
    Engine ok;
    ok.options().lower_recursion = lower;
    ok.options().max_iterations = 40;
    ok.Insert("edge", edges);
    EXPECT_EQ(ok.Query(std::string(kTC) + "\ndef output : tc").size(),
              12u * 11u / 2u);

    Engine capped;
    capped.options().lower_recursion = lower;
    capped.options().max_iterations = 3;
    capped.Insert("edge", edges);
    EXPECT_THROW(capped.Query(std::string(kTC) + "\ndef output : tc"),
                 RelError);
  }
}

}  // namespace
}  // namespace rel
