// Round-trip differential suite: every program in the corpus runs natively
// on the Datalog engine, is translated to Rel source with ProgramToRel, and
// re-runs on the Rel engine twice — once on the classic tuple-at-a-time
// fixpoint and once with the recursion lowering enabled (which routes the
// recursive components straight back through the Datalog evaluator). All
// three extents must agree per IDB predicate, byte-identically under sorted
// rendering. This is the trust bridge between the two evaluators that the
// deductive-database integrity-checking literature leans on: each engine
// cross-checks the other over the shared corpus.
//
// The corpus deliberately includes the translator's historical failure
// shapes: strings needing escapes, predicates whose names look like the
// generated variable names, and repeated head variables (body-only variable
// scoping through the single exists(...) wrapper).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "benchutil/generators.h"
#include "core/engine.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/to_rel.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

/// Runs the differential comparison for one program. Every rule-head
/// predicate is compared; facts-only predicates round-trip trivially.
void ExpectRoundTrip(const Program& program, const std::string& label) {
  std::map<std::string, Relation> native =
      Evaluate(program, Strategy::kSemiNaive);
  std::string rel_source = ProgramToRel(program);
  std::set<std::string> idb;
  for (const Rule& rule : program.rules()) idb.insert(rule.head.pred);

  for (bool lower : {false, true}) {
    Engine engine;
    engine.options().lower_recursion = lower;
    engine.Define(rel_source);
    for (const std::string& pred : idb) {
      Relation translated = engine.Query("def output : " + pred);
      const Relation& expected = native.at(pred);
      EXPECT_EQ(expected, translated)
          << label << ": '" << pred << "' diverges (lower_recursion="
          << lower << ")\ntranslated program:\n" << rel_source;
      EXPECT_EQ(expected.ToString(), translated.ToString())
          << label << ": sorted rendering of '" << pred << "' not identical";
    }
  }
}

void ExpectRoundTrip(const std::string& source, const std::string& label) {
  ExpectRoundTrip(ParseDatalog(source), label);
}

// --- the eval_test corpus ----------------------------------------------------

TEST(ToRelRoundTrip, TransitiveClosureOverRandomGraphs) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Program p = ParseDatalog(
        "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
    for (const Tuple& e : benchutil::RandomGraph(20, 60, seed)) {
      p.AddFact("edge", e);
    }
    ExpectRoundTrip(p, "tc/seed" + std::to_string(seed));
  }
}

TEST(ToRelRoundTrip, TransitiveClosureOverChain) {
  Program p = ParseDatalog(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  for (const Tuple& e : benchutil::ChainGraph(24)) p.AddFact("edge", e);
  ExpectRoundTrip(p, "tc/chain");
}

TEST(ToRelRoundTrip, SameGeneration) {
  ExpectRoundTrip(
      "parent(1, 3). parent(1, 4). parent(2, 5).\n"
      "parent(3, 6). parent(4, 7). parent(5, 8).\n"
      "sg(X, Y) :- parent(P, X), parent(P, Y), X != Y.\n"
      "sg(X, Y) :- parent(A, X), parent(B, Y), sg(A, B).",
      "same-generation");
}

TEST(ToRelRoundTrip, NegationAcrossStrata) {
  ExpectRoundTrip(
      "node(1). node(2). node(3). node(4).\n"
      "edge(1,2). edge(2,3).\n"
      "reach(X) :- edge(1, X).\n"
      "reach(X) :- reach(Y), edge(Y, X).\n"
      "unreach(X) :- node(X), !reach(X), X != 1.\n"
      "island(X) :- unreach(X), !edge(X, 1).",
      "negation");
}

TEST(ToRelRoundTrip, MixedArityFacts) {
  Program p;
  p.AddFact("r", Tuple({I(1)}));
  p.AddFact("r", Tuple({I(1), I(2)}));
  p.AddFact("r", Tuple({I(2), I(3)}));
  p.AddFact("r", Tuple({I(1), I(2), I(3)}));
  Program rules = ParseDatalog(
      "unary(X) :- r(X).\n"
      "pair(X, Y) :- r(X, Y).\n"
      "chain(X, Z) :- r(X, Y), r(Y, Z).\n"
      "wide(X) :- r(X, _, _).");
  for (const Rule& r : rules.rules()) p.AddRule(r);
  ExpectRoundTrip(p, "mixed-arity");
}

TEST(ToRelRoundTrip, ArithmeticAndComparisons) {
  ExpectRoundTrip(
      "n(1). n(2). n(3).\n"
      "double(X, D) :- n(X), D = X * 2.\n"
      "big(X) :- double(_, X), X >= 4.\n"
      "halfsum(H) :- n(X), n(Y), X < Y, H = X + Y.",
      "arithmetic");
}

TEST(ToRelRoundTrip, BoundedPathArithmetic) {
  Program p = ParseDatalog(
      "path(X, Y, D) :- edge(X, Y), D = 1 + 0.\n"
      "path(X, Z, D) :- path(X, Y, E), edge(Y, Z), D = E + 1, E < 6.");
  for (const Tuple& e : benchutil::RandomGraph(10, 25, 13)) {
    p.AddFact("edge", e);
  }
  ExpectRoundTrip(p, "bounded-path");
}

TEST(ToRelRoundTrip, ConstantsInAtoms) {
  Program p = ParseDatalog(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).\n"
      "goal(Y) :- tc(0, Y).\n"
      "self(X) :- tc(X, X).");
  for (const Tuple& e : benchutil::RandomGraph(12, 36, 9)) {
    p.AddFact("edge", e);
  }
  ExpectRoundTrip(p, "constants");
}

TEST(ToRelRoundTrip, FloatsAndDivision) {
  ExpectRoundTrip(
      "n(6). n(4.0).\n"
      "half(Y) :- n(X), Y = X / 2.\n"
      "shifted(Y) :- n(X), Y = X + 1.",
      "floats");
}

TEST(ToRelRoundTrip, FloatLiteralsKeepTheirValue) {
  // Rendered as Rel literals, these must read back as the same doubles:
  // six fixed decimals turned 1e-7 into 0.0 and 0.1234567 into 0.123457.
  Program p = ParseDatalog(
      "f(1e-7). f(0.1234567). f(-2.5E-8). f(1e+300).\n"
      "pos(X) :- f(X), X > 0.0.\n"
      "tiny(X) :- f(X), X < 0.000001, X > 0.0.");
  const Relation& facts = p.facts().at("f");
  EXPECT_TRUE(facts.Contains(Tuple({Value::Float(1e-7)})));
  EXPECT_TRUE(facts.Contains(Tuple({Value::Float(-2.5e-8)})));
  ExpectRoundTrip(p, "float-literals");
}

// --- the translator's historical failure shapes ------------------------------

TEST(ToRelRoundTrip, RepeatedHeadVariables) {
  // p(X, X): a repeated Rel binder would shadow the first occurrence and
  // leave it unbound; the translator must alias and equate instead.
  ExpectRoundTrip(
      "node(1). node(2). edge(1, 2). edge(2, 2).\n"
      "loop(X, X) :- node(X).\n"
      "meet(X, Y, X) :- edge(X, Y).\n"
      "twice(X, X) :- edge(X, X).",
      "repeated-head-vars");
}

TEST(ToRelRoundTrip, RepeatedHeadVariableRendering) {
  Program p = ParseDatalog("loop(X, X) :- node(X).");
  EXPECT_EQ(RuleToRel(p.rules()[0]),
            "def loop(v0, v1) : node(v0) and v1 = v0");
}

TEST(ToRelRoundTrip, PredicateNamedLikeVariable) {
  // An unscoped identifier in Rel denotes a relation: a predicate named
  // `v1` must not capture the translator's generated variable names.
  ExpectRoundTrip(
      "v1(1). v1(5).\n"
      "p(X) :- v1(X), X > 1.\n"
      "q(X, Y) :- v1(X), v1(Y), X < Y.",
      "pred-named-v1");
}

TEST(ToRelRoundTrip, StringEscaping) {
  Program p;
  p.AddFact("s", Tuple({Value::String("plain")}));
  p.AddFact("s", Tuple({Value::String("with \"quotes\"")}));
  p.AddFact("s", Tuple({Value::String("back\\slash")}));
  p.AddFact("s", Tuple({Value::String("line\nbreak\ttab")}));
  Program rules = ParseDatalog("t(X) :- s(X). u(X, Y) :- s(X), s(Y), X != Y.");
  for (const Rule& r : rules.rules()) p.AddRule(r);
  ExpectRoundTrip(p, "string-escaping");
}

TEST(ToRelRoundTrip, SymbolicConstants) {
  ExpectRoundTrip(
      "likes(\"ann\", bob). likes(bob, \"carol\"). likes(bob, bob).\n"
      "pair(X, Y) :- likes(X, Y), X != Y.\n"
      "narcissist(X) :- likes(X, X).",
      "symbolic-constants");
}

TEST(ToRelRoundTrip, MinMaxAssignments) {
  // minimum/maximum have no infix form; built through the API.
  Program p;
  p.AddFact("m", Tuple({I(3), I(8)}));
  p.AddFact("m", Tuple({I(7), I(2)}));
  Rule lo;
  lo.head = Atom{"lo", {Term::Var(0), Term::Var(1), Term::Var(2)}};
  lo.body.push_back(Literal::Positive(Atom{"m", {Term::Var(0), Term::Var(1)}}));
  lo.body.push_back(
      Literal::Assign(2, ArithOp::kMin, Term::Var(0), Term::Var(1)));
  p.AddRule(lo);
  Rule hi;
  hi.head = Atom{"hi", {Term::Var(0), Term::Var(1), Term::Var(2)}};
  hi.body.push_back(Literal::Positive(Atom{"m", {Term::Var(0), Term::Var(1)}}));
  hi.body.push_back(
      Literal::Assign(2, ArithOp::kMax, Term::Var(0), Term::Var(1)));
  p.AddRule(hi);
  ExpectRoundTrip(p, "min-max");
}

TEST(ToRelRoundTrip, NegativeConstants) {
  ExpectRoundTrip(
      "q(1). q(-2). q(-7).\n"
      "p(X) :- q(X), X > -3.\n"
      "neg(Y) :- q(X), Y = X * -1.",
      "negative-constants");
}

// --- aggregate predicates with several rules ---------------------------------

TEST(ToRelRoundTrip, MultiRuleAggregateFoldsOneMergedBucket) {
  // Both rules feed group 1 of `t`, with witnesses of different arity. The
  // translation must fold the union of their contributions once per group,
  // arity first: (5, 1e16), (9, 1.0), then (1, 1, -1e16) sums to 0.0,
  // where folding each rule apart would give two rows for group 1. The
  // second predicate has a head constant and a repeated head variable,
  // which the merged def must state as body equalities.
  Program p = ParseDatalog(
      "t(G, sum(V; W)) :- a(G, W, V).\n"
      "t(G, sum(V; W1, W2)) :- b(G, W1, W2, V).\n"
      "c(G, G, count(W)) :- a(G, W, V).\n"
      "c(7, G, count(W1, W2)) :- b(G, W1, W2, V).");
  p.AddFact("a", Tuple({I(1), I(9), Value::Float(1.0)}));
  p.AddFact("a", Tuple({I(1), I(5), Value::Float(1e16)}));
  p.AddFact("a", Tuple({I(2), I(3), Value::Float(2.0)}));
  p.AddFact("b", Tuple({I(1), I(1), I(1), Value::Float(-1e16)}));
  ExpectRoundTrip(p, "multi-rule-aggregate");
  EXPECT_EQ(EvaluatePredicate(p, "t", Strategy::kSemiNaive).ToString(),
            "{(1, 0.0); (2, 2.0)}");
}

TEST(ToRelRoundTrip, MultiRuleAggregateRendering) {
  Program p = ParseDatalog(
      "t(G, sum(V; W)) :- a(G, W, V).\n"
      "t(1, sum(V; W1, W2)) :- b(W1, W2, V).");
  EXPECT_EQ(ProgramToRel(p),
            "def t(v0, v4) : v4 = sum[{{(v3, v2) : a(v0, v3, v2)} ; "
            "{(v2, v3, v1) : b(v2, v3, v1) and v0 = 1}}]\n");
}

}  // namespace
}  // namespace datalog
}  // namespace rel
