// Tests for the baseline classical Datalog engine.

#include <gtest/gtest.h>

#include "base/error.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(DatalogParser, FactsAndRules) {
  Program p = ParseDatalog(
      "edge(1, 2). edge(2, 3).\n"
      "% comment\n"
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Z) :- edge(X, Y), tc(Y, Z).");
  EXPECT_EQ(p.facts().at("edge").size(), 2u);
  EXPECT_EQ(p.rules().size(), 2u);
}

TEST(DatalogParser, LiteralKinds) {
  Program p = ParseDatalog(
      "r(X, D) :- e(X), !blocked(X), X < 10, D = X + 1.");
  const Rule& rule = p.rules()[0];
  ASSERT_EQ(rule.body.size(), 4u);
  EXPECT_EQ(rule.body[0].kind, Literal::Kind::kPositive);
  EXPECT_EQ(rule.body[1].kind, Literal::Kind::kNegative);
  EXPECT_EQ(rule.body[2].kind, Literal::Kind::kCompare);
  EXPECT_EQ(rule.body[3].kind, Literal::Kind::kAssign);
}

TEST(DatalogParser, ConstantsAndStrings) {
  Program p = ParseDatalog("likes(\"ann\", bob). n(42). f(2.5).");
  EXPECT_TRUE(p.facts().at("likes").Contains(
      Tuple({Value::String("ann"), Value::String("bob")})));
  EXPECT_TRUE(p.facts().at("n").Contains(Tuple({I(42)})));
}

TEST(DatalogParser, FloatExponents) {
  // The exponent syntax the Rel lexer accepts, which Value::ToString emits.
  Program p = ParseDatalog("f(1e-07). f(2E+3). f(-2.5e-8). g(1).");
  const Relation& f = p.facts().at("f");
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.Contains(Tuple({Value::Float(1e-7)})));
  EXPECT_TRUE(f.Contains(Tuple({Value::Float(2000.0)})));
  EXPECT_TRUE(f.Contains(Tuple({Value::Float(-2.5e-8)})));
  for (double v : {1e-7, 0.1234567, 1e300, 1e10}) {
    Program q = ParseDatalog("f(" + Value::Float(v).ToString() + ").");
    EXPECT_TRUE(q.facts().at("f").Contains(Tuple({Value::Float(v)}))) << v;
  }
}

TEST(DatalogParser, Errors) {
  EXPECT_THROW(ParseDatalog("p(X)."), RelError);         // non-ground fact
  EXPECT_THROW(ParseDatalog("p(1) :- "), RelError);      // missing body
  EXPECT_THROW(ParseDatalog("p(1)"), RelError);          // missing period
  // Out-of-range and malformed numbers are parse errors, not crashes.
  EXPECT_THROW(ParseDatalog("p(1e999)."), RelError);
  EXPECT_THROW(ParseDatalog("p(99999999999999999999)."), RelError);
  EXPECT_THROW(ParseDatalog("p(-)."), RelError);
}

TEST(DatalogEval, TransitiveClosure) {
  Program p = ParseDatalog(
      "edge(1,2). edge(2,3). edge(3,4).\n"
      "tc(X,Y) :- edge(X,Y).\n"
      "tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  Relation tc = EvaluatePredicate(p, "tc");
  EXPECT_EQ(tc.size(), 6u);
  EXPECT_TRUE(tc.Contains(Tuple({I(1), I(4)})));
}

TEST(DatalogEval, NaiveAndSemiNaiveAgree) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Program base;
    for (const Tuple& e : benchutil::RandomGraph(24, 60, seed)) {
      base.AddFact("edge", e);
    }
    Program p1 = base, p2 = base;
    for (Program* p : {&p1, &p2}) {
      Program rules = ParseDatalog(
          "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
      for (const Rule& r : rules.rules()) p->AddRule(r);
    }
    EvalStats naive_stats, semi_stats;
    Relation naive = EvaluatePredicate(p1, "tc", Strategy::kNaive, &naive_stats);
    Relation semi =
        EvaluatePredicate(p2, "tc", Strategy::kSemiNaive, &semi_stats);
    EXPECT_EQ(naive, semi);
    // Semi-naive derives strictly fewer tuples on non-trivial graphs.
    EXPECT_LE(semi_stats.tuples_derived, naive_stats.tuples_derived);
  }
}

TEST(DatalogEval, MatchesReferenceClosure) {
  std::vector<Tuple> edges = benchutil::RandomGraph(30, 70, 99);
  Program p;
  for (const Tuple& e : edges) p.AddFact("edge", e);
  Program rules =
      ParseDatalog("tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  for (const Rule& r : rules.rules()) p.AddRule(r);
  Relation tc = EvaluatePredicate(p, "tc");
  auto ref = benchutil::TransitiveClosureRef(edges);
  EXPECT_EQ(tc.size(), ref.size());
  for (const auto& [a, b] : ref) {
    EXPECT_TRUE(tc.Contains(Tuple({I(a), I(b)})));
  }
}

TEST(DatalogEval, StratifiedNegation) {
  Program p = ParseDatalog(
      "node(1). node(2). node(3).\n"
      "edge(1,2).\n"
      "reach(X) :- edge(1, X).\n"
      "reach(X) :- reach(Y), edge(Y, X).\n"
      "unreach(X) :- node(X), !reach(X), X != 1.");
  Relation u = EvaluatePredicate(p, "unreach");
  EXPECT_EQ(u.ToString(), "{(3)}");
}

TEST(DatalogEval, NonStratifiableRejected) {
  Program p = ParseDatalog("p(X) :- q(X), !p(X). q(1).");
  EXPECT_THROW(Evaluate(p, Strategy::kSemiNaive), RelError);
}

TEST(DatalogEval, UnsafeRuleRejected) {
  Program p = ParseDatalog("p(X, Y) :- q(X).  q(1).");
  EXPECT_THROW(Evaluate(p, Strategy::kSemiNaive), RelError);
}

TEST(DatalogEval, ArithmeticAndComparison) {
  Program p = ParseDatalog(
      "n(1). n(2). n(3).\n"
      "double(X, D) :- n(X), D = X * 2.\n"
      "big(X) :- double(_, X), X >= 4.");
  EXPECT_EQ(EvaluatePredicate(p, "double").size(), 3u);
  EXPECT_EQ(EvaluatePredicate(p, "big").ToString(), "{(4); (6)}");
}

TEST(DatalogEval, BoundedPathLengths) {
  // Classic shortest-path-with-bound using arithmetic.
  Program p = ParseDatalog(
      "edge(1,2). edge(2,3). edge(3,4).\n"
      "path(X, Y, D) :- edge(X, Y), D = 1 + 0.\n"
      "path(X, Z, D) :- path(X, Y, E), edge(Y, Z), D = E + 1, E < 10.");
  Relation paths = EvaluatePredicate(p, "path");
  EXPECT_TRUE(paths.Contains(Tuple({I(1), I(4), I(3)})));
}

TEST(DatalogEval, StatsReportStrataAndIterations) {
  Program p = ParseDatalog(
      "e(1,2). e(2,3).\n"
      "tc(X,Y) :- e(X,Y). tc(X,Z) :- e(X,Y), tc(Y,Z).\n"
      "not_closed(X) :- e(X, _), !tc(X, X).");
  EvalStats stats;
  Evaluate(p, Strategy::kSemiNaive, &stats);
  EXPECT_EQ(stats.strata, 2);
  EXPECT_GE(stats.iterations, 2);
}

TEST(DatalogProgram, AddFactsCopiesIntoEmptyAndMergesIntoNonEmpty) {
  const Relation first = Relation::FromTuples(
      {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}), Tuple({I(7)})});
  const Relation second = Relation::FromTuples(
      {Tuple({I(2), I(3)}), Tuple({I(3), I(4)}), Tuple({I(8), I(9), I(10)})});
  Relation want = first;
  want.InsertAll(second);

  Program p;
  p.AddFacts("r", first);  // an empty predicate takes the relation whole
  EXPECT_EQ(p.facts().at("r"), first);
  p.AddFacts("r", second);  // a non-empty one merges row by row
  EXPECT_EQ(p.facts().at("r"), want);
  EXPECT_EQ(p.facts().at("r").ToString(), want.ToString());
  EXPECT_EQ(p.facts().at("r").size(), 5u);

  // Loading into a predicate that holds only an empty relation copies too.
  Program q;
  q.AddFacts("r", Relation());
  q.AddFacts("r", first);
  q.AddFacts("r", second);
  EXPECT_EQ(q.facts().at("r"), want);
}

}  // namespace
}  // namespace datalog
}  // namespace rel
