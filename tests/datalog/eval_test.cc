// Tests for the planned, indexed Datalog evaluator: strategy equivalence
// over a suite of recursive programs, the comparison-binding and arithmetic
// edge cases, and the EvalStats counters that make the access paths
// observable.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/error.h"
#include "benchutil/generators.h"
#include "benchutil/reference.h"
#include "core/analysis.h"
#include "core/engine.h"
#include "core/lowering.h"
#include "core/parser.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

const Strategy kAllStrategies[] = {Strategy::kNaive, Strategy::kSemiNaive};

/// Evaluates `pred` under every strategy and checks the extents agree;
/// returns the (common) result.
Relation EvalAllStrategies(const std::string& source, const std::string& pred,
                           const std::vector<Tuple>* edges = nullptr,
                           const std::string& edge_pred = "edge") {
  Relation reference;
  bool first = true;
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog(source);
    if (edges) {
      for (const Tuple& e : *edges) p.AddFact(edge_pred, e);
    }
    Relation r = EvaluatePredicate(p, pred, strategy);
    if (first) {
      reference = r;
      first = false;
    } else {
      EXPECT_EQ(r, reference) << "strategy " << static_cast<int>(strategy)
                              << " diverges for '" << pred << "'";
    }
  }
  return reference;
}

TEST(EvalEquivalence, TransitiveClosureOverRandomGraphs) {
  const std::string rules =
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).";
  for (uint64_t seed : {1u, 7u, 42u}) {
    std::vector<Tuple> edges = benchutil::RandomGraph(28, 80, seed);
    Relation tc = EvalAllStrategies(rules, "tc", &edges);
    auto ref = benchutil::TransitiveClosureRef(edges);
    EXPECT_EQ(tc.size(), ref.size());
    for (const auto& [a, b] : ref) {
      EXPECT_TRUE(tc.Contains(Tuple({I(a), I(b)})));
    }
  }
}

TEST(EvalEquivalence, TransitiveClosureOverChain) {
  std::vector<Tuple> edges = benchutil::ChainGraph(40);
  Relation tc = EvalAllStrategies(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).", "tc", &edges);
  EXPECT_EQ(tc.size(), 40u * 39u / 2u);  // all i < j pairs over nodes 0..39
  EXPECT_TRUE(tc.Contains(Tuple({I(0), I(39)})));
}

TEST(EvalEquivalence, SameGeneration) {
  // Classic same-generation: linear recursion with two EDB probes per step.
  const std::string program =
      "parent(1, 3). parent(1, 4). parent(2, 5).\n"
      "parent(3, 6). parent(4, 7). parent(5, 8).\n"
      "sg(X, Y) :- parent(P, X), parent(P, Y), X != Y.\n"
      "sg(X, Y) :- parent(A, X), parent(B, Y), sg(A, B).";
  Relation sg = EvalAllStrategies(program, "sg");
  EXPECT_TRUE(sg.Contains(Tuple({I(3), I(4)})));   // siblings
  EXPECT_TRUE(sg.Contains(Tuple({I(6), I(7)})));   // cousins via sg(3,4)
  EXPECT_FALSE(sg.Contains(Tuple({I(6), I(8)})));  // 3 and 5 are unrelated
  EXPECT_FALSE(sg.Contains(Tuple({I(3), I(3)})));
  EXPECT_EQ(sg.size(), 4u);  // {(3,4),(4,3),(6,7),(7,6)}
}

TEST(EvalEquivalence, NegationAcrossStrata) {
  const std::string program =
      "node(1). node(2). node(3). node(4).\n"
      "edge(1,2). edge(2,3).\n"
      "reach(X) :- edge(1, X).\n"
      "reach(X) :- reach(Y), edge(Y, X).\n"
      "unreach(X) :- node(X), !reach(X), X != 1.\n"
      "island(X) :- unreach(X), !edge(X, 1).";
  EXPECT_EQ(EvalAllStrategies(program, "unreach").ToString(), "{(4)}");
  EXPECT_EQ(EvalAllStrategies(program, "island").ToString(), "{(4)}");
}

TEST(EvalEquivalence, MixedArityFacts) {
  // One predicate holding tuples of several arities; rules match per arity.
  Program base;
  base.AddFact("r", Tuple({I(1)}));
  base.AddFact("r", Tuple({I(1), I(2)}));
  base.AddFact("r", Tuple({I(2), I(3)}));
  base.AddFact("r", Tuple({I(1), I(2), I(3)}));
  Program rules = ParseDatalog(
      "unary(X) :- r(X).\n"
      "pair(X, Y) :- r(X, Y).\n"
      "chain(X, Z) :- r(X, Y), r(Y, Z).\n"
      "wide(X) :- r(X, _, _).");
  Relation expected_pair, expected_chain;
  bool first = true;
  for (Strategy strategy : kAllStrategies) {
    Program p = base;
    for (const Rule& r : rules.rules()) p.AddRule(r);
    std::map<std::string, Relation> all = Evaluate(p, strategy);
    EXPECT_EQ(all.at("unary").ToString(), "{(1)}");
    EXPECT_EQ(all.at("wide").ToString(), "{(1)}");
    if (first) {
      expected_pair = all.at("pair");
      expected_chain = all.at("chain");
      first = false;
    } else {
      EXPECT_EQ(all.at("pair"), expected_pair);
      EXPECT_EQ(all.at("chain"), expected_chain);
    }
  }
  EXPECT_EQ(expected_pair.size(), 2u);
  EXPECT_EQ(expected_chain.ToString(), "{(1, 3)}");
}

TEST(EvalEquivalence, TriangleRuleMatchesScanAndLeapfrogFires) {
  // The all-free self-join shape: routed through LeapfrogJoin under the
  // indexed strategy, nested scans under the naive oracle.
  std::vector<Tuple> edges =
      benchutil::SkewedTriangleGraph(60, 8, /*seed=*/3);
  Relation tri = EvalAllStrategies(
      "tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", "tri", &edges, "e");
  EXPECT_GT(tri.size(), 0u);

  Program p = ParseDatalog("tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).");
  for (const Tuple& e : edges) p.AddFact("e", e);
  EvalStats stats;
  EvaluatePredicate(p, "tri", Strategy::kSemiNaive, &stats);
  EXPECT_GT(stats.leapfrog_joins, 0u);
}

TEST(EvalStatsCounters, AcyclicBodiesTakeTheHashPlan) {
  // Leapfrog pays for sorted column copies and wins only on cyclic bodies.
  // A two-atom body (and any acyclic one, like a three-atom chain) is
  // joined by probes on the full pass too — including the first round of
  // a recursive rule.
  std::vector<Tuple> edges = benchutil::RandomGraph(24, 60, 3);
  const char* programs[] = {
      "path2(X, Z) :- e(X, Y), e(Y, Z).",
      "path3(X, W) :- e(X, Y), e(Y, Z), e(Z, W).",
      "reach(X) :- e(0, X). reach(Y) :- reach(X), e(X, Y).",
  };
  const char* heads[] = {"path2", "path3", "reach"};
  for (int i = 0; i < 3; ++i) {
    Program p = ParseDatalog(programs[i]);
    for (const Tuple& e : edges) p.AddFact("e", e);
    EvalStats stats;
    Relation planned =
        EvaluatePredicate(p, heads[i], Strategy::kSemiNaive, &stats);
    EXPECT_EQ(stats.leapfrog_joins, 0u) << programs[i];
    EXPECT_EQ(stats.sorted_builds, 0u) << programs[i];
    EXPECT_GT(stats.index_probes, 0u) << programs[i];
    EXPECT_EQ(planned.ToString(),
              EvaluatePredicate(p, heads[i], Strategy::kNaive).ToString())
        << programs[i];
  }
}

TEST(EvalStatsCounters, IndexedTCUsesProbesNeverBoundScans) {
  std::vector<Tuple> edges = benchutil::RandomGraph(32, 96, 5);
  Program p = ParseDatalog(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  for (const Tuple& e : edges) p.AddFact("edge", e);
  EvalStats stats;
  EvaluatePredicate(p, "tc", Strategy::kSemiNaive, &stats);
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_GT(stats.index_builds, 0u);
  EXPECT_EQ(stats.full_scans, 0u);  // every bound literal goes through an index

  // The naive oracle pays a full relation scan per bound literal instead.
  Program p2 = ParseDatalog(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).");
  for (const Tuple& e : edges) p2.AddFact("edge", e);
  EvalStats scan_stats;
  EvaluatePredicate(p2, "tc", Strategy::kNaive, &scan_stats);
  EXPECT_GT(scan_stats.full_scans, 0u);
  EXPECT_EQ(scan_stats.index_probes, 0u);
}

TEST(EvalStatsCounters, DerivationCountsAgreeAcrossJoinOrders) {
  // Writing the recursive body in the other order changes the join order
  // (kNaive follows the written order); the set of satisfying assignments
  // (and hence tuples_derived) must not change.
  std::vector<Tuple> edges = benchutil::RandomGraph(20, 50, 11);
  for (Strategy strategy : kAllStrategies) {
    uint64_t derived[2];
    int i = 0;
    for (const char* body : {"edge(X,Y), tc(Y,Z)", "tc(Y,Z), edge(X,Y)"}) {
      Program p = ParseDatalog(
          std::string("tc(X,Y) :- edge(X,Y). tc(X,Z) :- ") + body + ".");
      for (const Tuple& e : edges) p.AddFact("edge", e);
      EvalStats stats;
      EvaluatePredicate(p, "tc", strategy, &stats);
      derived[i++] = stats.tuples_derived;
    }
    EXPECT_EQ(derived[0], derived[1]) << "strategy "
                                      << static_cast<int>(strategy);
  }
}

TEST(CompareBinding, EqualityBindsLhsVariable) {
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("n(1). n(2). v(Y) :- n(_), Y = 7.");
    Relation v = EvaluatePredicate(p, "v", strategy);
    EXPECT_EQ(v.ToString(), "{(7)}");
  }
}

TEST(CompareBinding, EqualityBindsRhsVariable) {
  // `c = V` with V unbound must bind symmetrically (used to throw kSafety).
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("n(1). n(2). v(Y) :- n(_), 7 = Y.");
    Relation v = EvaluatePredicate(p, "v", strategy);
    EXPECT_EQ(v.ToString(), "{(7)}");
  }
}

TEST(CompareBinding, EqualityBindsFromBoundVariable) {
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("n(3). copy(Y) :- n(X), Y = X.");
    EXPECT_EQ(EvaluatePredicate(p, "copy", strategy).ToString(), "{(3)}");
    Program q = ParseDatalog("n(3). copy(Y) :- n(X), X = Y.");
    EXPECT_EQ(EvaluatePredicate(q, "copy", strategy).ToString(), "{(3)}");
  }
}

TEST(CompareBinding, JoinVariableEqualityKeepsNumericSemantics) {
  // X is bound by q, so `X = 1.0` must stay a numeric-tolerant filter
  // (Int 1 == Float 1.0) in every strategy — not become a Float binding
  // probed with type-exact index hashes.
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("q(1). q(2). p(X) :- q(X), X = 1.0.");
    EXPECT_EQ(EvaluatePredicate(p, "p", strategy).ToString(), "{(1)}")
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(CompareBinding, OutputVariableBindingStillUsableInNegation) {
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("q(1). r(5). s(V) :- q(_), V = 5, !r(V).");
    EXPECT_TRUE(EvaluatePredicate(p, "s", strategy).empty());
    Program p2 = ParseDatalog("q(1). r(6). s(V) :- q(_), V = 5, !r(V).");
    EXPECT_EQ(EvaluatePredicate(p2, "s", strategy).ToString(), "{(5)}");
  }
}

TEST(CompareBinding, AssignTargetEqualityKeepsNumericSemantics) {
  // X is produced by an assignment, so `X = 5` must stay a numeric filter
  // even though it is written first.
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("e(4). h(X) :- X = 5, e(Y), X = Y + 1.");
    EXPECT_EQ(EvaluatePredicate(p, "h", strategy).ToString(), "{(5)}")
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(OrderIndependence, LiteralsBeforeTheirBindingAtom) {
  // A rule body is a conjunction: the order its literals are written in
  // changes neither the answer nor the error, under every strategy and
  // thread count.
  struct Case {
    const char* source;
    const char* want;
  };
  const Case cases[] = {
      {"q(1). q(-2). h(X) :- X > 0, q(X).", "{(1)}"},
      {"q(1). q(2). r(2). h(X) :- !r(X), q(X).", "{(1)}"},
      {"q(1). q(2). h(Z) :- Z = X + 1, q(X).", "{(2); (3)}"},
      // X is produced by the assignment, so `X = 5` waits and filters the
      // computed Float 5.0 numerically instead of binding X to Int 5.
      {"e(4.0). h(X) :- X = 5, e(Y), X = Y + 1.", "{(5.0)}"},
  };
  for (const Case& c : cases) {
    for (Strategy strategy : kAllStrategies) {
      for (int threads : {1, 4}) {
        EvalOptions options;
        options.strategy = strategy;
        options.num_threads = threads;
        EXPECT_EQ(
            EvaluatePredicate(ParseDatalog(c.source), "h", options).ToString(),
            c.want)
            << c.source << " strategy " << static_cast<int>(strategy)
            << " threads " << threads;
      }
    }
  }
}

TEST(CompareBinding, BothSidesUnboundStillRejected) {
  // No literal order binds Y, so every strategy rejects the rule.
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog("n(1). bad(X) :- n(_), X = Y.");
    try {
      EvaluatePredicate(p, "bad", strategy);
      ADD_FAILURE() << "strategy " << static_cast<int>(strategy)
                    << " accepted an unsafe rule";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kSafety);
    }
  }
}

TEST(ArithGuards, Int64MinDividedByMinusOnePromotesToFloat) {
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog(
        "m(-9223372036854775808). d(Y) :- m(X), Y = X / -1.");
    Relation d = EvaluatePredicate(p, "d", strategy);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_TRUE(d.Contains(Tuple({Value::Float(9223372036854775808.0)})));
  }
}

TEST(ArithGuards, Int64MinModMinusOneIsZero) {
  // `%` doubles as the comment marker in the text syntax, so the mod rule
  // is built through the API:  r(Y) :- m(X), Y = X % -1.
  for (Strategy strategy : kAllStrategies) {
    Program p;
    p.AddFact("m", Tuple({I(INT64_MIN)}));
    Rule rule;
    rule.head = Atom{"r", {Term::Var(1)}};
    rule.body.push_back(Literal::Positive(Atom{"m", {Term::Var(0)}}));
    rule.body.push_back(
        Literal::Assign(1, ArithOp::kMod, Term::Var(0), Term::Const(I(-1))));
    p.AddRule(rule);
    EXPECT_EQ(EvaluatePredicate(p, "r", strategy).ToString(), "{(0)}");
  }
}

TEST(ArithGuards, PlainDivisionStillWorks) {
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog(
        "n(6). half(Y) :- n(X), Y = X / 2. third(Y) :- n(X), Y = X / 4.\n"
        "none(Y) :- n(X), Y = X / 0. neg(Y) :- n(X), Y = X / -1.");
    EXPECT_EQ(EvaluatePredicate(p, "half", strategy).ToString(), "{(3)}");
    EXPECT_EQ(EvaluatePredicate(p, "third", strategy).ToString(), "{(1.5)}");
    EXPECT_TRUE(EvaluatePredicate(p, "none", strategy).empty());
    EXPECT_EQ(EvaluatePredicate(p, "neg", strategy).ToString(), "{(-6)}");
  }
}

TEST(ArithGuards, NaNResultsAreUndefined) {
  // Float arithmetic whose result is not a number derives nothing, like
  // X / 0; so does a sum whose fold reaches NaN. inf itself is a number.
  const double inf = std::numeric_limits<double>::infinity();
  for (Strategy strategy : kAllStrategies) {
    Program p = ParseDatalog(
        "sub(Y) :- n(X), Y = X - X. quo(Y) :- n(X), Y = X / X.\n"
        "mul(Y) :- n(X), Y = X * 0. dbl(Y) :- n(X), Y = X + X.\n"
        "v(1, X) :- n(X). v(2, Y) :- n(X), Y = 0 - X.\n"
        "total(sum(V; W)) :- v(W, V).");
    p.AddFact("n", Tuple({Value::Float(inf)}));
    p.AddFact("n", Tuple({Value::Float(2.0)}));
    EXPECT_EQ(EvaluatePredicate(p, "sub", strategy).ToString(), "{(0.0)}");
    EXPECT_EQ(EvaluatePredicate(p, "quo", strategy).ToString(), "{(1.0)}");
    EXPECT_EQ(EvaluatePredicate(p, "mul", strategy).ToString(), "{(0.0)}");
    EXPECT_EQ(EvaluatePredicate(p, "dbl", strategy).ToString(),
              "{(4.0); (inf)}");
    EXPECT_TRUE(EvaluatePredicate(p, "total", strategy).empty());
  }
}

TEST(PatternFilter, FilterByPatternMatchesTypeExactly) {
  Relation extent;
  extent.Insert(Tuple({I(1), I(2)}));
  extent.Insert(Tuple({Value::Float(1.0), I(3)}));
  extent.Insert(Tuple({I(1), I(4), I(9)}));  // other arity: never matches
  Relation got = FilterByPattern(extent, {I(1), std::nullopt});
  EXPECT_EQ(got.ToString(), "{(1, 2)}");
}

TEST(AggregateValidation, AggregatePredicateCannotCarryEdbFacts) {
  // Both entry points check the facts the evaluation starts from: the
  // copy of program.facts(), and the facts the pointer form takes out.
  Program program = ParseDatalog("item(1, 5). total(K, sum(V)) :- item(K, V).");
  program.AddFact("total", Tuple({Value::Int(1), Value::Int(9)}));
  auto expect_rejected = [](auto&& evaluate) {
    try {
      evaluate();
      ADD_FAILURE() << "an aggregate predicate with EDB facts evaluated";
    } catch (const RelError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kType);
      EXPECT_NE(std::string(e.what()).find("cannot carry EDB facts"),
                std::string::npos)
          << e.what();
    }
  };
  for (Strategy strategy : kAllStrategies) {
    EvalOptions options;
    options.strategy = strategy;
    expect_rejected([&] { Evaluate(program, options); });
    Program taken = program;
    expect_rejected([&] { Evaluate(&taken, options); });
  }
}

TEST(EvaluateTakingFacts, SameFixpointAndTheProgramKeepsOnlyItsRules) {
  const Program program = ParseDatalog(
      "e(1,2). e(2,3). e(3,1). n(4).\n"
      "tc(X,Y) :- e(X,Y). tc(X,Z) :- e(X,Y), tc(Y,Z).\n"
      "lone(X) :- n(X), !tc(X, X).");
  for (int threads : {1, 4}) {
    EvalOptions options;
    options.num_threads = threads;
    EvalStats copied_stats;
    EvalStats taken_stats;
    std::map<std::string, Relation> copied =
        Evaluate(program, options, &copied_stats);
    Program taken = program;
    std::map<std::string, Relation> moved =
        Evaluate(&taken, options, &taken_stats);
    EXPECT_EQ(copied, moved);
    EXPECT_EQ(copied.at("e"), program.facts().at("e"));
    EXPECT_EQ(copied_stats.tuples_derived, taken_stats.tuples_derived);
    EXPECT_TRUE(taken.facts().empty());
    EXPECT_EQ(taken.rules().size(), program.rules().size());
  }
}

TEST(Planner, ConstantsInAtomsProbeAsBoundColumns) {
  // A constant column counts as bound, so the planner probes on it.
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 48, 9);
  Relation from0 = EvalAllStrategies(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).\n"
      "goal(Y) :- tc(0, Y).", "goal", &edges);
  Relation tc = EvalAllStrategies(
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).", "tc", &edges);
  size_t expected = 0;
  tc.ForEach([&](const TupleRef& t) { expected += t[0] == I(0); });
  EXPECT_EQ(from0.size(), expected);
}

TEST(Planner, UnsafeRulesStillRejected) {
  for (Strategy strategy : kAllStrategies) {
    Program head_unbound = ParseDatalog("p(X, Y) :- q(X). q(1).");
    EXPECT_THROW(Evaluate(head_unbound, strategy), RelError);
    Program neg_unbound = ParseDatalog("p(X) :- q(X), !r(X, Y). q(1).");
    EXPECT_THROW(Evaluate(neg_unbound, strategy), RelError);
  }
}

TEST(Planner, BoundedPathArithmeticAcrossStrategies) {
  std::vector<Tuple> edges = benchutil::RandomGraph(12, 30, 13);
  Relation paths = EvalAllStrategies(
      "path(X, Y, D) :- edge(X, Y), D = 1 + 0.\n"
      "path(X, Z, D) :- path(X, Y, E), edge(Y, Z), D = E + 1, E < 6.",
      "path", &edges);
  EXPECT_GT(paths.size(), 0u);
}


// --- solved ranges ---------------------------------------------------------
//
// A delta plan that binds z before a range step whose output x an equality
// pins by z = x ± c tests the one candidate instead of enumerating the
// range (PinRanges, SolvePinnedRange in eval.cc). The cases below run the
// Rel lowering's actual Datalog program under kNaive (which never solves)
// and kSemiNaive, and the Rel source under the interpreter, and check that
// answers and errors agree and that `ranges_solved` shows which path ran.

/// One evaluation: the sorted extent, or the error it raised.
struct RangeOutcome {
  std::string answer;
  std::string error;
  EvalStats stats;
};

RangeOutcome RunProgram(const Program& program, const std::string& pred,
                        Strategy strategy, int threads) {
  EvalOptions options;
  options.strategy = strategy;
  options.num_threads = threads;
  RangeOutcome out;
  try {
    out.answer = EvaluatePredicate(program, pred, options, &out.stats)
                     .ToString();
  } catch (const RelError& e) {
    out.error = std::string(ErrorKindName(e.kind())) + ": " + e.what();
  }
  return out;
}

/// The Datalog program the Rel lowering builds for the recursive def `pred`
/// of `source`, with `facts` loaded for its external relations.
Program LowerRel(const std::string& source, const std::string& pred,
                 const std::map<std::string, std::vector<Tuple>>& facts) {
  std::vector<std::shared_ptr<Def>> defs;
  for (Def& def :
       rel::ParseProgram(std::string(StdlibSource()) + "\n" + source).defs) {
    defs.push_back(std::make_shared<Def>(std::move(def)));
  }
  ProgramAnalysis analysis(defs);
  std::string why;
  std::optional<LoweredComponent> lowered =
      LowerComponent(pred, analysis, defs, &why);
  EXPECT_TRUE(lowered.has_value()) << why;
  if (!lowered) return Program();
  for (const std::string& ext : lowered->externals) {
    auto it = facts.find(ext);
    if (it == facts.end()) continue;
    for (const Tuple& t : it->second) lowered->program.AddFact(ext, t);
  }
  return std::move(lowered->program);
}

/// The Rel interpreter's answer (or error) for `pred`, recursion unlowered.
RangeOutcome RunInterp(const std::string& source, const std::string& pred,
                       const std::map<std::string, std::vector<Tuple>>& facts) {
  Engine engine;
  engine.options().lower_recursion = false;
  for (const auto& [name, tuples] : facts) engine.Insert(name, tuples);
  RangeOutcome out;
  try {
    out.answer = engine.Query(source + "\ndef output : " + pred).ToString();
  } catch (const RelError& e) {
    out.error = std::string(ErrorKindName(e.kind())) + ": " + e.what();
  }
  return out;
}

/// Checks the interpreter answers `source`'s `pred` as `lowered` did.
void ExpectInterpAgrees(
    const RangeOutcome& lowered, const std::string& source,
    const std::string& pred,
    const std::map<std::string, std::vector<Tuple>>& facts = {}) {
  RangeOutcome interp = RunInterp(source, pred, facts);
  EXPECT_EQ(lowered.answer, interp.answer) << source;
  EXPECT_EQ(lowered.error, interp.error) << source;
}

/// Lowers `pred`, evaluates it under kNaive and under kSemiNaive with 1 and
/// 4 threads, checks all three agree on answer or error (and on
/// `ranges_solved` across thread counts), and returns the sequential
/// kSemiNaive outcome.
RangeOutcome ExpectSolvedAgrees(
    const std::string& source, const std::string& pred,
    const std::map<std::string, std::vector<Tuple>>& facts = {}) {
  Program program = LowerRel(source, pred, facts);
  RangeOutcome naive = RunProgram(program, pred, Strategy::kNaive, 1);
  EXPECT_EQ(naive.stats.ranges_solved, 0u) << "kNaive never solves";
  RangeOutcome semi = RunProgram(program, pred, Strategy::kSemiNaive, 1);
  EXPECT_EQ(semi.answer, naive.answer) << source;
  EXPECT_EQ(semi.error, naive.error) << source;
  if (semi.error.empty()) {
    RangeOutcome par = RunProgram(program, pred, Strategy::kSemiNaive, 4);
    EXPECT_EQ(par.answer, semi.answer) << source;
    EXPECT_EQ(par.stats.ranges_solved, semi.stats.ranges_solved) << source;
    EXPECT_EQ(par.stats.tuples_derived, semi.stats.tuples_derived) << source;
  }
  return semi;
}

/// Level-indexed reachability over E, from level 0 at node 1: `pin` relates
/// the level t a range generates to the level s of the row it extends.
std::string LevelSource(const std::string& range, const std::string& pin) {
  return "def lv(v, t) : (v = 1 and t = 0) or\n"
         "    (" + range + " and exists((u, s) | lv(u, s) and E(u, v) and " +
         pin + "))";
}

std::map<std::string, std::vector<Tuple>> LevelGraph() {
  return {{"E", benchutil::RandomGraph(20, 50, 7)}};
}

TEST(SolvedRange, PageRankShapeSolvesEveryDeltaRow) {
  // bench_pagerank's level-indexed recursive sum, lowered as
  //   pr(v, t) sum(x) :- range(1, 10, 1, t), a := t - 1, s = a, G(v, u, w),
  //                      pr(u, s, r), x := w * r.
  // Every delta row binds s, so each range step tests one level.
  const std::string source =
      "def pr(v, t, r) : r = sum[(u, x) :\n"
      "    (t = 0 and u = 0 and range(1, 12, 1, v) and x = 1.0) or\n"
      "    (range(1, 10, 1, t) and exists((s, rr, w) |\n"
      "        s = t - 1 and G(v, u, w) and pr(u, s, rr) and x = w * rr))]";
  std::map<std::string, std::vector<Tuple>> facts = {
      {"G", benchutil::StochasticMatrix(12, 3, 11)}};
  RangeOutcome semi = ExpectSolvedAgrees(source, "pr", facts);
  EXPECT_TRUE(semi.error.empty()) << semi.error;
  EXPECT_GT(semi.stats.ranges_solved, 0u);
  ExpectInterpAgrees(semi, source, "pr", facts);
}

TEST(SolvedRange, BothWrittenFormsAndWideSteps) {
  struct Case {
    const char* range;
    const char* pin;
  };
  const Case cases[] = {
      {"range(1, 8, 1, t)", "s = t - 1"},   // a := t - 1, s = a
      {"range(1, 8, 1, t)", "t = s + 1"},   // a := s + 1, t = a
      {"range(1, 8, 1, t)", "t = 1 + s"},   // a := 1 + s, t = a
      {"range(2, 16, 2, t)", "s = t - 2"},  // step 2
      {"range(3, 30, 3, t)", "t = s + 3"},  // step 3
      {"range(1, 15, 2, t)", "t = s + 2"},  // odd levels never reached
  };
  for (const Case& c : cases) {
    const std::string source = LevelSource(c.range, c.pin);
    RangeOutcome semi = ExpectSolvedAgrees(source, "lv", LevelGraph());
    EXPECT_TRUE(semi.error.empty()) << semi.error;
    EXPECT_GT(semi.stats.ranges_solved, 0u) << source;
    ExpectInterpAgrees(semi, source, "lv", LevelGraph());
  }
}

TEST(SolvedRange, FloatLevelEnumeratesAndKeepsTheLoweredAnswer) {
  // A Float level never solves: s = t - 1 is a numeric-tolerant equality,
  // so 0.0 matches t = 1 — only the enumeration finds it. The Rel
  // interpreter answers {(0.0)} here (an open item in ROADMAP.md); the
  // lowered answer stays what it was. Levels past 0.0 are Int and solve.
  const std::string source =
      "def lv(t) : t = 0.0 or (range(1, 3, 1, t) and "
      "exists((s) | lv(s) and s = t - 1))";
  RangeOutcome semi = ExpectSolvedAgrees(source, "lv");
  EXPECT_EQ(semi.answer, "{(1); (2); (3); (0.0)}");

  // Every delta row a Float: nothing solves.
  const std::string floats =
      "def lv(f) : f = 0.0 or exists((t, s) | range(1, 3, 1, t) and "
      "lv(s) and s = t - 1 and f = t * 1.0)";
  semi = ExpectSolvedAgrees(floats, "lv");
  EXPECT_EQ(semi.answer, "{(0.0); (1.0); (2.0); (3.0)}");
  EXPECT_EQ(semi.stats.ranges_solved, 0u);
}

TEST(SolvedRange, BoundsNearTheInt64LimitsEnumerate) {
  // Levels counting down from INT64_MAX (t = s - 1, so the pin is
  // s = t + 1, and hi + 1 overflows) and up from INT64_MIN + 1 (t = s + 2,
  // and lo - 2 overflows): the guard leaves both ranges enumerating. (The
  // interpreter evaluates these equalities the other way round, s = t ± c,
  // and raises the overflow itself.)
  struct Case {
    const char* source;
    const char* answer;
  };
  const Case cases[] = {
      {"def lv(t) : t = 9223372036854775807 or "
       "(range(9223372036854775805, 9223372036854775807, 1, t) and "
       "exists((s) | lv(s) and t = s - 1))",
       "{(9223372036854775805); (9223372036854775806); "
       "(9223372036854775807)}"},
      {"def lv(t) : t = -9223372036854775807 or "
       "(range(-9223372036854775807, -9223372036854775803, 1, t) and "
       "exists((s) | lv(s) and t = s + 2))",
       "{(-9223372036854775807); (-9223372036854775805); "
       "(-9223372036854775803)}"},
  };
  for (const Case& c : cases) {
    RangeOutcome semi = ExpectSolvedAgrees(c.source, "lv");
    EXPECT_EQ(semi.answer, c.answer) << semi.error;
    EXPECT_EQ(semi.stats.ranges_solved, 0u) << c.source;
  }
  // Where the enumeration's own s = t ± c overflows, every engine raises
  // the same error.
  const char* const overflowing[] = {
      "def lv(t) : t = 9223372036854775797 or "
      "(range(9223372036854775797, 9223372036854775807, 1, t) and "
      "exists((s) | lv(s) and s = t + 1))",
      "def lv(t) : t = -9223372036854775805 or "
      "(range(-9223372036854775807, -9223372036854775797, 1, t) and "
      "exists((s) | lv(s) and s = t - 2))",
  };
  for (const char* source : overflowing) {
    RangeOutcome semi = ExpectSolvedAgrees(source, "lv");
    EXPECT_NE(semi.error.find("integer overflow"), std::string::npos)
        << semi.error;
    ExpectInterpAgrees(semi, source, "lv");
  }
  // A candidate s + 2 that overflows is the pinning assignment's own
  // overflow, which the enumeration raises for a non-empty range.
  RangeOutcome semi = ExpectSolvedAgrees(
      "def lv(t) : t = 9223372036854775806 or "
      "(range(1, 5, 1, t) and exists((s) | lv(s) and t = s + 2))",
      "lv");
  EXPECT_NE(semi.error.find("integer overflow: 9223372036854775806 + 2"),
            std::string::npos)
      << semi.error;
}

TEST(SolvedRange, AnotherAssignmentBeforeTheEqualityEnumerates) {
  // o = t * w runs between the range and the equality that pins t, so for
  // every level the enumeration generates; with w = 2^61 it overflows at
  // t = 4, past the candidate t = 2 a solve would have tested alone. In
  // the second form the pinning assignment s + 1 runs before the range.
  auto form1 = [](const std::string& w) {
    return "def lv(t, w) : (t = 1 and w = " + w +
           ") or (range(1, 10, 1, t) and "
           "exists((s, o) | lv(s, w) and o = t * w and s = t - 1))";
  };
  auto form2 = [](const std::string& w) {
    return "def lv(t, w) : (t = 1 and w = " + w +
           ") or (exists((s, o) | lv(s, w) and o = t * w and t = s + 1) "
           "and range(1, 10, 1, t))";
  };
  for (auto source : {+form1, +form2}) {
    RangeOutcome semi = ExpectSolvedAgrees(source("2"), "lv");
    EXPECT_TRUE(semi.error.empty()) << semi.error;
    EXPECT_EQ(semi.stats.ranges_solved, 0u) << source("2");
    ExpectInterpAgrees(semi, source("2"), "lv");

    semi = ExpectSolvedAgrees(source("2305843009213693952"), "lv");
    EXPECT_NE(semi.error.find("integer overflow: 4 * 2305843009213693952"),
              std::string::npos)
        << source("2") << "\n" << semi.error;
  }
}

}  // namespace
}  // namespace datalog
}  // namespace rel
