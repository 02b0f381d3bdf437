// Differential test harness for the magic-set demand transformation
// (src/datalog/magic.h): for every program in the eval corpus and for
// random monotone programs from a property generator, demand-driven
// evaluation restricted to the goal must equal the goal-filtered full
// fixpoint — across both strategies, at threads {1, 4}, with
// byte-identical sorted renderings. Plus structural tests of the transform
// (adornments, magic seeds, the all-free no-op, the all-bound
// reachability degeneration) and the cone-shrink stats.

#include "datalog/magic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "benchutil/generators.h"
#include "datalog/eval.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

using Pattern = std::vector<std::optional<Value>>;

const Strategy kAllStrategies[] = {Strategy::kNaive, Strategy::kSemiNaive};

/// Independent reference filter (deliberately not FilterByPattern): the
/// goal-matching tuples of `extent`, via the sorted row-oriented view.
Relation GoalFilter(const Relation& extent, const Pattern& pattern) {
  Relation out;
  for (const Tuple& t : extent.TuplesOfArity(pattern.size())) {
    bool match = true;
    for (size_t i = 0; i < pattern.size() && match; ++i) {
      if (pattern[i].has_value()) match = t[i] == *pattern[i];
    }
    if (match) out.Insert(t);
  }
  return out;
}

/// One corpus/differential case: a program (source text plus optional
/// injected facts) and a goal.
struct Case {
  std::string source;
  const std::vector<Tuple>* facts = nullptr;
  std::string fact_pred;
  std::string pred;
  Pattern pattern;
};

Program BuildProgram(const Case& c) {
  Program p = ParseDatalog(c.source);
  if (c.facts) {
    for (const Tuple& t : *c.facts) p.AddFact(c.fact_pred, t);
  }
  return p;
}

/// The differential assertion: magic-set evaluation restricted to the goal
/// equals the goal-filtered full fixpoint, for every strategy and for
/// threads {1, 4}, with byte-identical sorted renderings.
void ExpectDemandEqualsFiltered(const Case& c, const char* context) {
  Relation reference;
  {
    Program p = BuildProgram(c);
    EvalOptions full;
    reference = GoalFilter(EvaluatePredicate(p, c.pred, full), c.pattern);
  }
  const std::string reference_rendering = reference.ToString();
  for (Strategy strategy : kAllStrategies) {
    for (int threads : {1, 4}) {
      Program p = BuildProgram(c);
      EvalOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      options.demand_goal = DemandGoal{c.pred, c.pattern};
      Relation demanded = EvaluatePredicate(p, c.pred, options);
      EXPECT_EQ(demanded, reference)
          << context << ": goal '" << c.pred << "' diverges (strategy "
          << static_cast<int>(strategy) << ", threads " << threads << ")\n"
          << c.source;
      EXPECT_EQ(demanded.ToString(), reference_rendering)
          << context << ": rendering not byte-identical for '" << c.pred
          << "' (strategy " << static_cast<int>(strategy) << ", threads "
          << threads << ")";
    }
  }
}

// --- the eval-corpus programs, each pinned under several goal patterns ----

const char kTCRight[] =
    "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).";
const char kTCLeft[] =
    "tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y), edge(Y,Z).";
const char kTCNonLinear[] =
    "tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y), tc(Y,Z).";

TEST(MagicDifferential, TransitiveClosureAllFormulations) {
  const char* programs[] = {kTCRight, kTCLeft, kTCNonLinear};
  const Pattern patterns[] = {
      {I(0), std::nullopt},          // point query: forward cone
      {std::nullopt, I(3)},          // inverse: who reaches 3
      {I(0), I(5)},                  // all-bound: reachability check
      {std::nullopt, std::nullopt},  // all-free: must be a no-op
  };
  for (const char* source : programs) {
    for (uint64_t seed : {1u, 7u}) {
      std::vector<Tuple> edges = benchutil::RandomGraph(20, 55, seed);
      for (const Pattern& pattern : patterns) {
        Case c{source, &edges, "edge", "tc", pattern};
        ExpectDemandEqualsFiltered(c, "tc/random");
      }
    }
    std::vector<Tuple> chain = benchutil::ChainGraph(24);
    for (const Pattern& pattern : patterns) {
      Case c{source, &chain, "edge", "tc", pattern};
      ExpectDemandEqualsFiltered(c, "tc/chain");
    }
  }
}

TEST(MagicDifferential, SameGeneration) {
  const std::string program =
      "parent(1, 3). parent(1, 4). parent(2, 5).\n"
      "parent(3, 6). parent(4, 7). parent(5, 8).\n"
      "sg(X, Y) :- parent(P, X), parent(P, Y), X != Y.\n"
      "sg(X, Y) :- parent(A, X), parent(B, Y), sg(A, B).";
  const Pattern patterns[] = {
      {I(6), std::nullopt},
      {std::nullopt, I(7)},
      {I(3), I(4)},
      {I(6), I(8)},  // not same generation: demanded extent must be empty
      {std::nullopt, std::nullopt},
  };
  for (const Pattern& pattern : patterns) {
    ExpectDemandEqualsFiltered(Case{program, nullptr, "", "sg", pattern},
                               "same-generation");
  }
}

TEST(MagicDifferential, StratifiedNegationKeepsNegatedPredicatesWhole) {
  // Negated predicates (and their dependencies) are evaluated from their
  // original rules — the transformed program must stay stratified and the
  // demanded answers exact.
  const std::string program =
      "node(1). node(2). node(3). node(4).\n"
      "edge(1,2). edge(2,3).\n"
      "reach(X) :- edge(1, X).\n"
      "reach(X) :- reach(Y), edge(Y, X).\n"
      "unreach(X) :- node(X), !reach(X), X != 1.\n"
      "island(X) :- unreach(X), !edge(X, 1).";
  for (const std::string& pred : {std::string("unreach"), std::string("island")}) {
    for (const Pattern& pattern :
         {Pattern{I(4)}, Pattern{I(2)}, Pattern{std::nullopt}}) {
      ExpectDemandEqualsFiltered(Case{program, nullptr, "", pred, pattern},
                                 "stratified-negation");
    }
  }
}

TEST(MagicDifferential, MixedArityFacts) {
  const std::string program =
      "r(1). r(1, 2). r(2, 3). r(1, 2, 3).\n"
      "unary(X) :- r(X).\n"
      "pair(X, Y) :- r(X, Y).\n"
      "chain(X, Z) :- r(X, Y), r(Y, Z).\n"
      "wide(X) :- r(X, _, _).";
  ExpectDemandEqualsFiltered(
      Case{program, nullptr, "", "pair", {I(1), std::nullopt}}, "mixed-arity");
  ExpectDemandEqualsFiltered(
      Case{program, nullptr, "", "chain", {std::nullopt, I(3)}}, "mixed-arity");
  ExpectDemandEqualsFiltered(Case{program, nullptr, "", "wide", {I(1)}},
                             "mixed-arity");
  ExpectDemandEqualsFiltered(Case{program, nullptr, "", "unary", {I(1)}},
                             "mixed-arity");
}

TEST(MagicDifferential, TriangleSelfJoin) {
  std::vector<Tuple> edges = benchutil::SkewedTriangleGraph(40, 6, /*seed=*/3);
  const std::string program = "tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).";
  const Pattern patterns[] = {
      {I(1), std::nullopt, std::nullopt},
      {std::nullopt, I(2), std::nullopt},
      {I(1), I(2), std::nullopt},
  };
  for (const Pattern& pattern : patterns) {
    ExpectDemandEqualsFiltered(Case{program, &edges, "e", "tri", pattern},
                               "triangle");
  }
}

TEST(MagicDifferential, BoundedPathArithmetic) {
  // Assignments and comparisons ride along in adorned rules; assignments
  // with bound operands extend the sideways binding set.
  std::vector<Tuple> edges = benchutil::RandomGraph(12, 30, 13);
  const std::string program =
      "path(X, Y, D) :- edge(X, Y), D = 1.\n"
      "path(X, Z, D) :- path(X, Y, E), edge(Y, Z), D = E + 1, E < 6.";
  const Pattern patterns[] = {
      {I(0), std::nullopt, std::nullopt},
      {I(0), std::nullopt, I(2)},
      {std::nullopt, I(5), std::nullopt},
  };
  for (const Pattern& pattern : patterns) {
    ExpectDemandEqualsFiltered(Case{program, &edges, "edge", "path", pattern},
                               "bounded-path");
  }
}

// --- random monotone programs from a property generator -------------------

/// Random monotone recursive Datalog over an `edge` EDB — the Datalog-side
/// twin of the Rel generator in tests/property/property_test.cc. Every
/// generated program is range-restricted, so both strategies accept it.
struct Generated {
  std::string source;
  std::vector<std::pair<std::string, size_t>> preds;  // (pred, arity)
};

Generated RandomMonotoneDatalog(Rng* rng) {
  Generated out;
  std::string src;

  const char* base_guards[] = {"", ", X != Y", ", X < Y"};
  src += "t(X, Y) :- edge(X, Y)" +
         std::string(base_guards[rng->NextBelow(3)]) + ".\n";
  const char* recursive_shapes[] = {
      "t(X, Z) :- edge(X, Y), t(Y, Z).\n",
      "t(X, Z) :- t(X, Y), edge(Y, Z).\n",
      "t(X, Z) :- t(X, Y), t(Y, Z).\n",
  };
  size_t num_rules = 1 + rng->NextBelow(3);
  for (size_t i = 0; i < num_rules; ++i) {
    src += recursive_shapes[rng->NextBelow(3)];
  }
  out.preds.emplace_back("t", 2);

  if (rng->NextBool(0.5)) {
    src +=
        "podd(X, Y) :- edge(X, Y).\n"
        "podd(X, Z) :- edge(X, Y), peven(Y, Z).\n"
        "peven(X, Z) :- edge(X, Y), podd(Y, Z).\n";
    out.preds.emplace_back("podd", 2);
    out.preds.emplace_back("peven", 2);
  }

  if (rng->NextBool(0.5)) {
    int bound = 2 + static_cast<int>(rng->NextBelow(4));
    src += "dist(X, Y, D) :- edge(X, Y), D = 1.\n";
    src += "dist(X, Z, D) :- dist(X, Y, E), edge(Y, Z), D = E + 1, E < " +
           std::to_string(bound) + ".\n";
    out.preds.emplace_back("dist", 3);
  }

  if (rng->NextBool(0.5)) {
    src += "joined(X, Z) :- t(X, Y), edge(Y, Z).\n";
    out.preds.emplace_back("joined", 2);
  }

  out.source = src;
  return out;
}

/// A random binding pattern: every position bound with probability 1/2
/// (re-rolled once against all-free so most sweeps exercise the rewrite),
/// constants drawn from just past the node range so misses occur too.
Pattern RandomPattern(Rng* rng, size_t arity, int n) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Pattern p;
    bool any = false;
    for (size_t i = 0; i < arity; ++i) {
      if (rng->NextBool(0.5)) {
        p.emplace_back(I(static_cast<int64_t>(rng->NextBelow(
            static_cast<uint64_t>(n) + 2))));
        any = true;
      } else {
        p.emplace_back(std::nullopt);
      }
    }
    if (any || attempt == 1) return p;
  }
  return Pattern();
}

class MagicProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MagicProperty, RandomProgramsRandomPatterns) {
  Rng rng(GetParam());
  int n = 10 + static_cast<int>(rng.NextBelow(8));
  std::vector<Tuple> edges = benchutil::RandomGraph(
      n, 20 + static_cast<int>(rng.NextBelow(25)), rng.Next());
  Generated gen = RandomMonotoneDatalog(&rng);
  for (const auto& [pred, arity] : gen.preds) {
    for (int trial = 0; trial < 2; ++trial) {
      Pattern pattern = RandomPattern(&rng, arity, n);
      Case c{gen.source, &edges, "edge", pred, pattern};
      ExpectDemandEqualsFiltered(c, "random-program");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- structure and stats: the cone must actually shrink --------------------

TEST(MagicTransformShape, LeftLinearTCPointQuery) {
  Program p = ParseDatalog(kTCLeft);
  MagicProgram magic =
      MagicTransform(p, DemandGoal{"tc", {I(0), std::nullopt}});
  EXPECT_TRUE(magic.transformed);
  EXPECT_EQ(magic.goal_pred, AdornedName("tc", "bf"));
  EXPECT_GT(magic.adorned_rules, 0);
  // The magic seed fact is in place.
  auto it = magic.program.facts().find(MagicName("tc", "bf"));
  ASSERT_NE(it, magic.program.facts().end());
  EXPECT_TRUE(it->second.Contains(Tuple({I(0)})));
}

TEST(MagicTransformShape, AllFreeGoalIsIdentity) {
  Program p = ParseDatalog(kTCRight);
  MagicProgram magic =
      MagicTransform(p, DemandGoal{"tc", {std::nullopt, std::nullopt}});
  EXPECT_FALSE(magic.transformed);
  EXPECT_EQ(magic.goal_pred, "tc");
  EXPECT_EQ(magic.adorned_rules, 0);
  EXPECT_EQ(magic.magic_rules, 0);

  // Through Evaluate: stats stay zero and the extent equals the full run.
  std::vector<Tuple> edges = benchutil::RandomGraph(16, 40, 5);
  Program full_p = ParseDatalog(kTCRight);
  for (const Tuple& e : edges) full_p.AddFact("edge", e);
  Relation full = EvaluatePredicate(full_p, "tc", EvalOptions{});
  Program demand_p = ParseDatalog(kTCRight);
  for (const Tuple& e : edges) demand_p.AddFact("edge", e);
  EvalOptions options;
  options.demand_goal = DemandGoal{"tc", {std::nullopt, std::nullopt}};
  EvalStats stats;
  Relation demanded = EvaluatePredicate(demand_p, "tc", options, &stats);
  EXPECT_EQ(demanded, full);
  EXPECT_EQ(demanded.ToString(), full.ToString());
  EXPECT_EQ(stats.adorned_rules, 0);
  EXPECT_EQ(stats.magic_rules, 0);
  EXPECT_EQ(stats.magic_facts, 0u);
}

TEST(MagicStats, PointQueryDerivesFractionOfFullClosure) {
  // Left-linear TC on a chain: the full closure is O(n^2) tuples, the
  // demanded cone of tc(0, Y) is the n-1 tuples leaving node 0. This is
  // the acceptance shape bench_magic measures at n=256.
  std::vector<Tuple> edges = benchutil::ChainGraph(64);

  Program full_p = ParseDatalog(kTCLeft);
  for (const Tuple& e : edges) full_p.AddFact("edge", e);
  EvalStats full_stats;
  Relation full =
      EvaluatePredicate(full_p, "tc", EvalOptions{}, &full_stats);

  Program demand_p = ParseDatalog(kTCLeft);
  for (const Tuple& e : edges) demand_p.AddFact("edge", e);
  EvalOptions options;
  options.demand_goal = DemandGoal{"tc", {I(0), std::nullopt}};
  EvalStats demand_stats;
  Relation demanded =
      EvaluatePredicate(demand_p, "tc", options, &demand_stats);

  EXPECT_EQ(demanded.size(), 63u);  // the cone out of node 0
  EXPECT_EQ(demanded, GoalFilter(full, {I(0), std::nullopt}));
  EXPECT_GT(demand_stats.adorned_rules, 0);
  EXPECT_GT(demand_stats.magic_facts, 0u);
  // The demanded fixpoint derives >= 10x fewer tuples than the closure.
  EXPECT_LE(demand_stats.tuples_derived * 10, full_stats.tuples_derived)
      << "demand: " << demand_stats.ToString()
      << "\nfull: " << full_stats.ToString();
}

TEST(MagicStats, AllBoundDegeneratesToReachabilityCheck) {
  // tc(0, 63) on the 64-chain: the demanded evaluation walks the single
  // forward path (O(n) work) instead of materializing the O(n^2) closure.
  std::vector<Tuple> edges = benchutil::ChainGraph(64);

  Program full_p = ParseDatalog(kTCLeft);
  for (const Tuple& e : edges) full_p.AddFact("edge", e);
  EvalStats full_stats;
  EvaluatePredicate(full_p, "tc", EvalOptions{}, &full_stats);

  for (int64_t target : {63, 0}) {  // reachable; unreachable (no self loop)
    Program p = ParseDatalog(kTCLeft);
    for (const Tuple& e : edges) p.AddFact("edge", e);
    EvalOptions options;
    options.demand_goal = DemandGoal{"tc", {I(0), I(target)}};
    EvalStats stats;
    Relation demanded = EvaluatePredicate(p, "tc", options, &stats);
    if (target == 63) {
      EXPECT_EQ(demanded.ToString(), "{(0, 63)}");
    } else {
      EXPECT_TRUE(demanded.empty());
    }
    EXPECT_LE(stats.tuples_derived * 10, full_stats.tuples_derived);
  }
}

TEST(MagicStats, CountersAgreeAcrossThreadCounts) {
  std::vector<Tuple> edges = benchutil::RandomGraph(32, 96, 5);
  uint64_t derived[2];
  uint64_t magic_facts[2];
  int i = 0;
  for (int threads : {1, 4}) {
    Program p = ParseDatalog(kTCRight);
    for (const Tuple& e : edges) p.AddFact("edge", e);
    EvalOptions options;
    options.num_threads = threads;
    options.demand_goal = DemandGoal{"tc", {I(0), std::nullopt}};
    EvalStats stats;
    EvaluatePredicate(p, "tc", options, &stats);
    derived[i] = stats.tuples_derived;
    magic_facts[i] = stats.magic_facts;
    ++i;
  }
  EXPECT_EQ(derived[0], derived[1]);
  EXPECT_EQ(magic_facts[0], magic_facts[1]);
}

TEST(MagicFilter, FilterByPatternMatchesTypeExactly) {
  Relation extent;
  extent.Insert(Tuple({I(1), I(2)}));
  extent.Insert(Tuple({Value::Float(1.0), I(3)}));
  extent.Insert(Tuple({I(1), I(4), I(9)}));  // other arity: never matches
  Relation got = FilterByPattern(extent, {I(1), std::nullopt});
  EXPECT_EQ(got.ToString(), "{(1, 2)}");
}

// --- edge cases surfaced while building the equivalent-query fuzzer ------

// A goal over an EDB predicate (facts, no rules): nothing to chase, so the
// transform degenerates to the identity — and demanded evaluation still
// returns exactly the goal-filtered facts.
TEST(MagicEdgeCases, GoalOverEdbPredicateIsIdentity) {
  Program p = ParseDatalog(kTCRight);
  std::vector<Tuple> edges = benchutil::RandomGraph(12, 30, 3);
  for (const Tuple& e : edges) p.AddFact("edge", e);

  MagicProgram magic =
      MagicTransform(p, DemandGoal{"edge", {I(0), std::nullopt}});
  EXPECT_FALSE(magic.transformed);
  EXPECT_EQ(magic.goal_pred, "edge");
  EXPECT_EQ(magic.adorned_rules, 0);
  EXPECT_EQ(magic.magic_rules, 0);

  // Differential: demanded == goal-filtered, for bound, all-bound and
  // all-free patterns over the EDB predicate.
  const Pattern patterns[] = {
      {I(0), std::nullopt},
      {std::nullopt, I(3)},
      {edges[0][0], edges[0][1]},        // all-bound, known present
      {I(999), I(999)},                  // all-bound, absent
      {std::nullopt, std::nullopt},      // all-free
  };
  for (const Pattern& pattern : patterns) {
    Case c{kTCRight, &edges, "edge", "edge", pattern};
    ExpectDemandEqualsFiltered(c, "edge/edb-goal");
  }
}

// Repeated variables: in the rule heads (tc(X, X) diagonal), in body atoms
// (self-join positions), and as repeated constants in the goal pattern.
// The sideways-information-passing walk must not double-bind or drop the
// duplicated positions.
TEST(MagicEdgeCases, RepeatedVariablesAndRepeatedGoalConstants) {
  const char kDiag[] =
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z)."
      "loop(X) :- tc(X, X)."
      "diag(X, X) :- loop(X)."
      "meet(X, Y) :- tc(X, Z), tc(Y, Z), edge(X, X).";
  std::vector<Tuple> edges = benchutil::CycleGraph(9);
  edges.push_back(Tuple({I(2), I(2)}));  // a self-loop feeds edge(X, X)
  edges.push_back(Tuple({I(4), I(4)}));

  const char* preds[] = {"loop", "diag", "meet"};
  for (const char* pred : preds) {
    std::vector<Pattern> patterns;
    if (std::string(pred) == "loop") {
      patterns = {{I(2)}, {I(3)}, {std::nullopt}};
    } else {
      patterns = {{I(2), I(2)},  // repeated constant, on the diagonal
                  {I(2), I(3)},  // off-diagonal: diag must answer empty
                  {I(2), std::nullopt},
                  {std::nullopt, I(4)},
                  {std::nullopt, std::nullopt}};
    }
    for (const Pattern& pattern : patterns) {
      Case c{kDiag, &edges, "edge", pred, pattern};
      ExpectDemandEqualsFiltered(c, "diag/repeated-vars");
    }
  }
}

// All-free goals across every predicate of a stratified program: each must
// be the identity (transformed == false) AND the demanded answers must
// equal the full fixpoint for that predicate.
TEST(MagicEdgeCases, AllFreeGoalsAcrossAllPredicates) {
  const char kStratified[] =
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z)."
      "unreach(X, Y) :- node(X), node(Y), !tc(X, Y).";
  std::vector<Tuple> edges = benchutil::ChainGraph(8);
  Program shape = ParseDatalog(kStratified);
  for (const Tuple& e : edges) shape.AddFact("edge", e);
  for (int i = 0; i < 8; ++i) shape.AddFact("node", Tuple({I(i)}));

  for (const char* pred : {"tc", "unreach"}) {
    MagicProgram magic =
        MagicTransform(shape, DemandGoal{pred, {std::nullopt, std::nullopt}});
    EXPECT_FALSE(magic.transformed) << pred;
    EXPECT_EQ(magic.goal_pred, pred);

    Relation full = EvaluatePredicate(shape, pred, EvalOptions{});
    EvalOptions demand;
    demand.demand_goal = DemandGoal{pred, {std::nullopt, std::nullopt}};
    Relation demanded = EvaluatePredicate(shape, pred, demand);
    EXPECT_EQ(demanded, full) << pred;
    EXPECT_EQ(demanded.ToString(), full.ToString()) << pred;
  }
}

}  // namespace
}  // namespace datalog
}  // namespace rel
