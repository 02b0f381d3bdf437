// Pins the EvalOptions::plan_order_seed contract (datalog/eval.h): every
// seed permutes the planned strategy's join orders but computes the
// identical fixpoint, the same number of rounds, and the same
// tuples_derived — only access-path counters (index_probes, index_builds,
// sorted_builds, driver_scans, leapfrog_joins) may differ. The
// equivalent-query fuzzer (src/fuzz) sweeps the knob over random programs;
// this test pins the contract on a readable 3-rule program, across thread
// counts, including the leapfrog bypass (seeded orders route triangle
// rules through binary join pipelines instead).

#include "datalog/eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "benchutil/generators.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

// Three rules: non-linear transitive closure plus a triangle self-join —
// the triangle rule takes the leapfrog path at seed 0 and the binary-join
// path under any non-zero seed, so the sweep crosses both access paths.
Program BuildProgram() {
  Program p = ParseDatalog(
      "tc(X, Y) :- edge(X, Y)."
      "tc(X, Z) :- tc(X, Y), tc(Y, Z)."
      "tri(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X).");
  for (const Tuple& t : benchutil::RandomGraph(14, 40, 11)) {
    p.AddFact("edge", t);
  }
  return p;
}

TEST(PlanOrderSeed, AllOrdersComputeTheSameFixpoint) {
  EvalStats base_stats;
  EvalOptions base;
  base.strategy = Strategy::kSemiNaive;
  std::map<std::string, Relation> reference =
      Evaluate(BuildProgram(), base, &base_stats);
  ASSERT_FALSE(reference.at("tc").empty());
  ASSERT_FALSE(reference.at("tri").empty());
  ASSERT_GT(base_stats.leapfrog_joins, 0u);  // seed 0 routes the triangle

  for (uint64_t seed : {1ull, 7ull, 42ull, 0x9E3779B97F4A7C15ull}) {
    for (int threads : {1, 4}) {
      EvalOptions options;
      options.strategy = Strategy::kSemiNaive;
      options.plan_order_seed = seed;
      options.num_threads = threads;
      EvalStats stats;
      std::map<std::string, Relation> got =
          Evaluate(BuildProgram(), options, &stats);
      for (const char* pred : {"tc", "tri"}) {
        EXPECT_EQ(got.at(pred), reference.at(pred))
            << pred << " diverged at seed " << seed << " threads "
            << threads;
        EXPECT_EQ(got.at(pred).ToString(), reference.at(pred).ToString())
            << pred << " rendering not byte-identical at seed " << seed;
      }
      // Cost-equivalence: same rounds, same satisfying body assignments.
      EXPECT_EQ(stats.iterations, base_stats.iterations) << "seed " << seed;
      EXPECT_EQ(stats.tuples_derived, base_stats.tuples_derived)
          << "seed " << seed << " threads " << threads;
      // Non-zero seeds bypass the worst-case-optimal routing entirely.
      EXPECT_EQ(stats.leapfrog_joins, 0u) << "seed " << seed;
    }
  }
}

TEST(PlanOrderSeed, SameSeedIsReproducible) {
  EvalOptions options;
  options.strategy = Strategy::kSemiNaive;
  options.plan_order_seed = 7;
  EvalStats a, b;
  std::map<std::string, Relation> ra = Evaluate(BuildProgram(), options, &a);
  std::map<std::string, Relation> rb = Evaluate(BuildProgram(), options, &b);
  EXPECT_EQ(ra.at("tc"), rb.at("tc"));
  // The permutation is a pure function of (seed, rule, delta occurrence):
  // identical runs take identical access paths, probe for probe.
  EXPECT_EQ(a.index_probes, b.index_probes);
  EXPECT_EQ(a.index_builds, b.index_builds);
  EXPECT_EQ(a.tuples_derived, b.tuples_derived);
}

TEST(PlanOrderSeed, NaiveStrategyIgnoresTheKnob) {
  EvalOptions plain;
  plain.strategy = Strategy::kNaive;
  EvalOptions seeded = plain;
  seeded.plan_order_seed = 99;
  EvalStats sp, ss;
  std::map<std::string, Relation> rp = Evaluate(BuildProgram(), plain, &sp);
  std::map<std::string, Relation> rs = Evaluate(BuildProgram(), seeded, &ss);
  EXPECT_EQ(rp.at("tc"), rs.at("tc"));
  EXPECT_EQ(sp.tuples_derived, ss.tuples_derived);
  EXPECT_EQ(sp.full_scans, ss.full_scans);
}

}  // namespace
}  // namespace datalog
}  // namespace rel
