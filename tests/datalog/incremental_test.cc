// Tests for incremental fixpoint maintenance (datalog::EvaluateDelta):
// insert resumption, DRed deletion with re-derivation, unsupported-shape
// fallbacks, the new EvalStats counters, and a randomized differential
// sweep pinning maintained extents byte-identical to from-scratch
// evaluation across thread counts and plan seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchutil/generators.h"
#include "datalog/eval.h"
#include "datalog/index.h"
#include "datalog/program.h"

namespace rel {
namespace datalog {
namespace {

Value I(int64_t v) { return Value::Int(v); }

using Facts = std::map<std::string, std::vector<Tuple>>;

std::map<std::string, Relation> FullEval(const std::string& rules,
                                         const Facts& facts,
                                         const EvalOptions& options) {
  Program p = ParseDatalog(rules);
  for (const auto& [pred, tuples] : facts) {
    for (const Tuple& t : tuples) p.AddFact(pred, t);
  }
  return Evaluate(p, options);
}

/// Applies `delta` to a fact table (set semantics), returning the
/// post-update facts for the from-scratch reference run.
Facts ApplyDelta(Facts facts, const EdbDelta& delta) {
  for (const auto& [pred, removed] : delta.deletes) {
    std::vector<Tuple>& tuples = facts[pred];
    std::vector<Tuple> kept;
    for (const Tuple& t : tuples) {
      if (!removed.Contains(t)) kept.push_back(t);
    }
    tuples = std::move(kept);
  }
  for (const auto& [pred, added] : delta.inserts) {
    added.ForEach([&facts, pred = pred](const TupleRef& t) {
      facts[pred].push_back(t.ToTuple());
    });
  }
  return facts;
}

/// Head predicates that also carry EDB facts keep their surviving base
/// tuples visible to the DRed re-derivation phase via `base_facts`.
std::map<std::string, Relation> BaseFactsFor(const Program& program,
                                             const Facts& post_facts) {
  std::map<std::string, Relation> base;
  for (const Rule& rule : program.rules()) {
    auto it = post_facts.find(rule.head.pred);
    if (it == post_facts.end()) continue;
    Relation& r = base[rule.head.pred];
    for (const Tuple& t : it->second) r.Insert(t);
  }
  return base;
}

/// The core differential check: evaluate `rules` over `pre_facts`, maintain
/// under `delta` with EvaluateDelta, and require the maintained extents to
/// be byte-identical to a from-scratch evaluation of the post-update EDB.
/// Returns the maintenance stats for counter assertions.
EvalStats CheckMaintained(const std::string& rules, const Facts& pre_facts,
                          const EdbDelta& delta, const EvalOptions& options,
                          IndexCache* cache = nullptr) {
  Program p = ParseDatalog(rules);
  std::map<std::string, Relation> extents = FullEval(rules, pre_facts, options);

  Facts post_facts = ApplyDelta(pre_facts, delta);
  std::map<std::string, Relation> base_facts = BaseFactsFor(p, post_facts);

  EvalStats stats;
  DeltaResult result =
      EvaluateDelta(p, base_facts, delta, &extents, options, &stats, cache);
  EXPECT_TRUE(result.supported) << result.unsupported_reason;

  std::map<std::string, Relation> reference =
      FullEval(rules, post_facts, options);
  EXPECT_EQ(extents.size(), reference.size());
  for (const auto& [pred, extent] : reference) {
    auto it = extents.find(pred);
    if (it == extents.end()) {
      ADD_FAILURE() << "missing extent for " << pred;
      continue;
    }
    EXPECT_EQ(it->second.ToString(), extent.ToString())
        << "maintained extent diverges for " << pred;
  }
  return stats;
}

EdbDelta Inserts(const std::string& pred, const std::vector<Tuple>& tuples) {
  EdbDelta delta;
  for (const Tuple& t : tuples) delta.inserts[pred].Insert(t);
  return delta;
}

EdbDelta Deletes(const std::string& pred, const std::vector<Tuple>& tuples) {
  EdbDelta delta;
  for (const Tuple& t : tuples) delta.deletes[pred].Insert(t);
  return delta;
}

const char kTcRules[] =
    "tc(X,Y) :- edge(X,Y). tc(X,Z) :- edge(X,Y), tc(Y,Z).";

TEST(IncrementalInsert, SingleTupleExtendsChainClosure) {
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(24);
  // Appending node 24 extends every suffix path: 24 new closure tuples.
  EvalStats stats = CheckMaintained(kTcRules, facts,
                                    Inserts("edge", {Tuple({I(23), I(24)})}),
                                    EvalOptions{});
  EXPECT_EQ(stats.delta_inserts, 25u);  // 24 tc tuples + the edge itself
  EXPECT_EQ(stats.delta_deletes, 0u);
}

TEST(IncrementalInsert, BatchedAndAcrossThreadsAndSeeds) {
  Facts facts;
  facts["edge"] = benchutil::RandomGraph(30, 70, /*seed=*/3);
  EdbDelta delta = Inserts("edge", {Tuple({I(1), I(29)}), Tuple({I(29), I(0)}),
                                    Tuple({I(12), I(13)})});
  for (int threads : {1, 4}) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
      EvalOptions options;
      options.num_threads = threads;
      options.plan_order_seed = seed;
      CheckMaintained(kTcRules, facts, delta, options);
    }
  }
}

TEST(IncrementalInsert, NoOpDeltaChangesNothing) {
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(8);
  EvalStats stats =
      CheckMaintained(kTcRules, facts, EdbDelta{}, EvalOptions{});
  EXPECT_EQ(stats.delta_inserts, 0u);
  EXPECT_EQ(stats.delta_deletes, 0u);
  EXPECT_EQ(stats.rederived, 0u);
}

TEST(IncrementalDelete, ChainSplitDropsSuffixPairs) {
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(16);
  // Cutting the middle edge removes every path crossing it; nothing has an
  // alternative proof in a chain, so DRed re-derives zero tuples.
  EvalStats stats = CheckMaintained(kTcRules, facts,
                                    Deletes("edge", {Tuple({I(7), I(8)})}),
                                    EvalOptions{});
  EXPECT_GT(stats.delta_deletes, 0u);
  EXPECT_EQ(stats.rederived, 0u);
}

TEST(IncrementalDelete, DiamondRederivesAlternateProofs) {
  // a=0 -> b=1 -> d=3 and a=0 -> c=2 -> d=3: deleting (0,1) over-deletes
  // tc(0,3), which the c-path then restores.
  Facts facts;
  facts["edge"] = {Tuple({I(0), I(1)}), Tuple({I(1), I(3)}),
                   Tuple({I(0), I(2)}), Tuple({I(2), I(3)})};
  EvalStats stats = CheckMaintained(kTcRules, facts,
                                    Deletes("edge", {Tuple({I(0), I(1)})}),
                                    EvalOptions{});
  EXPECT_GT(stats.rederived, 0u);
}

TEST(IncrementalDelete, HeadPredicateBaseFactsSurvive) {
  // tc carries its own EDB fact (10, 11), underivable from edges. Deleting
  // an edge must not sweep it away — base_facts marks it as surviving.
  Facts facts;
  facts["edge"] = {Tuple({I(0), I(1)}), Tuple({I(1), I(2)})};
  facts["tc"] = {Tuple({I(10), I(11)})};
  CheckMaintained(kTcRules, facts, Deletes("edge", {Tuple({I(1), I(2)})}),
                  EvalOptions{});
}

TEST(IncrementalMixed, InsertAndDeleteInOneDelta) {
  Facts facts;
  facts["edge"] = benchutil::RandomGraph(24, 60, /*seed=*/11);
  EdbDelta delta;
  delta.deletes["edge"].Insert(facts["edge"][0]);
  delta.deletes["edge"].Insert(facts["edge"][7]);
  delta.inserts["edge"].Insert(Tuple({I(2), I(23)}));
  delta.inserts["edge"].Insert(Tuple({I(23), I(5)}));
  for (int threads : {1, 2}) {
    EvalOptions options;
    options.num_threads = threads;
    CheckMaintained(kTcRules, facts, delta, options);
  }
}

TEST(IncrementalNegation, UnaffectedStratumStaysMaintainable) {
  // The negated predicate (blocked) is untouched by the delta, so the
  // stratified maintenance stays exact.
  const std::string rules =
      "r(X,Y) :- edge(X,Y), !blocked(X). "
      "r(X,Z) :- edge(X,Y), r(Y,Z).";
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(10);
  facts["blocked"] = {Tuple({I(3)})};
  CheckMaintained(rules, facts, Inserts("edge", {Tuple({I(9), I(10)})}),
                  EvalOptions{});
}

TEST(IncrementalNegation, AffectedNegationFallsBackUnsupported) {
  const std::string rules =
      "r(X,Y) :- edge(X,Y), !blocked(X). "
      "r(X,Z) :- edge(X,Y), r(Y,Z).";
  Program p = ParseDatalog(rules);
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(6);
  facts["blocked"] = {Tuple({I(3)})};
  std::map<std::string, Relation> extents =
      FullEval(rules, facts, EvalOptions{});
  std::map<std::string, Relation> before = extents;

  EdbDelta delta = Inserts("blocked", {Tuple({I(4)})});
  DeltaResult result = EvaluateDelta(p, {}, delta, &extents, EvalOptions{});
  EXPECT_FALSE(result.supported);
  EXPECT_FALSE(result.unsupported_reason.empty());
  // Unsupported means untouched: the caller recomputes from scratch.
  for (const auto& [pred, extent] : before) {
    EXPECT_EQ(extents[pred].ToString(), extent.ToString());
  }
}

TEST(IncrementalIndex, PersistentCacheTakesAppendFastPath) {
  // A persistent IndexCache across successive insert-only maintenances
  // extends indexes in place (sort-suffix + merge) instead of rebuilding.
  Facts facts;
  facts["edge"] = benchutil::ChainGraph(12);
  Program p = ParseDatalog(kTcRules);
  EvalOptions options;
  std::map<std::string, Relation> extents = FullEval(kTcRules, facts, options);

  IndexCache cache;
  EvalStats stats;
  for (int step = 0; step < 3; ++step) {
    EdbDelta delta =
        Inserts("edge", {Tuple({I(12 + step), I(13 + step)})});
    facts = ApplyDelta(facts, delta);
    DeltaResult result = EvaluateDelta(p, BaseFactsFor(p, facts), delta,
                                       &extents, options, &stats, &cache);
    ASSERT_TRUE(result.supported) << result.unsupported_reason;
  }
  EXPECT_GT(stats.index_repairs, 0u);

  std::map<std::string, Relation> reference = FullEval(kTcRules, facts, options);
  for (const auto& [pred, extent] : reference) {
    EXPECT_EQ(extents[pred].ToString(), extent.ToString());
  }
}

TEST(IncrementalSweep, RandomUpdateStreamsMatchFromScratch) {
  // Randomized differential: random graphs, random interleaved
  // insert/delete steps, maintained extents checked against from-scratch
  // evaluation after every step, across thread counts.
  const char* programs[] = {
      kTcRules,
      // Nonlinear recursion exercises multiple delta occurrences per rule.
      "tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y), tc(Y,Z).",
      // Two mutable EDB predicates feeding one recursion.
      "r(X,Y) :- edge(X,Y). r(X,Y) :- extra(X,Y). "
      "r(X,Z) :- edge(X,Y), r(Y,Z).",
  };
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (const char* rules : programs) {
    for (int threads : {1, 2}) {
      Facts facts;
      facts["edge"] = benchutil::RandomGraph(16, 30, /*seed=*/5);
      EvalOptions options;
      options.num_threads = threads;
      Program p = ParseDatalog(rules);
      std::map<std::string, Relation> extents = FullEval(rules, facts, options);
      IndexCache cache;
      for (int step = 0; step < 12; ++step) {
        EdbDelta delta;
        const std::string pred =
            (std::string(rules).find("extra") != std::string::npos &&
             next() % 3 == 0)
                ? "extra"
                : "edge";
        if (next() % 2 == 0 || facts[pred].empty()) {
          int k = 1 + static_cast<int>(next() % 3);
          for (int j = 0; j < k; ++j) {
            Tuple t({I(static_cast<int64_t>(next() % 16)),
                     I(static_cast<int64_t>(next() % 16))});
            bool present = false;
            for (const Tuple& have : facts[pred]) present |= have == t;
            if (!present && !delta.inserts[pred].Contains(t)) {
              delta.inserts[pred].Insert(t);
            }
          }
        } else {
          size_t victim = next() % facts[pred].size();
          delta.deletes[pred].Insert(facts[pred][victim]);
        }
        Facts post = ApplyDelta(facts, delta);
        EvalStats stats;
        DeltaResult result = EvaluateDelta(p, BaseFactsFor(p, post), delta,
                                           &extents, options, &stats, &cache);
        ASSERT_TRUE(result.supported) << result.unsupported_reason;
        std::map<std::string, Relation> reference =
            FullEval(rules, post, options);
        for (const auto& [pred_name, extent] : reference) {
          ASSERT_EQ(extents[pred_name].ToString(), extent.ToString())
              << "step " << step << " diverges for " << pred_name
              << " (threads=" << threads << ")";
        }
        facts = std::move(post);
      }
    }
  }
}

}  // namespace
}  // namespace datalog
}  // namespace rel
