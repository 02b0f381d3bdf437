// Regression and property tests for the equivalent-query fuzzer (src/fuzz).
//
// Three layers:
//   * corpus replay — every committed reproducer in tests/fuzz/corpus/ (the
//     minimized output of past fuzzer findings) must run discrepancy-free
//     across the full configuration lattice, deterministically: fixed
//     seeds, no time or ambient randomness anywhere in the pipeline;
//   * generator properties — determinism, corpus-format round-tripping,
//     and grammar coverage (recursion, negation, goals, empty extents all
//     actually occur at the default dials);
//   * a fresh differential sweep at pinned seeds — a bounded slice of what
//     examples/fuzz.cpp runs at scale, so every CI configuration (ASan,
//     TSan with REL_EVAL_THREADS, plain) differential-tests the engines on
//     every run.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/runner.h"
#include "fuzz/update_stream.h"

namespace rel {
namespace fuzz {
namespace {

#ifndef REL_FUZZ_CORPUS_DIR
#error "REL_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus (see CMakeLists)"
#endif

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(REL_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".dl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FuzzCorpus, EveryReproducerReplaysClean) {
  std::vector<std::filesystem::path> files = CorpusFiles();
  ASSERT_FALSE(files.empty()) << "corpus directory is empty: "
                              << REL_FUZZ_CORPUS_DIR;
  for (const auto& path : files) {
    FuzzCase c = CaseFromText(ReadFile(path));
    RunResult result = RunCase(c);
    EXPECT_TRUE(result.ok())
        << path.filename() << " regressed:\n" << FormatResult(c, result);
    EXPECT_GT(result.configs_run, 1) << path.filename();
  }
}

TEST(FuzzCorpus, FilterBeforeBindingAtomRunsTheFullLattice) {
  // The oracle accepts a rule whose filter precedes its binding atom, so
  // the case runs every configuration: the oracle, nine planned points and
  // four Rel paths (no goal, so no rel/point).
  FuzzCase c = CaseFromText(ReadFile(std::filesystem::path(
      REL_FUZZ_CORPUS_DIR) / "scan_order_safety.dl"));
  RunResult result = RunCase(c);
  EXPECT_TRUE(result.ok()) << FormatResult(c, result);
  EXPECT_EQ(result.configs_run, 14);
}

TEST(FuzzCorpus, NonRecursiveGoalReadsASeededSlice) {
  // Keyed reads of the non-recursive p1 (the point-query goal and p2's body
  // atoms with a constant) evaluate seeded slices on the Rel paths.
  FuzzCase c = CaseFromText(ReadFile(std::filesystem::path(
      REL_FUZZ_CORPUS_DIR) / "seeded_point_lookup.dl"));
  RunResult result = RunCase(c);
  EXPECT_TRUE(result.ok()) << FormatResult(c, result);
  EXPECT_GT(result.seeded_lookups, 0);
}

TEST(FuzzCorpus, AllBoundGoalRunsABooleanRead) {
  // Every position of the goal is bound, so rel/point is a boolean read:
  // the fifteenth configuration, for a tuple in the extent and for one
  // that is not.
  FuzzCase c = CaseFromText(ReadFile(std::filesystem::path(
      REL_FUZZ_CORPUS_DIR) / "all_bound_goal.dl"));
  ASSERT_TRUE(c.goal.has_value());
  RunResult present = RunCase(c);
  EXPECT_TRUE(present.ok()) << FormatResult(c, present);
  EXPECT_EQ(present.configs_run, 15);

  c.goal->pattern = {Value::Int(3), Value::Int(1)};
  RunResult absent = RunCase(c);
  EXPECT_TRUE(absent.ok()) << FormatResult(c, absent);
  EXPECT_EQ(absent.configs_run, 15);
}

TEST(FuzzCorpus, ReplayIsDeterministic) {
  for (const auto& path : CorpusFiles()) {
    FuzzCase c = CaseFromText(ReadFile(path));
    // Loading, re-rendering and re-loading is the identity on the rendered
    // form — the corpus format carries everything the runner consumes.
    FuzzCase again = CaseFromText(CaseToText(c));
    EXPECT_EQ(CaseToText(c), CaseToText(again)) << path.filename();
    EXPECT_EQ(c.seed, again.seed);
    EXPECT_EQ(c.idb_preds, again.idb_preds);
  }
}

TEST(FuzzGenerator, DeterministicInSeed) {
  for (uint64_t seed : {0u, 1u, 42u, 999u}) {
    FuzzCase a = GenerateCase(seed);
    FuzzCase b = GenerateCase(seed);
    EXPECT_EQ(CaseToText(a), CaseToText(b)) << "seed " << seed;
  }
  EXPECT_NE(CaseToText(GenerateCase(1)), CaseToText(GenerateCase(2)));
}

TEST(FuzzGenerator, TextRoundTripPreservesTheCase) {
  for (uint64_t seed = 100; seed < 140; ++seed) {
    FuzzCase c = GenerateCase(seed);
    FuzzCase back = CaseFromText(CaseToText(c));
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.idb_preds, c.idb_preds);
    EXPECT_EQ(back.goal.has_value(), c.goal.has_value());
    if (c.goal && back.goal) {
      EXPECT_EQ(back.goal->pred, c.goal->pred);
      EXPECT_EQ(back.goal->pattern.size(), c.goal->pattern.size());
    }
    EXPECT_EQ(back.program.rules().size(), c.program.rules().size());
    // Facts survive exactly (sorted rendering both ways).
    EXPECT_EQ(back.program.facts(), c.program.facts()) << "seed " << seed;
    // The round trip is the identity up to rule-variable renumbering
    // (ParseDatalog assigns ids in first-occurrence order), so one
    // normalizing round trip reaches a byte-stable fixpoint.
    FuzzCase back2 = CaseFromText(CaseToText(back));
    EXPECT_EQ(CaseToText(back2), CaseToText(back)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, GrammarCoverageAtDefaultDials) {
  int with_goal = 0, with_all_free_goal = 0, with_edb_goal = 0;
  int with_negation = 0, with_recursion = 0, with_empty_edb = 0;
  int with_aggregate = 0;
  bool agg_ops_seen[4] = {false, false, false, false};
  const int kSeeds = 300;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    FuzzCase c = GenerateCase(seed);
    if (c.program.HasAggregates()) ++with_aggregate;
    for (const auto& rule : c.program.rules()) {
      if (rule.agg) agg_ops_seen[static_cast<int>(rule.agg->op)] = true;
    }
    if (c.goal) {
      ++with_goal;
      if (!c.goal->AnyBound()) ++with_all_free_goal;
      if (!std::binary_search(c.idb_preds.begin(), c.idb_preds.end(),
                              c.goal->pred)) {
        ++with_edb_goal;
      }
    }
    bool neg = false, rec = false;
    for (const auto& rule : c.program.rules()) {
      for (const auto& lit : rule.body) {
        using Kind = datalog::Literal::Kind;
        if (lit.kind == Kind::kNegative) neg = true;
        if (lit.kind == Kind::kPositive &&
            std::binary_search(c.idb_preds.begin(), c.idb_preds.end(),
                               lit.atom.pred)) {
          rec = true;  // IDB-referencing body: recursion or layering
        }
      }
    }
    if (neg) ++with_negation;
    if (rec) ++with_recursion;
    // An EDB predicate whose extent came out empty is simply absent from
    // facts(); the default dials declare two EDB predicates.
    if (c.program.facts().size() < 2) ++with_empty_edb;
  }
  // The exact fractions are seed-dependent; what matters is that every
  // production of the grammar is reachable and common.
  EXPECT_GT(with_goal, kSeeds / 3);
  EXPECT_GT(with_all_free_goal, 0);
  EXPECT_GT(with_edb_goal, 0);
  EXPECT_GT(with_negation, kSeeds / 4);
  EXPECT_GT(with_recursion, kSeeds / 4);
  EXPECT_GT(with_empty_edb, 0);
  EXPECT_GT(with_aggregate, kSeeds / 4);
  for (int op = 0; op < 4; ++op) {
    EXPECT_TRUE(agg_ops_seen[op]) << "aggregate op " << op << " never drawn";
  }
}

TEST(FuzzMinimize, PassingCaseIsReturnedUnchanged) {
  FuzzCase c = GenerateCase(42);
  ASSERT_TRUE(RunCase(c).ok());
  FuzzCase m = Minimize(c);
  EXPECT_EQ(CaseToText(m), CaseToText(c));
}

// The bounded fresh sweep: 25 pinned seeds through the full lattice. The
// CLI (examples/fuzz.cpp) runs thousands; this slice keeps every CI
// configuration honest without dominating suite time.
TEST(FuzzSweep, PinnedSeedsAreDiscrepancyFree) {
  for (uint64_t seed = 42; seed < 67; ++seed) {
    FuzzCase c = GenerateCase(seed);
    RunResult result = RunCase(c);
    EXPECT_TRUE(result.ok()) << FormatResult(c, result);
  }
}

// --- update streams (the incremental-maintenance differential arm) ---

TEST(FuzzUpdateStream, DeterministicInSeedAndTextRoundTrips) {
  for (uint64_t seed : {0u, 7u, 42u, 321u}) {
    UpdateStream a = GenerateUpdateStream(seed);
    UpdateStream b = GenerateUpdateStream(seed);
    EXPECT_EQ(StreamToText(a), StreamToText(b)) << "seed " << seed;
    // The corpus format carries everything the runner consumes: one
    // normalizing round trip reaches a byte-stable fixpoint (rule-variable
    // renumbering, as for plain cases), and the steps survive exactly.
    UpdateStream back = StreamFromText(StreamToText(a));
    EXPECT_EQ(StreamToText(StreamFromText(StreamToText(back))),
              StreamToText(back))
        << "seed " << seed;
    ASSERT_EQ(back.steps.size(), a.steps.size()) << "seed " << seed;
    for (size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(back.steps[i].is_insert, a.steps[i].is_insert);
      EXPECT_EQ(back.steps[i].pred, a.steps[i].pred);
      EXPECT_EQ(back.steps[i].tuple, a.steps[i].tuple);
    }
  }
}

// Pinned update-stream seeds through the full lattice: the incremental arm
// (EvaluateDelta + DRed with a persistent IndexCache) against the
// recompute oracle after every step. The CLI (examples/fuzz.cpp
// --updates) runs hundreds; this slice keeps every CI configuration —
// including TSan with REL_EVAL_THREADS — honest on every run, and asserts
// the delta path is actually exercised (not all-fallback).
TEST(FuzzUpdateStream, PinnedStreamsAreDiscrepancyFree) {
  // Aggregates are excluded here: EvaluateDelta refuses aggregate-bearing
  // programs (every step would take the recompute fallback), and this test
  // asserts the delta path itself is exercised. The aggregate → fallback
  // arm is pinned separately below.
  StreamOptions opts;
  opts.generator.allow_aggregates = false;
  uint64_t incremental = 0, fallback = 0;
  for (uint64_t seed = 42; seed < 54; ++seed) {
    UpdateStream s = GenerateUpdateStream(seed, opts);
    RunResult result = RunUpdateStream(s, {}, &incremental, &fallback);
    EXPECT_TRUE(result.ok()) << FormatStreamResult(s, result);
  }
  EXPECT_GT(incremental, 0u) << "no stream step took the EvaluateDelta path";
}

// Streams over aggregate-bearing programs: EvaluateDelta must refuse every
// step (supported=false, never a wrong answer or a throw), and the
// recompute fallback must keep all arms byte-identical to the oracle.
TEST(FuzzUpdateStream, AggregateStreamsFallBackCleanly) {
  uint64_t incremental = 0, fallback = 0;
  int aggregate_streams = 0;
  for (uint64_t seed = 42; seed < 50; ++seed) {
    UpdateStream s = GenerateUpdateStream(seed);
    if (!s.base.program.HasAggregates()) continue;
    ++aggregate_streams;
    RunResult result = RunUpdateStream(s, {}, &incremental, &fallback);
    EXPECT_TRUE(result.ok()) << FormatStreamResult(s, result);
  }
  ASSERT_GT(aggregate_streams, 0) << "no pinned seed drew an aggregate";
  EXPECT_EQ(incremental, 0u)
      << "EvaluateDelta maintained an aggregate program";
  EXPECT_GT(fallback, 0u);
}

// A second profile with different dials (tiny dense domain, no
// comparisons) — the shape that historically surfaced the
// multi-recursive-occurrence stats anomaly.
TEST(FuzzSweep, DenseRecursiveProfileIsDiscrepancyFree) {
  GeneratorOptions lean;
  lean.num_edb = 1;
  lean.num_idb = 4;
  lean.max_arity = 2;
  lean.value_domain = 5;
  lean.edb_rows = 14;
  lean.allow_comparisons = false;
  for (uint64_t seed = 500; seed < 515; ++seed) {
    FuzzCase c = GenerateCase(seed, lean);
    RunResult result = RunCase(c);
    EXPECT_TRUE(result.ok()) << FormatResult(c, result);
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace rel
