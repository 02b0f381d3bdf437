// Config-lattice runner for the equivalent-query fuzzer.
//
// One fuzz case is executed under every evaluation configuration the
// repository offers — the classical Datalog engine under each strategy,
// thread count and plan-order seed, plus the Rel engine through the to_rel
// translation bridge (direct interpretation, recursion lowering, a fresh
// Session snapshot, the rules as an ad-hoc query's own, and a bound point
// query of the goal) — and every
// answer is compared against a single oracle: the naive evaluator
// (Strategy::kNaive), the simplest code in the tree — no planner, no
// indexes, no deltas.
//
// Beyond answers, the runner cross-checks EvalStats between cost-equivalent
// configurations. The invariants it enforces follow from documented
// contracts (eval.h):
//
//   * across thread counts at a fixed plan seed, {tuples_derived,
//     index_builds, sorted_builds, index_probes, leapfrog_joins,
//     iterations} are exactly equal (parallel evaluation is
//     answer-and-count deterministic);
//   * across every planned (seed, threads) point, iterations and
//     tuples_derived are equal: the number of satisfying body assignments
//     is independent of join order, and the round structure is independent
//     of access paths;
//   * semi-naive never derives dramatically more than naive
//     (tuples_derived ratio bound). This one is a ratio check with slack,
//     not an equality.
//
// A violation of any of these — or any answer mismatch, or any
// configuration erroring while the oracle succeeds — is reported as a
// Discrepancy. Error semantics are compared too: when the oracle itself
// throws, every planned configuration must throw the same ErrorKind, with
// no exception. The oracle evaluates each rule body in its safety order, so
// like the planner it is independent of the order literals are written in.

#ifndef REL_FUZZ_RUNNER_H_
#define REL_FUZZ_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"

namespace rel {
namespace fuzz {

/// Lattice dials. The defaults run the full lattice; tests narrow them to
/// keep replay cheap where full coverage is pinned elsewhere.
struct RunnerOptions {
  /// Non-zero plan_order_seed values swept for the planned strategy (0, the
  /// production greedy order, is always run).
  std::vector<uint64_t> plan_seeds = {7, 0x9E3779B9};
  /// Thread counts swept for the planned strategy.
  std::vector<int> thread_counts = {1, 2, 4};
  /// Also push the case through the Rel engine (to_rel bridge, lowering,
  /// Session, bound point query).
  bool run_rel_paths = true;
  /// Cross-check EvalStats invariants between cost-equivalent configs.
  bool check_stats = true;
  /// Semi-naive must satisfy tuples_derived <= naive * ratio + slack,
  /// where the effective ratio is max(naive_ratio, k) for k the largest
  /// number of positive IDB atoms in any rule body: a rule with k
  /// recursive atoms runs k delta-variants per round, legitimately
  /// deriving an all-new assignment up to k times where naive derives it
  /// once (found by this fuzzer — see corpus stats_multi_recursive.dl).
  double naive_ratio = 1.25;
  uint64_t naive_slack = 64;
};

/// One disagreement between configurations.
struct Discrepancy {
  std::string config;  // label of the offending configuration
  std::string kind;    // "answer" | "error" | "stats"
  std::string detail;  // human-readable description of the mismatch
};

/// The outcome of running one case across the lattice.
struct RunResult {
  std::vector<Discrepancy> discrepancies;
  int configs_run = 0;
  /// Keyed reads the Rel paths answered with a seeded slice of a
  /// non-recursive predicate (LoweringStats::seeded_lookups, summed over
  /// every query the case ran).
  int seeded_lookups = 0;
  /// Readers the `rel/adhoc` configuration evaluated in one Datalog program
  /// with the components they read (LoweringStats::fused_readers, summed).
  int fused_readers = 0;
  bool ok() const { return discrepancies.empty(); }
};

/// Runs `c` under the full configuration lattice and cross-checks answers,
/// error kinds and stats. Never throws on engine errors (they become
/// Discrepancies or expected-error matches); only internal runner bugs
/// propagate.
RunResult RunCase(const FuzzCase& c, const RunnerOptions& options = {});

/// Multi-line human-readable report: the case header plus one line per
/// discrepancy. Empty string when the result is clean.
std::string FormatResult(const FuzzCase& c, const RunResult& result);

}  // namespace fuzz
}  // namespace rel

#endif  // REL_FUZZ_RUNNER_H_
