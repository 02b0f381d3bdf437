// Seeded random program generator for the equivalent-query fuzzer.
//
// Emits well-formed classical Datalog programs covering the lowered
// fragment — recursion (including mutual recursion), negation in stratified
// positions, stratified aggregation (min/max/sum/count heads with group-by),
// mixed arities, repeated variables, constants in atoms and
// comparisons, and optional point-query goals — plus random EDB extents
// built from benchutil/generators. Every program is constructed so that
// ALL evaluation configurations accept it:
//
//   * stratified by construction: each IDB predicate gets a level; positive
//     body atoms reference predicates at the same level or below (same
//     level = recursion), negative atoms reference strictly lower levels
//     or EDB predicates only;
//   * range-restricted: comparisons, negations and the head use only
//     variables some positive atom of the rule binds, and each body is
//     then shuffled — so every configuration must accept the rule whatever
//     order its literals are written in (the naive oracle's safety order
//     and the planner are both literal-order-independent);
//   * terminating everywhere: no arithmetic assignments (the one source of
//     value-generating divergence), all constants drawn from a small
//     integer domain.
//
// Generation is deterministic in the seed (SplitMix64 via base/rng.h): the
// same (seed, options) pair yields a byte-identical case on every platform,
// which is what makes the committed corpus replayable.

#ifndef REL_FUZZ_GENERATOR_H_
#define REL_FUZZ_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datalog/program.h"

namespace rel {
namespace fuzz {

/// Grammar dials. The defaults keep cases small enough that the full config
/// lattice runs in milliseconds while still reaching every production.
struct GeneratorOptions {
  int num_edb = 2;           // EDB predicates e0..e{n-1}
  int num_idb = 3;           // IDB predicates p0..p{n-1}
  int max_rules_per_idb = 2; // 1..max rules per IDB predicate
  int max_body_atoms = 3;    // 1..max positive atoms per rule body
  int max_arity = 3;         // predicate arities drawn from [1, max]
  int value_domain = 12;     // constants and EDB values in [0, domain)
  int edb_rows = 24;         // target rows per EDB predicate
  bool allow_negation = true;
  bool allow_comparisons = true;
  bool allow_constants = true;
  /// Allow aggregate rule heads (min/max/sum/count with group-by). Aggregate
  /// predicates are stratified like negation on both sides: their bodies
  /// read strictly lower levels (no recursion through the aggregate) and
  /// only strictly higher levels read their extents — so every
  /// configuration, including the Rel translation bridge, accepts the
  /// program without monotone-recursion analysis. An aggregate predicate
  /// may get several rules, whose contributions fold as one bucket per
  /// group, witness arities mixed.
  bool allow_aggregates = true;
  /// Probability that the case carries a DemandGoal (point query). The
  /// pattern itself may still come out all-free — that degenerate goal is
  /// a production of the grammar, not an accident.
  double goal_probability = 0.6;
};

/// One generated (or corpus-loaded) fuzz case.
struct FuzzCase {
  uint64_t seed = 0;
  datalog::Program program;
  /// Rule-head predicates, sorted — the extents every configuration must
  /// agree on.
  std::vector<std::string> idb_preds;
  /// Optional point-query goal; bound positions may name values outside
  /// every extent (the empty-answer edge case is deliberate).
  std::optional<datalog::DemandGoal> goal;
};

/// Generates the case for `seed`. Pure function of (seed, options).
FuzzCase GenerateCase(uint64_t seed, const GeneratorOptions& options = {});

/// Renders a case as classical Datalog text plus `% fuzz:` directive
/// comments (seed, goal) — the committed corpus format. Deterministic:
/// facts render in sorted order, rules in program order.
std::string CaseToText(const FuzzCase& c);

/// Parses CaseToText output (directives + ParseDatalog). Inverse of
/// CaseToText up to rule-variable naming; throws RelError(kParse) on
/// malformed directives or program text.
FuzzCase CaseFromText(const std::string& text);

}  // namespace fuzz
}  // namespace rel

#endif  // REL_FUZZ_GENERATOR_H_
