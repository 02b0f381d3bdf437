// Magic-set demand transformation: rewrite a Datalog program so that its
// fixpoint derives only the cone of tuples relevant to one query goal,
// instead of the full closure of every predicate.
//
// Given a goal atom with a binding pattern — say `tc(0, Y)`, i.e. predicate
// `tc` adorned `bf` (first position bound, second free) — the transform
// produces, for every (predicate, adornment) pair reachable from the goal:
//
//   * a *magic predicate* `m@p@a` holding the bound-position values the
//     evaluation actually demands of `p` under adornment `a` (seeded with
//     the goal's constants),
//   * *adorned rule* variants `p@a(...) :- m@p@a(bound...), body...` — the
//     original rules guarded by the magic predicate, so a rule only fires
//     for demanded bindings, and
//   * *magic rules* that propagate demand sideways: for each IDB atom
//     occurrence in a rule body, the bindings available at that point (the
//     enclosing magic guard plus the prefix of the body already evaluated)
//     derive the magic facts of that atom's adornment.
//
// Adornments are computed by a left-to-right sideways-information-passing
// walk: a position is bound when it is a constant or a variable bound by
// the head's bound positions, an earlier positive atom, or an earlier
// arithmetic assignment whose operands are bound. (Equality filters are
// conservatively not treated as binding — fewer bound positions only widen
// the demanded cone, never break it.)
//
// The rewrite is always *sound and complete for the goal*: the transformed
// program's goal extent, restricted to the goal's bound constants, equals
// the goal-filtered full fixpoint — pinned by tests/datalog/magic_test.cc
// across strategies and thread counts. Fragments the transform does not
// chase are evaluated from their ORIGINAL rules instead of being adorned
// (correct, merely un-pruned):
//
//   * predicates referenced under negation (and, transitively, everything
//     their rules depend on) — negation needs the complete extent, and
//     keeping these un-adorned also keeps the transformed program
//     stratified whenever the source program is;
//   * predicates demanded with an all-free adornment at some occurrence —
//     full demand is full evaluation.
//
// An all-free goal (no bound position) degenerates to the identity: the
// original program evaluates unchanged. The driver is
// EvalOptions::demand_goal in datalog/eval.h. No Rel engine path calls it:
// a bound read of a recursive component takes the full, cached extent. The
// equivalent-query fuzzer (src/fuzz), tests/datalog/magic_test.cc and
// bench/bench_magic.cc exercise it.

#ifndef REL_DATALOG_MAGIC_H_
#define REL_DATALOG_MAGIC_H_

#include <string>
#include <vector>

#include "datalog/program.h"

namespace rel {
namespace datalog {

/// True for the name of a magic predicate (`m@p@a`).
inline bool IsMagicPred(const std::string& pred) {
  return pred.size() > 2 && pred[0] == 'm' && pred[1] == '@';
}

/// The result of MagicTransform.
struct MagicProgram {
  /// The rewritten program. Empty when !transformed — evaluate the
  /// original program instead (the identity rewrite is not materialized,
  /// so an all-free goal never pays an EDB copy).
  Program program;
  /// The predicate whose extent holds the goal's answers: the goal's
  /// adorned name when transformed, the original name otherwise. Restrict
  /// it to the goal's bound constants (FilterByPattern) to get exactly the
  /// goal-filtered fixpoint.
  std::string goal_pred;
  /// False when the rewrite degenerated to the identity (all-free goal,
  /// goal predicate without rules, or goal inside the kept-original set).
  bool transformed = false;
  /// Rules specialized to an adornment, including the fact-copy rules that
  /// splice a predicate's EDB facts into its adorned extent.
  int adorned_rules = 0;
  /// Demand-propagation rules deriving magic predicates.
  int magic_rules = 0;
  /// Every magic predicate name (for EvalStats::magic_facts accounting).
  std::vector<std::string> magic_preds;
};

/// Rewrites `program` for `goal`. Pure function of its inputs; the returned
/// program shares no state with the input. The goal's pattern length fixes
/// the goal arity — rules of other arities for the same predicate cannot
/// produce goal answers and are not chased.
MagicProgram MagicTransform(const Program& program, const DemandGoal& goal);

/// The tuples of `extent` with the pattern's arity whose bound positions
/// equal the pattern's constants (type-exact Value equality — the same
/// matching the evaluator's constant-probe path uses).
Relation FilterByPattern(const Relation& extent,
                         const std::vector<std::optional<Value>>& pattern);

/// The adorned / magic predicate names the transform generates. Exposed so
/// tests and stats can recognize them; '@' cannot occur in source-level
/// predicate names, so the namespaces never collide.
std::string AdornedName(const std::string& pred, const std::string& adornment);
std::string MagicName(const std::string& pred, const std::string& adornment);

}  // namespace datalog
}  // namespace rel

#endif  // REL_DATALOG_MAGIC_H_
