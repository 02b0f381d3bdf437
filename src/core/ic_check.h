// Integrity-constraint checking rules (Section 3.5): the violation rule of
// a constraint, and its specializations to a commit's delta.
//
// `ic name(params) requires F` holds iff the violation rule
// `$violations_name(params) : not F` is empty. Engine checks every
// constraint against the post-state of each commit. Once the pre-state has
// passed a full check, only violations that involve an inserted or deleted
// row can appear (Decker's method; PAPERS.md). So a commit re-evaluates the
// violation rule once per occurrence of a changed base relation, with that
// occurrence reading only the commit's delta rows:
//
//   * a *positive* occurrence (the atom holds in a violation) reads the
//     inserted rows in place of the relation;
//   * a *negative* occurrence (under `not`, or the conclusion of
//     `implies`) `not R(args)` becomes `$delta(args) and not R(args)` with
//     `$delta` the deleted rows: the atom was true before the commit and
//     is false after it.
//
// Every other atom reads the post-state. The union of these results is the
// whole violation set of the post-state, so the reported bindings do not
// change. Proof sketch: the violation rule is compiled (solver.cc,
// Compiler::CompileFormula) into a positive existential formula over
// literals; a binding violated after the commit but not before has a
// witness in which some literal is true after and false before, and every
// literal that reads no changed relation keeps its truth value. Every
// specialization only narrows one literal, so it never finds a binding the
// post-state does not violate.
//
// That argument needs each occurrence to be one such literal. An
// occurrence qualifies only where the solver compiles it as a top-level
// atom or negated atom: reached from the rule body through and/or/where,
// `not`, a positive `exists` or a negated `forall`, with no other
// reference to the relation anywhere in the constraint (as an argument,
// in an aggregate such as `count[R]`, in a domain, or under a negated
// quantifier). A relation with any other reference is not seedable; a
// commit that changes it checks the constraint in full.

#ifndef REL_CORE_IC_CHECK_H_
#define REL_CORE_IC_CHECK_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/ast.h"

namespace rel {

/// The synthetic rule whose solutions are the violating bindings of
/// `ic name(params) requires F`: the parameter bindings for which F fails
/// (with no parameters the constraint is simply the truth of F).
std::shared_ptr<Def> ViolationRule(const Def& ic);

/// A constraint's violation rule, specialized once per qualifying
/// occurrence of a relation (see the header comment). Built once per
/// constraint and reused by every commit.
struct IcDeltaPlan {
  struct Occurrence {
    std::string relation;
    /// True: a positive occurrence, read from the inserted rows. False: a
    /// negative one, seeded from the deleted rows.
    bool inserted = true;
    /// `$violations_<ic>` with a leading relation parameter that holds the
    /// delta rows (Def::seeds_first is set).
    std::shared_ptr<Def> rule;
  };

  /// The constraint the plan belongs to (kept alive: plans are keyed by
  /// its address).
  std::shared_ptr<Def> ic;
  /// The names the constraint reads directly
  /// (ProgramAnalysis::DefReferences).
  std::set<std::string> roots;
  /// Roots whose every reference is a qualifying occurrence. A commit that
  /// changes a seedable relation without rules checks only the
  /// occurrences; any other changed name in the read closure forces the
  /// full check.
  std::set<std::string> seedable;
  /// The occurrences of the seedable relations, in body order.
  std::vector<Occurrence> occurrences;
};

/// Builds the plan of a constraint. `analysis` supplies its read roots.
std::shared_ptr<const IcDeltaPlan> PlanIcDelta(
    const std::shared_ptr<Def>& ic, const ProgramAnalysis& analysis);

}  // namespace rel

#endif  // REL_CORE_IC_CHECK_H_
