// Lowering Rel recursion onto the classical Datalog evaluator — the inverse
// of datalog/to_rel.h, and the "meet in the middle" step the ROADMAP's
// "Rel-engine recursion via the Datalog planner" item asked for.
//
// A component found by core/analysis qualifies for lowering when its
// fixpoint is expressible in the Datalog engine's fragment — classical
// stratified Datalog plus aggregate rule heads (datalog::Aggregate):
//
//   * monotone recursion (no replacement semantics;
//     ProgramAnalysis::UsesReplacement decides), OR a recursive component
//     whose only non-monotone internal edges flow through aggregation
//     inputs (ProgramAnalysis::AggregationRecursive — the semiring
//     semi-naive path), OR a non-recursive def that applies one of the
//     stdlib combinators min/max/sum/count
//     (ProgramAnalysis::UsesAggregation);
//   * no rule of any member has a []-head producing expression outputs,
//     and every head parameter is a variable or a literal;
//   * relation-variable parameters are allowed when the component is
//     recursive and lowered for one *instance* (the interpreter's
//     InstanceKey): every rule of every member takes the same number of
//     leading `{A}` parameters, and every member reference passes them
//     through unchanged and in order (`TC[E](z, y)` inside
//     `def TC({E}, x, y)`). Each parameter then reads an EDB predicate
//     (LoweredComponent::arg_preds) that the caller fills with the
//     instance's materialized relation argument, so stdlib `TC[E]` runs
//     as the same Datalog program as first-order closure rules. Any other
//     use of a parameter — an argument to another relation, or a member
//     applied to different relation arguments — rejects;
//   * every body is a conjunction (possibly under `exists`, and possibly
//     disjunctive: `or` bodies split into one Datalog rule per DNF branch,
//     up to 16 branches) of
//       - full applications of named relations over variables, literals and
//         wildcards (the member predicates themselves, or SCC-external
//         names whose extents are materialized as EDB facts),
//       - negated full applications of SCC-external names,
//       - comparisons (=, !=, <, <=, >, >=), positive or negated — a
//         negated comparison lowers to a kUnordered-faithful complement
//         (datalog::Literal::NegatedCompare), never to a flipped operator —
//         and arithmetic equalities (v = a + b, minimum/maximum and the
//         ternary builtin forms),
//       - `range(lo, hi, step, x)` generator applications (positive only),
//       - relation applications used as values (`A[i, k] * B[k, j]`), and
//       - `true` / `e where f` conjunctions;
//   * an aggregate def takes the head form
//     `def p(group..., r) : conjuncts and r = op[abstraction]` where `op`
//     is a canonical stdlib combinator, `r` is the final parameter and is
//     used nowhere else (a filter on the aggregate result has no
//     classical-fragment equivalent), and the abstraction's binders supply
//     the witness columns and aggregated value. A predicate must be all
//     aggregate rules or all plain rules — the engine refuses mixed
//     predicates (so a plain base def + aggregate recursive def pair does
//     NOT lower; write a single disjunctive aggregate def instead).
//
// Everything else — tuple variables, string builtins, partial
// applications, second-order externals, DNF overflow — rejects the
// component, and the interpreter falls back to its tuple-at-a-time
// fixpoint unchanged. So does every aggregate shape the engine's
// monotonicity qualification refuses (datalog/eval.cc CheckMonotoneRule
// and the emit-once guard for recursive sums). Rejection is always safe:
// lowering only changes how the extent is computed, never what it is.

#ifndef REL_CORE_LOWERING_H_
#define REL_CORE_LOWERING_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/ast.h"
#include "datalog/program.h"

namespace rel {

/// The Datalog translation of one recursive Rel component. `program` holds
/// the SCC's rules only; the caller supplies facts (the member predicates'
/// base tuples, the materialized extents of `externals`, and one relation
/// argument per `arg_preds` entry) before calling datalog::Evaluate.
struct LoweredComponent {
  datalog::Program program;
  /// The SCC's predicates (IDB), sorted.
  std::vector<std::string> members;
  /// SCC-external names referenced by the rules, whose extents must be
  /// provided as EDB facts. Sorted; disjoint from `members`.
  std::vector<std::string> externals;
  /// The EDB predicate standing for each relation parameter, by position.
  /// The names cannot collide with a Rel identifier. Empty for a
  /// first-order component.
  std::vector<std::string> arg_preds;
};

/// A rule set by name, then by leading relation-parameter count, each list
/// in definition order; integrity constraints are not in it. The
/// interpreter keeps one per transaction and lowers through it.
using DefIndex =
    std::map<std::string,
             std::map<size_t, std::vector<std::shared_ptr<Def>>>>;

/// Attempts to translate the recursive component containing `name` into a
/// Datalog program. `defs` indexes the full rule set the component lives
/// in; only the component's own rules are translated, and every other name
/// is one lookup. `relation_params` is the number of
/// leading relation parameters of the instance being lowered: every member
/// rule must take exactly that many, passed through unchanged (see the file
/// comment), and 0 means a first-order component. Returns nullopt when the
/// component does not qualify; `why`, when non-null, receives a one-line
/// reason for diagnostics and tests. The caller is responsible for checking
/// that the component is recursive and monotone (ProgramAnalysis::IsRecursive
/// / !UsesReplacement) — this function validates expressibility only.
std::optional<LoweredComponent> LowerComponent(
    const std::string& name, const ProgramAnalysis& analysis,
    const DefIndex& defs, std::string* why, size_t relation_params = 0);

/// The same over a plain rule vector (integrity constraints are ignored):
/// indexes `defs` once and delegates, so both forms give the same rules,
/// members, externals and `why`.
std::optional<LoweredComponent> LowerComponent(
    const std::string& name, const ProgramAnalysis& analysis,
    const std::vector<std::shared_ptr<Def>>& defs, std::string* why,
    size_t relation_params = 0);

}  // namespace rel

#endif  // REL_CORE_LOWERING_H_
