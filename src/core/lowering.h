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
//
// Reader–producer fusion (LowerReader, MergeProducer) lowers one more
// shape: a non-recursive first-order def that reads such components — a
// query's `output(y) : reach(y)`, a transaction's `insert` — together with
// the components it reads directly, as one program, so the reader's rows
// come out of the same evaluation as its inputs instead of a second pass
// through the solver. The reader's body must fit the fragment above; in
// it, an application of a relation-parameter def to global relation names
// (`TC[E2](p, y)`) is an *instance site* that reads a predicate of its own.
// The interpreter (Interp::TryFuseReader) decides which producers join the
// program. Out of scope: producers the extent cache can serve (they stay
// EDB, copied out of the cache), readers nested below the reader (each
// fuses on its own, if at all), reading EDB relations by handle instead of
// copying them into the program, and an inline Value::Compare for the
// joins the fused program runs.

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

  /// One application `name[args...](...)` of a relation-parameter def in a
  /// reader lowered by LowerReader, in the order met. Every site reads its
  /// own predicate, InstancePred(name, site index), which is never in
  /// `externals`: the caller either fuses the instance's component under
  /// that name (MergeProducer) or loads its extent there as EDB.
  struct InstanceSite {
    std::string name;
    /// The relation arguments: identifiers naming global relations, the
    /// exact AST nodes the solver resolves for this application.
    std::vector<ExprPtr> args;
    std::string pred;
  };
  std::vector<InstanceSite> instances;
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

/// Lowers the non-recursive first-order def `name` as the reader of a fused
/// program: the same translation as LowerComponent(name, ..., 0), except
/// that applications of relation-parameter defs to global relation names
/// become instance sites (LoweredComponent::instances) instead of
/// rejecting. Returns nullopt when the reader does not lower; no reason is
/// kept, since a reader that does not fuse is evaluated exactly as before.
std::optional<LoweredComponent> LowerReader(const std::string& name,
                                            const ProgramAnalysis& analysis,
                                            const DefIndex& defs);

/// The predicate instance site `site` of a fused program reads for the
/// relation `pred` — also the name `pred` takes in a producer merged for
/// that site. Brackets cannot occur in a Rel identifier, so it collides with
/// no relation name.
std::string InstancePred(const std::string& pred, size_t site);

/// Appends `producer`'s rules to `into`, the program of a fused read. With
/// a `site` (a relation-argument instance) every member and argument
/// predicate is first renamed InstancePred(pred, *site), so the reader's
/// site atom reads the instance's member, and two instances' argument
/// predicates stay apart; externals keep their names (a global relation is
/// the same EDB for every reader). The caller loads the EDB under the same
/// names.
void MergeProducer(const LoweredComponent& producer,
                   std::optional<size_t> site, datalog::Program* into);

}  // namespace rel

#endif  // REL_CORE_LOWERING_H_
