// The constraint solver: Rel's evaluation core.
//
// A rule body (or any expression) is compiled into a set of constraints plus
// a list of output terms. Solving enumerates all variable bindings that
// satisfy the constraints, choosing, at each step, a constraint that is
// *ready* under the current bindings:
//   - a finite atom can always enumerate;
//   - a builtin atom is ready when its binding pattern is supported
//     (Section 3.2's safety rules for infinite relations);
//   - negation, aggregation and second-order arguments are ready when their
//     free variables are bound.
// If no remaining constraint is ready the expression is unsafe and a
// kSafety error is raised — this realizes the paper's conservative safety
// analysis. Unsafe *sub*expressions are fine: a deferred (closure) relation
// argument is inlined at its use site with the use-site bindings, which is
// how `AdditiveInverse` intersected with a finite relation evaluates.

#ifndef REL_CORE_SOLVER_H_
#define REL_CORE_SOLVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ast.h"
#include "core/builtins.h"
#include "data/relation.h"

namespace rel {

class Interp;
struct Env;

/// A second-order value: what a relation variable `{A}` is bound to, and
/// what second-order arguments evaluate to. Exactly one representation is
/// active:
///   - a materialized (finite) relation,
///   - a builtin (infinite) relation,
///   - a deferred closure: an expression with its captured environment,
///     materialized lazily, or inlined at use sites if materialization is
///     unsafe (the paper's "unsafe subexpressions are allowed" rule).
struct SOValue {
  std::shared_ptr<const Relation> rel;
  const Builtin* builtin = nullptr;
  ExprPtr expr;
  std::shared_ptr<const Env> env;

  static SOValue Materialized(Relation r);
  static SOValue ForBuiltin(const Builtin* b);
  static SOValue Closure(ExprPtr e, std::shared_ptr<const Env> env);

  bool IsMaterialized() const { return rel != nullptr; }
  bool IsBuiltin() const { return builtin != nullptr; }
  bool IsClosure() const { return expr != nullptr; }

  bool operator==(const SOValue& other) const;
  size_t Hash() const;
};

/// A runtime environment: first-order variables, tuple variables and
/// relation variables. Used both for captured closures and as the seed
/// environment of a solve.
struct Env {
  std::map<std::string, Value> vars;
  std::map<std::string, Tuple> tuples;
  std::map<std::string, SOValue> rels;

  bool Has(const std::string& name) const {
    return vars.count(name) || tuples.count(name) || rels.count(name);
  }
  bool operator==(const Env& other) const;
  size_t Hash() const;
};

/// A pre-bound position of the head tuple a rule evaluation must produce.
/// Two callers pre-bind: use-site inlining of a definition that is unsafe
/// standalone (every bound call-site argument — parameters and, for
/// square-headed rules, trailing body outputs), and the keyed read of a
/// non-recursive definition (Interp::EvalSlice; parameters only,
/// as SeedKind allows). At most one of the fields is set (value for
/// ordinary positions, tuple for tuple-variable parameters); both empty
/// means "unbound".
struct Seed {
  std::optional<Value> value;
  std::optional<Tuple> tuple;
};

/// Which bound values a keyed read may pre-bind into one first-order
/// parameter of a rule without changing the rule's answers or its safety.
/// A parameter seeds only when a finite relation atom at the top level of
/// the body binds it (so seeding never makes an unsafe rule safe). A number
/// additionally needs every literal that could bind the parameter to be
/// such an atom: `=`, arithmetic and `range` compare Int and Float
/// numerically, while atom matching is kind-strict, so seeding 2.0 where
/// `x = 2` binds would admit a row the full extent does not hold.
enum class SeedKind : uint8_t {
  kNever,       // do not pre-bind this position
  kNonNumeric,  // strings and entities only
  kAny,         // any value (also a head literal: a mismatch skips the rule)
};

/// SeedKind per first-order parameter of one rule, and whether every
/// parameter variable has a finite binder (Interp::FiniteStandalone).
struct ParamSeeding {
  std::vector<SeedKind> kinds;
  bool range_restricted = true;
};

/// The solver. Stateless apart from its link to the interpreter (which owns
/// definitions, instances, and memo tables); cheap to construct.
class Solver {
 public:
  explicit Solver(Interp* interp) : interp_(interp) {}

  /// Evaluates `expr` to the relation it denotes under `env`.
  /// Throws kSafety if the result would be infinite.
  Relation EvalExpr(const ExprPtr& expr, const Env& env);

  /// True iff the formula holds under `env` (early exit on first witness).
  bool EvalFormula(const ExprPtr& formula, const Env& env);

  /// Evaluates one rule under second-order arguments `so_args` (bound to the
  /// rule's leading {A} parameters, in order). Returns the head tuples
  /// (first-order parameter values concatenated with body outputs).
  ///
  /// `seeds`, when non-null, pre-binds head positions: seeds->at(i) aligns
  /// with the i-th first-order parameter, then (square-headed rules) with
  /// the body outputs, and may be empty (unbound). A seed that disagrees
  /// with a literal parameter yields no tuples.
  Relation EvalRule(const Def& def, const std::vector<SOValue>& so_args,
                    const std::vector<Seed>* seeds);

  /// How a keyed read may seed each first-order parameter of `def`, a rule
  /// without relation parameters. Conservative on anything it cannot
  /// classify: a rule that fails to compile seeds nothing.
  ParamSeeding AnalyzeParams(const Def& def);

  /// Number of second-order (leading {A}) parameters of `def`.
  static size_t CountSOParams(const Def& def);

 private:
  Interp* interp_;
};

}  // namespace rel

#endif  // REL_CORE_SOLVER_H_
