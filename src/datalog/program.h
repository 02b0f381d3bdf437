// A classical fixed-arity Datalog engine: the baseline the paper's language
// generalizes (Section 3.1 "Datalog as a starting point", and the lineage of
// Soufflé / LogicBlox cited in Section 7).
//
// Compared to the Rel engine in src/core, this engine is deliberately
// conventional: positional predicates with fixed arity, stratified negation,
// set-at-a-time semi-naive evaluation with hash-join indexes. It exists (a)
// as the performance baseline for the benchmarks and (b) as a reference
// implementation for differential testing of the Rel engine's recursion.

#ifndef REL_DATALOG_PROGRAM_H_
#define REL_DATALOG_PROGRAM_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "data/value.h"

#include "data/relation.h"

namespace rel {
namespace datalog {

/// A term: a variable (non-negative id, scoped to one rule) or a constant.
struct Term {
  static Term Var(int id) {
    Term t;
    t.var = id;
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.constant = v;
    return t;
  }
  bool is_var() const { return var >= 0; }

  int var = -1;
  Value constant;
};

/// A predicate applied to terms.
struct Atom {
  std::string pred;
  std::vector<Term> terms;
};

/// Comparison operators for filter literals.
enum class CmpOp { kEq, kNeq, kLt, kLe, kGt, kGe };

/// Arithmetic for assignment literals: target := f(a, b).
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod, kMin, kMax };

/// One body literal.
struct Literal {
  enum class Kind { kPositive, kNegative, kCompare, kAssign, kRange };

  static Literal Positive(Atom a);
  static Literal Negative(Atom a);
  /// Generator literal mirroring the Rel `range` builtin (core/builtins.cc):
  /// x = lo, lo+step, ..., <= hi (inclusive) for bound integer bounds with
  /// step > 0; when x is already bound it is a membership test. Non-integer
  /// bounds or step <= 0 produce no rows — same as the builtin, no error.
  /// lo/hi/step must be bound before the literal evaluates (kSafety
  /// otherwise); the four terms live in atom.terms, atom.pred is "range".
  /// This is what the Rel lowering emits for `range(lo, hi, step, x)`
  /// applications, and what ParseDatalog builds for a positive `range/4`
  /// atom ("range" is reserved).
  static Literal Range(Term lo, Term hi, Term step, Term x);
  static Literal Compare(CmpOp op, Term lhs, Term rhs);
  /// The complement of Compare(op, lhs, rhs): holds exactly when that
  /// comparison does NOT. This is not expressible by flipping `op` —
  /// NumericCompare can return kUnordered (mixed types, NaN), where every
  /// plain comparison is false and every negated one is therefore true.
  /// E.g. NegatedCompare(kLt, "a", 1) holds while Compare(kGe, "a", 1)
  /// does not. The Rel lowering uses this to translate `not (a < b)`
  /// faithfully (see core/lowering.cc).
  static Literal NegatedCompare(CmpOp op, Term lhs, Term rhs);
  /// target must be a fresh variable; a and b must be bound earlier.
  static Literal Assign(int target_var, ArithOp op, Term a, Term b);

  Kind kind = Kind::kPositive;
  Atom atom;             // kPositive / kNegative
  CmpOp cmp_op = CmpOp::kEq;
  bool negated = false;  // kCompare: complement the comparison's outcome
  Term lhs, rhs;         // kCompare
  int target = -1;       // kAssign
  ArithOp arith_op = ArithOp::kAdd;
};

/// Aggregate operators for aggregate rule heads.
enum class AggOp { kMin, kMax, kSum, kCount };

/// The aggregate part of an aggregate rule head. The rule's visible extent
/// has arity head.terms.size() + 1: one row (group..., result) per group of
/// bindings of the head terms, where result folds the group's contribution
/// bucket. Each body match contributes the row (witness..., value) to its
/// group's bucket; buckets are sets, mirroring Rel's set semantics, and the
/// fold runs over the bucket in sorted (arity, then lexicographic) order
/// exactly like the Rel interpreter's `reduce` (so sum never double-counts a
/// deduplicated row, and min/max ties keep the first sorted operand).
struct Aggregate {
  AggOp op = AggOp::kMin;
  /// The aggregated value (ignored for kCount, whose contributions are
  /// (witness..., 1) — count = sum of ones = distinct witness rows).
  Term value;
  /// Extra columns distinguishing contributions within a group (the
  /// abstraction binders of the Rel form, minus the group columns).
  std::vector<Term> witness;
};

/// head :- body. Range restriction (every head/negated/compared variable
/// bound by a positive literal or assignment) is validated by the evaluator.
/// When `agg` is set, head.terms are the GROUP columns only and the extent
/// carries one extra result column (see Aggregate).
struct Rule {
  Atom head;
  std::vector<Literal> body;
  std::optional<Aggregate> agg;
};

/// A point-query goal: the atoms of `pred` whose bound positions carry the
/// given constants (e.g. tc(0, Y) is {pred: "tc", pattern: {0, nullopt}}).
/// The pattern's length fixes the goal arity. The equivalent-query fuzzer
/// (src/fuzz) carries one per case: its `rel/point` configuration asks the
/// Rel engine the bound query, the minimizers keep it while shrinking, and
/// the corpus format writes it as a `% fuzz-goal:` line.
struct DemandGoal {
  std::string pred;
  std::vector<std::optional<Value>> pattern;

  /// True iff at least one position is bound.
  bool AnyBound() const {
    for (const auto& p : pattern) {
      if (p.has_value()) return true;
    }
    return false;
  }
};

/// The tuples of `extent` with the pattern's arity whose bound positions
/// equal the pattern's constants (type-exact Value equality — the same
/// matching the evaluator's constant-probe path uses). This is the
/// goal-filtered oracle the fuzz runner and tests compare point queries to.
Relation FilterByPattern(const Relation& extent,
                         const std::vector<std::optional<Value>>& pattern);

/// A Datalog program: facts (EDB) plus rules (IDB).
class Program {
 public:
  void AddFact(const std::string& pred, Tuple t);
  /// Bulk EDB load: merges a whole relation into `pred`'s facts without
  /// materializing per-tuple copies. Into a predicate with no facts yet it
  /// copies `rel` whole, one arena per arity; otherwise it inserts row by
  /// row (columnar InsertAll). This is how the Rel engine's lowering pass
  /// (src/core/lowering.h) feeds base relations and materialized external
  /// extents into a program.
  void AddFacts(const std::string& pred, const Relation& rel);
  void AddRule(Rule rule);

  const std::map<std::string, Relation>& facts() const { return facts_; }
  /// Moves the facts out, leaving the program with its rules only.
  std::map<std::string, Relation> TakeFacts();
  const std::vector<Rule>& rules() const { return rules_; }

  /// All predicate names (EDB and IDB).
  std::vector<std::string> Predicates() const;

  /// True iff some rule carries an aggregate head. Gates the path that does
  /// not support aggregation (incremental maintenance).
  bool HasAggregates() const;

 private:
  std::map<std::string, Relation> facts_;
  std::vector<Rule> rules_;
};

/// A tiny parser for classical Datalog text, used by tests and benches:
///   tc(X, Y) :- edge(X, Y).
///   tc(X, Z) :- edge(X, Y), tc(Y, Z).
///   path(X, Y, D1) :- edge(X, Y), D1 = 1.
/// Uppercase identifiers are variables; integers and "strings" constants;
/// `!pred(...)` is negation; comparisons use =, !=, <, <=, >, >=;
/// assignment uses V = A + B (or -, *, /, %).
///
/// Aggregate rules put the aggregate as the LAST head argument:
///   spath(X, Y, min(D; Z)) :- edge(X, Y), D = 1 + 0, ...
///   total(K, sum(V))       :- item(K, V).
///   deg(X, count(Y))       :- edge(X, Y).
/// `op(value)` or `op(value; witness...)` for min/max/sum; `count(w...)`
/// counts distinct witness rows. The preceding head arguments are the group
/// columns (see Aggregate).
Program ParseDatalog(const std::string& source);

}  // namespace datalog
}  // namespace rel

#endif  // REL_DATALOG_PROGRAM_H_
