// Abstract syntax of Rel (Figure 2 of the paper).
//
// The parser desugars the paper's infix notation into this core:
//   x + y            -> Application(rel_primitive_add, [x, y], partial)
//   x = y            -> Application(rel_primitive_eq, (x, y), full)
//   A . B            -> Application(dot_join, [&A, &B], partial)
//   A <++ B          -> Application(left_override, [&A, &B], partial)
//   F1, F2 (formulas)-> And / Product depending on context (same semantics)
//   implies/iff/xor  -> and/or/not combinations
// Everything else matches the grammar one-to-one.

#ifndef REL_CORE_AST_H_
#define REL_CORE_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "data/value.h"

namespace rel {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// FOBinding / Binding from the grammar: a variable introduced by an
/// abstraction head, quantifier or rule head.
struct Binding {
  enum class Kind {
    kVar,       // x        (first-order variable)
    kTupleVar,  // x...     (tuple variable)
    kRelVar,    // {A}      (relation variable — second-order parameter)
    kLiteral,   // 0        (constant pattern in a rule head)
    kWildcard,  // _        (anonymous; allowed in heads)
  };
  Kind kind = Kind::kVar;
  std::string name;   // kVar / kTupleVar / kRelVar
  ExprPtr domain;     // optional `in` restriction: x in Expr
  Value literal;      // kLiteral
};

/// ?{e} / &{e} argument annotations (Addendum A disambiguation).
enum class Annotation {
  kNone,         // infer from the callee's definitions
  kFirstOrder,   // ?{e}
  kSecondOrder,  // &{e}
};

/// An argument of a relational application.
struct Arg {
  ExprPtr expr;  // null for wildcard arguments
  Annotation annotation = Annotation::kNone;
};

enum class ExprKind {
  kLiteral,        // 42, 3.5, "text"
  kRelNameLit,     // :Name — the name of a relation passed as a value
  kIdent,          // x or RName (resolved against scope during compilation)
  kTupleVar,       // x...
  kWildcard,       // _
  kWildcardTuple,  // _...
  kProduct,        // (e1, ..., en), n >= 2 — Cartesian product
  kUnion,          // {e1; ...; en}
  kWhere,          // e where f
  kAbstraction,    // [bindings]: e   or   (bindings): f   (square flag)
  kApplication,    // t[args] or t(args)   (full flag distinguishes)
  kAnd,            // f1 and f2
  kOr,             // f1 or f2
  kNot,            // not f
  kExists,         // exists((bindings) | f)
  kForall,         // forall((bindings) | f)
  kTrueLit,        // true, {()}
  kFalseLit,       // false, {}
};

/// A node of the Rel AST. One struct for all kinds (a closed sum type would
/// be nicer, but a single node keeps the recursive-descent parser and the
/// compiler visitors simple); only the fields of the active kind are set.
struct Expr {
  ExprKind kind;

  Value literal;                  // kLiteral
  std::string name;               // kIdent, kTupleVar, kRelNameLit
  std::vector<ExprPtr> children;  // kProduct, kUnion, kAnd, kOr, kNot(1),
                                  // kWhere(2: expr, formula)
  std::vector<Binding> bindings;  // kAbstraction, kExists, kForall
  ExprPtr body;                   // kAbstraction, kExists, kForall
  bool square = false;            // kAbstraction: [..] vs (..)
  ExprPtr target;                 // kApplication
  std::vector<Arg> args;          // kApplication
  bool full = false;              // kApplication: (..) vs [..]

  int line = 0;
  int column = 0;

  /// Compact single-line rendering (for error messages and tests).
  std::string ToString() const;
};

/// Builders.
ExprPtr MakeExpr(ExprKind kind, int line = 0, int column = 0);
ExprPtr MakeLiteral(Value v, int line = 0, int column = 0);
ExprPtr MakeIdent(const std::string& name, int line = 0, int column = 0);
ExprPtr MakeApplication(const std::string& callee, std::vector<Arg> args,
                        bool full, int line = 0, int column = 0);

/// Unwraps chained partial applications: T[a][b](c) has base T and
/// arguments a, b, c. A non-application is its own base, with no
/// arguments.
void FlattenApplication(const ExprPtr& expr, ExprPtr* base,
                        std::vector<Arg>* args);

/// A rule: `def Name(params): body`, `def Name[params]: body`,
/// `def Name {abstraction}` or `ic Name(params) requires body`.
struct Def {
  std::string name;
  std::vector<Binding> params;
  ExprPtr body;
  bool square_head = false;  // [..] head: body is an expression, not formula
  bool is_ic = false;        // integrity constraint
  bool inline_hint = false;  // @inline: always expand at call sites
  /// Atoms over the leading relation parameters enumerate before every
  /// other atom of the body. Set on the delta-specialized violation rules
  /// (core/ic_check.h), whose relation parameter holds a commit's few
  /// inserted or deleted rows.
  bool seeds_first = false;
  int line = 0;

  std::string ToString() const;
};

/// A parsed program: an unordered set of rules (order is irrelevant to the
/// semantics, Section 3.3).
struct Program {
  std::vector<Def> defs;
};

const char* ExprKindName(ExprKind kind);

}  // namespace rel

#endif  // REL_CORE_AST_H_
