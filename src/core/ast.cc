#include "core/ast.h"

namespace rel {

namespace {

std::string BindingToString(const Binding& b) {
  std::string out;
  switch (b.kind) {
    case Binding::Kind::kVar:
      out = b.name;
      break;
    case Binding::Kind::kTupleVar:
      out = b.name + "...";
      break;
    case Binding::Kind::kRelVar:
      out = "{" + b.name + "}";
      break;
    case Binding::Kind::kLiteral:
      out = b.literal.ToString();
      break;
    case Binding::Kind::kWildcard:
      out = "_";
      break;
  }
  if (b.domain) out += " in " + b.domain->ToString();
  return out;
}

std::string JoinChildren(const std::vector<ExprPtr>& children,
                         const char* sep) {
  std::string out;
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out += sep;
    out += children[i]->ToString();
  }
  return out;
}

std::string BindingsToString(const std::vector<Binding>& bindings) {
  std::string out;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += ", ";
    out += BindingToString(bindings[i]);
  }
  return out;
}

}  // namespace

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral: return "literal";
    case ExprKind::kRelNameLit: return "relation-name literal";
    case ExprKind::kIdent: return "identifier";
    case ExprKind::kTupleVar: return "tuple variable";
    case ExprKind::kWildcard: return "wildcard";
    case ExprKind::kWildcardTuple: return "tuple wildcard";
    case ExprKind::kProduct: return "product";
    case ExprKind::kUnion: return "union";
    case ExprKind::kWhere: return "where";
    case ExprKind::kAbstraction: return "abstraction";
    case ExprKind::kApplication: return "application";
    case ExprKind::kAnd: return "and";
    case ExprKind::kOr: return "or";
    case ExprKind::kNot: return "not";
    case ExprKind::kExists: return "exists";
    case ExprKind::kForall: return "forall";
    case ExprKind::kTrueLit: return "true";
    case ExprKind::kFalseLit: return "false";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kRelNameLit:
      return ":" + name;
    case ExprKind::kIdent:
      return name;
    case ExprKind::kTupleVar:
      return name + "...";
    case ExprKind::kWildcard:
      return "_";
    case ExprKind::kWildcardTuple:
      return "_...";
    case ExprKind::kProduct:
      return "(" + JoinChildren(children, ", ") + ")";
    case ExprKind::kUnion:
      return "{" + JoinChildren(children, "; ") + "}";
    case ExprKind::kWhere:
      return "(" + children[0]->ToString() + " where " +
             children[1]->ToString() + ")";
    case ExprKind::kAbstraction: {
      const char* open = square ? "[" : "(";
      const char* close = square ? "]" : ")";
      return std::string("{") + open + BindingsToString(bindings) + close +
             ": " + body->ToString() + "}";
    }
    case ExprKind::kApplication: {
      std::string out = target->ToString();
      out += full ? "(" : "[";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        const Arg& a = args[i];
        if (a.annotation == Annotation::kFirstOrder) {
          out += "?{" + a.expr->ToString() + "}";
        } else if (a.annotation == Annotation::kSecondOrder) {
          out += "&{" + a.expr->ToString() + "}";
        } else {
          out += a.expr->ToString();
        }
      }
      out += full ? ")" : "]";
      return out;
    }
    case ExprKind::kAnd:
      return "(" + JoinChildren(children, " and ") + ")";
    case ExprKind::kOr:
      return "(" + JoinChildren(children, " or ") + ")";
    case ExprKind::kNot:
      return "not " + children[0]->ToString();
    case ExprKind::kExists:
      return "exists((" + BindingsToString(bindings) + ") | " +
             body->ToString() + ")";
    case ExprKind::kForall:
      return "forall((" + BindingsToString(bindings) + ") | " +
             body->ToString() + ")";
    case ExprKind::kTrueLit:
      return "true";
    case ExprKind::kFalseLit:
      return "false";
  }
  return "?";
}

std::string Def::ToString() const {
  std::string out = is_ic ? "ic " : "def ";
  if (inline_hint) out = "@inline " + out;
  out += name;
  out += square_head ? "[" : "(";
  out += BindingsToString(params);
  out += square_head ? "]" : ")";
  out += is_ic ? " requires " : " : ";
  out += body->ToString();
  return out;
}

ExprPtr MakeExpr(ExprKind kind, int line, int column) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr MakeLiteral(Value v, int line, int column) {
  auto e = MakeExpr(ExprKind::kLiteral, line, column);
  e->literal = v;
  return e;
}

ExprPtr MakeIdent(const std::string& name, int line, int column) {
  auto e = MakeExpr(ExprKind::kIdent, line, column);
  e->name = name;
  return e;
}

ExprPtr MakeApplication(const std::string& callee, std::vector<Arg> args,
                        bool full, int line, int column) {
  auto e = MakeExpr(ExprKind::kApplication, line, column);
  e->target = MakeIdent(callee, line, column);
  e->args = std::move(args);
  e->full = full;
  return e;
}

void FlattenApplication(const ExprPtr& expr, ExprPtr* base,
                        std::vector<Arg>* args) {
  if (expr->kind != ExprKind::kApplication) {
    *base = expr;
    args->clear();
    return;
  }
  const ExprPtr& target = expr->target;
  if (target->kind == ExprKind::kApplication && !target->full) {
    FlattenApplication(target, base, args);
    args->insert(args->end(), expr->args.begin(), expr->args.end());
    return;
  }
  *base = target;
  *args = expr->args;
}

}  // namespace rel
