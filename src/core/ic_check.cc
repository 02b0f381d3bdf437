#include "core/ic_check.h"

#include <utility>

#include "core/builtins.h"
#include "core/parser.h"

namespace rel {

namespace {

/// The relation parameter of a specialized violation rule. `$` cannot
/// appear in a source identifier, so it never captures a user name.
constexpr char kDeltaParam[] = "$delta";

/// A candidate occurrence: a full application of a named relation, in a
/// position the solver compiles as a top-level atom (`positive`) or
/// negated atom.
struct Site {
  ExprPtr node;
  std::string relation;
  bool positive = true;
  std::vector<Arg> args;  // flattened (FlattenApplication)
};

/// Finds the qualifying occurrences of a constraint body by following the
/// solver's compilation of `not body`.
class SiteFinder {
 public:
  std::vector<Site> sites;
  /// Names referenced anywhere other than a qualifying occurrence.
  std::set<std::string> unseedable;

  void Formula(const ExprPtr& expr, bool positive,
               const std::set<std::string>& locals) {
    switch (expr->kind) {
      case ExprKind::kAnd:
      case ExprKind::kWhere:
      case ExprKind::kOr:
        // A negated conjunction compiles into a disjunction of negations
        // and a negated disjunction into a conjunction: either way each
        // child stays a literal of the enclosing formula.
        for (const ExprPtr& child : expr->children) {
          Formula(child, positive, locals);
        }
        return;
      case ExprKind::kNot:
        Formula(expr->children[0], !positive, locals);
        return;
      case ExprKind::kExists:
      case ExprKind::kForall: {
        // A positive exists (a negated forall: exists not) inlines its
        // binders into the conjunction; the other polarity is a negated
        // sub-query, which no occurrence may enter.
        bool inline_binders = (expr->kind == ExprKind::kExists) == positive;
        if (!inline_binders) {
          Poison(expr);
          return;
        }
        std::set<std::string> inner = locals;
        for (const Binding& b : expr->bindings) {
          inner.insert(b.name);
          Poison(b.domain);
        }
        Formula(expr->body, positive, inner);
        return;
      }
      case ExprKind::kTrueLit:
      case ExprKind::kFalseLit:
        return;
      case ExprKind::kApplication:
        if (expr->full) {
          ExprPtr base;
          std::vector<Arg> args;
          FlattenApplication(expr, &base, &args);
          for (const Arg& arg : args) Poison(arg.expr);
          if (base->kind == ExprKind::kIdent && !locals.count(base->name) &&
              base->name != builtin_names::kReduce &&
              FindBuiltin(base->name) == nullptr) {
            // A node reached twice (the parser shares both operands of
            // `iff`) would sit at both polarities.
            if (!visited_.insert(expr.get()).second) {
              unseedable.insert(base->name);
            }
            sites.push_back({expr, base->name, positive, std::move(args)});
          } else {
            Poison(base);
          }
          return;
        }
        Poison(expr);
        return;
      default:
        Poison(expr);
        return;
    }
  }

  /// Marks every name in `expr` unseedable (locals included: a local that
  /// shadows a relation name only makes the plan more conservative).
  void Poison(const ExprPtr& expr) {
    if (!expr) return;
    if (expr->kind == ExprKind::kIdent) unseedable.insert(expr->name);
    for (const ExprPtr& child : expr->children) Poison(child);
    Poison(expr->body);
    Poison(expr->target);
    for (const Arg& arg : expr->args) Poison(arg.expr);
    for (const Binding& b : expr->bindings) Poison(b.domain);
  }

 private:
  std::set<const Expr*> visited_;
};

/// `expr` with the node `site` replaced by `with`, copying only the path.
ExprPtr Replace(const ExprPtr& expr, const Expr* site, const ExprPtr& with) {
  if (!expr) return expr;
  if (expr.get() == site) return with;
  std::shared_ptr<Expr> copy;
  auto edit = [&]() -> Expr& {
    if (!copy) copy = std::make_shared<Expr>(*expr);
    return *copy;
  };
  for (size_t i = 0; i < expr->children.size(); ++i) {
    ExprPtr child = Replace(expr->children[i], site, with);
    if (child != expr->children[i]) edit().children[i] = std::move(child);
  }
  ExprPtr body = Replace(expr->body, site, with);
  if (body != expr->body) edit().body = std::move(body);
  ExprPtr target = Replace(expr->target, site, with);
  if (target != expr->target) edit().target = std::move(target);
  for (size_t i = 0; i < expr->args.size(); ++i) {
    ExprPtr arg = Replace(expr->args[i].expr, site, with);
    if (arg != expr->args[i].expr) edit().args[i].expr = std::move(arg);
  }
  return copy ? copy : expr;
}

/// The violation rule of `ic` with `site` reading the delta parameter.
std::shared_ptr<Def> SpecializedRule(const Def& ic, const Site& site) {
  ExprPtr seed = MakeApplication(kDeltaParam, site.args, /*full=*/true,
                                 site.node->line, site.node->column);
  ExprPtr with = seed;
  if (!site.positive) {
    // The node compiles as `not R(args)`; make that `$delta(args) and
    // not R(args)` by replacing the node with its negation.
    auto keep = MakeExpr(ExprKind::kNot, site.node->line, site.node->column);
    keep->children = {site.node};
    auto both = MakeExpr(ExprKind::kAnd, site.node->line, site.node->column);
    both->children = {seed, keep};
    auto neg = MakeExpr(ExprKind::kNot, site.node->line, site.node->column);
    neg->children = {both};
    with = neg;
  }
  Binding delta;
  delta.kind = Binding::Kind::kRelVar;
  delta.name = kDeltaParam;
  Def body_only = ic;
  body_only.body = Replace(ic.body, site.node.get(), with);
  std::shared_ptr<Def> rule = ViolationRule(body_only);
  rule->params.insert(rule->params.begin(), delta);
  rule->seeds_first = true;
  return rule;
}

}  // namespace

std::shared_ptr<Def> ViolationRule(const Def& ic) {
  auto rule = std::make_shared<Def>();
  rule->name = "$violations_" + ic.name;
  rule->params = ic.params;
  auto neg = MakeExpr(ExprKind::kNot, ic.line, 0);
  neg->children = {ic.body};
  rule->body = neg;
  rule->square_head = false;
  return rule;
}

std::shared_ptr<const IcDeltaPlan> PlanIcDelta(
    const std::shared_ptr<Def>& ic, const ProgramAnalysis& analysis) {
  auto plan = std::make_shared<IcDeltaPlan>();
  plan->ic = ic;
  plan->roots = analysis.DefReferences(*ic);

  SiteFinder finder;
  std::set<std::string> locals;
  for (const Binding& b : ic->params) {
    // A relation parameter makes the constraint second-order; its
    // violation rule has no fixed relation to seed.
    if (b.kind == Binding::Kind::kRelVar) return plan;
    locals.insert(b.name);
    finder.Poison(b.domain);
  }
  finder.Formula(ic->body, /*positive=*/false, locals);

  for (const Site& site : finder.sites) {
    if (plan->roots.count(site.relation) != 0 &&
        finder.unseedable.count(site.relation) == 0) {
      plan->seedable.insert(site.relation);
    }
  }
  for (const Site& site : finder.sites) {
    if (plan->seedable.count(site.relation) == 0) continue;
    plan->occurrences.push_back(
        {site.relation, site.positive, SpecializedRule(*ic, site)});
  }
  return plan;
}

}  // namespace rel
