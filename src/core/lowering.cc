#include "core/lowering.h"

#include <algorithm>
#include <map>

#include "core/builtins.h"
#include "core/parser.h"

namespace rel {

namespace {

using datalog::ArithOp;
using datalog::Atom;
using datalog::CmpOp;
using datalog::Literal;
using datalog::Term;

/// Leading relation-variable parameter count (mirrors
/// Solver::CountSOParams without pulling in the solver).
size_t CountSOParams(const Def& def) {
  size_t n = 0;
  while (n < def.params.size() &&
         def.params[n].kind == Binding::Kind::kRelVar) {
    ++n;
  }
  return n;
}

/// Canonical builtin name: the parser emits `rel_primitive_eq` etc.; the
/// registry also accepts the bare names, so compare against those.
std::string CanonicalBuiltin(const std::string& name) {
  constexpr char kPrefix[] = "rel_primitive_";
  if (name.rfind(kPrefix, 0) == 0) return name.substr(sizeof(kPrefix) - 1);
  return name;
}

std::optional<CmpOp> CmpOpOf(const std::string& canonical) {
  if (canonical == "eq") return CmpOp::kEq;
  if (canonical == "neq") return CmpOp::kNeq;
  if (canonical == "lt") return CmpOp::kLt;
  if (canonical == "lt_eq") return CmpOp::kLe;
  if (canonical == "gt") return CmpOp::kGt;
  if (canonical == "gt_eq") return CmpOp::kGe;
  return std::nullopt;
}

std::optional<ArithOp> ArithOpOf(const std::string& canonical) {
  if (canonical == "add") return ArithOp::kAdd;
  if (canonical == "subtract") return ArithOp::kSub;
  if (canonical == "multiply") return ArithOp::kMul;
  if (canonical == "divide") return ArithOp::kDiv;
  if (canonical == "modulo") return ArithOp::kMod;
  if (canonical == "minimum") return ArithOp::kMin;
  if (canonical == "maximum") return ArithOp::kMax;
  return std::nullopt;
}


/// DNF cap: a body with more or-alternatives than this is left unsplit (and
/// then rejected by the formula lowerer, falling back to the interpreter).
constexpr size_t kMaxDnfBranches = 16;

/// Splits a formula into its or-free alternatives, distributing `or` over
/// `and`/`where`/`exists`. Negations are left intact as leaves (a negated
/// disjunction stays unsplit and is rejected downstream). Returns false when
/// the expansion exceeds kMaxDnfBranches; shared subtrees are reused, never
/// cloned — only fresh connective nodes are allocated.
bool SplitOr(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (out->size() > kMaxDnfBranches) return false;
  switch (expr->kind) {
    case ExprKind::kOr:
      for (const ExprPtr& c : expr->children) {
        if (!SplitOr(c, out)) return false;
      }
      return true;
    case ExprKind::kAnd:
    case ExprKind::kWhere: {
      std::vector<ExprPtr> left, right;
      if (!SplitOr(expr->children[0], &left) ||
          !SplitOr(expr->children[1], &right)) {
        return false;
      }
      if (left.size() == 1 && right.size() == 1) {
        out->push_back(expr);
        return true;
      }
      if (out->size() + left.size() * right.size() > kMaxDnfBranches + 1) {
        return false;
      }
      for (const ExprPtr& l : left) {
        for (const ExprPtr& r : right) {
          ExprPtr e = MakeExpr(expr->kind, expr->line, expr->column);
          e->children = {l, r};
          out->push_back(e);
        }
      }
      return true;
    }
    case ExprKind::kExists: {
      std::vector<ExprPtr> subs;
      if (!SplitOr(expr->body, &subs)) return false;
      if (subs.size() == 1) {
        out->push_back(expr);
        return true;
      }
      for (const ExprPtr& s : subs) {
        ExprPtr e = MakeExpr(ExprKind::kExists, expr->line, expr->column);
        e->bindings = expr->bindings;
        e->body = s;
        out->push_back(e);
      }
      return true;
    }
    default:
      out->push_back(expr);
      return true;
  }
}

std::vector<ExprPtr> Alternatives(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!SplitOr(expr, &out) || out.empty()) {
    out.clear();
    out.push_back(expr);
  }
  return out;
}

/// Walks a top-level conjunction spine into its conjuncts.
void FlattenConjunction(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kAnd || expr->kind == ExprKind::kWhere) {
    FlattenConjunction(expr->children[0], out);
    FlattenConjunction(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

std::optional<datalog::AggOp> AggOpOf(const std::string& name) {
  if (name == "min") return datalog::AggOp::kMin;
  if (name == "max") return datalog::AggOp::kMax;
  if (name == "sum") return datalog::AggOp::kSum;
  if (name == "count") return datalog::AggOp::kCount;
  return std::nullopt;
}

/// Per-component translation context, shared by all of its rules.
struct ComponentContext {
  std::set<std::string> members;
  /// The EDB predicate each relation parameter position reads
  /// (LoweredComponent::arg_preds); empty for a first-order component.
  const std::vector<std::string>* arg_preds;
  const DefIndex* defs;
  std::set<std::string>* externals;
  /// Where a reader's instance sites go (LowerReader); null elsewhere, and
  /// an application of a relation-parameter def then rejects.
  std::vector<LoweredComponent::InstanceSite>* sites = nullptr;
};

/// Structurally verifies that every definition of combinator `name` is the
/// canonical stdlib reduction — `def name[{A}] : reduce[rel_primitive_X, A]`
/// (for count, `reduce[rel_primitive_add, (A, 1)]`). The name-level analysis
/// and this translator both key on the names min/max/sum/count; a user
/// redefinition would make that keying unsound, so a shadowed combinator
/// rejects the rule (and the interpreter, which resolves names normally,
/// stays the authority).
bool IsCanonicalCombinator(const std::string& name, datalog::AggOp op,
                           const ComponentContext& ctx) {
  // The canonical form takes exactly one relation parameter, so every def
  // of the name must sit under signature 1.
  auto it = ctx.defs->find(name);
  if (it == ctx.defs->end() || it->second.size() != 1 ||
      it->second.begin()->first != 1) {
    return false;
  }
  for (const auto& def : it->second.begin()->second) {
    if (!def->square_head || def->is_ic || def->params.size() != 1 ||
        def->params[0].kind != Binding::Kind::kRelVar ||
        def->params[0].domain != nullptr || !def->body) {
      return false;
    }
    const std::string& rel_param = def->params[0].name;
    ExprPtr base;
    std::vector<Arg> args;
    FlattenApplication(def->body, &base, &args);
    if (base->kind != ExprKind::kIdent ||
        base->name != builtin_names::kReduce || args.size() != 2 ||
        !args[0].expr || !args[1].expr) {
      return false;
    }
    if (args[0].expr->kind != ExprKind::kIdent) return false;
    const std::string prim = CanonicalBuiltin(args[0].expr->name);
    bool prim_ok = false;
    switch (op) {
      case datalog::AggOp::kMin: prim_ok = prim == "minimum"; break;
      case datalog::AggOp::kMax: prim_ok = prim == "maximum"; break;
      case datalog::AggOp::kSum:
      case datalog::AggOp::kCount: prim_ok = prim == "add"; break;
    }
    if (!prim_ok) return false;
    const ExprPtr& input = args[1].expr;
    if (op == datalog::AggOp::kCount) {
      if (input->kind != ExprKind::kProduct || input->children.size() != 2 ||
          input->children[0]->kind != ExprKind::kIdent ||
          input->children[0]->name != rel_param ||
          input->children[1]->kind != ExprKind::kLiteral ||
          !input->children[1]->literal.is_int() ||
          input->children[1]->literal.AsInt() != 1) {
        return false;
      }
    } else if (input->kind != ExprKind::kIdent || input->name != rel_param) {
      return false;
    }
  }
  return true;
}

/// A matched aggregate head form: the conjunct `r = op[abstraction]` (either
/// orientation) whose `r` is the def's final parameter.
struct AggMatch {
  datalog::AggOp op;
  const Expr* abstraction;
};

/// True when the def can carry an aggregate head form at all: a final kVar
/// parameter, unrepeated and undomained, that names the aggregate result.
bool HasResultParam(const Def& def) {
  if (def.params.empty()) return false;
  const Binding& last = def.params.back();
  if (last.kind != Binding::Kind::kVar || last.domain) return false;
  for (size_t i = 0; i + 1 < def.params.size(); ++i) {
    if (def.params[i].kind == Binding::Kind::kVar &&
        def.params[i].name == last.name) {
      return false;
    }
  }
  return true;
}

/// Matches `result = op[(binders): formula]` / `op[...] = result` where
/// `result` is def's final parameter. Returns nullopt (without failing) when
/// the conjunct is anything else; the caller's plain path then rejects the
/// stray aggregate application with its usual diagnostics.
std::optional<AggMatch> MatchAggEq(const ExprPtr& conjunct, const Def& def,
                                   const ComponentContext& ctx) {
  if (!HasResultParam(def)) return std::nullopt;
  const std::string& result = def.params.back().name;
  if (conjunct->kind != ExprKind::kApplication || !conjunct->full) {
    return std::nullopt;
  }
  ExprPtr base;
  std::vector<Arg> args;
  FlattenApplication(conjunct, &base, &args);
  if (base->kind != ExprKind::kIdent || CanonicalBuiltin(base->name) != "eq" ||
      args.size() != 2 || !args[0].expr || !args[1].expr) {
    return std::nullopt;
  }
  for (int side = 0; side < 2; ++side) {
    const ExprPtr& r = args[side].expr;
    const ExprPtr& app = args[1 - side].expr;
    if (r->kind != ExprKind::kIdent || r->name != result) continue;
    if (app->kind != ExprKind::kApplication) continue;
    ExprPtr callee;
    std::vector<Arg> app_args;
    FlattenApplication(app, &callee, &app_args);
    if (callee->kind != ExprKind::kIdent) continue;
    std::optional<datalog::AggOp> op = AggOpOf(callee->name);
    if (!op) continue;
    // The combinator name must not be captured by a def parameter, and must
    // resolve to the canonical stdlib reduction (see IsCanonicalCombinator).
    bool shadowed_by_param = false;
    for (const Binding& b : def.params) shadowed_by_param |= b.name == callee->name;
    if (shadowed_by_param) continue;
    if (!IsCanonicalCombinator(callee->name, *op, ctx)) continue;
    if (app_args.size() != 1 || !app_args[0].expr ||
        app_args[0].expr->kind != ExprKind::kAbstraction) {
      continue;
    }
    return AggMatch{*op, app_args[0].expr.get()};
  }
  return std::nullopt;
}

/// Fuses `Assign(t, op, a, b)` + `Compare(kEq, v, t)` pairs into a direct
/// `Assign(v, op, a, b)` when the rewrite is observationally equivalent:
/// `t` must be a pure lowering temp (its only uses are the assignment target
/// and this equality) and `v` a variable no generator binds and the head
/// does not carry. Under those conditions the planner would have turned the
/// equality into a kBind of `v` to `t`'s value — exactly what the direct
/// assignment produces — so plans, extents, and error behavior are
/// unchanged. `v` bound elsewhere keeps the Compare form: equality against
/// a bound variable is numeric-tolerant (EvalCompare equates Int 1 with
/// Float 1.0) while a bound Assign target checks exact value identity.
///
/// The point of the fusion is the recursive-aggregate monotonicity check
/// (datalog/eval.cc CheckMonotoneRule): `d = d1 + w` over a changing
/// aggregate result must reach the aggregated value as a *tainted
/// assignment* — allowed — rather than a tainted comparison filter, which
/// is (correctly) rejected. Without it, `min[... j = j1 + j2 ...]` over a
/// recursive shortest-path atom can never qualify for the fast path.
void FuseAssignEq(datalog::Rule* rule) {
  using datalog::Literal;
  using datalog::Term;
  // Count every variable occurrence across the rule, and mark variables a
  // generator (positive atom, range output, assignment target) binds.
  std::map<int, int> occurrences;
  std::set<int> generator_bound;
  std::set<int> head_vars;
  auto count_term = [&](const Term& t) {
    if (t.is_var()) ++occurrences[t.var];
  };
  for (const Term& t : rule->head.terms) {
    count_term(t);
    if (t.is_var()) head_vars.insert(t.var);
  }
  for (const Literal& lit : rule->body) {
    switch (lit.kind) {
      case Literal::Kind::kPositive:
      case Literal::Kind::kNegative:
        for (const Term& t : lit.atom.terms) count_term(t);
        if (lit.kind == Literal::Kind::kPositive) {
          for (const Term& t : lit.atom.terms) {
            if (t.is_var()) generator_bound.insert(t.var);
          }
        }
        break;
      case Literal::Kind::kCompare:
        count_term(lit.lhs);
        count_term(lit.rhs);
        break;
      case Literal::Kind::kAssign:
        ++occurrences[lit.target];
        generator_bound.insert(lit.target);
        count_term(lit.lhs);
        count_term(lit.rhs);
        break;
      case Literal::Kind::kRange:
        for (const Term& t : lit.atom.terms) count_term(t);
        if (lit.atom.terms[3].is_var()) {
          generator_bound.insert(lit.atom.terms[3].var);
        }
        break;
    }
  }
  if (rule->agg) {
    count_term(rule->agg->value);
    for (const Term& t : rule->agg->witness) count_term(t);
  }

  std::vector<bool> drop(rule->body.size(), false);
  for (size_t i = 0; i < rule->body.size(); ++i) {
    const Literal& cmp = rule->body[i];
    if (cmp.kind != Literal::Kind::kCompare || cmp.negated ||
        cmp.cmp_op != datalog::CmpOp::kEq) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const Term& vt = side == 0 ? cmp.lhs : cmp.rhs;
      const Term& tt = side == 0 ? cmp.rhs : cmp.lhs;
      if (!vt.is_var() || !tt.is_var() || vt.var == tt.var) continue;
      // The temp side: target of some assignment, used nowhere else.
      if (occurrences[tt.var] != 2) continue;
      // The bindee side: nothing else binds it, and it is not a head
      // variable (incremental re-derivation pre-binds head variables, which
      // would reintroduce the exact-identity check).
      if (generator_bound.count(vt.var) || head_vars.count(vt.var)) continue;
      Literal* assign = nullptr;
      for (Literal& cand : rule->body) {
        if (cand.kind == Literal::Kind::kAssign && cand.target == tt.var) {
          assign = &cand;
          break;
        }
      }
      if (assign == nullptr) continue;
      assign->target = vt.var;
      generator_bound.insert(vt.var);
      drop[i] = true;
      break;
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < rule->body.size(); ++i) {
    if (drop[i]) continue;
    if (kept != i) rule->body[kept] = std::move(rule->body[i]);
    ++kept;
  }
  rule->body.resize(kept);
}

/// Translates one `def` into one Datalog rule. Fails (returns nullopt with
/// *why set) on any construct outside the classical fragment.
class RuleLowerer {
 public:
  RuleLowerer(const ComponentContext& ctx, std::string* why)
      : ctx_(ctx), why_(why) {
    scopes_.emplace_back();
  }

  /// Lowers one or-free alternative of `def` into one Datalog rule.
  /// `conjuncts` is the alternative's conjunction spine; for an aggregate
  /// head form, `agg` carries the matched combinator (the aggregate-equality
  /// conjunct itself must already be removed from `conjuncts`) and
  /// `agg_body` one or-free alternative of its abstraction body — a formula
  /// for `(binders): f` abstractions, a value expression for `[binders]: e`.
  std::optional<datalog::Rule> Lower(const Def& def,
                                     const std::vector<ExprPtr>& conjuncts,
                                     const AggMatch* agg,
                                     const ExprPtr& agg_body) {
    if (def.square_head) return Fail("[]-headed rule (expression body)");
    // LowerComponent checked the count; the names may differ per def.
    const size_t sig = ctx_.arg_preds->size();
    for (size_t i = 0; i < sig; ++i) rel_params_[def.params[i].name] = i;
    rule_.head.pred = def.name;
    // For an aggregate head form the final parameter is the result column:
    // the Datalog head carries the GROUP columns only and the engine appends
    // the folded result (datalog::Aggregate). The result name is left
    // undeclared, so any other use of it fails the rule — a filter on the
    // aggregate result has no classical-fragment equivalent.
    const size_t head_params = def.params.size() - (agg != nullptr ? 1 : 0);
    for (size_t i = sig; i < head_params; ++i) {
      const Binding& b = def.params[i];
      switch (b.kind) {
        case Binding::Kind::kVar: {
          if (scopes_.back().count(b.name)) {
            return Fail("repeated head variable");
          }
          int id = Declare(b.name);
          rule_.head.terms.push_back(Term::Var(id));
          if (b.domain && !LowerDomain(b.domain, id)) return std::nullopt;
          break;
        }
        case Binding::Kind::kLiteral:
          rule_.head.terms.push_back(Term::Const(b.literal));
          break;
        default:
          return Fail("non-variable head binding");
      }
    }
    for (const ExprPtr& c : conjuncts) {
      if (!LowerFormula(c, /*positive=*/true)) return std::nullopt;
    }
    if (agg != nullptr && !LowerAggregate(*agg, agg_body)) return std::nullopt;
    FuseAssignEq(&rule_);
    return std::move(rule_);
  }

 private:
  std::optional<datalog::Rule> Fail(const std::string& reason) {
    if (why_ && why_->empty()) *why_ = reason;
    return std::nullopt;
  }
  bool FailBool(const std::string& reason) {
    if (why_ && why_->empty()) *why_ = reason;
    return false;
  }

  int Declare(const std::string& name) {
    int id = next_var_++;
    scopes_.back()[name] = id;
    return id;
  }

  const int* Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  /// The position of the relation parameter `name` names here, unless a
  /// first-order variable shadows it.
  std::optional<size_t> RelParam(const std::string& name) const {
    if (Lookup(name)) return std::nullopt;
    auto it = rel_params_.find(name);
    if (it == rel_params_.end()) return std::nullopt;
    return it->second;
  }

  /// The predicate an application of `name` reads. A relation parameter
  /// reads its argument's EDB predicate. A member application must pass the
  /// component's relation parameters through unchanged, in order (every
  /// member instance shares the one binding), and those leading arguments
  /// are dropped from `args`. Anything else keeps its name.
  std::optional<std::string> ResolveRelation(const std::string& name,
                                             std::vector<Arg>* args) {
    if (std::optional<size_t> param = RelParam(name)) {
      return (*ctx_.arg_preds)[*param];
    }
    if (ctx_.sites != nullptr && !ctx_.members.count(name)) {
      auto defs = ctx_.defs->find(name);
      if (defs != ctx_.defs->end() && defs->second.begin()->first > 0) {
        return SiteOf(name, defs->second, args);
      }
    }
    const size_t sig = ctx_.arg_preds->size();
    if (sig > 0 && ctx_.members.count(name)) {
      bool through = args->size() >= sig;
      for (size_t i = 0; through && i < sig; ++i) {
        const Arg& arg = (*args)[i];
        through = arg.expr && arg.expr->kind == ExprKind::kIdent &&
                  arg.annotation != Annotation::kFirstOrder &&
                  RelParam(arg.expr->name) == i;
      }
      if (!through) {
        if (why_ && why_->empty()) {
          *why_ = "member '" + name +
                  "' is applied to other relation arguments";
        }
        return std::nullopt;
      }
      args->erase(args->begin(), args->begin() + sig);
    }
    return name;
  }

  /// A reader's application of the relation-parameter def `name`: records
  /// an instance site and returns the predicate it reads, dropping the
  /// relation arguments from `args`. Qualifies when the def has one
  /// signature (so the solver's ResolveSig picks it whatever the
  /// annotations) and each relation argument is what the solver resolves to
  /// a closure over a global name (Solver ResolveSOArg): an identifier that
  /// no local variable binds and that names a def or a relation, not a
  /// builtin.
  std::optional<std::string> SiteOf(
      const std::string& name,
      const std::map<size_t, std::vector<std::shared_ptr<Def>>>& sigs,
      std::vector<Arg>* args) {
    if (sigs.size() != 1) {
      FailBool("'" + name + "' has definitions of several signatures");
      return std::nullopt;
    }
    const size_t sig = sigs.begin()->first;
    if (args->size() < sig) {
      FailBool("application of '" + name + "' is missing relation arguments");
      return std::nullopt;
    }
    LoweredComponent::InstanceSite site;
    site.name = name;
    for (size_t i = 0; i < sig; ++i) {
      const Arg& arg = (*args)[i];
      if (!arg.expr || arg.expr->kind != ExprKind::kIdent ||
          arg.annotation == Annotation::kFirstOrder ||
          Lookup(arg.expr->name) ||
          (!ctx_.defs->count(arg.expr->name) && FindBuiltin(arg.expr->name))) {
        FailBool("relation argument of '" + name + "' is not a relation name");
        return std::nullopt;
      }
      site.args.push_back(arg.expr);
    }
    site.pred = InstancePred(name, ctx_.sites->size());
    ctx_.sites->push_back(site);
    args->erase(args->begin(), args->begin() + sig);
    return site.pred;
  }

  bool IsSitePred(const std::string& pred) const {
    if (ctx_.sites == nullptr) return false;
    for (const auto& site : *ctx_.sites) {
      if (site.pred == pred) return true;
    }
    return false;
  }

  /// `x in Expr` binding domains: supported when the domain is a plain
  /// relation name, which becomes a positive membership atom.
  bool LowerDomain(const ExprPtr& domain, int var) {
    if (domain->kind != ExprKind::kIdent || Lookup(domain->name)) {
      return FailBool("unsupported binding domain");
    }
    std::vector<Arg> no_args;
    std::optional<std::string> pred = ResolveRelation(domain->name, &no_args);
    if (!pred) return false;
    return EmitRelationAtom(*pred, {Term::Var(var)}, /*positive=*/true);
  }

  /// Classifies `name` as member / argument / external and appends the
  /// atom. External names must be first-order (no second-order
  /// definitions): their extents are materialized as EDB facts by the
  /// caller, as are the relation arguments.
  bool EmitRelationAtom(const std::string& name, std::vector<Term> terms,
                        bool positive) {
    const std::vector<std::string>& arg_preds = *ctx_.arg_preds;
    if (ctx_.members.count(name)) {
      // Cannot happen for monotone components, but keep the guard local.
      if (!positive) return FailBool("negated member reference");
    } else if (std::find(arg_preds.begin(), arg_preds.end(), name) ==
                   arg_preds.end() &&
               !IsSitePred(name)) {
      auto defs = ctx_.defs->find(name);
      if (defs != ctx_.defs->end() && defs->second.rbegin()->first > 0) {
        return FailBool("external relation '" + name +
                        "' has second-order definitions");
      }
      ctx_.externals->insert(name);
    }
    Atom atom;
    atom.pred = name;
    atom.terms = std::move(terms);
    rule_.body.push_back(positive ? Literal::Positive(std::move(atom))
                                  : Literal::Negative(std::move(atom)));
    return true;
  }

  /// A first-order term: a literal, an in-scope variable, a wildcard
  /// (fresh variable), or an arithmetic application reduced to a fresh
  /// variable through an assignment literal. `allow_aux` is false inside
  /// negated atoms and negated comparisons: the assignment would be emitted
  /// positively, outside the negation, so a failing arithmetic (e.g.
  /// "a" + 1) would falsify the whole body where Rel makes the negation
  /// vacuously true.
  std::optional<Term> TermOf(const ExprPtr& e, bool allow_aux = true) {
    if (!e) return Term::Var(next_var_++);  // wildcard argument slot
    switch (e->kind) {
      case ExprKind::kLiteral:
        return Term::Const(e->literal);
      case ExprKind::kRelNameLit:
        return Term::Const(Value::Entity("rel", e->name));
      case ExprKind::kWildcard:
        return Term::Var(next_var_++);
      case ExprKind::kIdent: {
        const int* id = Lookup(e->name);
        if (!id) {
          if (why_ && why_->empty()) {
            *why_ = "relation-valued argument '" + e->name + "'";
          }
          return std::nullopt;
        }
        return Term::Var(*id);
      }
      case ExprKind::kApplication: {
        if (!allow_aux) {
          if (why_ && why_->empty()) {
            *why_ = "computed argument under negation";
          }
          return std::nullopt;
        }
        // Arithmetic subexpression: reduce to a fresh variable.
        ExprPtr base;
        std::vector<Arg> args;
        FlattenApplication(e, &base, &args);
        if (base->kind != ExprKind::kIdent || Lookup(base->name)) {
          if (why_ && why_->empty()) *why_ = "unsupported argument expression";
          return std::nullopt;
        }
        const bool is_defined = ctx_.defs->count(base->name) > 0;
        if (RelParam(base->name) || is_defined || !FindBuiltin(base->name)) {
          // Relation application used as a value: A[i, k] denotes the set of
          // last-column continuations of (i, k) — a positive atom with a
          // fresh result variable. Faithful when A's extent has the uniform
          // arity |args| + 1 (a Rel relation of mixed arities would also
          // admit other suffix widths); the Datalog side pins one arity, as
          // full atom applications already do.
          std::optional<std::string> pred = ResolveRelation(base->name, &args);
          if (!pred) return std::nullopt;
          std::vector<Term> terms;
          terms.reserve(args.size() + 1);
          for (const Arg& arg : args) {
            if (arg.annotation == Annotation::kSecondOrder) {
              if (why_ && why_->empty()) *why_ = "second-order argument";
              return std::nullopt;
            }
            std::optional<Term> t = TermOf(arg.expr);
            if (!t) return std::nullopt;
            terms.push_back(*t);
          }
          int result = next_var_++;
          terms.push_back(Term::Var(result));
          if (!EmitRelationAtom(*pred, std::move(terms), /*positive=*/true)) {
            return std::nullopt;
          }
          return Term::Var(result);
        }
        std::optional<ArithOp> op = ArithOpOf(CanonicalBuiltin(base->name));
        if (!op || args.size() != 2) {
          if (why_ && why_->empty()) {
            *why_ = "unsupported builtin '" + base->name + "'";
          }
          return std::nullopt;
        }
        std::optional<Term> a = TermOf(args[0].expr);
        if (!a) return std::nullopt;
        std::optional<Term> b = TermOf(args[1].expr);
        if (!b) return std::nullopt;
        int target = next_var_++;
        rule_.body.push_back(Literal::Assign(target, *op, *a, *b));
        return Term::Var(target);
      }
      default:
        if (why_ && why_->empty()) *why_ = "unsupported argument expression";
        return std::nullopt;
    }
  }

  /// Translates the matched aggregate combinator into the rule's
  /// datalog::Aggregate: abstraction binders become witness columns (all but
  /// the last, which is the folded value — Rel's aggregates fold the last
  /// column of the deduplicated abstraction extent) and the abstraction body
  /// joins the rule body. The binders open their own scope, so the
  /// abstraction can only read the def's group parameters — exactly Rel's
  /// grouping (a def body has no other named outer variables).
  bool LowerAggregate(const AggMatch& agg, const ExprPtr& agg_body) {
    const Expr& abs = *agg.abstraction;
    scopes_.emplace_back();
    std::vector<int> binder_ids;
    for (const Binding& b : abs.bindings) {
      if (b.kind != Binding::Kind::kVar) {
        scopes_.pop_back();
        return FailBool("non-variable aggregate binder");
      }
      if (scopes_.back().count(b.name)) {
        scopes_.pop_back();
        return FailBool("repeated aggregate binder");
      }
      int id = Declare(b.name);
      binder_ids.push_back(id);
      if (b.domain && !LowerDomain(b.domain, id)) {
        scopes_.pop_back();
        return false;
      }
    }
    datalog::Aggregate out;
    out.op = agg.op;
    if (abs.square) {
      // [binders]: e — the expression computes the folded value; every
      // binder is a witness column.
      std::optional<Term> value = TermOf(agg_body);
      if (!value) {
        scopes_.pop_back();
        return false;
      }
      for (int id : binder_ids) out.witness.push_back(Term::Var(id));
      if (agg.op == datalog::AggOp::kCount) {
        // count[[k]: e] counts distinct (k..., e) rows: the computed value
        // joins the witness and the contribution value is the constant 1.
        out.witness.push_back(*value);
        out.value = Term::Const(Value::Int(1));
      } else {
        out.value = *value;
      }
    } else {
      if (!LowerFormula(agg_body, /*positive=*/true)) {
        scopes_.pop_back();
        return false;
      }
      if (agg.op == datalog::AggOp::kCount) {
        for (int id : binder_ids) out.witness.push_back(Term::Var(id));
        out.value = Term::Const(Value::Int(1));
      } else {
        if (binder_ids.empty()) {
          scopes_.pop_back();
          return FailBool("aggregate abstraction without binders");
        }
        for (size_t i = 0; i + 1 < binder_ids.size(); ++i) {
          out.witness.push_back(Term::Var(binder_ids[i]));
        }
        out.value = Term::Var(binder_ids.back());
      }
    }
    scopes_.pop_back();
    rule_.agg = std::move(out);
    return true;
  }

  /// A full application used as a formula: relation atom, comparison, or
  /// ternary arithmetic builtin.
  bool LowerApplication(const ExprPtr& expr, bool positive) {
    ExprPtr base;
    std::vector<Arg> args;
    FlattenApplication(expr, &base, &args);
    if (base->kind != ExprKind::kIdent) {
      return FailBool("application of a computed relation");
    }
    const std::string& name = base->name;
    if (Lookup(name)) return FailBool("application of a local variable");

    const bool is_defined = ctx_.defs->count(name) > 0;
    const Builtin* builtin =
        is_defined || RelParam(name) ? nullptr : FindBuiltin(name);
    if (builtin) {
      std::string canonical = CanonicalBuiltin(name);
      if (std::optional<CmpOp> cmp = CmpOpOf(canonical)) {
        if (args.size() != 2) return FailBool("comparison arity");
        // Negated comparisons must complement the WHOLE outcome, kUnordered
        // included: `not (x < 1)` holds for x = "a" in Rel, while the naive
        // inverse x >= 1 does not. Literal::NegatedCompare carries exactly
        // that semantics. Computed arguments stay disallowed under negation
        // (allow_aux=false): their auxiliary assignment would be emitted
        // positively, outside the negation, so a failing arithmetic would
        // falsify the body where Rel makes the negation vacuously true.
        std::optional<Term> a = TermOf(args[0].expr, /*allow_aux=*/positive);
        if (!a) return false;
        std::optional<Term> b = TermOf(args[1].expr, /*allow_aux=*/positive);
        if (!b) return false;
        rule_.body.push_back(positive
                                 ? Literal::Compare(*cmp, *a, *b)
                                 : Literal::NegatedCompare(*cmp, *a, *b));
        return true;
      }
      // Other negated builtins (arithmetic equation forms, range) are
      // rejected: their auxiliary assignment cannot be emitted under the
      // negation.
      if (!positive) return FailBool("negated builtin application");
      if (canonical == "range") {
        // range(lo, hi, step, x): same generator semantics as the Datalog
        // kRange literal (program.h), so this is a direct translation.
        if (args.size() != 4) return FailBool("range arity");
        std::vector<Term> terms;
        for (const Arg& arg : args) {
          std::optional<Term> t = TermOf(arg.expr);
          if (!t) return false;
          terms.push_back(*t);
        }
        rule_.body.push_back(
            Literal::Range(terms[0], terms[1], terms[2], terms[3]));
        return true;
      }
      if (std::optional<ArithOp> op = ArithOpOf(canonical)) {
        // add(a, b, c): compute into a fresh variable, then equate with the
        // result term — numeric-tolerant, matching the builtin's semantics.
        if (args.size() != 3) return FailBool("arithmetic builtin arity");
        std::optional<Term> a = TermOf(args[0].expr);
        if (!a) return false;
        std::optional<Term> b = TermOf(args[1].expr);
        if (!b) return false;
        std::optional<Term> c = TermOf(args[2].expr);
        if (!c) return false;
        int target = next_var_++;
        rule_.body.push_back(Literal::Assign(target, *op, *a, *b));
        rule_.body.push_back(
            Literal::Compare(CmpOp::kEq, Term::Var(target), *c));
        return true;
      }
      return FailBool("unsupported builtin '" + name + "'");
    }

    // Named relation (member, relation argument, defined external, or
    // base).
    std::optional<std::string> pred = ResolveRelation(name, &args);
    if (!pred) return false;
    std::vector<Term> terms;
    terms.reserve(args.size());
    for (const Arg& arg : args) {
      if (arg.annotation == Annotation::kSecondOrder) {
        return FailBool("second-order argument");
      }
      std::optional<Term> t = TermOf(arg.expr, /*allow_aux=*/positive);
      if (!t) return false;
      terms.push_back(*t);
    }
    return EmitRelationAtom(*pred, std::move(terms), positive);
  }

  bool LowerFormula(const ExprPtr& expr, bool positive) {
    switch (expr->kind) {
      case ExprKind::kAnd:
      case ExprKind::kWhere:
        if (!positive) return FailBool("negated conjunction");
        return LowerFormula(expr->children[0], true) &&
               LowerFormula(expr->children[1], true);
      case ExprKind::kNot:
        return LowerFormula(expr->children[0], !positive);
      case ExprKind::kExists: {
        if (!positive) return FailBool("negated quantifier");
        scopes_.emplace_back();
        for (const Binding& b : expr->bindings) {
          if (b.kind != Binding::Kind::kVar) {
            scopes_.pop_back();
            return FailBool("non-variable quantifier binding");
          }
          int id = Declare(b.name);
          if (b.domain && !LowerDomain(b.domain, id)) {
            scopes_.pop_back();
            return false;
          }
        }
        bool ok = LowerFormula(expr->body, true);
        scopes_.pop_back();
        return ok;
      }
      case ExprKind::kTrueLit:
        return positive ? true : FailBool("negated true");
      case ExprKind::kApplication:
        if (!expr->full) return FailBool("partial application as formula");
        return LowerApplication(expr, positive);
      default:
        return FailBool(std::string("unsupported construct (") +
                        ExprKindName(expr->kind) + ")");
    }
  }

  const ComponentContext& ctx_;
  std::string* why_;
  /// Relation parameter name -> position, for the def being lowered.
  std::map<std::string, size_t> rel_params_;
  std::vector<std::map<std::string, int>> scopes_;
  int next_var_ = 0;
  datalog::Rule rule_;
};

/// Lowers one def into one or more Datalog rules: disjunctive bodies split
/// into or-free alternatives (one rule each), and an aggregate head form
/// additionally splits its abstraction body — the engine folds one merged
/// bucket per group across a predicate's aggregate rules, which is exactly
/// the aggregate of the alternatives' union. Appends to `out`; false (with
/// *why set) on any construct outside the fragment.
bool LowerDef(const Def& def, const ComponentContext& ctx,
              std::vector<datalog::Rule>* out, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why && why->empty()) *why = reason;
    return false;
  };
  if (!def.body) return fail("def without a body");
  for (const ExprPtr& branch : Alternatives(def.body)) {
    std::vector<ExprPtr> conjuncts;
    FlattenConjunction(branch, &conjuncts);
    std::optional<AggMatch> agg;
    size_t agg_index = 0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::optional<AggMatch> m = MatchAggEq(conjuncts[i], def, ctx);
      if (!m) continue;
      if (agg) return fail("multiple aggregates in one rule");
      agg = m;
      agg_index = i;
    }
    if (!agg) {
      RuleLowerer lowerer(ctx, why);
      std::optional<datalog::Rule> rule =
          lowerer.Lower(def, conjuncts, nullptr, nullptr);
      if (!rule) return false;
      out->push_back(std::move(*rule));
      continue;
    }
    conjuncts.erase(conjuncts.begin() + agg_index);
    const Expr& abs = *agg->abstraction;
    std::vector<ExprPtr> agg_bodies =
        abs.square ? std::vector<ExprPtr>{abs.body} : Alternatives(abs.body);
    for (const ExprPtr& agg_body : agg_bodies) {
      RuleLowerer lowerer(ctx, why);
      std::optional<datalog::Rule> rule =
          lowerer.Lower(def, conjuncts, &*agg, agg_body);
      if (!rule) return false;
      out->push_back(std::move(*rule));
    }
  }
  return true;
}

/// LowerComponent, and with `reader` set LowerReader.
std::optional<LoweredComponent> Lower(const std::string& name,
                                      const ProgramAnalysis& analysis,
                                      const DefIndex& defs, std::string* why,
                                      size_t relation_params, bool reader) {
  if (why) why->clear();
  std::vector<std::string> members = analysis.ComponentMembers(name);
  if (members.empty()) {
    if (why) *why = "no rules";
    return std::nullopt;
  }

  LoweredComponent out;
  // Braces cannot occur in a Rel identifier, so these never collide with a
  // member, an external, or a base relation.
  for (size_t i = 0; i < relation_params; ++i) {
    out.arg_preds.push_back("{" + std::to_string(i) + "}");
  }
  ComponentContext ctx;
  ctx.members.insert(members.begin(), members.end());
  ctx.arg_preds = &out.arg_preds;
  ctx.defs = &defs;
  std::set<std::string> externals;
  ctx.externals = &externals;
  if (reader) ctx.sites = &out.instances;

  for (const std::string& member : members) {
    auto it = defs.find(member);
    if (it == defs.end()) continue;
    // A member's rules all take `relation_params` relation parameters, or
    // none of them lowers.
    if (it->second.size() != 1 ||
        it->second.begin()->first != relation_params) {
      if (why) {
        *why = relation_params == 0
                   ? "member '" + member + "' has second-order definitions"
                   : "member '" + member + "' does not take exactly " +
                         std::to_string(relation_params) +
                         " relation parameters";
      }
      return std::nullopt;
    }
    for (const auto& def : it->second.begin()->second) {
      std::vector<datalog::Rule> rules;
      if (!LowerDef(*def, ctx, &rules, why)) return std::nullopt;
      for (datalog::Rule& rule : rules) {
        out.program.AddRule(std::move(rule));
      }
    }
  }
  out.members = std::move(members);
  out.externals.assign(externals.begin(), externals.end());
  return out;
}

}  // namespace

std::optional<LoweredComponent> LowerComponent(
    const std::string& name, const ProgramAnalysis& analysis,
    const DefIndex& defs, std::string* why, size_t relation_params) {
  return Lower(name, analysis, defs, why, relation_params, /*reader=*/false);
}

std::optional<LoweredComponent> LowerReader(const std::string& name,
                                            const ProgramAnalysis& analysis,
                                            const DefIndex& defs) {
  if (analysis.IsRecursive(name)) return std::nullopt;
  return Lower(name, analysis, defs, nullptr, 0, /*reader=*/true);
}

std::string InstancePred(const std::string& pred, size_t site) {
  return pred + "[" + std::to_string(site) + "]";
}

void MergeProducer(const LoweredComponent& producer,
                   std::optional<size_t> site, datalog::Program* into) {
  std::set<std::string> renamed;
  if (site) {
    renamed.insert(producer.members.begin(), producer.members.end());
    renamed.insert(producer.arg_preds.begin(), producer.arg_preds.end());
  }
  auto name = [&](std::string* pred) {
    if (renamed.count(*pred)) *pred = InstancePred(*pred, *site);
  };
  for (datalog::Rule rule : producer.program.rules()) {
    name(&rule.head.pred);
    for (Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kPositive ||
          lit.kind == Literal::Kind::kNegative) {
        name(&lit.atom.pred);
      }
    }
    into->AddRule(std::move(rule));
  }
}

std::optional<LoweredComponent> LowerComponent(
    const std::string& name, const ProgramAnalysis& analysis,
    const std::vector<std::shared_ptr<Def>>& defs, std::string* why,
    size_t relation_params) {
  DefIndex index;
  for (const auto& def : defs) {
    if (!def->is_ic) index[def->name][CountSOParams(*def)].push_back(def);
  }
  return LowerComponent(name, analysis, index, why, relation_params);
}

}  // namespace rel
