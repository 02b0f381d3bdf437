#include "core/solver.h"

#include <algorithm>
#include <functional>
#include <set>

#include "base/error.h"
#include "base/hash.h"
#include "core/interp.h"
#include "core/parser.h"

namespace rel {

// --- SOValue / Env ----------------------------------------------------------

SOValue SOValue::Materialized(Relation r) {
  SOValue v;
  v.rel = std::make_shared<const Relation>(std::move(r));
  return v;
}

SOValue SOValue::ForBuiltin(const Builtin* b) {
  SOValue v;
  v.builtin = b;
  return v;
}

SOValue SOValue::Closure(ExprPtr e, std::shared_ptr<const Env> env) {
  SOValue v;
  v.expr = std::move(e);
  v.env = std::move(env);
  return v;
}

bool SOValue::operator==(const SOValue& other) const {
  if (IsMaterialized() != other.IsMaterialized()) return false;
  if (IsBuiltin() != other.IsBuiltin()) return false;
  if (IsClosure() != other.IsClosure()) return false;
  if (IsMaterialized()) return *rel == *other.rel;
  if (IsBuiltin()) return builtin == other.builtin;
  if (IsClosure()) {
    if (expr.get() != other.expr.get()) return false;
    if ((env == nullptr) != (other.env == nullptr)) return false;
    return env == nullptr || *env == *other.env;
  }
  return true;
}

size_t SOValue::Hash() const {
  if (IsMaterialized()) return HashCombine(1, rel->Hash());
  if (IsBuiltin()) return HashCombine(2, HashOf<const void*>(builtin));
  if (IsClosure()) {
    return HashCombine(HashCombine(3, HashOf<const void*>(expr.get())),
                       env ? env->Hash() : 0);
  }
  return 0;
}

bool Env::operator==(const Env& other) const {
  return vars == other.vars && tuples == other.tuples && rels == other.rels;
}

size_t Env::Hash() const {
  size_t seed = 17;
  for (const auto& [name, value] : vars) {
    seed = HashCombine(seed, HashOf<std::string>(name));
    seed = HashCombine(seed, value.Hash());
  }
  for (const auto& [name, tuple] : tuples) {
    seed = HashCombine(seed, HashOf<std::string>(name));
    seed = HashCombine(seed, tuple.Hash());
  }
  for (const auto& [name, rel] : rels) {
    seed = HashCombine(seed, HashOf<std::string>(name));
    seed = HashCombine(seed, rel.Hash());
  }
  return seed;
}

namespace {

// --- compiled representation ------------------------------------------------

struct CTerm {
  enum class Kind { kConst, kVar, kTupleVar, kWildcard, kWildcardTuple };
  Kind kind = Kind::kWildcard;
  Value cval;
  std::string name;  // internal (renamed) variable name

  static CTerm Const(Value v) {
    CTerm t;
    t.kind = Kind::kConst;
    t.cval = v;
    return t;
  }
  static CTerm Var(std::string n) {
    CTerm t;
    t.kind = Kind::kVar;
    t.name = std::move(n);
    return t;
  }
  static CTerm TupleVar(std::string n) {
    CTerm t;
    t.kind = Kind::kTupleVar;
    t.name = std::move(n);
    return t;
  }
  static CTerm Wildcard() { return CTerm(); }
  static CTerm WildcardTuple() {
    CTerm t;
    t.kind = Kind::kWildcardTuple;
    return t;
  }
};

/// What a source-level name refers to during compilation.
struct ScopeEntry {
  enum class Kind { kVar, kTupleVar, kRelVar };
  Kind kind = Kind::kVar;
  std::string internal;
};

using ScopeMap = std::map<std::string, ScopeEntry>;

/// One captured free variable: source name (as written in the expression),
/// internal name (as bound in solver frames), and kind.
struct FreeVar {
  std::string source;
  std::string internal;
  ScopeEntry::Kind kind;

  bool operator<(const FreeVar& other) const {
    return internal < other.internal;
  }
};

struct CompiledBody;
using BodyPtr = std::shared_ptr<CompiledBody>;

struct Constraint {
  enum class Kind { kAtom, kNegated, kAgg, kDisj };
  enum class Target { kGlobal, kRelVar, kExpr, kBuiltin };

  Kind kind = Kind::kAtom;

  // kAtom
  Target target = Target::kGlobal;
  std::string name;  // kGlobal: relation name; kRelVar: internal relvar name
  size_t sig = 0;    // kGlobal: number of leading second-order arguments
  ExprPtr texpr;     // kExpr: the target expression
  std::vector<FreeVar> texpr_free;
  const Builtin* builtin = nullptr;  // kBuiltin
  std::vector<ExprPtr> so_args;      // second-order argument expressions
  std::vector<std::vector<FreeVar>> so_free;
  std::vector<CTerm> args;
  bool seed = false;  // kRelVar over a Def::seeds_first parameter

  // kNegated
  BodyPtr neg;
  std::vector<FreeVar> need_bound;

  // kAgg: so_args[0] = operator, so_args[1] = input.
  CTerm agg_result;

  // kDisj
  std::vector<BodyPtr> branches;
  std::string disj_out;  // tuple variable receiving branch outputs; "" = none

  // Scope snapshot at the constraint's compilation point; used to compile
  // guard queries for unbound second-order captures at runtime.
  ScopeMap scope;
  // Lazily compiled guard bodies (one per so-arg / texpr), see ExecGuarded.
  mutable std::vector<BodyPtr> guard_cache;
  // kAtom over a first-order named relation: whether a bound lookup takes
  // a seeded slice, resolved on the first execution (see ExecAtom).
  mutable std::optional<bool> seedable;

  std::string describe;
};

using ConstraintPtr = std::shared_ptr<Constraint>;

struct CompiledBody {
  std::vector<ConstraintPtr> constraints;
  std::vector<CTerm> outs;
};

struct CompiledRule {
  std::vector<std::string> relvar_internals;  // leading {A} params, in order
  std::vector<CTerm> head_terms;              // first-order params, in order
  CompiledBody body;
  bool square = false;
};

[[noreturn]] void SafetyFail(const std::string& message) {
  throw RelError(ErrorKind::kSafety, message);
}

[[noreturn]] void TypeFail(const std::string& message) {
  throw RelError(ErrorKind::kType, message);
}

}  // namespace

// --- Compiler ----------------------------------------------------------------

namespace {

class Compiler {
 public:
  explicit Compiler(Interp* interp) : interp_(interp) {
    scopes_.emplace_back();
  }

  /// Adds every name bound in `env` to the base scope (mapping to itself).
  void SeedFromEnv(const Env& env) {
    ScopeMap& base = scopes_.front();
    for (const auto& [name, v] : env.vars) {
      (void)v;
      base[name] = {ScopeEntry::Kind::kVar, name};
    }
    for (const auto& [name, t] : env.tuples) {
      (void)t;
      base[name] = {ScopeEntry::Kind::kTupleVar, name};
    }
    for (const auto& [name, r] : env.rels) {
      (void)r;
      base[name] = {ScopeEntry::Kind::kRelVar, name};
    }
  }

  /// Adds a previously captured scope snapshot (guard compilation).
  void SeedFromSnapshot(const ScopeMap& snapshot) {
    scopes_.front() = snapshot;
  }

  CompiledRule CompileRule(const Def& def) {
    CompiledRule rule;
    rule.square = def.square_head;
    PushScope();
    CompiledBody body;
    bool seen_fo = false;
    for (const Binding& b : def.params) {
      if (b.kind == Binding::Kind::kRelVar) {
        if (seen_fo) {
          TypeFail("relation-variable parameters must come first in '" +
                   def.name + "'");
        }
        std::string internal = Rename(b.name);
        Declare(b.name, ScopeEntry::Kind::kRelVar, internal);
        rule.relvar_internals.push_back(internal);
        if (def.seeds_first) seed_relvars_.insert(internal);
        continue;
      }
      seen_fo = true;
      rule.head_terms.push_back(CompileBinding(b, &body.constraints));
    }
    CompiledBody inner = CompileBodyExpr(def.body);
    for (auto& c : inner.constraints) body.constraints.push_back(c);
    if (!def.square_head && !inner.outs.empty()) {
      TypeFail("body of a (..)-headed rule must be a formula: def " +
               def.name);
    }
    body.outs = std::move(inner.outs);
    rule.body = std::move(body);
    PopScope();
    return rule;
  }

  CompiledBody CompileTop(const ExprPtr& expr) { return CompileBodyExpr(expr); }

 private:
  // --- scope handling ---

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  std::string Rename(const std::string& name) {
    return name + "$" + std::to_string(interp_->FreshId());
  }

  std::string FreshVar() { return "$v" + std::to_string(interp_->FreshId()); }
  std::string FreshTupleVar() {
    return "$t" + std::to_string(interp_->FreshId());
  }

  void Declare(const std::string& name, ScopeEntry::Kind kind,
               const std::string& internal) {
    scopes_.back()[name] = {kind, internal};
  }

  const ScopeEntry* Lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  ScopeMap Snapshot() const {
    ScopeMap out;
    for (const ScopeMap& scope : scopes_) {
      for (const auto& [name, entry] : scope) out[name] = entry;
    }
    return out;
  }

  /// Free variables of `expr` with respect to the current scope: every
  /// in-scope name referenced, after shadowing by local binders.
  std::vector<FreeVar> FreeVars(const ExprPtr& expr) const {
    std::set<FreeVar> acc;
    std::set<std::string> shadow;
    CollectFree(expr, &shadow, &acc);
    return std::vector<FreeVar>(acc.begin(), acc.end());
  }

  void CollectFree(const ExprPtr& expr, std::set<std::string>* shadow,
                   std::set<FreeVar>* acc) const {
    if (!expr) return;
    switch (expr->kind) {
      case ExprKind::kIdent:
      case ExprKind::kTupleVar: {
        if (shadow->count(expr->name)) return;
        const ScopeEntry* entry = Lookup(expr->name);
        if (entry) acc->insert({expr->name, entry->internal, entry->kind});
        return;
      }
      case ExprKind::kAbstraction:
      case ExprKind::kExists:
      case ExprKind::kForall: {
        std::set<std::string> inner = *shadow;
        for (const Binding& b : expr->bindings) {
          if (b.domain) CollectFree(b.domain, shadow, acc);
          if (b.kind == Binding::Kind::kVar ||
              b.kind == Binding::Kind::kTupleVar ||
              b.kind == Binding::Kind::kRelVar) {
            inner.insert(b.name);
          }
        }
        CollectFree(expr->body, &inner, acc);
        return;
      }
      case ExprKind::kApplication: {
        CollectFree(expr->target, shadow, acc);
        for (const Arg& a : expr->args) CollectFree(a.expr, shadow, acc);
        return;
      }
      default:
        for (const ExprPtr& child : expr->children) {
          CollectFree(child, shadow, acc);
        }
        CollectFree(expr->body, shadow, acc);
        CollectFree(expr->target, shadow, acc);
        return;
    }
  }

  // --- binding compilation ---

  CTerm CompileBinding(const Binding& b,
                       std::vector<ConstraintPtr>* constraints) {
    switch (b.kind) {
      case Binding::Kind::kVar: {
        std::string internal = Rename(b.name);
        Declare(b.name, ScopeEntry::Kind::kVar, internal);
        if (b.domain) {
          EmitAtomFromExpr(b.domain, {CTerm::Var(internal)}, constraints);
        }
        return CTerm::Var(internal);
      }
      case Binding::Kind::kTupleVar: {
        std::string internal = Rename(b.name);
        Declare(b.name, ScopeEntry::Kind::kTupleVar, internal);
        return CTerm::TupleVar(internal);
      }
      case Binding::Kind::kLiteral:
        return CTerm::Const(b.literal);
      case Binding::Kind::kWildcard:
        return CTerm::Var(FreshVar());
      case Binding::Kind::kRelVar:
        TypeFail("relation variable binding not allowed here");
    }
    TypeFail("bad binding");
  }

  // --- expression compilation (constraints + output terms) ---

  CompiledBody CompileBodyExpr(const ExprPtr& expr) {
    CompiledBody body;
    switch (expr->kind) {
      case ExprKind::kLiteral:
        body.outs.push_back(CTerm::Const(expr->literal));
        return body;
      case ExprKind::kRelNameLit:
        body.outs.push_back(
            CTerm::Const(Value::Entity("rel", expr->name)));
        return body;
      case ExprKind::kIdent: {
        const ScopeEntry* entry = Lookup(expr->name);
        if (entry) {
          switch (entry->kind) {
            case ScopeEntry::Kind::kVar:
              body.outs.push_back(CTerm::Var(entry->internal));
              return body;
            case ScopeEntry::Kind::kTupleVar:
              body.outs.push_back(CTerm::TupleVar(entry->internal));
              return body;
            case ScopeEntry::Kind::kRelVar: {
              std::string tv = FreshTupleVar();
              EmitAtomFromExpr(expr, {CTerm::TupleVar(tv)},
                               &body.constraints);
              body.outs.push_back(CTerm::TupleVar(tv));
              return body;
            }
          }
        }
        // Global relation (defined, base or builtin) used as an expression.
        if (!interp_->HasDefs(expr->name) && FindBuiltin(expr->name)) {
          const Builtin* b = FindBuiltin(expr->name);
          std::vector<CTerm> terms;
          for (size_t i = 0; i < b->arity(); ++i) {
            terms.push_back(CTerm::Var(FreshVar()));
          }
          EmitAtomFromExpr(expr, terms, &body.constraints);
          body.outs = terms;
          return body;
        }
        {
          std::string tv = FreshTupleVar();
          EmitAtomFromExpr(expr, {CTerm::TupleVar(tv)}, &body.constraints);
          body.outs.push_back(CTerm::TupleVar(tv));
          return body;
        }
      }
      case ExprKind::kTupleVar: {
        const ScopeEntry* entry = Lookup(expr->name);
        if (!entry || entry->kind != ScopeEntry::Kind::kTupleVar) {
          TypeFail("unbound tuple variable '" + expr->name + "...'");
        }
        body.outs.push_back(CTerm::TupleVar(entry->internal));
        return body;
      }
      case ExprKind::kWildcard:
        // J _ K = all values: safe only if some other constraint binds it,
        // which cannot happen for an anonymous variable, so this is caught
        // at emission time as an unbound output.
        body.outs.push_back(CTerm::Var(FreshVar()));
        return body;
      case ExprKind::kWildcardTuple:
        body.outs.push_back(CTerm::TupleVar(FreshTupleVar()));
        return body;
      case ExprKind::kProduct: {
        for (const ExprPtr& child : expr->children) {
          CompiledBody part = CompileBodyExpr(child);
          for (auto& c : part.constraints) body.constraints.push_back(c);
          for (auto& o : part.outs) body.outs.push_back(o);
        }
        return body;
      }
      case ExprKind::kWhere: {
        body = CompileBodyExpr(expr->children[0]);
        CompileFormula(expr->children[1], /*positive=*/true,
                       &body.constraints);
        return body;
      }
      case ExprKind::kUnion: {
        auto c = std::make_shared<Constraint>();
        c->kind = Constraint::Kind::kDisj;
        c->scope = Snapshot();
        c->describe = expr->ToString();
        bool any_outs = false;
        for (const ExprPtr& child : expr->children) {
          auto branch = std::make_shared<CompiledBody>(CompileBodyExpr(child));
          any_outs |= !branch->outs.empty();
          c->branches.push_back(branch);
        }
        if (any_outs) {
          c->disj_out = FreshTupleVar();
          body.outs.push_back(CTerm::TupleVar(c->disj_out));
        }
        body.constraints.push_back(c);
        return body;
      }
      case ExprKind::kAbstraction: {
        // Inline: binder terms become outputs followed by the body's
        // outputs (Figure 3, J[x]:ExprK).
        PushScope();
        for (const Binding& b : expr->bindings) {
          if (b.kind == Binding::Kind::kRelVar) {
            TypeFail("relation variable cannot be bound by an inline "
                     "abstraction");
          }
          body.outs.push_back(CompileBinding(b, &body.constraints));
        }
        CompiledBody inner = CompileBodyExpr(expr->body);
        for (auto& c : inner.constraints) body.constraints.push_back(c);
        for (auto& o : inner.outs) body.outs.push_back(o);
        PopScope();
        return body;
      }
      case ExprKind::kApplication: {
        if (expr->full) {
          CompileFormula(expr, /*positive=*/true, &body.constraints);
          return body;
        }
        return CompilePartialApplication(expr);
      }
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot:
      case ExprKind::kExists:
      case ExprKind::kForall:
      case ExprKind::kTrueLit:
      case ExprKind::kFalseLit:
        CompileFormula(expr, /*positive=*/true, &body.constraints);
        return body;
    }
    TypeFail("cannot compile expression " + expr->ToString());
  }

  /// target[args] in an expression position: the suffixes of matching
  /// tuples become the outputs.
  CompiledBody CompilePartialApplication(const ExprPtr& expr) {
    CompiledBody body;
    // Builtin targets have a fixed arity, so the suffix expands to
    // individual fresh variables instead of a tuple variable.
    ExprPtr base = expr;
    std::vector<Arg> all_args;
    FlattenApplication(expr, &base, &all_args);
    if (base->kind == ExprKind::kIdent && !Lookup(base->name) &&
        !interp_->HasDefs(base->name) &&
        base->name != builtin_names::kReduce && FindBuiltin(base->name)) {
      const Builtin* b = FindBuiltin(base->name);
      if (all_args.size() > b->arity()) {
        throw RelError(ErrorKind::kArity,
                       "builtin '" + base->name + "' takes " +
                           std::to_string(b->arity()) + " arguments");
      }
      std::vector<CTerm> extra;
      for (size_t i = all_args.size(); i < b->arity(); ++i) {
        CTerm v = CTerm::Var(FreshVar());
        extra.push_back(v);
        body.outs.push_back(v);
      }
      EmitAtom(base, all_args, extra, &body.constraints);
      return body;
    }
    std::string tv = FreshTupleVar();
    EmitAtom(base, all_args, {CTerm::TupleVar(tv)}, &body.constraints);
    body.outs.push_back(CTerm::TupleVar(tv));
    return body;
  }

  // --- formula compilation ---

  void CompileFormula(const ExprPtr& expr, bool positive,
                      std::vector<ConstraintPtr>* out) {
    switch (expr->kind) {
      case ExprKind::kAnd:
        if (positive) {
          CompileFormula(expr->children[0], true, out);
          CompileFormula(expr->children[1], true, out);
        } else {
          // not (a and b) == not a or not b
          EmitDisjOfNegations(expr->children, out);
        }
        return;
      case ExprKind::kOr:
        if (positive) {
          auto c = std::make_shared<Constraint>();
          c->kind = Constraint::Kind::kDisj;
          c->scope = Snapshot();
          c->describe = expr->ToString();
          for (const ExprPtr& child : expr->children) {
            auto branch = std::make_shared<CompiledBody>();
            CompileFormula(child, true, &branch->constraints);
            c->branches.push_back(branch);
          }
          out->push_back(c);
        } else {
          // not (a or b) == not a and not b
          CompileFormula(expr->children[0], false, out);
          CompileFormula(expr->children[1], false, out);
        }
        return;
      case ExprKind::kNot:
        CompileFormula(expr->children[0], !positive, out);
        return;
      case ExprKind::kExists:
        if (positive) {
          // Inline: binders become existential locals of the conjunction.
          PushScope();
          for (const Binding& b : expr->bindings) {
            CompileBinding(b, out);
          }
          CompileFormula(expr->body, true, out);
          PopScope();
        } else {
          EmitNegatedSub(expr, out);
        }
        return;
      case ExprKind::kForall: {
        // forall(b | f) == not exists(b | not f)
        auto exists = MakeExpr(ExprKind::kExists, expr->line, expr->column);
        exists->bindings = expr->bindings;
        auto neg = MakeExpr(ExprKind::kNot, expr->line, expr->column);
        neg->children = {expr->body};
        exists->body = neg;
        if (positive) {
          EmitNegatedSub(exists, out);
        } else {
          // not forall == exists not
          CompileFormula(exists, true, out);
        }
        return;
      }
      case ExprKind::kTrueLit:
        if (!positive) EmitFail(out);
        return;
      case ExprKind::kFalseLit:
        if (positive) EmitFail(out);
        return;
      case ExprKind::kWhere:
        // In a formula position `e where f` behaves like a conjunction.
        if (positive) {
          CompileFormula(expr->children[0], true, out);
          CompileFormula(expr->children[1], true, out);
        } else {
          EmitDisjOfNegations(expr->children, out);
        }
        return;
      case ExprKind::kApplication:
        if (expr->full) {
          if (positive) {
            ExprPtr base;
            std::vector<Arg> args;
            FlattenApplication(expr, &base, &args);
            EmitAtom(base, args, {}, out);
          } else {
            EmitNegatedSub(expr, out);
          }
          return;
        }
        // A partial application used as a formula asserts that the result
        // is non-empty (its outputs are dropped).
        if (positive) {
          CompiledBody body = CompileBodyExpr(expr);
          for (auto& c : body.constraints) out->push_back(c);
        } else {
          EmitNegatedSub(expr, out);
        }
        return;
      default: {
        // Any other expression as a formula asserts non-emptiness.
        if (positive) {
          CompiledBody body = CompileBodyExpr(expr);
          for (auto& c : body.constraints) out->push_back(c);
        } else {
          EmitNegatedSub(expr, out);
        }
        return;
      }
    }
  }

  /// Emits `not e1 or not e2` as a disjunction constraint.
  void EmitDisjOfNegations(const std::vector<ExprPtr>& children,
                           std::vector<ConstraintPtr>* out) {
    auto c = std::make_shared<Constraint>();
    c->kind = Constraint::Kind::kDisj;
    c->scope = Snapshot();
    c->describe = "negated conjunction";
    for (const ExprPtr& child : children) {
      auto branch = std::make_shared<CompiledBody>();
      CompileFormula(child, false, &branch->constraints);
      c->branches.push_back(branch);
    }
    out->push_back(c);
  }

  /// Emits a negated sub-formula constraint: the formula is compiled
  /// positively; the constraint succeeds iff it has no solution. All its
  /// free variables must be bound before it runs.
  void EmitNegatedSub(const ExprPtr& formula, std::vector<ConstraintPtr>* out) {
    auto c = std::make_shared<Constraint>();
    c->kind = Constraint::Kind::kNegated;
    c->scope = Snapshot();
    c->describe = "not " + formula->ToString();
    c->need_bound = FreeVars(formula);
    auto sub = std::make_shared<CompiledBody>();
    // Inside the negation the formula is positive again; its outputs (if it
    // is a relation expression) witness non-emptiness and are dropped.
    CompiledBody body = CompileBodyExpr(formula);
    sub->constraints = std::move(body.constraints);
    c->neg = sub;
    out->push_back(c);
  }

  /// Emits a constraint that always fails (compiled `false`): a negation
  /// whose sub-body has the empty solution.
  void EmitFail(std::vector<ConstraintPtr>* out) {
    auto c = std::make_shared<Constraint>();
    c->kind = Constraint::Kind::kNegated;
    c->describe = "false";
    c->neg = std::make_shared<CompiledBody>();
    out->push_back(c);
  }

  // --- atoms ---

  /// Compiles the membership/application of `target_expr` (an arbitrary
  /// relation-valued expression) to the argument terms `terms`:
  /// target_expr(terms) as a constraint.
  void EmitAtomFromExpr(const ExprPtr& target_expr, std::vector<CTerm> terms,
                        std::vector<ConstraintPtr>* out) {
    ExprPtr base;
    std::vector<Arg> args;
    FlattenApplication(target_expr, &base, &args);
    EmitAtom(base, args, std::move(terms), out);
  }

  /// Infers a first-order annotation for unannotated arguments whose shape
  /// can only denote a value: literals, in-scope first-order variables, and
  /// arithmetic (builtin) applications. This is the "examining the
  /// definition" rule of Addendum A that lets the paper's addUp definition
  /// call addUp[(x-x%10)/10] without a ?{} annotation.
  Annotation InferAnnotation(const ExprPtr& e) const {
    switch (e->kind) {
      case ExprKind::kLiteral:
      case ExprKind::kWildcard:
        return Annotation::kFirstOrder;
      case ExprKind::kIdent: {
        const ScopeEntry* entry = Lookup(e->name);
        if (entry && entry->kind == ScopeEntry::Kind::kVar) {
          return Annotation::kFirstOrder;
        }
        return Annotation::kNone;
      }
      case ExprKind::kApplication: {
        ExprPtr base;
        std::vector<Arg> args;
        FlattenApplication(e, &base, &args);
        if (base->kind == ExprKind::kIdent && !Lookup(base->name) &&
            !interp_->HasDefs(base->name) && FindBuiltin(base->name)) {
          return Annotation::kFirstOrder;
        }
        return Annotation::kNone;
      }
      default:
        return Annotation::kNone;
    }
  }

  /// The core atom compiler. `base` is the (flattened) application target,
  /// `args_in` the source-level arguments, `extra` already-compiled trailing
  /// terms (suffix capture or membership variables).
  void EmitAtom(const ExprPtr& base, const std::vector<Arg>& args,
                std::vector<CTerm> extra, std::vector<ConstraintPtr>* out) {
    auto c = std::make_shared<Constraint>();
    c->kind = Constraint::Kind::kAtom;
    c->scope = Snapshot();

    size_t sig = 0;
    if (base->kind == ExprKind::kIdent) {
      const std::string& name = base->name;
      const ScopeEntry* entry = Lookup(name);
      if (entry) {
        switch (entry->kind) {
          case ScopeEntry::Kind::kRelVar:
            c->target = Constraint::Target::kRelVar;
            c->name = entry->internal;
            c->seed = seed_relvars_.count(entry->internal) > 0;
            break;
          case ScopeEntry::Kind::kVar:
          case ScopeEntry::Kind::kTupleVar:
            TypeFail("cannot apply first-order variable '" + name + "'");
        }
      } else if (name == builtin_names::kReduce) {
        // reduce[&{op}, &{input}] / reduce(&{op}, &{input}, ?{v})
        if (args.size() < 2) {
          throw RelError(ErrorKind::kArity,
                         "reduce takes an operator and a relation");
        }
        c->kind = Constraint::Kind::kAgg;
        c->so_args = {args[0].expr, args[1].expr};
        c->so_free = {FreeVars(args[0].expr), FreeVars(args[1].expr)};
        if (args.size() == 3) {
          if (!extra.empty()) {
            throw RelError(ErrorKind::kArity, "reduce takes 3 arguments");
          }
          c->agg_result = CompileArgTerm(args[2], out);
        } else if (args.size() == 2 && extra.size() == 1) {
          c->agg_result = extra[0];
        } else {
          throw RelError(ErrorKind::kArity, "reduce takes 3 arguments");
        }
        c->describe = "reduce";
        out->push_back(c);
        return;
      } else if (interp_->HasDefs(name)) {
        c->target = Constraint::Target::kGlobal;
        c->name = name;
        try {
          sig = interp_->ResolveSig(name, args);
        } catch (const RelError& err) {
          if (err.kind() != ErrorKind::kAmbiguous) throw;
          // Tie-break with annotations inferred from argument shapes
          // (Addendum A: the engine examines the definitions, and argument
          // expressions that can only denote values are first-order).
          std::vector<Arg> inferred = args;
          for (Arg& a : inferred) {
            if (a.expr && a.annotation == Annotation::kNone) {
              a.annotation = InferAnnotation(a.expr);
            }
          }
          sig = interp_->ResolveSig(name, inferred);
        }
        c->sig = sig;
      } else if (FindBuiltin(name)) {
        c->target = Constraint::Target::kBuiltin;
        c->builtin = FindBuiltin(name);
        c->name = name;
        if (args.size() + extra.size() != c->builtin->arity()) {
          throw RelError(ErrorKind::kArity,
                         "builtin '" + name + "' takes " +
                             std::to_string(c->builtin->arity()) +
                             " arguments");
        }
      } else {
        // Base (stored) relation, possibly empty.
        c->target = Constraint::Target::kGlobal;
        c->name = name;
        c->sig = 0;
      }
    } else {
      c->target = Constraint::Target::kExpr;
      c->texpr = base;
      c->texpr_free = FreeVars(base);
    }

    // Second-order arguments.
    for (size_t i = 0; i < sig; ++i) {
      if (i >= args.size()) {
        throw RelError(ErrorKind::kArity,
                       "application of '" + c->name +
                           "' is missing relation arguments");
      }
      if (!args[i].expr) {
        TypeFail("wildcard cannot be a relation argument");
      }
      if (args[i].annotation == Annotation::kFirstOrder) {
        TypeFail("?{..} argument in a second-order position of '" + c->name +
                 "'");
      }
      c->so_args.push_back(args[i].expr);
      c->so_free.push_back(FreeVars(args[i].expr));
    }

    // First-order arguments.
    for (size_t i = sig; i < args.size(); ++i) {
      if (args[i].annotation == Annotation::kSecondOrder) {
        TypeFail("&{..} argument in a first-order position");
      }
      c->args.push_back(CompileArgTerm(args[i], out));
    }
    for (CTerm& t : extra) c->args.push_back(std::move(t));

    c->describe = (base->kind == ExprKind::kIdent ? base->name : "<expr>");
    out->push_back(c);
  }

  /// Compiles one first-order argument to a term, adding membership
  /// constraints for complex expressions (the ?{Expr} semantics of
  /// Addendum A).
  CTerm CompileArgTerm(const Arg& arg, std::vector<ConstraintPtr>* out) {
    const ExprPtr& e = arg.expr;
    switch (e->kind) {
      case ExprKind::kLiteral:
        return CTerm::Const(e->literal);
      case ExprKind::kRelNameLit:
        return CTerm::Const(Value::Entity("rel", e->name));
      case ExprKind::kWildcard:
        return CTerm::Wildcard();
      case ExprKind::kWildcardTuple:
        return CTerm::WildcardTuple();
      case ExprKind::kTupleVar: {
        const ScopeEntry* entry = Lookup(e->name);
        if (!entry || entry->kind != ScopeEntry::Kind::kTupleVar) {
          TypeFail("unbound tuple variable '" + e->name + "...'");
        }
        return CTerm::TupleVar(entry->internal);
      }
      case ExprKind::kIdent: {
        const ScopeEntry* entry = Lookup(e->name);
        if (entry) {
          switch (entry->kind) {
            case ScopeEntry::Kind::kVar:
              return CTerm::Var(entry->internal);
            case ScopeEntry::Kind::kTupleVar:
              return CTerm::TupleVar(entry->internal);
            case ScopeEntry::Kind::kRelVar:
              TypeFail("relation variable '" + e->name +
                       "' used as a first-order argument");
          }
        }
        break;  // fall through to membership compilation
      }
      default:
        break;
    }
    // Complex argument: fresh variable v with v ∈ e.
    CTerm v = CTerm::Var(FreshVar());
    EmitAtomFromExpr(e, {v}, out);
    return v;
  }

  Interp* interp_;
  std::vector<ScopeMap> scopes_;
  // Internal names of relation parameters whose atoms enumerate first
  // (Def::seeds_first).
  std::set<std::string> seed_relvars_;
};

}  // namespace

// --- Executor -----------------------------------------------------------------

namespace {

/// Mutable solving state: current first-order and tuple bindings. The
/// read-only environment (captured values and relation variables) lives in
/// Executor.
struct Frame {
  std::map<std::string, Value> vars;
  std::map<std::string, Tuple> tuples;
};

enum class ExecResult { kDone, kDeferred, kStop };

class Executor {
 public:
  Executor(Interp* interp, const Env* env) : interp_(interp), env_(env) {}

  /// Solves `body`, calling `emit` for every solution frame. Returns false
  /// iff an emit requested a global stop.
  bool Solve(const CompiledBody& body, Frame frame,
             const std::function<bool(const Frame&)>& emit) {
    std::vector<const Constraint*> remaining;
    remaining.reserve(body.constraints.size());
    for (const auto& c : body.constraints) remaining.push_back(c.get());
    return SolveRemaining(remaining, frame, emit);
  }

  /// Evaluates an output term list under a solution frame.
  Tuple EvalOuts(const std::vector<CTerm>& outs, const Frame& frame) const {
    Tuple out;
    for (const CTerm& t : outs) {
      switch (t.kind) {
        case CTerm::Kind::kConst:
          out.Append(t.cval);
          break;
        case CTerm::Kind::kVar: {
          const Value* v = LookupVar(frame, t.name);
          if (!v) {
            SafetyFail("output variable is unbound (expression denotes an "
                       "infinite relation)");
          }
          out.Append(*v);
          break;
        }
        case CTerm::Kind::kTupleVar: {
          const Tuple* tv = LookupTuple(frame, t.name);
          if (!tv) {
            SafetyFail("output tuple variable is unbound (expression denotes "
                       "an infinite relation)");
          }
          out.AppendAll(*tv);
          break;
        }
        case CTerm::Kind::kWildcard:
        case CTerm::Kind::kWildcardTuple:
          SafetyFail("wildcard in an output position denotes an infinite "
                     "relation");
      }
    }
    return out;
  }

 private:
  // --- lookups ---

  const Value* LookupVar(const Frame& frame, const std::string& name) const {
    auto it = frame.vars.find(name);
    if (it != frame.vars.end()) return &it->second;
    auto eit = env_->vars.find(name);
    if (eit != env_->vars.end()) return &eit->second;
    return nullptr;
  }

  const Tuple* LookupTuple(const Frame& frame, const std::string& name) const {
    auto it = frame.tuples.find(name);
    if (it != frame.tuples.end()) return &it->second;
    auto eit = env_->tuples.find(name);
    if (eit != env_->tuples.end()) return &eit->second;
    return nullptr;
  }

  const SOValue* LookupRel(const std::string& name) const {
    auto it = env_->rels.find(name);
    if (it != env_->rels.end()) return &it->second;
    return nullptr;
  }

  bool FreeBound(const std::vector<FreeVar>& frees, const Frame& frame) const {
    for (const FreeVar& f : frees) {
      switch (f.kind) {
        case ScopeEntry::Kind::kVar:
          if (!LookupVar(frame, f.internal)) return false;
          break;
        case ScopeEntry::Kind::kTupleVar:
          if (!LookupTuple(frame, f.internal)) return false;
          break;
        case ScopeEntry::Kind::kRelVar:
          if (!LookupRel(f.internal)) return false;
          break;
      }
    }
    return true;
  }

  // --- the solve loop ---

  bool SolveRemaining(const std::vector<const Constraint*>& remaining,
                      const Frame& frame,
                      const std::function<bool(const Frame&)>& emit) {
    if (remaining.empty()) return emit(frame);

    // Order candidates: cheap filters first, then enumerations with many
    // bound positions, then aggregations and disjunctions.
    std::vector<std::pair<int, size_t>> order;
    order.reserve(remaining.size());
    for (size_t i = 0; i < remaining.size(); ++i) {
      order.emplace_back(Score(*remaining[i], frame), i);
    }
    std::stable_sort(order.begin(), order.end());

    for (const auto& [score, idx] : order) {
      (void)score;
      std::vector<const Constraint*> rest;
      rest.reserve(remaining.size() - 1);
      for (size_t i = 0; i < remaining.size(); ++i) {
        if (i != idx) rest.push_back(remaining[i]);
      }
      bool stop = false;
      ExecResult result = TryExec(*remaining[idx], rest, frame, emit, &stop);
      if (result == ExecResult::kStop) return false;
      if (result == ExecResult::kDone) return !stop;
    }

    std::string what = "no safe evaluation order for: ";
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (i) what += ", ";
      what += remaining[i]->describe;
    }
    SafetyFail(what);
  }

  int Score(const Constraint& c, const Frame& frame) const {
    switch (c.kind) {
      case Constraint::Kind::kNegated:
        return FreeBound(c.need_bound, frame) ? 1 : 100;
      case Constraint::Kind::kAtom: {
        if (c.target == Constraint::Target::kBuiltin) {
          bool all_bound = true;
          for (const CTerm& t : c.args) {
            if (t.kind == CTerm::Kind::kVar && !LookupVar(frame, t.name)) {
              all_bound = false;
            }
            if (t.kind == CTerm::Kind::kWildcard) all_bound = false;
          }
          return all_bound ? 0 : 2;
        }
        bool so_ready = true;
        for (const auto& frees : c.so_free) {
          if (!FreeBound(frees, frame)) so_ready = false;
        }
        if (!FreeBound(c.texpr_free, frame)) so_ready = false;
        if (!so_ready) return 8;  // needs guard extraction
        // A delta seed holds a commit's few rows: enumerate it as if bound.
        if (c.seed) return 4;
        int unbound = 0;
        for (const CTerm& t : c.args) {
          if (t.kind == CTerm::Kind::kVar && !LookupVar(frame, t.name)) {
            ++unbound;
          }
          if (t.kind == CTerm::Kind::kTupleVar &&
              !LookupTuple(frame, t.name)) {
            ++unbound;
          }
        }
        return 4 + std::min(unbound, 3);
      }
      case Constraint::Kind::kAgg: {
        bool ready = FreeBound(c.so_free[0], frame) &&
                     FreeBound(c.so_free[1], frame);
        return ready ? 3 : 8;
      }
      case Constraint::Kind::kDisj:
        return 9;
    }
    return 50;
  }

  ExecResult TryExec(const Constraint& c,
                     const std::vector<const Constraint*>& rest,
                     const Frame& frame,
                     const std::function<bool(const Frame&)>& emit,
                     bool* stop) {
    switch (c.kind) {
      case Constraint::Kind::kAtom:
        return ExecAtom(c, rest, frame, emit, stop);
      case Constraint::Kind::kNegated:
        return ExecNegated(c, rest, frame, emit, stop);
      case Constraint::Kind::kAgg:
        return ExecAgg(c, rest, frame, emit, stop);
      case Constraint::Kind::kDisj:
        return ExecDisj(c, rest, frame, emit, stop);
    }
    return ExecResult::kDeferred;
  }

  // --- negation ---

  ExecResult ExecNegated(const Constraint& c,
                         const std::vector<const Constraint*>& rest,
                         const Frame& frame,
                         const std::function<bool(const Frame&)>& emit,
                         bool* stop) {
    if (!FreeBound(c.need_bound, frame)) return ExecResult::kDeferred;
    bool found;
    try {
      found = !Solve(*c.neg, frame, [](const Frame&) { return false; });
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    if (found) return ExecResult::kDone;  // negation fails: no solutions
    if (!SolveRemaining(rest, frame, emit)) *stop = true;
    return ExecResult::kDone;
  }

  // --- aggregation (reduce) ---

  ExecResult ExecAgg(const Constraint& c,
                     const std::vector<const Constraint*>& rest,
                     const Frame& frame,
                     const std::function<bool(const Frame&)>& emit,
                     bool* stop) {
    if (!FreeBound(c.so_free[0], frame) || !FreeBound(c.so_free[1], frame)) {
      return ExecGuarded(c, rest, frame, emit, stop);
    }
    SOValue op = ResolveSOArg(c, 0, frame);
    SOValue input = ResolveSOArg(c, 1, frame);
    const Relation* in;
    try {
      in = &interp_->MaterializeSO(input);
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    if (in->empty()) return ExecResult::kDone;  // reduce over {} is {}
    std::optional<Value> acc;
    for (const Tuple& t : in->SortedTuples()) {
      if (t.arity() == 0) continue;
      const Value& v = t[t.arity() - 1];
      if (!acc) {
        acc = v;
        continue;
      }
      acc = interp_->ApplyBinary(op, *acc, v);
      if (!acc) return ExecResult::kDone;  // operator undefined on inputs
    }
    if (!acc) return ExecResult::kDone;
    // Bind or check the result term.
    Frame next = frame;
    switch (c.agg_result.kind) {
      case CTerm::Kind::kConst:
        if (c.agg_result.cval.NumericCompare(*acc) !=
            Value::Ordering::kEqual) {
          return ExecResult::kDone;
        }
        break;
      case CTerm::Kind::kVar: {
        const Value* bound = LookupVar(frame, c.agg_result.name);
        if (bound) {
          if (bound->NumericCompare(*acc) != Value::Ordering::kEqual) {
            return ExecResult::kDone;
          }
        } else {
          next.vars[c.agg_result.name] = *acc;
        }
        break;
      }
      case CTerm::Kind::kTupleVar: {
        const Tuple* bound = LookupTuple(frame, c.agg_result.name);
        Tuple result({*acc});
        if (bound) {
          if (*bound != result) return ExecResult::kDone;
        } else {
          next.tuples[c.agg_result.name] = result;
        }
        break;
      }
      case CTerm::Kind::kWildcard:
        break;
      case CTerm::Kind::kWildcardTuple:
        break;
    }
    if (!SolveRemaining(rest, next, emit)) *stop = true;
    return ExecResult::kDone;
  }

  // --- guard extraction ---
  //
  // When a second-order argument captures variables that are not yet bound
  // (e.g. `sum[[k]: A[i,k]*V[k]]` with head variable i unbound), enumerate
  // the candidate bindings by solving the capturing expressions themselves.
  // This realizes the paper's "the range of k is guarded by the first
  // columns of U and V" (Section 5.3.2), generalized to the guarded
  // variables of any second-order argument.
  ExecResult ExecGuarded(const Constraint& c,
                         const std::vector<const Constraint*>& rest,
                         const Frame& frame,
                         const std::function<bool(const Frame&)>& emit,
                         bool* stop) {
    // Collect the unbound first-order captures; defer if any tuple or
    // relation capture is unbound (no enumeration strategy).
    std::set<std::string> unbound;
    auto scan = [&](const std::vector<FreeVar>& frees) -> bool {
      for (const FreeVar& f : frees) {
        switch (f.kind) {
          case ScopeEntry::Kind::kVar:
            if (!LookupVar(frame, f.internal)) unbound.insert(f.internal);
            break;
          case ScopeEntry::Kind::kTupleVar:
            if (!LookupTuple(frame, f.internal)) return false;
            break;
          case ScopeEntry::Kind::kRelVar:
            if (!LookupRel(f.internal)) return false;
            break;
        }
      }
      return true;
    };
    for (const auto& frees : c.so_free) {
      if (!scan(frees)) return ExecResult::kDeferred;
    }
    if (!scan(c.texpr_free)) return ExecResult::kDeferred;
    if (unbound.empty()) return ExecResult::kDeferred;  // shouldn't happen

    // Compile (once) the guard bodies: one per second-order argument that
    // mentions an unbound variable.
    if (c.guard_cache.empty()) {
      c.guard_cache.resize(c.so_args.size() + 1);
    }
    std::vector<const CompiledBody*> guards;
    for (size_t i = 0; i < c.so_args.size(); ++i) {
      bool relevant = false;
      for (const FreeVar& f : c.so_free[i]) {
        if (unbound.count(f.internal)) relevant = true;
      }
      if (!relevant) continue;
      if (!c.guard_cache[i]) {
        Compiler compiler(interp_);
        compiler.SeedFromSnapshot(c.scope);
        c.guard_cache[i] =
            std::make_shared<CompiledBody>(compiler.CompileTop(c.so_args[i]));
      }
      guards.push_back(c.guard_cache[i].get());
    }
    if (c.texpr) {
      bool relevant = false;
      for (const FreeVar& f : c.texpr_free) {
        if (unbound.count(f.internal)) relevant = true;
      }
      if (relevant) {
        size_t slot = c.so_args.size();
        if (!c.guard_cache[slot]) {
          Compiler compiler(interp_);
          compiler.SeedFromSnapshot(c.scope);
          c.guard_cache[slot] =
              std::make_shared<CompiledBody>(compiler.CompileTop(c.texpr));
        }
        guards.push_back(c.guard_cache[slot].get());
      }
    }
    if (guards.empty()) return ExecResult::kDeferred;

    // Solve the guards as a conjunction, collecting the distinct
    // assignments of the unbound variables.
    std::vector<Frame> candidates = {frame};
    try {
      for (const CompiledBody* guard : guards) {
        std::vector<Frame> next;
        std::set<std::vector<Value>> seen;
        for (const Frame& cand : candidates) {
          Solve(*guard, cand, [&](const Frame& sol) {
            std::vector<Value> key;
            for (const std::string& u : unbound) {
              const Value* v = LookupVar(sol, u);
              key.push_back(v ? *v : Value());
            }
            if (seen.insert(key).second) {
              // Keep only the guard variables (drop guard-local bindings).
              Frame kept = cand;
              for (const std::string& u : unbound) {
                const Value* v = LookupVar(sol, u);
                if (v) kept.vars[u] = *v;
              }
              next.push_back(std::move(kept));
            }
            return true;
          });
        }
        candidates = std::move(next);
      }
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }

    for (const Frame& cand : candidates) {
      bool sub_stop = false;
      ExecResult r = TryExec(c, rest, cand, emit, &sub_stop);
      if (sub_stop) {
        *stop = true;
        return ExecResult::kDone;
      }
      if (r == ExecResult::kDeferred) return ExecResult::kDeferred;
      if (r == ExecResult::kStop) return ExecResult::kStop;
    }
    return ExecResult::kDone;
  }

  // --- atoms ---

  SOValue ResolveSOArg(const Constraint& c, size_t i,
                       const Frame& frame) const {
    const ExprPtr& e = c.so_args[i];
    if (e->kind == ExprKind::kIdent) {
      auto it = c.scope.find(e->name);
      if (it != c.scope.end()) {
        switch (it->second.kind) {
          case ScopeEntry::Kind::kRelVar: {
            const SOValue* sov = LookupRel(it->second.internal);
            if (!sov) {
              SafetyFail("relation variable '" + e->name + "' is unbound");
            }
            return *sov;
          }
          case ScopeEntry::Kind::kVar:
          case ScopeEntry::Kind::kTupleVar:
            TypeFail("first-order variable '" + e->name +
                     "' used as a relation argument");
        }
      }
      if (!interp_->HasDefs(e->name) && FindBuiltin(e->name)) {
        return SOValue::ForBuiltin(FindBuiltin(e->name));
      }
      return SOValue::Closure(e, std::make_shared<Env>());
    }
    return SOValue::Closure(e, CaptureEnv(c.so_free[i], frame));
  }

  std::shared_ptr<Env> CaptureEnv(const std::vector<FreeVar>& frees,
                                  const Frame& frame) const {
    auto env = std::make_shared<Env>();
    for (const FreeVar& f : frees) {
      switch (f.kind) {
        case ScopeEntry::Kind::kVar: {
          const Value* v = LookupVar(frame, f.internal);
          InternalCheck(v != nullptr, "capture of unbound variable");
          env->vars[f.source] = *v;
          break;
        }
        case ScopeEntry::Kind::kTupleVar: {
          const Tuple* t = LookupTuple(frame, f.internal);
          InternalCheck(t != nullptr, "capture of unbound tuple variable");
          env->tuples[f.source] = *t;
          break;
        }
        case ScopeEntry::Kind::kRelVar: {
          const SOValue* r = LookupRel(f.internal);
          InternalCheck(r != nullptr, "capture of unbound relation variable");
          env->rels[f.source] = *r;
          break;
        }
      }
    }
    return env;
  }

  ExecResult ExecAtom(const Constraint& c,
                      const std::vector<const Constraint*>& rest,
                      const Frame& frame,
                      const std::function<bool(const Frame&)>& emit,
                      bool* stop) {
    if (c.target == Constraint::Target::kBuiltin) {
      return ExecBuiltinAtom(c, *c.builtin, c.args, rest, frame, emit, stop);
    }
    // Readiness of second-order captures.
    for (const auto& frees : c.so_free) {
      if (!FreeBound(frees, frame)) {
        return ExecGuarded(c, rest, frame, emit, stop);
      }
    }
    if (!FreeBound(c.texpr_free, frame)) {
      return ExecGuarded(c, rest, frame, emit, stop);
    }

    if (c.target == Constraint::Target::kGlobal) {
      if (interp_->HasDefs(c.name)) {
        std::vector<SOValue> sovals;
        sovals.reserve(c.so_args.size());
        for (size_t i = 0; i < c.so_args.size(); ++i) {
          sovals.push_back(ResolveSOArg(c, i, frame));
        }
        // The catch must cover ONLY the materialization: a safety error
        // raised later, in the continuation of the solve, is a real error
        // of the enclosing expression, not a cue to inline.
        const Relation* r = nullptr;
        // An extent that read no in-progress fixpoint value is final.
        const uint64_t partial_reads = interp_->partial_reads();
        try {
          if (c.sig == 0 && sovals.empty()) {
            if (!c.seedable) c.seedable = interp_->Seedable(c.name);
            if (*c.seedable) {
              // Keyed lookup: hand the interpreter this atom's binding
              // pattern (constants and already-bound variables) up to the
              // first tuple pattern, so it can evaluate only the part of
              // the non-recursive def the enumeration below would keep.
              bool open = false;
              std::vector<std::optional<Value>> pattern =
                  BoundPrefix(c.args, frame, &open);
              r = &interp_->EvalSlice(c.name, pattern, open);
            }
          }
          if (r == nullptr) {
            r = &interp_->EvalInstance(c.name, c.sig, sovals);
          }
        } catch (const RelError& err) {
          if (err.kind() != ErrorKind::kSafety) throw;
          return InlineDefs(c, sovals, rest, frame, emit, stop);
        }
        return EnumerateRelation(*r, interp_->partial_reads() == partial_reads,
                                 c.args, rest, frame, emit, stop);
      }
      // Base relation (no rules).
      return EnumerateRelation(interp_->db().Get(c.name), true, c.args, rest,
                               frame, emit, stop);
    }

    SOValue sov;
    if (c.target == Constraint::Target::kRelVar) {
      const SOValue* found = LookupRel(c.name);
      if (!found) SafetyFail("relation variable '" + c.name + "' is unbound");
      sov = *found;
    } else {
      sov = SOValue::Closure(c.texpr, CaptureEnv(c.texpr_free, frame));
    }
    return ExecSOValueAtom(c, sov, rest, frame, emit, stop);
  }

  ExecResult ExecSOValueAtom(const Constraint& c, const SOValue& sov,
                             const std::vector<const Constraint*>& rest,
                             const Frame& frame,
                             const std::function<bool(const Frame&)>& emit,
                             bool* stop) {
    if (sov.IsBuiltin()) {
      // Adapt argument terms to the builtin's arity; tuple variables are
      // not supported against builtins.
      if (c.args.size() != sov.builtin->arity()) {
        for (const CTerm& t : c.args) {
          if (t.kind == CTerm::Kind::kTupleVar ||
              t.kind == CTerm::Kind::kWildcardTuple) {
            SafetyFail("cannot enumerate builtin relation '" +
                       sov.builtin->name() + "'");
          }
        }
        throw RelError(ErrorKind::kArity,
                       "builtin '" + sov.builtin->name() + "' takes " +
                           std::to_string(sov.builtin->arity()) +
                           " arguments");
      }
      return ExecBuiltinAtom(c, *sov.builtin, c.args, rest, frame, emit, stop);
    }
    if (sov.IsMaterialized()) {
      return EnumerateRelation(*sov.rel, true, c.args, rest, frame, emit, stop);
    }
    // Closure: try to materialize; on safety failure, inline at this use
    // site with the bound arguments (the paper's "unsafe subexpressions are
    // allowed as long as the whole expression is safe"). As above, the
    // catch must not cover the continuation of the solve.
    const Relation* r = nullptr;
    const uint64_t partial_reads = interp_->partial_reads();
    try {
      r = &interp_->MaterializeSO(sov);
    } catch (const RelError& err) {
      if (err.kind() != ErrorKind::kSafety) throw;
      return InlineClosure(c, sov, rest, frame, emit, stop);
    }
    return EnumerateRelation(*r, interp_->partial_reads() == partial_reads,
                             c.args, rest, frame, emit, stop);
  }

  ExecResult ExecBuiltinAtom([[maybe_unused]] const Constraint& c,
                             const Builtin& builtin,
                             const std::vector<CTerm>& args,
                             const std::vector<const Constraint*>& rest,
                             const Frame& frame,
                             const std::function<bool(const Frame&)>& emit,
                             bool* stop) {
    if (args.size() != builtin.arity()) {
      throw RelError(ErrorKind::kArity,
                     "builtin '" + builtin.name() + "' takes " +
                         std::to_string(builtin.arity()) + " arguments");
    }
    std::vector<std::optional<Value>> inputs(args.size());
    std::vector<bool> bound(args.size(), false);
    for (size_t i = 0; i < args.size(); ++i) {
      switch (args[i].kind) {
        case CTerm::Kind::kConst:
          inputs[i] = args[i].cval;
          bound[i] = true;
          break;
        case CTerm::Kind::kVar: {
          const Value* v = LookupVar(frame, args[i].name);
          if (v) {
            inputs[i] = *v;
            bound[i] = true;
          }
          break;
        }
        case CTerm::Kind::kWildcard:
          break;
        case CTerm::Kind::kTupleVar:
        case CTerm::Kind::kWildcardTuple:
          SafetyFail("tuple variable argument to builtin '" + builtin.name() +
                     "'");
      }
    }
    if (!builtin.Supports(bound)) return ExecResult::kDeferred;
    std::vector<std::vector<Value>> completions;
    builtin.Eval(inputs, [&completions](const std::vector<Value>& tuple) {
      completions.push_back(tuple);
    });
    for (const std::vector<Value>& tuple : completions) {
      Frame next = frame;
      bool ok = true;
      for (size_t i = 0; i < args.size() && ok; ++i) {
        if (args[i].kind != CTerm::Kind::kVar || bound[i]) continue;
        auto it = next.vars.find(args[i].name);
        if (it != next.vars.end()) {
          if (it->second != tuple[i]) ok = false;
        } else {
          next.vars[args[i].name] = tuple[i];
        }
      }
      if (!ok) continue;
      if (!SolveRemaining(rest, next, emit)) {
        *stop = true;
        return ExecResult::kDone;
      }
    }
    return ExecResult::kDone;
  }

  /// The values of the single-width arguments before the first tuple
  /// pattern, in order: a constant or bound variable gives its value, an
  /// unbound variable or `_` gives nullopt. `*open` (if non-null) is set
  /// when a tuple pattern cut the list short (positions after it do not
  /// align).
  std::vector<std::optional<Value>> BoundPrefix(const std::vector<CTerm>& args,
                                                const Frame& frame,
                                                bool* open) const {
    std::vector<std::optional<Value>> out;
    out.reserve(args.size());
    for (const CTerm& t : args) {
      if (t.kind == CTerm::Kind::kConst) {
        out.emplace_back(t.cval);
      } else if (t.kind == CTerm::Kind::kVar) {
        const Value* v = LookupVar(frame, t.name);
        out.push_back(v ? std::optional<Value>(*v) : std::nullopt);
      } else if (t.kind == CTerm::Kind::kWildcard) {
        out.emplace_back(std::nullopt);
      } else {
        if (open != nullptr) *open = true;
        break;
      }
    }
    return out;
  }

  /// Fully bound argument pattern as a concrete tuple, if possible.
  std::optional<Tuple> BoundArgsTuple(const std::vector<CTerm>& args,
                                      const Frame& frame) const {
    Tuple t;
    for (const CTerm& a : args) {
      switch (a.kind) {
        case CTerm::Kind::kConst:
          t.Append(a.cval);
          break;
        case CTerm::Kind::kVar: {
          const Value* v = LookupVar(frame, a.name);
          if (!v) return std::nullopt;
          t.Append(*v);
          break;
        }
        case CTerm::Kind::kTupleVar: {
          const Tuple* tv = LookupTuple(frame, a.name);
          if (!tv) return std::nullopt;
          t.AppendAll(*tv);
          break;
        }
        case CTerm::Kind::kWildcard:
        case CTerm::Kind::kWildcardTuple:
          return std::nullopt;
      }
    }
    return t;
  }

  /// Aligns a concrete bound tuple with a rule's first-order parameters
  /// (possible when at most one parameter is a tuple variable).
  static std::optional<std::vector<Seed>> SeedsFromTuple(
      const Def& def, const Tuple& bound) {
    std::vector<const Binding*> params;
    int tuple_params = 0;
    for (const Binding& p : def.params) {
      if (p.kind == Binding::Kind::kRelVar) continue;
      params.push_back(&p);
      if (p.kind == Binding::Kind::kTupleVar) ++tuple_params;
    }
    if (tuple_params > 1) return std::nullopt;
    size_t fixed = params.size() - tuple_params;
    if (tuple_params == 0) {
      // The head may extend beyond the parameters (square-headed rules
      // append body outputs), so only require a prefix.
      if (bound.arity() < fixed) return std::nullopt;
    } else if (bound.arity() < fixed) {
      return std::nullopt;
    }
    std::vector<Seed> seeds(params.size());
    size_t pos = 0;
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i]->kind == Binding::Kind::kTupleVar) {
        size_t len = bound.arity() - fixed;
        seeds[i].tuple = bound.Slice(pos, pos + len);
        pos += len;
      } else {
        if (pos >= bound.arity()) break;
        seeds[i].value = bound[pos];
        ++pos;
      }
    }
    // Positions beyond the parameters seed the rule's body outputs.
    if (tuple_params == 0) {
      for (; pos < bound.arity(); ++pos) {
        Seed s;
        s.value = bound[pos];
        seeds.push_back(s);
      }
    }
    return seeds;
  }

  /// Inlines the rules of a defined relation whose instance cannot be
  /// materialized (it is unsafe standalone, e.g. the stdlib arithmetic
  /// wrappers or the paper's Cond12), seeding the rule parameters with the
  /// bound arguments.
  ExecResult InlineDefs(const Constraint& c, const std::vector<SOValue>& sovals,
                        const std::vector<const Constraint*>& rest,
                        const Frame& frame,
                        const std::function<bool(const Frame&)>& emit,
                        bool* stop) {
    const auto& defs = interp_->DefsOf(c.name, c.sig);
    std::optional<Tuple> bound = BoundArgsTuple(c.args, frame);
    std::vector<std::vector<Frame>> all_matches;
    try {
      for (const auto& def : defs) {
        std::optional<std::vector<Seed>> seeds;
        if (bound) seeds = SeedsFromTuple(*def, *bound);
        if (!seeds) {
          // Positional best-effort seeding: sound position-by-position when
          // no rule parameter is a tuple variable; the argument prefix up
          // to the first tuple pattern aligns with head positions.
          bool simple = true;
          for (const Binding& p : def->params) {
            if (p.kind == Binding::Kind::kTupleVar) simple = false;
          }
          seeds.emplace();
          if (simple) {
            // Seed every single-width bound argument positionally; EvalRule
            // applies trailing seeds to the rule's body outputs, which is
            // what lets builtin inverses fire (e.g. add(y,5,z) with z bound
            // through the stdlib `add` wrapper).
            for (std::optional<Value>& v :
                 BoundPrefix(c.args, frame, nullptr)) {
              seeds->push_back(Seed{std::move(v), std::nullopt});
            }
          }
        }
        Relation heads = interp_->solver().EvalRule(*def, sovals, &*seeds);
        std::vector<Frame> matches;
        for (const Tuple& t : heads.SortedTuples()) {
          MatchTuple(c.args, t, frame, &matches);
        }
        all_matches.push_back(std::move(matches));
      }
      // Base facts participate too (a name can have both rules and data).
      if (c.sig == 0 && interp_->db().Has(c.name)) {
        std::vector<Frame> matches;
        CollectMatches(interp_->db().Get(c.name), true, c.args, frame,
                       &matches);
        all_matches.push_back(std::move(matches));
      }
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    for (const auto& matches : all_matches) {
      for (const Frame& m : matches) {
        if (!SolveRemaining(rest, m, emit)) {
          *stop = true;
          return ExecResult::kDone;
        }
      }
    }
    return ExecResult::kDone;
  }

  /// Inlines a closure at its use site: solves the closure's body with the
  /// bound arguments seeded, then matches the produced tuples against the
  /// argument pattern.
  ExecResult InlineClosure(const Constraint& c, const SOValue& sov,
                           const std::vector<const Constraint*>& rest,
                           const Frame& frame,
                           const std::function<bool(const Frame&)>& emit,
                           bool* stop) {
    Compiler compiler(interp_);
    compiler.SeedFromEnv(*sov.env);
    CompiledBody body;
    try {
      body = compiler.CompileTop(sov.expr);
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    // Seed sub-frame variables from bound argument positions when the
    // output terms align one-to-one with the arguments.
    Frame sub;
    if (body.outs.size() == c.args.size()) {
      for (size_t i = 0; i < body.outs.size(); ++i) {
        const CTerm& o = body.outs[i];
        const CTerm& a = c.args[i];
        if (o.kind == CTerm::Kind::kVar) {
          if (a.kind == CTerm::Kind::kConst) {
            sub.vars[o.name] = a.cval;
          } else if (a.kind == CTerm::Kind::kVar) {
            const Value* v = LookupVar(frame, a.name);
            if (v) sub.vars[o.name] = *v;
          }
        } else if (o.kind == CTerm::Kind::kTupleVar &&
                   a.kind == CTerm::Kind::kTupleVar) {
          const Tuple* tv = LookupTuple(frame, a.name);
          if (tv) sub.tuples[o.name] = *tv;
        }
      }
    }
    std::vector<Frame> matches;
    try {
      Executor sub_exec(interp_, sov.env.get());
      sub_exec.Solve(body, sub, [&](const Frame& sol) {
        Tuple out = sub_exec.EvalOuts(body.outs, sol);
        MatchTuple(c.args, out, frame, &matches);
        return true;
      });
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    for (const Frame& m : matches) {
      if (!SolveRemaining(rest, m, emit)) {
        *stop = true;
        return ExecResult::kDone;
      }
    }
    return ExecResult::kDone;
  }

  // --- relation enumeration and pattern matching ---

  /// `settled` is true when `relation` cannot change for the rest of this
  /// Interp's life, so an index built over it stays valid (see
  /// CollectMatches).
  ExecResult EnumerateRelation(const Relation& relation, bool settled,
                               const std::vector<CTerm>& args,
                               const std::vector<const Constraint*>& rest,
                               const Frame& frame,
                               const std::function<bool(const Frame&)>& emit,
                               bool* stop) {
    std::vector<Frame> matches;
    CollectMatches(relation, settled, args, frame, &matches);
    for (const Frame& m : matches) {
      if (!SolveRemaining(rest, m, emit)) {
        *stop = true;
        return ExecResult::kDone;
      }
    }
    return ExecResult::kDone;
  }

  /// Collects all frame extensions matching `args` against the tuples of
  /// `relation`, visiting rows in ascending order (by arity, then
  /// lexicographically). The leading run of bound terms narrows a sorted
  /// prefix scan. When a bound term lies past that run and `relation` is
  /// settled, a hash index on every bound position replaces the scan; it
  /// visits the same rows in the same order, so answers and the first error
  /// raised do not depend on the access path.
  void CollectMatches(const Relation& relation, bool settled,
                      const std::vector<CTerm>& args, const Frame& frame,
                      std::vector<Frame>* out) const {
    if (settled && ProbeMatches(relation, args, frame, out)) return;
    Tuple prefix;
    for (const CTerm& t : args) {
      if (t.kind == CTerm::Kind::kConst) {
        prefix.Append(t.cval);
        continue;
      }
      if (t.kind == CTerm::Kind::kVar) {
        const Value* v = LookupVar(frame, t.name);
        if (v) {
          prefix.Append(*v);
          continue;
        }
      }
      if (t.kind == CTerm::Kind::kTupleVar) {
        const Tuple* tv = LookupTuple(frame, t.name);
        if (tv) {
          prefix.AppendAll(*tv);
          continue;
        }
      }
      break;
    }
    relation.ScanPrefix(prefix, [&](const TupleRef& tuple) {
      MatchTuple(args, tuple, frame, out);
      return true;
    });
  }

  /// The hash-probe half of CollectMatches. Applies only when no argument
  /// is a tuple pattern, so only rows of arity args.size() can match, and
  /// some position past the leading bound run is bound; returns false
  /// otherwise. The probed rows are sorted into ScanPrefix's visit order.
  bool ProbeMatches(const Relation& relation, const std::vector<CTerm>& args,
                    const Frame& frame, std::vector<Frame>* out) const {
    auto bound_value = [&](const CTerm& t) -> const Value* {
      if (t.kind == CTerm::Kind::kConst) return &t.cval;
      if (t.kind == CTerm::Kind::kVar) return LookupVar(frame, t.name);
      return nullptr;
    };
    bool unbound_seen = false;
    bool qualifies = false;
    for (const CTerm& t : args) {
      if (t.kind == CTerm::Kind::kTupleVar ||
          t.kind == CTerm::Kind::kWildcardTuple) {
        return false;
      }
      if (bound_value(t) == nullptr) {
        unbound_seen = true;
      } else if (unbound_seen) {
        qualifies = true;
      }
    }
    if (!qualifies) return false;
    if (relation.ArenaOfArity(args.size()) == nullptr) return true;
    std::vector<size_t> positions;
    std::vector<Value> key;
    for (size_t i = 0; i < args.size(); ++i) {
      if (const Value* v = bound_value(args[i])) {
        positions.push_back(i);
        key.push_back(*v);
      }
    }
    std::vector<TupleRef> rows;
    interp_->SolverIndex(relation, args.size(), positions)
        .Probe(key, [&](const TupleRef& row) { rows.push_back(row); });
    std::sort(rows.begin(), rows.end(),
              [](const TupleRef& a, const TupleRef& b) {
                for (size_t c = 0; c < a.arity(); ++c) {
                  int cmp = a[c].Compare(b[c]);
                  if (cmp != 0) return cmp < 0;
                }
                return false;
              });
    for (const TupleRef& row : rows) MatchTuple(args, row, frame, out);
    return true;
  }

  /// Matches one tuple against the argument pattern, appending every
  /// resulting frame extension (tuple-variable splits can yield several).
  /// `Row` is either an owning Tuple or a columnar TupleRef row view.
  template <typename Row>
  void MatchTuple(const std::vector<CTerm>& args, const Row& tuple,
                  const Frame& frame, std::vector<Frame>* out) const {
    MatchFrom(args, 0, tuple, 0, frame, out);
  }

  template <typename Row>
  void MatchFrom(const std::vector<CTerm>& args, size_t ai, const Row& tuple,
                 size_t ti, const Frame& frame,
                 std::vector<Frame>* out) const {
    if (ai == args.size()) {
      if (ti == tuple.arity()) out->push_back(frame);
      return;
    }
    const CTerm& t = args[ai];
    switch (t.kind) {
      case CTerm::Kind::kConst:
        if (ti < tuple.arity() && tuple[ti] == t.cval) {
          MatchFrom(args, ai + 1, tuple, ti + 1, frame, out);
        }
        return;
      case CTerm::Kind::kWildcard:
        if (ti < tuple.arity()) {
          MatchFrom(args, ai + 1, tuple, ti + 1, frame, out);
        }
        return;
      case CTerm::Kind::kVar: {
        if (ti >= tuple.arity()) return;
        const Value* v = LookupVar(frame, t.name);
        if (v) {
          if (*v == tuple[ti]) {
            MatchFrom(args, ai + 1, tuple, ti + 1, frame, out);
          }
          return;
        }
        Frame next = frame;
        next.vars[t.name] = tuple[ti];
        MatchFrom(args, ai + 1, tuple, ti + 1, next, out);
        return;
      }
      case CTerm::Kind::kTupleVar: {
        const Tuple* bound = LookupTuple(frame, t.name);
        if (bound) {
          if (ti + bound->arity() > tuple.arity()) return;
          for (size_t i = 0; i < bound->arity(); ++i) {
            if ((*bound)[i] != tuple[ti + i]) return;
          }
          MatchFrom(args, ai + 1, tuple, ti + bound->arity(), frame, out);
          return;
        }
        for (size_t len = 0; ti + len <= tuple.arity(); ++len) {
          Frame next = frame;
          next.tuples[t.name] = tuple.Slice(ti, ti + len);
          MatchFrom(args, ai + 1, tuple, ti + len, next, out);
        }
        return;
      }
      case CTerm::Kind::kWildcardTuple: {
        for (size_t len = 0; ti + len <= tuple.arity(); ++len) {
          MatchFrom(args, ai + 1, tuple, ti + len, frame, out);
        }
        return;
      }
    }
  }

  // --- disjunction ---

  ExecResult ExecDisj(const Constraint& c,
                      const std::vector<const Constraint*>& rest,
                      const Frame& frame,
                      const std::function<bool(const Frame&)>& emit,
                      bool* stop) {
    std::vector<Frame> solutions;
    try {
      for (const BodyPtr& branch : c.branches) {
        Solve(*branch, frame, [&](const Frame& sol) {
          Frame kept = sol;
          if (!c.disj_out.empty()) {
            kept.tuples[c.disj_out] = EvalOuts(branch->outs, sol);
          }
          solutions.push_back(std::move(kept));
          return true;
        });
      }
    } catch (const RelError& err) {
      if (err.kind() == ErrorKind::kSafety) return ExecResult::kDeferred;
      throw;
    }
    for (const Frame& sol : solutions) {
      if (!SolveRemaining(rest, sol, emit)) {
        *stop = true;
        return ExecResult::kDone;
      }
    }
    return ExecResult::kDone;
  }

  Interp* interp_;
  const Env* env_;
};

}  // namespace

// --- Solver public API --------------------------------------------------------

size_t Solver::CountSOParams(const Def& def) {
  size_t n = 0;
  while (n < def.params.size() &&
         def.params[n].kind == Binding::Kind::kRelVar) {
    ++n;
  }
  return n;
}

Relation Solver::EvalExpr(const ExprPtr& expr, const Env& env) {
  Compiler compiler(interp_);
  compiler.SeedFromEnv(env);
  CompiledBody body = compiler.CompileTop(expr);
  Executor executor(interp_, &env);
  Relation out;
  executor.Solve(body, Frame(), [&](const Frame& frame) {
    out.Insert(executor.EvalOuts(body.outs, frame));
    return true;
  });
  return out;
}

bool Solver::EvalFormula(const ExprPtr& formula, const Env& env) {
  Compiler compiler(interp_);
  compiler.SeedFromEnv(env);
  CompiledBody body = compiler.CompileTop(formula);
  Executor executor(interp_, &env);
  bool found = false;
  executor.Solve(body, Frame(), [&found](const Frame&) {
    found = true;
    return false;
  });
  return found;
}

namespace {

/// The compiled form of `def`, memoized in the Interp by rule identity.
std::shared_ptr<CompiledRule> CompiledRuleFor(Interp* interp, const Def& def) {
  auto& cache = interp->rule_cache();
  auto it = cache.find(&def);
  if (it != cache.end()) {
    return std::static_pointer_cast<CompiledRule>(it->second);
  }
  Compiler compiler(interp);
  auto rule = std::make_shared<CompiledRule>(compiler.CompileRule(def));
  cache[&def] = rule;
  return rule;
}

/// How the constraints of a body can bind one variable (AnalyzeParams).
struct VarBinders {
  bool finite_atom = false;  // a top-level finite relation atom binds it
  bool only_atoms = true;    // nothing else could bind it
};

bool Mentions(const std::vector<FreeVar>& frees, const std::string& var) {
  for (const FreeVar& f : frees) {
    if (f.internal == var) return true;
  }
  return false;
}

/// True iff `builtin` can run with argument `pos` unbound, i.e. bind it.
bool BuiltinCanBind(const Builtin& builtin, size_t pos) {
  const size_t arity = builtin.arity();
  for (uint32_t mask = 0; mask < (1u << arity); ++mask) {
    if (mask & (1u << pos)) continue;
    std::vector<bool> bound(arity);
    for (size_t i = 0; i < arity; ++i) bound[i] = (mask >> i) & 1u;
    if (builtin.Supports(bound)) return true;
  }
  return false;
}

void ScanBinders(Interp* interp, const std::vector<ConstraintPtr>& body,
                 const std::string& var, bool top, VarBinders* out) {
  for (const ConstraintPtr& c : body) {
    switch (c->kind) {
      case Constraint::Kind::kNegated:
        break;  // runs only once its free variables are bound: a filter
      case Constraint::Kind::kDisj:
        for (const BodyPtr& branch : c->branches) {
          ScanBinders(interp, branch->constraints, var, false, out);
        }
        break;
      case Constraint::Kind::kAgg:
        // The result binds; a captured variable can be bound by guard
        // extraction (ExecGuarded).
        if ((c->agg_result.kind == CTerm::Kind::kVar &&
             c->agg_result.name == var) ||
            Mentions(c->so_free[0], var) || Mentions(c->so_free[1], var)) {
          out->only_atoms = false;
        }
        break;
      case Constraint::Kind::kAtom: {
        bool captured = Mentions(c->texpr_free, var);
        for (const auto& frees : c->so_free) captured |= Mentions(frees, var);
        if (captured) out->only_atoms = false;
        for (size_t i = 0; i < c->args.size(); ++i) {
          const CTerm& t = c->args[i];
          if ((t.kind != CTerm::Kind::kVar &&
               t.kind != CTerm::Kind::kTupleVar) ||
              t.name != var) {
            continue;
          }
          if (c->target == Constraint::Target::kBuiltin) {
            if (BuiltinCanBind(*c->builtin, i)) out->only_atoms = false;
          } else if (c->target == Constraint::Target::kGlobal && c->sig == 0 &&
                     interp->FiniteStandalone(c->name)) {
            out->finite_atom |= top;
          } else {
            // A closure, relation argument or unsafe def may be inlined at
            // this use site, where seeds match numerically.
            out->only_atoms = false;
          }
        }
        break;
      }
    }
  }
}

}  // namespace

ParamSeeding Solver::AnalyzeParams(const Def& def) {
  ParamSeeding out;
  std::shared_ptr<CompiledRule> rule;
  try {
    rule = CompiledRuleFor(interp_, def);
  } catch (const RelError&) {
    // Compile errors belong to evaluation, which raises them itself.
    out.range_restricted = false;
    return out;
  }
  // Positions after a tuple-variable parameter do not align with the key.
  bool aligned = true;
  for (const CTerm& t : rule->head_terms) {
    SeedKind kind = SeedKind::kNever;
    if (t.kind == CTerm::Kind::kConst) {
      if (aligned) kind = SeedKind::kAny;
    } else {
      VarBinders binders;
      ScanBinders(interp_, rule->body.constraints, t.name, true, &binders);
      if (!binders.finite_atom) out.range_restricted = false;
      if (t.kind == CTerm::Kind::kTupleVar) aligned = false;
      if (aligned && binders.finite_atom) {
        kind = binders.only_atoms ? SeedKind::kAny : SeedKind::kNonNumeric;
      }
    }
    out.kinds.push_back(kind);
  }
  return out;
}

Relation Solver::EvalRule(const Def& def, const std::vector<SOValue>& so_args,
                          const std::vector<Seed>* seeds) {
  std::shared_ptr<CompiledRule> rule = CompiledRuleFor(interp_, def);

  InternalCheck(so_args.size() == rule->relvar_internals.size(),
                "second-order argument count mismatch");
  Env env;
  for (size_t i = 0; i < so_args.size(); ++i) {
    env.rels[rule->relvar_internals[i]] = so_args[i];
  }

  Frame frame;
  if (seeds) {
    // Seeds align with the head terms, then (for square rules) with the
    // body output terms — the full shape of the emitted head tuple.
    for (size_t i = 0; i < seeds->size(); ++i) {
      const CTerm* t = nullptr;
      if (i < rule->head_terms.size()) {
        t = &rule->head_terms[i];
      } else if (rule->square &&
                 i - rule->head_terms.size() < rule->body.outs.size()) {
        t = &rule->body.outs[i - rule->head_terms.size()];
      } else {
        break;
      }
      const Seed& seed = (*seeds)[i];
      if (seed.value) {
        if (t->kind == CTerm::Kind::kVar) {
          frame.vars[t->name] = *seed.value;
        } else if (t->kind == CTerm::Kind::kConst) {
          if (t->cval != *seed.value) return Relation();
        }
      } else if (seed.tuple) {
        if (t->kind == CTerm::Kind::kTupleVar) {
          frame.tuples[t->name] = *seed.tuple;
        }
      }
    }
  }

  Executor executor(interp_, &env);
  Relation out;
  executor.Solve(rule->body, frame, [&](const Frame& sol) {
    Tuple head = executor.EvalOuts(rule->head_terms, sol);
    if (rule->square) {
      head.AppendAll(executor.EvalOuts(rule->body.outs, sol));
    }
    out.Insert(std::move(head));
    return true;
  });
  return out;
}

}  // namespace rel
