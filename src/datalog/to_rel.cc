#include "datalog/to_rel.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "base/error.h"

namespace rel {
namespace datalog {

namespace {

/// Renders a Value as a parseable Rel literal. Unlike Value::ToString,
/// string contents are escaped with the lexer's escape set (\n \t \\ \"),
/// and `rel` entities render as :Name relation-name literals when the id is
/// identifier-shaped.
std::string ValueToRel(const Value& v) {
  if (v.is_string()) {
    std::string out = "\"";
    for (char c : v.AsString()) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out.push_back(c);
      }
    }
    out += "\"";
    return out;
  }
  if (v.is_entity() && v.EntityConcept() == "rel") {
    const std::string& id = v.EntityId();
    bool ident = !id.empty() && !(id[0] >= '0' && id[0] <= '9');
    for (char c : id) {
      ident &= (c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9'));
    }
    if (ident) return ":" + id;
  }
  return v.ToString();  // ints, floats: already Rel literal syntax
}

std::string TermToRel(const Term& term, const std::string& var_prefix) {
  if (term.is_var()) return var_prefix + std::to_string(term.var);
  return ValueToRel(term.constant);
}

const char* CmpToRel(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNeq: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "=";
}

const char* ArithToRel(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
    case ArithOp::kMin:
    case ArithOp::kMax:
      break;
  }
  return nullptr;
}

std::string AtomToRel(const Atom& atom, const std::string& var_prefix) {
  std::string out = atom.pred + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i) out += ", ";
    out += TermToRel(atom.terms[i], var_prefix);
  }
  out += ")";
  return out;
}

std::string LiteralToRel(const Literal& lit, const std::string& var_prefix) {
  switch (lit.kind) {
    case Literal::Kind::kPositive:
      return AtomToRel(lit.atom, var_prefix);
    case Literal::Kind::kNegative:
      return "not " + AtomToRel(lit.atom, var_prefix);
    case Literal::Kind::kCompare: {
      std::string cmp = TermToRel(lit.lhs, var_prefix) + " " +
                        CmpToRel(lit.cmp_op) + " " +
                        TermToRel(lit.rhs, var_prefix);
      // A negated comparison complements the whole outcome (kUnordered
      // included), which is exactly Rel's `not (a < b)` — NOT `a >= b`.
      return lit.negated ? "not (" + cmp + ")" : cmp;
    }
    case Literal::Kind::kRange:
      // The Rel `range` builtin has the same generator semantics as the
      // Datalog kRange literal (see program.h), so this is a direct call.
      return "range(" + TermToRel(lit.atom.terms[0], var_prefix) + ", " +
             TermToRel(lit.atom.terms[1], var_prefix) + ", " +
             TermToRel(lit.atom.terms[2], var_prefix) + ", " +
             TermToRel(lit.atom.terms[3], var_prefix) + ")";
    case Literal::Kind::kAssign: {
      const char* op = ArithToRel(lit.arith_op);
      if (op) {
        return var_prefix + std::to_string(lit.target) + " = " +
               TermToRel(lit.lhs, var_prefix) + " " + op + " " +
               TermToRel(lit.rhs, var_prefix);
      }
      const char* fn = lit.arith_op == ArithOp::kMin ? "minimum" : "maximum";
      return var_prefix + std::to_string(lit.target) + " = " +
             std::string(fn) + "[" + TermToRel(lit.lhs, var_prefix) + ", " +
             TermToRel(lit.rhs, var_prefix) + "]";
    }
  }
  return "";
}

void CollectVars(const Term& t, std::set<int>* vars) {
  if (t.is_var()) vars->insert(t.var);
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// A variable prefix that cannot capture a relation name referenced by the
/// rules rendered with it: in Rel an unscoped identifier denotes a
/// relation, so a predicate named `v2` would silently shadow the variable
/// rendering.
std::string VarPrefixFor(const std::vector<const Rule*>& rules) {
  std::set<std::string> preds;
  for (const Rule* rule : rules) {
    preds.insert(rule->head.pred);
    for (const Literal& lit : rule->body) {
      if (lit.kind == Literal::Kind::kPositive ||
          lit.kind == Literal::Kind::kNegative) {
        preds.insert(lit.atom.pred);
      }
    }
  }
  std::string prefix = "v";
  for (;;) {
    bool collides = false;
    for (const std::string& pred : preds) {
      if (pred.size() > prefix.size() && pred.compare(0, prefix.size(), prefix) == 0 &&
          AllDigits(pred.substr(prefix.size()))) {
        collides = true;
        break;
      }
    }
    if (!collides) return prefix;
    prefix += "v";
  }
}

/// A rule rendered up to, but not including, its `def` line.
struct RenderedRule {
  std::string head_args;  // the head (for an aggregate: group) parameters
  /// A plain rule's body; an aggregate rule's contribution abstraction,
  /// "(binders) : body".
  std::string body;
  int max_var = -1;  // the largest variable id rendered; larger ids are free
};

RenderedRule Render(const Rule& rule, const std::string& prefix) {
  std::set<int> body_vars;
  int max_var = -1;
  for (const Literal& lit : rule.body) {
    for (const Term& t : lit.atom.terms) CollectVars(t, &body_vars);
    CollectVars(lit.lhs, &body_vars);
    CollectVars(lit.rhs, &body_vars);
    if (lit.target >= 0) body_vars.insert(lit.target);
  }
  if (rule.agg.has_value()) {
    for (const Term& t : rule.agg->witness) CollectVars(t, &body_vars);
    CollectVars(rule.agg->value, &body_vars);
  }
  for (const Term& t : rule.head.terms) {
    if (t.is_var()) max_var = std::max(max_var, t.var);
  }
  if (!body_vars.empty()) max_var = std::max(max_var, *body_vars.rbegin());

  // Head rendering. A repeated head variable cannot repeat as a Rel binder
  // (the second binding would shadow the first, leaving it unbound), so
  // later occurrences become fresh aliases equated to the original in the
  // body: p(X, X) :- q(X)  =>  def p(v0, v1) : q(v0) and v1 = v0.
  std::set<int> head_vars;
  std::vector<std::pair<int, int>> aliases;  // (alias, original)
  RenderedRule out;
  for (size_t i = 0; i < rule.head.terms.size(); ++i) {
    if (i) out.head_args += ", ";
    const Term& t = rule.head.terms[i];
    if (t.is_var() && !head_vars.insert(t.var).second) {
      int alias = ++max_var;
      head_vars.insert(alias);
      aliases.emplace_back(alias, t.var);
      out.head_args += prefix + std::to_string(alias);
      continue;
    }
    out.head_args += TermToRel(t, prefix);
  }

  std::string body;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i) body += " and ";
    body += LiteralToRel(rule.body[i], prefix);
  }
  for (const auto& [alias, original] : aliases) {
    if (!body.empty()) body += " and ";
    body += prefix + std::to_string(alias) + " = " + prefix +
            std::to_string(original);
  }
  if (body.empty()) body = "true";

  if (!rule.agg.has_value()) {
    std::set<int> existential;
    for (int v : body_vars) {
      if (!head_vars.count(v)) existential.insert(v);
    }
    if (!existential.empty()) {
      std::string binders;
      for (int v : existential) {
        if (!binders.empty()) binders += ", ";
        binders += prefix + std::to_string(v);
      }
      body = "exists((" + binders + ") | " + body + ")";
    }
    out.body = std::move(body);
    out.max_var = max_var;
    return out;
  }

  // Aggregate rule: the extent row is (group..., result), so the Rel def
  // takes the group columns plus a fresh result parameter bound by an
  // aggregate application over the contribution abstraction:
  //   spath(X, Y, min(D; Z)) :- ...  =>
  //   def spath(v0, v1, v4) : v4 = min[(v3, v2) : ...]
  // Rel's aggregates fold the last column of the deduplicated abstraction
  // extent, which matches the Datalog bucket semantics (program.h).
  const Aggregate& agg = *rule.agg;
  std::vector<Term> binder_terms = agg.witness;
  if (agg.op != AggOp::kCount) binder_terms.push_back(agg.value);
  if (binder_terms.empty()) {
    // A witness-free count contributes the single row (1); counting the
    // distinct values of a binder pinned to 1 is the same aggregate.
    binder_terms.push_back(Term::Const(Value::Int(1)));
  }
  std::set<int> binder_vars;
  std::string binders;
  for (const Term& t : binder_terms) {
    if (!binders.empty()) binders += ", ";
    // A binder must be a variable fresh in the abstraction: constants,
    // group columns, and repeated binders get a fresh alias equated to the
    // original inside the body.
    if (t.is_var() && !head_vars.count(t.var) &&
        binder_vars.insert(t.var).second) {
      binders += prefix + std::to_string(t.var);
      continue;
    }
    int alias = ++max_var;
    binder_vars.insert(alias);
    binders += prefix + std::to_string(alias);
    body += " and " + prefix + std::to_string(alias) + " = " +
            TermToRel(t, prefix);
  }

  std::set<int> existential;
  for (int v : body_vars) {
    if (!head_vars.count(v) && !binder_vars.count(v)) existential.insert(v);
  }
  if (!existential.empty()) {
    std::string ebinders;
    for (int v : existential) {
      if (!ebinders.empty()) ebinders += ", ";
      ebinders += prefix + std::to_string(v);
    }
    body = "exists((" + ebinders + ") | " + body + ")";
  }
  out.body = "(" + binders + ") : " + body;
  out.max_var = max_var;
  return out;
}

/// The `def` of an aggregate predicate: a fresh result parameter bound by
/// one aggregate application over the union of the contribution
/// abstractions — one per rule, all folded as one bucket per group.
std::string AggregateDef(const std::string& pred, AggOp op,
                         const std::string& prefix,
                         const std::string& head_args,
                         const std::vector<std::string>& abstractions,
                         int result_var) {
  const char* op_name = op == AggOp::kMin   ? "min"
                        : op == AggOp::kMax ? "max"
                        : op == AggOp::kSum ? "sum"
                                            : "count";
  const std::string rv = prefix + std::to_string(result_var);
  std::string arg = abstractions[0];
  if (abstractions.size() > 1) {
    arg.clear();
    for (const std::string& a : abstractions) {
      arg += arg.empty() ? "{{" : "} ; {";
      arg += a;
    }
    arg += "}}";
  }
  return "def " + pred + "(" + (head_args.empty() ? rv : head_args + ", " + rv) +
         ") : " + rv + " = " + op_name + "[" + arg + "]";
}

/// `rule` with its variables renamed so that its head reads variables
/// 0..k-1 in order, as every rule of a merged aggregate def must: the first
/// occurrence of a head variable at position j becomes variable j, every
/// other variable moves up by k, and a head constant or repeated head
/// variable at position j becomes the body equality `j = term`.
Rule WithCanonicalHead(const Rule& rule) {
  const int k = static_cast<int>(rule.head.terms.size());
  std::map<int, int> head_pos;  // original variable -> head position
  std::vector<std::pair<int, Term>> equalities;
  for (int j = 0; j < k; ++j) {
    const Term& t = rule.head.terms[j];
    if (t.is_var() && head_pos.emplace(t.var, j).second) continue;
    equalities.emplace_back(j, t);
  }
  auto rename = [&](Term t) {
    if (t.is_var()) {
      auto it = head_pos.find(t.var);
      t.var = it != head_pos.end() ? it->second : t.var + k;
    }
    return t;
  };
  Rule out = rule;
  for (int j = 0; j < k; ++j) out.head.terms[j] = Term::Var(j);
  for (Literal& lit : out.body) {
    for (Term& t : lit.atom.terms) t = rename(t);
    lit.lhs = rename(lit.lhs);
    lit.rhs = rename(lit.rhs);
    if (lit.target >= 0) lit.target = rename(Term::Var(lit.target)).var;
  }
  for (const auto& [j, t] : equalities) {
    out.body.push_back(Literal::Compare(CmpOp::kEq, Term::Var(j), rename(t)));
  }
  for (Term& t : out.agg->witness) t = rename(t);
  out.agg->value = rename(out.agg->value);
  return out;
}

}  // namespace

std::string RuleToRel(const Rule& rule) {
  const std::string prefix = VarPrefixFor({&rule});
  RenderedRule r = Render(rule, prefix);
  if (!rule.agg.has_value()) {
    return "def " + rule.head.pred + "(" + r.head_args + ") : " + r.body;
  }
  return AggregateDef(rule.head.pred, rule.agg->op, prefix, r.head_args,
                      {r.body}, r.max_var + 1);
}

std::string ProgramToRel(const Program& program) {
  // Multiple aggregate rules for one predicate fold a SINGLE merged bucket
  // per group, so they render as one def whose aggregate ranges over the
  // union of the rules' abstractions, not as one def per rule (the union
  // of per-rule folds — a different, wrong answer whenever two rules feed
  // the same group).
  std::map<std::string, std::vector<const Rule*>> agg_rules;
  for (const Rule& rule : program.rules()) {
    if (rule.agg.has_value()) agg_rules[rule.head.pred].push_back(&rule);
  }
  std::string out;
  for (const auto& [pred, facts] : program.facts()) {
    out += "def " + pred + " {";
    bool first = true;
    for (const Tuple& t : facts.SortedTuples()) {
      if (!first) out += " ; ";
      first = false;
      out += "(";
      for (size_t i = 0; i < t.arity(); ++i) {
        if (i) out += ", ";
        out += ValueToRel(t[i]);
      }
      out += ")";
    }
    out += "}\n";
  }
  for (const Rule& rule : program.rules()) {
    auto it = rule.agg.has_value() ? agg_rules.find(rule.head.pred)
                                   : agg_rules.end();
    if (it == agg_rules.end() || it->second.size() == 1) {
      out += RuleToRel(rule) + "\n";
      continue;
    }
    if (it->second[0] != &rule) continue;  // rendered with the first rule
    std::vector<Rule> canonical;
    for (const Rule* r : it->second) canonical.push_back(WithCanonicalHead(*r));
    const std::string prefix = VarPrefixFor(it->second);
    std::string head_args;
    std::vector<std::string> abstractions;
    int max_var = -1;
    for (const Rule& r : canonical) {
      if (r.agg->op != rule.agg->op) {
        throw RelError(ErrorKind::kType,
                       "cannot translate '" + rule.head.pred +
                           "' to Rel: its aggregate rules use different "
                           "operators");
      }
      RenderedRule rendered = Render(r, prefix);
      head_args = rendered.head_args;  // v0, ..., v(k-1) for every rule
      abstractions.push_back(std::move(rendered.body));
      max_var = std::max(max_var, rendered.max_var);
    }
    out += AggregateDef(rule.head.pred, rule.agg->op, prefix, head_args,
                        abstractions, max_var + 1) +
           "\n";
  }
  return out;
}

}  // namespace datalog
}  // namespace rel
