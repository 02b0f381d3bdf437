#include "fuzz/generator.h"

#include <algorithm>
#include <sstream>

#include "base/error.h"
#include "base/rng.h"
#include "benchutil/generators.h"

namespace rel {
namespace fuzz {

namespace {

using datalog::Atom;
using datalog::CmpOp;
using datalog::DemandGoal;
using datalog::Literal;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

/// Picks a uniform element of a non-empty vector.
template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.NextBelow(v.size())];
}

/// The six comparison operators, for uniform drawing.
constexpr CmpOp kCmpOps[] = {CmpOp::kEq, CmpOp::kNeq, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

/// One rule for `head_pred`. `pool` collects the variables bound by the
/// positive atoms as they are generated, so comparisons, negations and the
/// head draw only from variables some atom binds — range restriction by
/// construction. The body is then shuffled, so literals appear in any
/// order, including filters and negations before the atoms binding them.
/// When `agg_op` is set the head carries head_arity - 1 group columns plus
/// an aggregate form (the extent keeps arity head_arity), with
/// value/witness terms drawn from bound variables.
Rule GenerateRule(Rng& rng, const GeneratorOptions& opts,
                  const std::string& head_pred, int head_arity,
                  const std::vector<std::pair<std::string, int>>& pos_preds,
                  const std::vector<std::pair<std::string, int>>& neg_preds,
                  std::optional<datalog::AggOp> agg_op) {
  Rule rule;
  int next_var = 0;
  std::vector<int> pool;  // variables bound by positive atoms so far

  auto atom_term = [&]() -> Term {
    double r = rng.NextDouble();
    if (!pool.empty() && r < 0.45) return Term::Var(Pick(rng, pool));
    if (opts.allow_constants && r < 0.60) {
      return Term::Const(
          Value::Int(static_cast<int64_t>(rng.NextBelow(opts.value_domain))));
    }
    int v = next_var++;
    pool.push_back(v);
    return Term::Var(v);
  };

  int num_atoms = 1 + static_cast<int>(rng.NextBelow(opts.max_body_atoms));
  for (int i = 0; i < num_atoms; ++i) {
    const auto& [pred, arity] = Pick(rng, pos_preds);
    Atom atom;
    atom.pred = pred;
    for (int p = 0; p < arity; ++p) atom.terms.push_back(atom_term());
    rule.body.push_back(Literal::Positive(std::move(atom)));
  }

  if (opts.allow_comparisons && !pool.empty()) {
    int num_cmp = static_cast<int>(rng.NextBelow(3));  // 0..2
    for (int i = 0; i < num_cmp; ++i) {
      Term lhs = Term::Var(Pick(rng, pool));
      Term rhs =
          rng.NextBool(0.6)
              ? Term::Const(Value::Int(
                    static_cast<int64_t>(rng.NextBelow(opts.value_domain))))
              : Term::Var(Pick(rng, pool));
      rule.body.push_back(Literal::Compare(
          kCmpOps[rng.NextBelow(std::size(kCmpOps))], lhs, rhs));
    }
  }

  if (opts.allow_negation && !neg_preds.empty() && rng.NextBool(0.4)) {
    const auto& [pred, arity] = Pick(rng, neg_preds);
    Atom atom;
    atom.pred = pred;
    for (int p = 0; p < arity; ++p) {
      if (!pool.empty() && rng.NextBool(0.7)) {
        atom.terms.push_back(Term::Var(Pick(rng, pool)));
      } else {
        atom.terms.push_back(Term::Const(
            Value::Int(static_cast<int64_t>(rng.NextBelow(opts.value_domain)))));
      }
    }
    rule.body.push_back(Literal::Negative(std::move(atom)));
  }

  // Fisher-Yates over the case Rng (not std::shuffle, whose algorithm is
  // implementation-defined): the same seed yields the same body everywhere.
  for (size_t i = rule.body.size(); i > 1; --i) {
    std::swap(rule.body[i - 1], rule.body[rng.NextBelow(i)]);
  }

  rule.head.pred = head_pred;
  int group_arity = agg_op.has_value() ? head_arity - 1 : head_arity;
  for (int p = 0; p < group_arity; ++p) {
    if (!pool.empty() && (!opts.allow_constants || rng.NextBool(0.8))) {
      rule.head.terms.push_back(Term::Var(Pick(rng, pool)));
    } else {
      rule.head.terms.push_back(Term::Const(
          Value::Int(static_cast<int64_t>(rng.NextBelow(opts.value_domain)))));
    }
  }
  if (agg_op.has_value()) {
    datalog::Aggregate agg;
    agg.op = *agg_op;
    auto bound_term = [&]() -> Term {
      if (!pool.empty() && rng.NextBool(0.85)) {
        return Term::Var(Pick(rng, pool));
      }
      return Term::Const(
          Value::Int(static_cast<int64_t>(rng.NextBelow(opts.value_domain))));
    };
    if (*agg_op == datalog::AggOp::kCount) {
      // count(w...) needs at least one witness to render in corpus text.
      agg.value = Term::Const(Value::Int(1));
      int n = 1 + static_cast<int>(rng.NextBelow(2));
      for (int i = 0; i < n; ++i) agg.witness.push_back(bound_term());
    } else {
      agg.value = bound_term();
      int n = static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < n; ++i) agg.witness.push_back(bound_term());
    }
    rule.agg = std::move(agg);
  }
  return rule;
}

/// Random EDB extent for one predicate. Binary predicates draw a graph
/// shape from benchutil/generators (random / chain / cycle / grid — the
/// depths and densities the recursion benchmarks exercise); other arities
/// get uniform random tuples. A small probability leaves the extent empty:
/// the empty-base-case edge every configuration must agree on.
void FillEdb(Rng& rng, const GeneratorOptions& opts, const std::string& pred,
             int arity, Program* program) {
  if (rng.NextBool(0.08)) return;  // deliberately empty extent
  if (arity == 2) {
    uint64_t sub_seed = rng.Next();
    double shape = rng.NextDouble();
    int n = std::max(2, opts.value_domain);
    std::vector<Tuple> edges;
    if (shape < 0.6) {
      int max_edges = n * (n - 1);
      edges = benchutil::RandomGraph(
          n, std::min(opts.edb_rows, max_edges), sub_seed);
    } else if (shape < 0.75) {
      edges = benchutil::ChainGraph(std::min(n, opts.edb_rows));
    } else if (shape < 0.9) {
      edges = benchutil::CycleGraph(std::min(n, opts.edb_rows));
    } else {
      edges = benchutil::GridGraph(3, std::max(2, n / 3));
    }
    for (const Tuple& t : edges) program->AddFact(pred, t);
    return;
  }
  for (int i = 0; i < opts.edb_rows; ++i) {
    Tuple t;
    for (int p = 0; p < arity; ++p) {
      t.Append(Value::Int(static_cast<int64_t>(rng.NextBelow(opts.value_domain))));
    }
    program->AddFact(pred, std::move(t));
  }
}

std::string RenderValue(const Value& v) {
  if (v.is_string()) return "\"" + v.AsString() + "\"";
  return v.ToString();
}

std::string RenderTerm(const Term& t) {
  if (t.is_var()) return "V" + std::to_string(t.var);
  return RenderValue(t.constant);
}

std::string RenderAtom(const Atom& atom) {
  std::string out = atom.pred + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i) out += ", ";
    out += RenderTerm(atom.terms[i]);
  }
  return out + ")";
}

const char* AggText(datalog::AggOp op) {
  switch (op) {
    case datalog::AggOp::kMin: return "min";
    case datalog::AggOp::kMax: return "max";
    case datalog::AggOp::kSum: return "sum";
    case datalog::AggOp::kCount: return "count";
  }
  return "min";
}

/// The rule head in parser syntax: group columns, then the aggregate form
/// as the last argument (`op(value)` | `op(value; w...)` | `count(w...)`).
std::string RenderHead(const Rule& rule) {
  std::string out = rule.head.pred + "(";
  for (size_t i = 0; i < rule.head.terms.size(); ++i) {
    if (i) out += ", ";
    out += RenderTerm(rule.head.terms[i]);
  }
  if (rule.agg.has_value()) {
    const datalog::Aggregate& agg = *rule.agg;
    if (!rule.head.terms.empty()) out += ", ";
    out += std::string(AggText(agg.op)) + "(";
    if (agg.op == datalog::AggOp::kCount) {
      InternalCheck(!agg.witness.empty(),
                    "fuzz corpus text cannot express a witness-free count");
      for (size_t i = 0; i < agg.witness.size(); ++i) {
        if (i) out += ", ";
        out += RenderTerm(agg.witness[i]);
      }
    } else {
      out += RenderTerm(agg.value);
      for (size_t i = 0; i < agg.witness.size(); ++i) {
        out += i ? ", " : "; ";
        out += RenderTerm(agg.witness[i]);
      }
    }
    out += ")";
  }
  return out + ")";
}

const char* CmpText(CmpOp op) {
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

const char* ArithText(datalog::ArithOp op) {
  switch (op) {
    case datalog::ArithOp::kAdd: return "+";
    case datalog::ArithOp::kSub: return "-";
    case datalog::ArithOp::kMul: return "*";
    case datalog::ArithOp::kDiv: return "/";
    case datalog::ArithOp::kMod: return "%";
    default: return nullptr;
  }
}

std::string RenderLiteral(const Literal& lit) {
  switch (lit.kind) {
    case Literal::Kind::kPositive:
      return RenderAtom(lit.atom);
    case Literal::Kind::kRange:
      // Renders as a positive range/4 atom, which ParseDatalog converts
      // back to a kRange literal ("range" is a reserved predicate name).
      return RenderAtom(lit.atom);
    case Literal::Kind::kNegative:
      return "!" + RenderAtom(lit.atom);
    case Literal::Kind::kCompare:
      InternalCheck(!lit.negated,
                    "fuzz corpus text cannot express a negated comparison");
      return RenderTerm(lit.lhs) + " " + CmpText(lit.cmp_op) + " " +
             RenderTerm(lit.rhs);
    case Literal::Kind::kAssign: {
      const char* op = ArithText(lit.arith_op);
      InternalCheck(op != nullptr,
                    "fuzz corpus text cannot express min/max assignments");
      return "V" + std::to_string(lit.target) + " = " + RenderTerm(lit.lhs) +
             " " + op + " " + RenderTerm(lit.rhs);
    }
  }
  return "";
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const GeneratorOptions& opts) {
  // Decorrelate nearby seeds: sequential CLI seeds (base, base+1, ...) must
  // not produce overlapping random streams.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  FuzzCase c;
  c.seed = seed;

  // Predicate universe: arities first, then stratification levels.
  std::vector<std::pair<std::string, int>> edb;  // (name, arity)
  for (int i = 0; i < opts.num_edb; ++i) {
    edb.emplace_back("e" + std::to_string(i),
                     1 + static_cast<int>(rng.NextBelow(opts.max_arity)));
  }
  std::vector<std::pair<std::string, int>> idb;
  std::vector<int> level;
  std::vector<std::optional<datalog::AggOp>> agg_op;
  constexpr datalog::AggOp kAggOps[] = {
      datalog::AggOp::kMin, datalog::AggOp::kMax, datalog::AggOp::kSum,
      datalog::AggOp::kCount};
  for (int i = 0; i < opts.num_idb; ++i) {
    idb.emplace_back("p" + std::to_string(i),
                     1 + static_cast<int>(rng.NextBelow(opts.max_arity)));
    level.push_back(static_cast<int>(rng.NextBelow(3)));
    if (opts.allow_aggregates && rng.NextBool(0.25)) {
      agg_op.push_back(kAggOps[rng.NextBelow(std::size(kAggOps))]);
    } else {
      agg_op.push_back(std::nullopt);
    }
  }

  for (const auto& [pred, arity] : edb) {
    FillEdb(rng, opts, pred, arity, &c.program);
  }

  // Rules. Positive references reach any predicate at the same level or
  // below (same level = recursion, possibly mutual); negative references
  // reach strictly lower levels and EDB only — stratified by construction.
  // Aggregate predicates stratify like negation on BOTH sides: their
  // bodies read strictly lower levels only (no recursion through the
  // aggregate, so no monotonicity qualification is needed) and only
  // strictly higher levels read their extents (a plain rule sharing a
  // recursive unit with an aggregate head is rejected by the evaluator).
  for (int i = 0; i < opts.num_idb; ++i) {
    std::vector<std::pair<std::string, int>> pos = edb;
    std::vector<std::pair<std::string, int>> neg = edb;
    for (int j = 0; j < opts.num_idb; ++j) {
      bool strict = agg_op[i].has_value() || agg_op[j].has_value();
      if (strict ? level[j] < level[i] : level[j] <= level[i]) {
        pos.push_back(idb[j]);
      }
      if (level[j] < level[i]) neg.push_back(idb[j]);
    }
    // An aggregate predicate's rules fold one bucket per group, each rule
    // with its own witness count, so a group can hold contributions of
    // several arities (to_rel.cc renders the union of the rules'
    // abstractions).
    int num_rules = 1 + static_cast<int>(rng.NextBelow(opts.max_rules_per_idb));
    for (int r = 0; r < num_rules; ++r) {
      c.program.AddRule(GenerateRule(rng, opts, idb[i].first, idb[i].second,
                                     pos, neg, agg_op[i]));
    }
    c.idb_preds.push_back(idb[i].first);
  }
  std::sort(c.idb_preds.begin(), c.idb_preds.end());

  // Optional point-query goal, usually over an IDB predicate, sometimes
  // over EDB. Bound constants draw from a slightly wider range than the
  // value domain so some answers are provably empty.
  if (rng.NextBool(opts.goal_probability)) {
    const auto& [pred, arity] =
        (!idb.empty() && rng.NextBool(0.8)) ? Pick(rng, idb) : Pick(rng, edb);
    DemandGoal goal;
    goal.pred = pred;
    for (int p = 0; p < arity; ++p) {
      if (rng.NextBool(0.5)) {
        goal.pattern.push_back(Value::Int(
            static_cast<int64_t>(rng.NextBelow(opts.value_domain + 2))));
      } else {
        goal.pattern.push_back(std::nullopt);
      }
    }
    c.goal = std::move(goal);
  }
  return c;
}

std::string CaseToText(const FuzzCase& c) {
  std::ostringstream os;
  os << "% fuzz-seed: " << c.seed << "\n";
  if (c.goal) {
    os << "% fuzz-goal: " << c.goal->pred;
    for (const auto& p : c.goal->pattern) {
      os << " " << (p.has_value() ? RenderValue(*p) : "_");
    }
    os << "\n";
  }
  for (const auto& [pred, facts] : c.program.facts()) {
    for (const Tuple& t : facts.SortedTuples()) {
      os << pred << "(";
      for (size_t i = 0; i < t.arity(); ++i) {
        if (i) os << ", ";
        os << RenderValue(t[i]);
      }
      os << ").\n";
    }
  }
  for (const Rule& rule : c.program.rules()) {
    os << RenderHead(rule) << " :- ";
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i) os << ", ";
      os << RenderLiteral(rule.body[i]);
    }
    os << ".\n";
  }
  return os.str();
}

FuzzCase CaseFromText(const std::string& text) {
  FuzzCase c;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "%") continue;
    ls >> tag;
    if (tag == "fuzz-seed:") {
      ls >> c.seed;
    } else if (tag == "fuzz-goal:") {
      datalog::DemandGoal goal;
      if (!(ls >> goal.pred)) {
        throw RelError(ErrorKind::kParse, "fuzz-goal directive without pred");
      }
      std::string tok;
      while (ls >> tok) {
        if (tok == "_") {
          goal.pattern.push_back(std::nullopt);
        } else if (tok.size() >= 2 && tok.front() == '"' &&
                   tok.back() == '"') {
          goal.pattern.push_back(
              Value::String(tok.substr(1, tok.size() - 2)));
        } else {
          try {
            goal.pattern.push_back(
                Value::Int(std::stoll(tok)));
          } catch (const std::exception&) {
            throw RelError(ErrorKind::kParse,
                           "bad fuzz-goal pattern token: " + tok);
          }
        }
      }
      c.goal = std::move(goal);
    }
  }
  c.program = datalog::ParseDatalog(text);
  std::vector<std::string> idb;
  for (const Rule& rule : c.program.rules()) idb.push_back(rule.head.pred);
  std::sort(idb.begin(), idb.end());
  idb.erase(std::unique(idb.begin(), idb.end()), idb.end());
  c.idb_preds = std::move(idb);
  return c;
}

}  // namespace fuzz
}  // namespace rel
