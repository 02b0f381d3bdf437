#include "datalog/program.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "base/error.h"

namespace rel {
namespace datalog {

Literal Literal::Positive(Atom a) {
  Literal l;
  l.kind = Kind::kPositive;
  l.atom = std::move(a);
  return l;
}

Literal Literal::Negative(Atom a) {
  Literal l;
  l.kind = Kind::kNegative;
  l.atom = std::move(a);
  return l;
}

Literal Literal::Range(Term lo, Term hi, Term step, Term x) {
  Literal l;
  l.kind = Kind::kRange;
  l.atom.pred = "range";
  l.atom.terms = {std::move(lo), std::move(hi), std::move(step), std::move(x)};
  return l;
}

Literal Literal::Compare(CmpOp op, Term lhs, Term rhs) {
  Literal l;
  l.kind = Kind::kCompare;
  l.cmp_op = op;
  l.lhs = lhs;
  l.rhs = rhs;
  return l;
}

Literal Literal::NegatedCompare(CmpOp op, Term lhs, Term rhs) {
  Literal l = Compare(op, lhs, rhs);
  l.negated = true;
  return l;
}

Literal Literal::Assign(int target_var, ArithOp op, Term a, Term b) {
  Literal l;
  l.kind = Kind::kAssign;
  l.target = target_var;
  l.arith_op = op;
  l.lhs = a;
  l.rhs = b;
  return l;
}

Relation FilterByPattern(const Relation& extent,
                         const std::vector<std::optional<Value>>& pattern) {
  Relation out;
  extent.ForEachOfArity(pattern.size(), [&](const TupleRef& row) {
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i].has_value() && !(row[i] == *pattern[i])) return;
    }
    out.Insert(row);
  });
  return out;
}

void Program::AddFact(const std::string& pred, Tuple t) {
  facts_[pred].Insert(std::move(t));
}

void Program::AddFacts(const std::string& pred, const Relation& rel) {
  Relation& facts = facts_[pred];
  if (facts.empty()) {
    facts = rel;
  } else {
    facts.InsertAll(rel);
  }
}

std::map<std::string, Relation> Program::TakeFacts() {
  return std::exchange(facts_, {});
}

void Program::AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

bool Program::HasAggregates() const {
  for (const Rule& rule : rules_) {
    if (rule.agg.has_value()) return true;
  }
  return false;
}

std::vector<std::string> Program::Predicates() const {
  std::map<std::string, bool> seen;
  for (const auto& [pred, rel] : facts_) {
    (void)rel;
    seen[pred] = true;
  }
  for (const Rule& rule : rules_) {
    seen[rule.head.pred] = true;
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kPositive ||
          lit.kind == Literal::Kind::kNegative) {
        seen[lit.atom.pred] = true;
      }
    }
  }
  std::vector<std::string> out;
  for (const auto& [pred, flag] : seen) {
    (void)flag;
    out.push_back(pred);
  }
  return out;
}

namespace {

/// Hand-rolled parser for the classical Datalog syntax.
class DatalogParser {
 public:
  explicit DatalogParser(const std::string& source) : src_(source) {}

  Program Parse() {
    Program program;
    SkipWs();
    while (pos_ < src_.size()) {
      ParseClause(&program);
      SkipWs();
    }
    return program;
  }

 private:
  [[noreturn]] void Fail(const std::string& message) {
    throw RelError(ErrorKind::kParse, "datalog: " + message + " at offset " +
                                          std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || (c == '/' && pos_ + 1 < src_.size() &&
                              src_[pos_ + 1] == '/')) {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < src_.size() && src_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!Eat(c)) Fail(std::string("expected '") + c + "'");
  }

  bool EatStr(const char* s) {
    SkipWs();
    size_t n = std::strlen(s);
    if (src_.compare(pos_, n, s) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::string ParseIdent() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_) Fail("expected identifier");
    return src_.substr(start, pos_ - start);
  }

  int VarId(const std::string& name) {
    auto [it, inserted] = vars_.try_emplace(name, next_var_);
    if (inserted) ++next_var_;
    return it->second;
  }

  Term ParseTerm() {
    SkipWs();
    char c = src_[pos_];
    if (c == '"') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < src_.size() && src_[pos_] != '"') ++pos_;
      if (pos_ >= src_.size()) Fail("unterminated string");
      std::string s = src_.substr(start, pos_ - start);
      ++pos_;
      return Term::Const(Value::String(s));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      size_t start = pos_;
      if (c == '-') ++pos_;
      bool is_float = false;
      while (pos_ < src_.size()) {
        char d = src_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos_;
          continue;
        }
        // A '.' is part of the number only when a digit follows; otherwise
        // it terminates the clause.
        if (d == '.' && pos_ + 1 < src_.size() &&
            std::isdigit(static_cast<unsigned char>(src_[pos_ + 1]))) {
          is_float = true;
          ++pos_;
          continue;
        }
        break;
      }
      // An exponent, as the Rel lexer reads it: 'e' or 'E', an optional
      // sign, then at least one digit.
      if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
        size_t exp = pos_ + 1;
        if (exp < src_.size() && (src_[exp] == '+' || src_[exp] == '-')) ++exp;
        if (exp < src_.size() &&
            std::isdigit(static_cast<unsigned char>(src_[exp]))) {
          is_float = true;
          pos_ = exp;
          while (pos_ < src_.size() &&
                 std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
            ++pos_;
          }
        }
      }
      std::string text = src_.substr(start, pos_ - start);
      if (is_float) {
        const double v = std::strtod(text.c_str(), nullptr);
        if (std::isinf(v)) Fail("float literal " + text + " is out of range");
        return Term::Const(Value::Float(v));
      }
      if (text == "-") Fail("expected a number after '-'");
      errno = 0;
      const long long v = std::strtoll(text.c_str(), nullptr, 10);
      if (errno == ERANGE) Fail("integer literal " + text + " is out of range");
      return Term::Const(Value::Int(v));
    }
    std::string name = ParseIdent();
    if (name == "_") {
      // Anonymous variable: each occurrence is fresh.
      return Term::Var(next_var_++);
    }
    if (std::isupper(static_cast<unsigned char>(name[0]))) {
      return Term::Var(VarId(name));
    }
    // Lowercase bare identifiers are symbolic constants.
    return Term::Const(Value::String(name));
  }

  Atom ParseAtom() {
    Atom atom;
    atom.pred = ParseIdent();
    Expect('(');
    if (!Eat(')')) {
      atom.terms.push_back(ParseTerm());
      while (Eat(',')) atom.terms.push_back(ParseTerm());
      Expect(')');
    }
    return atom;
  }

  /// True when the input at the current position (after whitespace) reads
  /// `min(`, `max(`, `sum(` or `count(` — the aggregate head form. Does not
  /// consume anything.
  std::optional<AggOp> PeekAggOp() {
    SkipWs();
    static const std::pair<const char*, AggOp> kOps[] = {
        {"min", AggOp::kMin},
        {"max", AggOp::kMax},
        {"sum", AggOp::kSum},
        {"count", AggOp::kCount},
    };
    for (const auto& [name, op] : kOps) {
      size_t n = std::strlen(name);
      if (src_.compare(pos_, n, name) != 0) continue;
      size_t after = pos_ + n;
      // The keyword must end here (so a variable/constant named `summary`
      // is untouched) and be applied to an argument list.
      if (after < src_.size() &&
          (std::isalnum(static_cast<unsigned char>(src_[after])) ||
           src_[after] == '_')) {
        continue;
      }
      while (after < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[after]))) {
        ++after;
      }
      if (after < src_.size() && src_[after] == '(') return op;
    }
    return std::nullopt;
  }

  /// `op(value)` | `op(value; witness...)` | `count(witness...)`, already
  /// knowing `op` via PeekAggOp.
  Aggregate ParseAggregate(AggOp op) {
    Aggregate agg;
    agg.op = op;
    ParseIdent();  // the operator keyword
    Expect('(');
    if (op == AggOp::kCount) {
      // count(w...) = sum of ones over distinct witness rows.
      agg.value = Term::Const(Value::Int(1));
      agg.witness.push_back(ParseTerm());
      while (Eat(',')) agg.witness.push_back(ParseTerm());
    } else {
      agg.value = ParseTerm();
      if (Eat(';')) {
        agg.witness.push_back(ParseTerm());
        while (Eat(',')) agg.witness.push_back(ParseTerm());
      }
    }
    Expect(')');
    return agg;
  }

  /// A rule head: an atom whose LAST argument may be an aggregate form.
  Atom ParseHead(std::optional<Aggregate>* agg) {
    Atom atom;
    atom.pred = ParseIdent();
    Expect('(');
    if (Eat(')')) return atom;
    for (;;) {
      if (std::optional<AggOp> op = PeekAggOp()) {
        *agg = ParseAggregate(*op);
        Expect(')');
        return atom;
      }
      atom.terms.push_back(ParseTerm());
      if (!Eat(',')) break;
    }
    Expect(')');
    return atom;
  }

  std::optional<CmpOp> TryCmpOp() {
    if (EatStr("!=")) return CmpOp::kNeq;
    if (EatStr("<=")) return CmpOp::kLe;
    if (EatStr(">=")) return CmpOp::kGe;
    if (EatStr("<")) return CmpOp::kLt;
    if (EatStr(">")) return CmpOp::kGt;
    if (EatStr("=")) return CmpOp::kEq;
    return std::nullopt;
  }

  std::optional<ArithOp> TryArithOp() {
    if (EatStr("+")) return ArithOp::kAdd;
    if (EatStr("-")) return ArithOp::kSub;
    if (EatStr("*")) return ArithOp::kMul;
    if (EatStr("/")) return ArithOp::kDiv;
    if (EatStr("%")) return ArithOp::kMod;
    return std::nullopt;
  }

  Literal ParseLiteral() {
    SkipWs();
    if (Eat('!')) {
      Atom atom = ParseAtom();
      if (atom.pred == "range") Fail("range cannot be negated");
      return Literal::Negative(std::move(atom));
    }
    // Lookahead: `ident(` is an atom; otherwise a comparison/assignment.
    size_t save = pos_;
    std::map<std::string, int> vars_save = vars_;
    if (std::isalpha(static_cast<unsigned char>(src_[pos_])) ||
        src_[pos_] == '_') {
      std::string ident = ParseIdent();
      SkipWs();
      if (pos_ < src_.size() && src_[pos_] == '(') {
        pos_ = save;
        vars_ = vars_save;
        Atom atom = ParseAtom();
        if (atom.pred == "range") {
          if (atom.terms.size() != 4) Fail("range takes (lo, hi, step, x)");
          return Literal::Range(atom.terms[0], atom.terms[1], atom.terms[2],
                                atom.terms[3]);
        }
        return Literal::Positive(std::move(atom));
      }
      pos_ = save;
      vars_ = vars_save;
    }
    Term lhs = ParseTerm();
    std::optional<CmpOp> cmp = TryCmpOp();
    if (!cmp) Fail("expected comparison operator");
    Term a = ParseTerm();
    // V = A + B is an assignment when followed by an arithmetic operator.
    if (*cmp == CmpOp::kEq && lhs.is_var()) {
      if (std::optional<ArithOp> arith = TryArithOp()) {
        Term b = ParseTerm();
        return Literal::Assign(lhs.var, *arith, a, b);
      }
    }
    return Literal::Compare(*cmp, lhs, a);
  }

  void ParseClause(Program* program) {
    vars_.clear();
    next_var_ = 0;
    std::optional<Aggregate> agg;
    Atom head = ParseHead(&agg);
    SkipWs();
    if (Eat('.')) {
      if (agg) Fail("facts cannot carry an aggregate head");
      // A fact.
      Tuple t;
      for (const Term& term : head.terms) {
        if (term.is_var()) Fail("facts must be ground");
        t.Append(term.constant);
      }
      program->AddFact(head.pred, std::move(t));
      return;
    }
    if (!EatStr(":-")) Fail("expected '.' or ':-'");
    Rule rule;
    rule.head = std::move(head);
    rule.agg = std::move(agg);
    rule.body.push_back(ParseLiteral());
    while (Eat(',')) rule.body.push_back(ParseLiteral());
    Expect('.');
    program->AddRule(std::move(rule));
  }

  const std::string& src_;
  size_t pos_ = 0;
  std::map<std::string, int> vars_;
  int next_var_ = 0;
};

}  // namespace

Program ParseDatalog(const std::string& source) {
  return DatalogParser(source).Parse();
}

}  // namespace datalog
}  // namespace rel
