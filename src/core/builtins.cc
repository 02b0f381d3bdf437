#include "core/builtins.h"

#include <cmath>
#include <map>
#include <memory>
#include <regex>

#include "base/error.h"

namespace rel {

namespace {

bool NumericEqual(const Value& a, const Value& b) {
  return a.NumericCompare(b) == Value::Ordering::kEqual;
}

bool BothNumbers(const Value& a, const Value& b) {
  return a.is_number() && b.is_number();
}

// --- arithmetic kernels -----------------------------------------------------

/// The kType error every int lane raises for a result outside int64;
/// `expr` renders the operation, e.g. "1 + 2" or "abs(-3)".
[[noreturn]] void ThrowIntOverflow(const std::string& expr) {
  throw RelError(ErrorKind::kType,
                 "integer overflow: " + expr + " exceeds the int64 range");
}

/// Signed-overflow guard for the int lanes of +, -, * and ^: i64 wraparound
/// is UB, so the checked lanes raise kType instead — the SAME error the
/// classical engine's CheckedI64 raises (datalog/eval.cc), so the
/// differential suites see one behavior on both paths instead of two
/// different wrapped values.
int64_t CheckedInt(int64_t a, const char* op, int64_t b, bool overflow,
                   int64_t r) {
  if (overflow) {
    ThrowIntOverflow(std::to_string(a) + " " + op + " " + std::to_string(b));
  }
  return r;
}

/// The int lanes of negate and abs: -INT64_MIN does not fit, so it raises
/// the checked lanes' error instead of negating (UB).
int64_t CheckedNegate(int64_t x, const char* fn) {
  if (x == INT64_MIN) {
    ThrowIntOverflow(std::string(fn) + "(" + std::to_string(x) + ")");
  }
  return -x;
}

/// The int result of floor/ceil/round/int: `r` is `fn` applied to the
/// number `v`, an integral double or a non-finite one. Casting one outside
/// int64 is UB, so a NaN, an infinity or a value past the int64 range
/// raises the checked lanes' error. An int `v` is returned as is: the
/// double round trip would lose precision above 2^53.
Value IntOfIntegral(const char* fn, const Value& v, double r) {
  if (v.is_int()) return v;
  // [-2^63, 2^63) holds exactly the integral doubles that fit; NaN fails.
  if (!(r >= -0x1p63 && r < 0x1p63)) {
    ThrowIntOverflow(std::string(fn) + "(" + v.ToString() + ")");
  }
  return Value::Int(static_cast<int64_t>(r));
}

std::optional<Value> NumAdd(const Value& a, const Value& b) {
  if (!BothNumbers(a, b)) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    bool o = __builtin_add_overflow(a.AsInt(), b.AsInt(), &r);
    return Value::Int(CheckedInt(a.AsInt(), "+", b.AsInt(), o, r));
  }
  return Value::FloatResult(a.AsDouble() + b.AsDouble());
}

std::optional<Value> NumSub(const Value& a, const Value& b) {
  if (!BothNumbers(a, b)) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    bool o = __builtin_sub_overflow(a.AsInt(), b.AsInt(), &r);
    return Value::Int(CheckedInt(a.AsInt(), "-", b.AsInt(), o, r));
  }
  return Value::FloatResult(a.AsDouble() - b.AsDouble());
}

std::optional<Value> NumMul(const Value& a, const Value& b) {
  if (!BothNumbers(a, b)) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    int64_t r = 0;
    bool o = __builtin_mul_overflow(a.AsInt(), b.AsInt(), &r);
    return Value::Int(CheckedInt(a.AsInt(), "*", b.AsInt(), o, r));
  }
  return Value::FloatResult(a.AsDouble() * b.AsDouble());
}

// Division: exact integer division stays an Int so that integer workloads
// (the paper's addUp example divides by 10) keep recursing over Int; any
// inexact division produces a Float.
std::optional<Value> NumDiv(const Value& a, const Value& b) {
  if (!BothNumbers(a, b)) return std::nullopt;
  if (a.is_int() && b.is_int()) {
    if (b.AsInt() == 0) return std::nullopt;
    if (b.AsInt() == -1) {
      // INT64_MIN / -1 overflows (and the % below traps); promote that one
      // case to float, matching datalog/eval.cc.
      if (a.AsInt() == INT64_MIN) {
        return Value::Float(-static_cast<double>(a.AsInt()));
      }
      return Value::Int(-a.AsInt());
    }
    if (a.AsInt() % b.AsInt() == 0) return Value::Int(a.AsInt() / b.AsInt());
    return Value::Float(a.AsDouble() / b.AsDouble());
  }
  if (b.AsDouble() == 0.0) return std::nullopt;
  return Value::FloatResult(a.AsDouble() / b.AsDouble());
}

std::optional<Value> NumMod(const Value& a, const Value& b) {
  if (!a.is_int() || !b.is_int() || b.AsInt() == 0) return std::nullopt;
  // x % -1 is 0 for all x, but the instruction traps on INT64_MIN (UB).
  if (b.AsInt() == -1) return Value::Int(0);
  return Value::Int(a.AsInt() % b.AsInt());
}

std::optional<Value> NumPow(const Value& a, const Value& b) {
  if (!BothNumbers(a, b)) return std::nullopt;
  if (a.is_int() && b.is_int() && b.AsInt() >= 0) {
    int64_t result = 1;
    int64_t base = a.AsInt();
    for (int64_t i = 0; i < b.AsInt(); ++i) {
      bool o = __builtin_mul_overflow(result, base, &result);
      CheckedInt(a.AsInt(), "^", b.AsInt(), o, result);
    }
    return Value::Int(result);
  }
  return Value::FloatResult(std::pow(a.AsDouble(), b.AsDouble()));
}

std::optional<Value> NumMin(const Value& a, const Value& b) {
  auto c = a.NumericCompare(b);
  if (c == Value::Ordering::kUnordered) return std::nullopt;
  return c == Value::Ordering::kGreater ? b : a;
}

std::optional<Value> NumMax(const Value& a, const Value& b) {
  auto c = a.NumericCompare(b);
  if (c == Value::Ordering::kUnordered) return std::nullopt;
  return c == Value::Ordering::kLess ? b : a;
}

// --- builtin implementations ------------------------------------------------

using BinaryFn = std::optional<Value> (*)(const Value&, const Value&);

/// Ternary relation op(x, y, z) with z = fwd(x, y) and optional inverses
/// y = inv_y(x, z), x = inv_x(y, z). Every inverse result is verified
/// against fwd so approximate inverses cannot produce tuples that are not
/// in the relation.
class TernaryOp : public Builtin {
 public:
  TernaryOp(std::string name, BinaryFn fwd, BinaryFn inv_y, BinaryFn inv_x)
      : Builtin(std::move(name), 3), fwd_(fwd), inv_y_(inv_y), inv_x_(inv_x) {}

  bool Supports(const std::vector<bool>& bound) const override {
    if (bound[0] && bound[1]) return true;
    if (inv_y_ && bound[0] && bound[2]) return true;
    if (inv_x_ && bound[1] && bound[2]) return true;
    return false;
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    const auto& x = args[0];
    const auto& y = args[1];
    const auto& z = args[2];
    if (x && y) {
      std::optional<Value> r = fwd_(*x, *y);
      if (!r) return;
      if (z && !NumericEqual(*r, *z)) return;
      emit({*x, *y, z ? *z : *r});
      return;
    }
    if (x && z && inv_y_) {
      std::optional<Value> r = inv_y_(*x, *z);
      if (!r) return;
      std::optional<Value> check = fwd_(*x, *r);
      if (!check || !NumericEqual(*check, *z)) return;
      emit({*x, *r, *z});
      return;
    }
    if (y && z && inv_x_) {
      std::optional<Value> r = inv_x_(*y, *z);
      if (!r) return;
      std::optional<Value> check = fwd_(*r, *y);
      if (!check || !NumericEqual(*check, *z)) return;
      emit({*r, *y, *z});
      return;
    }
  }

 private:
  BinaryFn fwd_;
  BinaryFn inv_y_;  // y from (x, z)
  BinaryFn inv_x_;  // x from (y, z)
};

/// eq(x, y): supports testing and binding either side from the other.
class EqBuiltin : public Builtin {
 public:
  EqBuiltin() : Builtin("eq", 2) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0] || bound[1];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    if (args[0] && args[1]) {
      if (args[0]->NumericCompare(*args[1]) == Value::Ordering::kEqual) {
        emit({*args[0], *args[1]});
      }
    } else if (args[0]) {
      emit({*args[0], *args[0]});
    } else if (args[1]) {
      emit({*args[1], *args[1]});
    }
  }
};

/// Binary comparison relations; both arguments must be bound.
class CompareBuiltin : public Builtin {
 public:
  using Pred = bool (*)(Value::Ordering);
  CompareBuiltin(std::string name, Pred pred)
      : Builtin(std::move(name), 2), pred_(pred) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0] && bound[1];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    Value::Ordering o = args[0]->NumericCompare(*args[1]);
    if (o == Value::Ordering::kUnordered) return;
    if (pred_(o)) emit({*args[0], *args[1]});
  }

 private:
  Pred pred_;
};

/// negate(x, y): y = -x, invertible.
class NegateBuiltin : public Builtin {
 public:
  NegateBuiltin() : Builtin("negate", 2) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0] || bound[1];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    auto negate = [](const Value& v) -> std::optional<Value> {
      if (v.is_int()) return Value::Int(CheckedNegate(v.AsInt(), "-"));
      if (v.is_float()) return Value::Float(-v.AsFloat());
      return std::nullopt;
    };
    if (args[0]) {
      std::optional<Value> r = negate(*args[0]);
      if (!r) return;
      if (args[1] && !NumericEqual(*r, *args[1])) return;
      emit({*args[0], args[1] ? *args[1] : *r});
    } else if (args[1]) {
      std::optional<Value> r = negate(*args[1]);
      if (!r) return;
      emit({*r, *args[1]});
    }
  }
};

/// Type predicates Int(x), Float(x), ...
class TypePredBuiltin : public Builtin {
 public:
  using Pred = bool (*)(const Value&);
  TypePredBuiltin(std::string name, Pred pred)
      : Builtin(std::move(name), 1), pred_(pred) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    if (pred_(*args[0])) emit({*args[0]});
  }

 private:
  Pred pred_;
};

/// range(lo, hi, step, x): x = lo, lo+step, ..., <= hi (inclusive, as in the
/// paper's PageRank helper `range(1,d,1,i)`). Enumerable when the first
/// three arguments are bound.
class RangeBuiltin : public Builtin {
 public:
  RangeBuiltin() : Builtin("range", 4) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0] && bound[1] && bound[2];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    if (!args[0]->is_int() || !args[1]->is_int() || !args[2]->is_int()) return;
    int64_t lo = args[0]->AsInt();
    int64_t hi = args[1]->AsInt();
    int64_t step = args[2]->AsInt();
    if (step <= 0) return;
    if (args[3]) {
      if (!args[3]->is_int()) return;
      int64_t x = args[3]->AsInt();
      // x - lo can exceed INT64_MAX; the modulus is exact in uint64.
      if (x >= lo && x <= hi &&
          (static_cast<uint64_t>(x) - static_cast<uint64_t>(lo)) %
                  static_cast<uint64_t>(step) ==
              0) {
        emit({*args[0], *args[1], *args[2], *args[3]});
      }
      return;
    }
    // Stop before the increment wraps past INT64_MAX.
    for (int64_t x = lo; x <= hi;) {
      emit({*args[0], *args[1], *args[2], Value::Int(x)});
      if (__builtin_add_overflow(x, step, &x)) break;
    }
  }
};

/// Unary float function f(x, y) with y = fn(x); first argument must be bound.
class UnaryMathBuiltin : public Builtin {
 public:
  using Fn = std::optional<Value> (*)(const Value&);
  UnaryMathBuiltin(std::string name, Fn fn)
      : Builtin(std::move(name), 2), fn_(fn) {}

  bool Supports(const std::vector<bool>& bound) const override {
    return bound[0];
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    std::optional<Value> r = fn_(*args[0]);
    if (!r) return;
    if (args[1] && !NumericEqual(*r, *args[1])) return;
    emit({*args[0], args[1] ? *args[1] : *r});
  }

 private:
  Fn fn_;
};

/// General lambda-backed builtin for the string operations.
class LambdaBuiltin : public Builtin {
 public:
  using EvalFn = std::function<void(const std::vector<std::optional<Value>>&,
                                    const BuiltinEmit&)>;
  LambdaBuiltin(std::string name, size_t arity, std::vector<bool> required,
                EvalFn fn)
      : Builtin(std::move(name), arity),
        required_(std::move(required)),
        fn_(std::move(fn)) {}

  bool Supports(const std::vector<bool>& bound) const override {
    for (size_t i = 0; i < required_.size(); ++i) {
      if (required_[i] && !bound[i]) return false;
    }
    return true;
  }

  void Eval(const std::vector<std::optional<Value>>& args,
            const BuiltinEmit& emit) const override {
    fn_(args, emit);
  }

 private:
  std::vector<bool> required_;
  EvalFn fn_;
};

// Emits `r` if it agrees with the (possibly bound) expectation `expect`.
void EmitChecked(const std::vector<std::optional<Value>>& args, Value r,
                 const BuiltinEmit& emit) {
  size_t last = args.size() - 1;
  if (args[last] && *args[last] != r) return;
  std::vector<Value> out;
  out.reserve(args.size());
  for (size_t i = 0; i < last; ++i) out.push_back(*args[i]);
  out.push_back(r);
  emit(out);
}

std::optional<Value> FloatFn(const Value& v, double (*fn)(double)) {
  if (!v.is_number()) return std::nullopt;
  return Value::FloatResult(fn(v.AsDouble()));
}

// --- registry ---------------------------------------------------------------

std::map<std::string, std::unique_ptr<Builtin>> MakeRegistry() {
  std::map<std::string, std::unique_ptr<Builtin>> reg;
  auto add = [&reg](Builtin* b) { reg.emplace(b->name(), b); };

  add(new TernaryOp("add", NumAdd, /*inv_y=*/
                    [](const Value& x, const Value& z) { return NumSub(z, x); },
                    /*inv_x=*/
                    [](const Value& y, const Value& z) { return NumSub(z, y); }));
  add(new TernaryOp("subtract", NumSub,
                    [](const Value& x, const Value& z) { return NumSub(x, z); },
                    [](const Value& y, const Value& z) { return NumAdd(z, y); }));
  add(new TernaryOp("multiply", NumMul,
                    [](const Value& x, const Value& z) { return NumDiv(z, x); },
                    [](const Value& y, const Value& z) { return NumDiv(z, y); }));
  add(new TernaryOp("divide", NumDiv,
                    [](const Value& x, const Value& z) { return NumDiv(x, z); },
                    [](const Value& y, const Value& z) { return NumMul(z, y); }));
  add(new TernaryOp("modulo", NumMod, nullptr, nullptr));
  add(new TernaryOp("power", NumPow, nullptr, nullptr));
  add(new TernaryOp("minimum", NumMin, nullptr, nullptr));
  add(new TernaryOp("maximum", NumMax, nullptr, nullptr));
  add(new TernaryOp("log", /*fwd: log base x of y*/
                    [](const Value& b, const Value& x) -> std::optional<Value> {
                      if (!BothNumbers(b, x)) return std::nullopt;
                      if (b.AsDouble() <= 0 || b.AsDouble() == 1 ||
                          x.AsDouble() <= 0) {
                        return std::nullopt;
                      }
                      return Value::Float(std::log(x.AsDouble()) /
                                          std::log(b.AsDouble()));
                    },
                    nullptr, nullptr));

  add(new EqBuiltin());
  add(new CompareBuiltin(
      "neq", [](Value::Ordering o) { return o != Value::Ordering::kEqual; }));
  add(new CompareBuiltin(
      "lt", [](Value::Ordering o) { return o == Value::Ordering::kLess; }));
  add(new CompareBuiltin("lt_eq", [](Value::Ordering o) {
    return o != Value::Ordering::kGreater;
  }));
  add(new CompareBuiltin(
      "gt", [](Value::Ordering o) { return o == Value::Ordering::kGreater; }));
  add(new CompareBuiltin(
      "gt_eq", [](Value::Ordering o) { return o != Value::Ordering::kLess; }));

  add(new NegateBuiltin());

  add(new TypePredBuiltin("Int", [](const Value& v) { return v.is_int(); }));
  add(new TypePredBuiltin("Float",
                          [](const Value& v) { return v.is_float(); }));
  add(new TypePredBuiltin("String",
                          [](const Value& v) { return v.is_string(); }));
  add(new TypePredBuiltin("Entity",
                          [](const Value& v) { return v.is_entity(); }));
  add(new TypePredBuiltin("Number",
                          [](const Value& v) { return v.is_number(); }));

  add(new RangeBuiltin());

  add(new UnaryMathBuiltin("sqrt", [](const Value& v) {
    if (!v.is_number() || v.AsDouble() < 0) return std::optional<Value>();
    return std::optional<Value>(Value::Float(std::sqrt(v.AsDouble())));
  }));
  add(new UnaryMathBuiltin("natural_log", [](const Value& v) {
    if (!v.is_number() || v.AsDouble() <= 0) return std::optional<Value>();
    return std::optional<Value>(Value::Float(std::log(v.AsDouble())));
  }));
  add(new UnaryMathBuiltin(
      "natural_exp", [](const Value& v) { return FloatFn(v, std::exp); }));
  add(new UnaryMathBuiltin("sin",
                           [](const Value& v) { return FloatFn(v, std::sin); }));
  add(new UnaryMathBuiltin("cos",
                           [](const Value& v) { return FloatFn(v, std::cos); }));
  add(new UnaryMathBuiltin("tan",
                           [](const Value& v) { return FloatFn(v, std::tan); }));
  add(new UnaryMathBuiltin("abs", [](const Value& v) -> std::optional<Value> {
    if (v.is_int()) {
      return Value::Int(v.AsInt() < 0 ? CheckedNegate(v.AsInt(), "abs")
                                       : v.AsInt());
    }
    if (v.is_float()) return Value::Float(std::fabs(v.AsFloat()));
    return std::nullopt;
  }));
  add(new UnaryMathBuiltin("floor", [](const Value& v) -> std::optional<Value> {
    if (!v.is_number()) return std::nullopt;
    return IntOfIntegral("floor", v, std::floor(v.AsDouble()));
  }));
  add(new UnaryMathBuiltin("ceil", [](const Value& v) -> std::optional<Value> {
    if (!v.is_number()) return std::nullopt;
    return IntOfIntegral("ceil", v, std::ceil(v.AsDouble()));
  }));
  add(new UnaryMathBuiltin("round", [](const Value& v) -> std::optional<Value> {
    if (!v.is_number()) return std::nullopt;
    return IntOfIntegral("round", v, std::round(v.AsDouble()));
  }));
  add(new UnaryMathBuiltin("int", [](const Value& v) -> std::optional<Value> {
    if (!v.is_number()) return std::nullopt;
    return IntOfIntegral("int", v, std::trunc(v.AsDouble()));
  }));
  add(new UnaryMathBuiltin("float", [](const Value& v) -> std::optional<Value> {
    if (!v.is_number()) return std::nullopt;
    return Value::Float(v.AsDouble());
  }));

  // --- string builtins ---
  add(new LambdaBuiltin(
      "concat", 3, {true, true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string() || !args[1]->is_string()) return;
        EmitChecked(args,
                    Value::String(args[0]->AsString() + args[1]->AsString()),
                    emit);
      }));
  add(new LambdaBuiltin(
      "string_length", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string()) return;
        EmitChecked(
            args,
            Value::Int(static_cast<int64_t>(args[0]->AsString().size())),
            emit);
      }));
  add(new LambdaBuiltin(
      "uppercase", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string()) return;
        std::string s = args[0]->AsString();
        for (char& c : s) c = static_cast<char>(std::toupper(c));
        EmitChecked(args, Value::String(s), emit);
      }));
  add(new LambdaBuiltin(
      "lowercase", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string()) return;
        std::string s = args[0]->AsString();
        for (char& c : s) c = static_cast<char>(std::tolower(c));
        EmitChecked(args, Value::String(s), emit);
      }));
  add(new LambdaBuiltin(
      "substring", 4, {true, true, true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        // substring(s, from, to, r): 1-based inclusive bounds.
        if (!args[0]->is_string() || !args[1]->is_int() || !args[2]->is_int())
          return;
        const std::string& s = args[0]->AsString();
        int64_t from = args[1]->AsInt();
        int64_t to = args[2]->AsInt();
        if (from < 1 || to < from - 1 ||
            to > static_cast<int64_t>(s.size())) {
          return;
        }
        EmitChecked(args, Value::String(s.substr(from - 1, to - from + 1)),
                    emit);
      }));
  add(new LambdaBuiltin(
      "contains", 2, {true, true},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string() || !args[1]->is_string()) return;
        if (args[0]->AsString().find(args[1]->AsString()) !=
            std::string::npos) {
          emit({*args[0], *args[1]});
        }
      }));
  add(new LambdaBuiltin(
      "starts_with", 2, {true, true},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string() || !args[1]->is_string()) return;
        const std::string& s = args[0]->AsString();
        const std::string& p = args[1]->AsString();
        if (s.size() >= p.size() && s.compare(0, p.size(), p) == 0) {
          emit({*args[0], *args[1]});
        }
      }));
  add(new LambdaBuiltin(
      "ends_with", 2, {true, true},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string() || !args[1]->is_string()) return;
        const std::string& s = args[0]->AsString();
        const std::string& p = args[1]->AsString();
        if (s.size() >= p.size() &&
            s.compare(s.size() - p.size(), p.size(), p) == 0) {
          emit({*args[0], *args[1]});
        }
      }));
  add(new LambdaBuiltin(
      "regex_match", 2, {true, true},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string() || !args[1]->is_string()) return;
        try {
          std::regex re(args[0]->AsString());
          if (std::regex_match(args[1]->AsString(), re)) {
            emit({*args[0], *args[1]});
          }
        } catch (const std::regex_error&) {
          // A malformed pattern simply matches nothing.
        }
      }));
  add(new LambdaBuiltin(
      "string", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        // Unquoted rendering for strings; Rel literal syntax otherwise.
        Value r = args[0]->is_string() ? *args[0]
                                       : Value::String(args[0]->ToString());
        if (args[0]->is_string()) r = *args[0];
        EmitChecked(args, r, emit);
      }));
  add(new LambdaBuiltin(
      "parse_int", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string()) return;
        try {
          size_t consumed = 0;
          int64_t v = std::stoll(args[0]->AsString(), &consumed);
          if (consumed != args[0]->AsString().size()) return;
          EmitChecked(args, Value::Int(v), emit);
        } catch (const std::exception&) {
        }
      }));
  add(new LambdaBuiltin(
      "parse_float", 2, {true, false},
      [](const std::vector<std::optional<Value>>& args,
         const BuiltinEmit& emit) {
        if (!args[0]->is_string()) return;
        try {
          size_t consumed = 0;
          double v = std::stod(args[0]->AsString(), &consumed);
          if (consumed != args[0]->AsString().size()) return;
          std::optional<Value> f = Value::FloatResult(v);
          if (f) EmitChecked(args, *f, emit);
        } catch (const std::exception&) {
        }
      }));

  return reg;
}

const std::map<std::string, std::unique_ptr<Builtin>>& Registry() {
  static auto* registry =
      new std::map<std::string, std::unique_ptr<Builtin>>(MakeRegistry());
  return *registry;
}

}  // namespace

const Builtin* FindBuiltin(const std::string& name) {
  constexpr std::string_view kPrefix = "rel_primitive_";
  std::string key = name;
  if (key.size() > kPrefix.size() &&
      key.compare(0, kPrefix.size(), kPrefix) == 0) {
    key = key.substr(kPrefix.size());
  }
  auto it = Registry().find(key);
  return it == Registry().end() ? nullptr : it->second.get();
}

std::vector<std::string> BuiltinNames() {
  std::vector<std::string> names;
  for (const auto& [name, builtin] : Registry()) {
    (void)builtin;
    names.push_back(name);
  }
  return names;
}

std::optional<Value> ApplyAsFunction(const Builtin& builtin,
                                     const std::vector<Value>& inputs) {
  if (inputs.size() + 1 != builtin.arity()) return std::nullopt;
  std::vector<std::optional<Value>> args(builtin.arity());
  std::vector<bool> bound(builtin.arity(), true);
  bound.back() = false;
  for (size_t i = 0; i < inputs.size(); ++i) args[i] = inputs[i];
  if (!builtin.Supports(bound)) return std::nullopt;
  std::optional<Value> result;
  builtin.Eval(args, [&result](const std::vector<Value>& tuple) {
    if (!result) result = tuple.back();
  });
  return result;
}

}  // namespace rel
