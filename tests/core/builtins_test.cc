#include "core/builtins.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/engine.h"

namespace rel {
namespace {

/// Runs a builtin under a binding pattern; returns all completions.
std::vector<std::vector<Value>> Invoke(const std::string& name,
                                    std::vector<std::optional<Value>> args) {
  const Builtin* b = FindBuiltin(name);
  EXPECT_NE(b, nullptr) << name;
  std::vector<bool> bound;
  for (const auto& a : args) bound.push_back(a.has_value());
  EXPECT_TRUE(b->Supports(bound)) << name;
  std::vector<std::vector<Value>> out;
  b->Eval(args, [&out](const std::vector<Value>& t) { out.push_back(t); });
  return out;
}

bool Supports(const std::string& name, std::vector<bool> bound) {
  return FindBuiltin(name)->Supports(bound);
}

Value I(int64_t v) { return Value::Int(v); }
Value F(double v) { return Value::Float(v); }
Value S(const char* v) { return Value::String(v); }

TEST(Builtins, AddForwardAndInverses) {
  EXPECT_EQ(Invoke("add", {I(2), I(3), std::nullopt}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Inverse: y from (x, z).
  EXPECT_EQ(Invoke("add", {I(2), std::nullopt, I(5)}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Inverse: x from (y, z).
  EXPECT_EQ(Invoke("add", {std::nullopt, I(3), I(5)}),
            (std::vector<std::vector<Value>>{{I(2), I(3), I(5)}}));
  // Test pattern.
  EXPECT_EQ(Invoke("add", {I(2), I(3), I(6)}).size(), 0u);
  // All-free unsupported.
  EXPECT_FALSE(Supports("add", {false, false, false}));
  EXPECT_FALSE(Supports("add", {true, false, false}));
}

TEST(Builtins, TypePromotion) {
  EXPECT_EQ(Invoke("add", {I(1), F(0.5), std::nullopt})[0][2], F(1.5));
  EXPECT_EQ(Invoke("multiply", {F(2.0), I(3), std::nullopt})[0][2], F(6.0));
}

TEST(Builtins, DivideIntStaysIntWhenExact) {
  EXPECT_EQ(Invoke("divide", {I(10), I(5), std::nullopt})[0][2], I(2));
  EXPECT_EQ(Invoke("divide", {I(1), I(2), std::nullopt})[0][2], F(0.5));
  // Division by zero: no tuple, not an error.
  EXPECT_EQ(Invoke("divide", {I(1), I(0), std::nullopt}).size(), 0u);
}

TEST(Builtins, ModuloAndPower) {
  EXPECT_EQ(Invoke("modulo", {I(7), I(3), std::nullopt})[0][2], I(1));
  EXPECT_EQ(Invoke("modulo", {I(7), I(0), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("power", {I(2), I(10), std::nullopt})[0][2], I(1024));
  EXPECT_EQ(Invoke("power", {F(4.0), F(0.5), std::nullopt})[0][2], F(2.0));
}

TEST(Builtins, MultiplyInverseVerified) {
  // y = z / x must verify x * y == z: 0 * y = 5 has no solution.
  EXPECT_EQ(Invoke("multiply", {I(0), std::nullopt, I(5)}).size(), 0u);
  EXPECT_EQ(Invoke("multiply", {I(2), std::nullopt, I(5)})[0][1], F(2.5));
}

TEST(Builtins, EqBindsEitherSide) {
  EXPECT_EQ(Invoke("eq", {I(4), std::nullopt}),
            (std::vector<std::vector<Value>>{{I(4), I(4)}}));
  EXPECT_EQ(Invoke("eq", {std::nullopt, S("x")})[0][0], S("x"));
  EXPECT_EQ(Invoke("eq", {I(1), F(1.0)}).size(), 1u);  // numeric equality
  EXPECT_FALSE(Supports("eq", {false, false}));
}

TEST(Builtins, Comparisons) {
  EXPECT_EQ(Invoke("lt", {I(1), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("lt", {I(2), I(2)}).size(), 0u);
  EXPECT_EQ(Invoke("lt_eq", {I(2), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("gt", {F(2.5), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("neq", {I(1), I(2)}).size(), 1u);
  EXPECT_EQ(Invoke("neq", {I(1), F(1.0)}).size(), 0u);
  // Strings compare lexicographically.
  EXPECT_EQ(Invoke("lt", {S("a"), S("b")}).size(), 1u);
  // Mixed kinds are unordered: no tuple.
  EXPECT_EQ(Invoke("lt", {I(1), S("b")}).size(), 0u);
}

TEST(Builtins, TypePredicates) {
  EXPECT_EQ(Invoke("Int", {I(1)}).size(), 1u);
  EXPECT_EQ(Invoke("Int", {F(1.0)}).size(), 0u);
  EXPECT_EQ(Invoke("Float", {F(1.0)}).size(), 1u);
  EXPECT_EQ(Invoke("String", {S("s")}).size(), 1u);
  EXPECT_EQ(Invoke("Number", {I(1)}).size(), 1u);
  EXPECT_EQ(Invoke("Number", {S("1")}).size(), 0u);
  EXPECT_FALSE(Supports("Int", {false}));  // cannot enumerate all integers
}

TEST(Builtins, RangeEnumerates) {
  auto out = Invoke("range", {I(1), I(5), I(2), std::nullopt});
  ASSERT_EQ(out.size(), 3u);  // 1, 3, 5 (inclusive upper bound)
  EXPECT_EQ(out[0][3], I(1));
  EXPECT_EQ(out[2][3], I(5));
  EXPECT_EQ(Invoke("range", {I(1), I(5), I(2), I(4)}).size(), 0u);
  EXPECT_EQ(Invoke("range", {I(1), I(5), I(2), I(3)}).size(), 1u);
  EXPECT_FALSE(Supports("range", {true, true, false, true}));

  // The enumeration stops before the increment would wrap past INT64_MAX.
  out = Invoke("range", {I(INT64_MAX - 1), I(INT64_MAX), I(1), std::nullopt});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][3], I(INT64_MAX));
  out = Invoke("range", {I(INT64_MIN), I(INT64_MAX), I(INT64_MAX),
                         std::nullopt});
  ASSERT_EQ(out.size(), 3u);  // INT64_MIN, -1, INT64_MAX - 1
  EXPECT_EQ(out[2][3], I(INT64_MAX - 1));
  // Membership over the full span: x - lo is 2^64 - 3, and
  // (2^64 - 3) mod 3 = 1; 2^64 - 4 is a multiple of 3.
  EXPECT_EQ(
      Invoke("range", {I(-INT64_MAX), I(INT64_MAX), I(3), I(INT64_MAX - 1)})
          .size(),
      0u);
  EXPECT_EQ(
      Invoke("range", {I(-INT64_MAX), I(INT64_MAX), I(3), I(INT64_MAX - 2)})
          .size(),
      1u);
}

TEST(Builtins, RangeAtTheInt64LimitsInQueries) {
  Engine engine;
  EXPECT_EQ(engine
                .Query("def output(x) : range(9223372036854775806, "
                       "9223372036854775807, 1, x)")
                .ToString(),
            "{(9223372036854775806); (9223372036854775807)}");
  EXPECT_EQ(engine
                .Query("def output(x) : range(1, 9223372036854775807, "
                       "9223372036854775807, x)")
                .ToString(),
            "{(1)}");
  EXPECT_TRUE(engine
                  .Query("def output : range(-9223372036854775807, "
                         "9223372036854775807, 3, 9223372036854775806)")
                  .empty());
}

TEST(Builtins, RangeAtTheInt64LimitAgreesLoweredAndInterpreted) {
  // A level-indexed recursion whose range ends at INT64_MAX: the
  // interpreter enumerates the range, the lowered program solves it from
  // s = t - 1; both stop at the limit.
  const std::string source =
      "def lv(t) : t = 9223372036854775804 or "
      "(range(9223372036854775805, 9223372036854775807, 1, t) and "
      "exists((s) | lv(s) and s = t - 1))\n"
      "def output : lv";
  Engine interpreted;
  interpreted.options().lower_recursion = false;
  Engine lowered;
  Relation want = interpreted.Query(source);
  EXPECT_EQ(want.ToString(),
            "{(9223372036854775804); (9223372036854775805); "
            "(9223372036854775806); (9223372036854775807)}");
  EXPECT_EQ(lowered.Query(source).ToString(), want.ToString());
  EXPECT_EQ(lowered.last_lowering_stats().components_lowered, 1);
}

TEST(Builtins, UnaryMath) {
  EXPECT_EQ(Invoke("sqrt", {F(9.0), std::nullopt})[0][1], F(3.0));
  EXPECT_EQ(Invoke("sqrt", {F(-1.0), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("abs", {I(-5), std::nullopt})[0][1], I(5));
  EXPECT_EQ(Invoke("floor", {F(2.7), std::nullopt})[0][1], I(2));
  EXPECT_EQ(Invoke("ceil", {F(2.1), std::nullopt})[0][1], I(3));
  EXPECT_EQ(Invoke("round", {F(2.5), std::nullopt})[0][1], I(3));
}

/// The message of the kType error `fn` raises, or "" when it raises none.
template <typename Fn>
std::string TypeErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kType) << e.what();
    return e.what();
  }
  return "";
}

TEST(Builtins, IntResultsOutsideInt64RaiseTheOverflowError) {
  const Value min = I(INT64_MIN);
  const Value max = I(INT64_MAX);
  auto raises = [](const std::string& name,
                   std::vector<std::optional<Value>> args) {
    return TypeErrorOf([&] { Invoke(name, std::move(args)); });
  };
  EXPECT_NE(raises("abs", {min, std::nullopt}).find(
                "integer overflow: abs(-9223372036854775808) exceeds the int64"),
            std::string::npos);
  // negate, forward and inverse.
  EXPECT_NE(raises("negate", {min, std::nullopt}).find("integer overflow"),
            std::string::npos);
  EXPECT_NE(raises("negate", {std::nullopt, min}).find("integer overflow"),
            std::string::npos);
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* fn : {"floor", "ceil", "round", "int"}) {
    for (double d : {1e300, 1e19, -1e30, 0x1p63, std::nan(""), inf, -inf}) {
      EXPECT_NE(raises(fn, {F(d), std::nullopt}).find("integer overflow"),
                std::string::npos)
          << fn << " " << d;
    }
  }
  // The limits themselves still fit.
  EXPECT_EQ(Invoke("abs", {I(INT64_MIN + 1), std::nullopt})[0][1], max);
  EXPECT_EQ(Invoke("negate", {max, std::nullopt})[0][1], I(-INT64_MAX));
  EXPECT_EQ(Invoke("negate", {std::nullopt, max})[0][0], I(-INT64_MAX));
  EXPECT_EQ(Invoke("floor", {F(-0x1p63), std::nullopt})[0][1], min);
  EXPECT_EQ(Invoke("round", {F(-2.5), std::nullopt})[0][1], I(-3));
  EXPECT_EQ(Invoke("int", {F(-2.7), std::nullopt})[0][1], I(-2));
  // An int argument is its own floor/ceil/round/int, with no double round
  // trip to lose precision or overflow.
  for (const char* fn : {"floor", "ceil", "round", "int"}) {
    EXPECT_EQ(Invoke(fn, {max, std::nullopt})[0][1], max) << fn;
    EXPECT_EQ(Invoke(fn, {I(9007199254740993), std::nullopt})[0][1],
              I(9007199254740993))
        << fn;
  }
}

TEST(Builtins, IntOverflowInQueriesIsATypeError) {
  Engine engine;
  for (const char* query :
       {"def output : abs_value[-9223372036854775807 - 1]",
        "def output : -(-9223372036854775807 - 1)",
        "def output : floor[1e300]", "def output : ceil[1e19]",
        "def output : round[-1e30]"}) {
    EXPECT_NE(TypeErrorOf([&] { engine.Query(query); }).find(
                  "integer overflow"),
              std::string::npos)
        << query;
  }
}

TEST(Builtins, Strings) {
  EXPECT_EQ(Invoke("concat", {S("ab"), S("cd"), std::nullopt})[0][2], S("abcd"));
  EXPECT_EQ(Invoke("string_length", {S("hello"), std::nullopt})[0][1], I(5));
  EXPECT_EQ(Invoke("uppercase", {S("aBc"), std::nullopt})[0][1], S("ABC"));
  EXPECT_EQ(Invoke("substring", {S("hello"), I(2), I(4), std::nullopt})[0][3],
            S("ell"));
  EXPECT_EQ(Invoke("substring", {S("hi"), I(1), I(5), std::nullopt}).size(), 0u);
  EXPECT_EQ(Invoke("contains", {S("hello"), S("ell")}).size(), 1u);
  EXPECT_EQ(Invoke("starts_with", {S("hello"), S("he")}).size(), 1u);
  EXPECT_EQ(Invoke("ends_with", {S("hello"), S("lo")}).size(), 1u);
  EXPECT_EQ(Invoke("regex_match", {S("a+b"), S("aaab")}).size(), 1u);
  EXPECT_EQ(Invoke("regex_match", {S("a+b"), S("ba")}).size(), 0u);
  EXPECT_EQ(Invoke("parse_int", {S("42"), std::nullopt})[0][1], I(42));
  EXPECT_EQ(Invoke("parse_int", {S("4x"), std::nullopt}).size(), 0u);
}

TEST(Builtins, PrimitiveAliases) {
  EXPECT_EQ(FindBuiltin("rel_primitive_add"), FindBuiltin("add"));
  EXPECT_EQ(FindBuiltin("rel_primitive_eq"), FindBuiltin("eq"));
  EXPECT_EQ(FindBuiltin("no_such_builtin"), nullptr);
}

TEST(Builtins, ApplyAsFunction) {
  const Builtin* add = FindBuiltin("add");
  EXPECT_EQ(*ApplyAsFunction(*add, {I(1), I(2)}), I(3));
  const Builtin* min = FindBuiltin("minimum");
  EXPECT_EQ(*ApplyAsFunction(*min, {I(5), I(2)}), I(2));
  EXPECT_FALSE(ApplyAsFunction(*add, {I(1)}).has_value());  // arity mismatch
}

}  // namespace
}  // namespace rel
