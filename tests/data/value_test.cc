#include "data/value.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/interner.h"

namespace rel {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).AsFloat(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  Value e = Value::Entity("product", "P1");
  EXPECT_EQ(e.EntityConcept(), "product");
  EXPECT_EQ(e.EntityId(), "P1");
  EXPECT_TRUE(Value::Int(1).is_number());
  EXPECT_TRUE(Value::Float(1).is_number());
  EXPECT_FALSE(Value::String("1").is_number());
}

TEST(Value, StrictOrderingByKindThenContent) {
  // Int < Float < String < Entity.
  EXPECT_LT(Value::Int(99), Value::Float(0.0));
  EXPECT_LT(Value::Float(99), Value::String("a"));
  EXPECT_LT(Value::String("z"), Value::Entity("c", "a"));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
}

TEST(Value, StrictEqualityIsKindSensitive) {
  EXPECT_NE(Value::Int(1), Value::Float(1.0));
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_EQ(Value::String("x"), Value::String("x"));
  EXPECT_NE(Value::Entity("a", "x"), Value::Entity("b", "x"));
}

TEST(Value, NumericCompareBridgesIntAndFloat) {
  EXPECT_EQ(Value::Int(1).NumericCompare(Value::Float(1.0)),
            Value::Ordering::kEqual);
  EXPECT_EQ(Value::Int(1).NumericCompare(Value::Float(1.5)),
            Value::Ordering::kLess);
  EXPECT_EQ(Value::Float(2.0).NumericCompare(Value::Int(1)),
            Value::Ordering::kGreater);
  EXPECT_EQ(Value::Int(1).NumericCompare(Value::String("1")),
            Value::Ordering::kUnordered);
  EXPECT_EQ(Value::String("a").NumericCompare(Value::String("b")),
            Value::Ordering::kLess);
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int(7).Hash(), Value::Int(8).Hash());
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Float(1.5).ToString(), "1.5");
  EXPECT_EQ(Value::Float(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::String("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Entity("product", "P1").ToString(), "product:\"P1\"");
}

TEST(Value, FloatToStringIsShortestRoundTrip) {
  EXPECT_EQ(Value::Float(1e-7).ToString(), "1e-07");
  EXPECT_EQ(Value::Float(0.1234567).ToString(), "0.1234567");
  EXPECT_EQ(Value::Float(1e300).ToString(), "1e+300");
  EXPECT_EQ(Value::Float(1e20).ToString(), "1e+20");
  EXPECT_EQ(Value::Float(10000000000.0).ToString(), "1e+10");
  EXPECT_EQ(Value::Float(100.0).ToString(), "100.0");
  EXPECT_EQ(Value::Float(-0.5).ToString(), "-0.5");
  EXPECT_EQ(Value::Float(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Value::Float(0.1 + 0.2).ToString(), "0.30000000000000004");
  for (double v : {1e-7, 0.1234567, 1e300, 5e-324, 1.7976931348623157e308,
                   -2.5e-8, 1.0 / 3.0}) {
    const std::string text = Value::Float(v).ToString();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(Interner, IdsRoundTripAndStayStableAcrossIndexGrowth) {
  // A private pool, so the ids are dense from 0. 20000 strings grow the
  // index table several times over (it doubles at 3/4 full).
  Interner pool;
  std::vector<Symbol> ids;
  for (int i = 0; i < 20000; ++i) {
    std::string s = "s" + std::to_string(i * 7919);
    ids.push_back(pool.Intern(s));
    ASSERT_EQ(ids.back(), static_cast<Symbol>(i));
    ASSERT_EQ(pool.Lookup(ids.back()), s);
    // Interning it again right away returns the same id.
    ASSERT_EQ(pool.Intern(s), ids.back());
  }
  // And after every later growth too.
  for (int i = 0; i < 20000; ++i) {
    std::string s = "s" + std::to_string(i * 7919);
    EXPECT_EQ(pool.Intern(s), ids[static_cast<size_t>(i)]) << s;
  }
  EXPECT_EQ(pool.size(), 20000u);
  EXPECT_EQ(pool.Intern(""), static_cast<Symbol>(20000));
  EXPECT_EQ(pool.Intern(""), static_cast<Symbol>(20000));
  EXPECT_LT(pool.Compare(pool.Intern("a"), pool.Intern("b")), 0);
}

}  // namespace
}  // namespace rel
