// E2: the grammar of Figure 2 plus the paper's sugar, production by
// production. Shapes are checked via the AST printer.

#include "core/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "base/error.h"
#include "core/lexer.h"

namespace rel {
namespace {

std::string Expr(const std::string& src) {
  return ParseExpression(src)->ToString();
}

std::string Rule(const std::string& src) {
  Program p = ParseProgram(src);
  EXPECT_EQ(p.defs.size(), 1u);
  return p.defs[0].ToString();
}

// --- lexer ---

TEST(Lexer, TokenKinds) {
  auto tokens = Lex("def x... _ _... 12 3.5 \"s\" <++ <= != :name");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kDef, TokenKind::kTupleVar, TokenKind::kWildcard,
                TokenKind::kWildcardTuple, TokenKind::kInt, TokenKind::kFloat,
                TokenKind::kString, TokenKind::kLeftOverride, TokenKind::kLe,
                TokenKind::kNeq, TokenKind::kColon, TokenKind::kIdent,
                TokenKind::kEof}));
}

TEST(Lexer, CommentsAndEscapes) {
  auto tokens = Lex("a // line comment\n /* block\n comment */ \"x\\n\\\"y\"");
  EXPECT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "x\n\"y");
}

TEST(Lexer, Errors) {
  EXPECT_THROW(Lex("\"unterminated"), ParseError);
  EXPECT_THROW(Lex("/* unterminated"), ParseError);
  EXPECT_THROW(Lex("#"), ParseError);
  EXPECT_THROW(Lex("! x"), ParseError);
}

TEST(Lexer, NumberEdgeCases) {
  EXPECT_EQ(Lex("1.5e2")[0].float_value, 150.0);
  EXPECT_EQ(Lex("2e-1")[0].float_value, 0.2);
  // '.' not followed by a digit is the dot-join operator.
  auto tokens = Lex("A.B");
  EXPECT_EQ(tokens[1].kind, TokenKind::kDot);
  // The int64 and double limits: past them a literal is a parse error that
  // names it. The lexer sees no sign, so INT64_MIN is not a literal.
  EXPECT_EQ(Lex("9223372036854775807")[0].int_value, INT64_MAX);
  EXPECT_EQ(Lex("1e-400")[0].float_value, 0.0);  // underflow rounds
  for (const char* literal :
       {"9223372036854775808", "99999999999999999999", "1e999", "1.5e400"}) {
    try {
      Lex(literal);
      ADD_FAILURE() << literal << " lexed";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kParse);
      const std::string message = e.what();
      EXPECT_NE(message.find(literal), std::string::npos) << message;
      EXPECT_NE(message.find("out of range"), std::string::npos) << message;
    }
  }
  // A float token in an error names its shortest round-tripping form.
  try {
    ParseProgram("1e300");
    ADD_FAILURE() << "1e300 parsed as a program";
  } catch (const ParseError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("found 1e+300 "), std::string::npos) << message;
  }
}

// --- rule forms ---

TEST(Parser, BasicRuleForms) {
  EXPECT_EQ(Rule("def R(x,y) : E(x,y)"), "def R(x, y) : E(x, y)");
  EXPECT_EQ(Rule("def R[x] : F[x]"), "def R[x] : F[x]");
  EXPECT_EQ(Rule("def R {(x) : E(x)}"), "def R(x) : E(x)");
  EXPECT_EQ(Rule("def R {(1,2) ; (3,4)}"), "def R[] : {(1, 2); (3, 4)}");
  EXPECT_EQ(Rule("def R = E"), "def R[] : E");
  EXPECT_EQ(Rule("def log[x, y] = rel_primitive_log[x, y]"),
            "def log[x, y] : rel_primitive_log[x, y]");
}

TEST(Parser, HeadBindings) {
  EXPECT_EQ(Rule("def APSP({V},{E},x,y,0) : V(x)"),
            "def APSP({V}, {E}, x, y, 0) : V(x)");
  EXPECT_EQ(Rule("def OrderPaid[x in Ord] : sum[OPA[x]]"),
            "def OrderPaid[x in Ord] : sum[OPA[x]]");
  EXPECT_EQ(Rule("def P(x...) : R(x...)"), "def P(x...) : R(x...)");
  EXPECT_EQ(Rule("def D(:Name, x) : R(x)"),
            "def D(rel:\"Name\", x) : R(x)");
}

TEST(Parser, IntegrityConstraints) {
  Program p = ParseProgram(
      "ic valid(x) requires R(x) implies S(x)");
  ASSERT_EQ(p.defs.size(), 1u);
  EXPECT_TRUE(p.defs[0].is_ic);
  EXPECT_EQ(p.defs[0].params.size(), 1u);
}

TEST(Parser, InlineAnnotation) {
  Program p = ParseProgram("@inline def add[x, y] = rel_primitive_add[x, y]");
  EXPECT_TRUE(p.defs[0].inline_hint);
  EXPECT_THROW(ParseProgram("@nosuch def f : 1"), ParseError);
}

TEST(Parser, OperatorDefinitions) {
  Program p = ParseProgram("def (+)(x, y, z) : rel_primitive_add(x, y, z)");
  EXPECT_EQ(p.defs[0].name, "+");
}

// --- expressions ---

TEST(Parser, InfixDesugaring) {
  EXPECT_EQ(Expr("1 + 2 * 3"),
            "rel_primitive_add[1, rel_primitive_multiply[2, 3]]");
  EXPECT_EQ(Expr("(1 + 2) * 3"),
            "rel_primitive_multiply[rel_primitive_add[1, 2], 3]");
  EXPECT_EQ(Expr("x = y"), "rel_primitive_eq(x, y)");
  EXPECT_EQ(Expr("x - 1"), "rel_primitive_subtract[x, 1]");
  EXPECT_EQ(Expr("2 ^ 3 ^ 2"),  // right associative
            "rel_primitive_power[2, rel_primitive_power[3, 2]]");
  EXPECT_EQ(Expr("-x"), "rel_primitive_negate[x]");
  EXPECT_EQ(Expr("-5"), "-5");  // literal folding
}

TEST(Parser, DotJoinAndLeftOverride) {
  EXPECT_EQ(Expr("A.B"), "dot_join[&{A}, &{B}]");
  EXPECT_EQ(Expr("A <++ B"), "left_override[&{A}, &{B}]");
  EXPECT_EQ(Expr("A.(min[A])"), "dot_join[&{A}, &{min[A]}]");
}

TEST(Parser, BooleanConnectives) {
  EXPECT_EQ(Expr("a(x) and not b(x)"), "(a(x) and not b(x))");
  EXPECT_EQ(Expr("a(x) or b(x)"), "(a(x) or b(x))");
  // implies desugars to not/or.
  EXPECT_EQ(Expr("a(x) implies b(x)"), "(not a(x) or b(x))");
}

TEST(Parser, Quantifiers) {
  EXPECT_EQ(Expr("exists((x) | R(x,y))"), "exists((x) | R(x, y))");
  EXPECT_EQ(Expr("forall((o in V) | R(o))"), "forall((o in V) | R(o))");
  EXPECT_EQ(Expr("exists((x, y) | R(x,y))"), "exists((x, y) | R(x, y))");
  EXPECT_EQ(Expr("exists((t...) | R(t...))"), "exists((t...) | R(t...))");
}

TEST(Parser, ProductsAndUnions) {
  EXPECT_EQ(Expr("(A, B)"), "(A, B)");
  EXPECT_EQ(Expr("{A ; B}"), "{A; B}");
  EXPECT_EQ(Expr("{(1,2) ; (3,4)}"), "{(1, 2); (3, 4)}");
  EXPECT_EQ(Expr("()"), "true");
  EXPECT_EQ(Expr("{}"), "false");
}

TEST(Parser, Abstractions) {
  EXPECT_EQ(Expr("{(x,y) : R(x,y)}"), "{(x, y): R(x, y)}");
  EXPECT_EQ(Expr("{[x] : R[x]}"), "{[x]: R[x]}");
  EXPECT_EQ(Expr("[k] : U[k]"), "{[k]: U[k]}");
  EXPECT_EQ(Expr("{[x, y in V] : R[x,y]}"), "{[x, y in V]: R[x, y]}");
  EXPECT_EQ(Expr("(x,y) : R(x,_,y,_...)"), "{(x, y): R(x, _, y, _...)}");
}

TEST(Parser, Applications) {
  EXPECT_EQ(Expr("F[a,b]"), "F[a, b]");
  EXPECT_EQ(Expr("F(a,b,c)"), "F(a, b, c)");
  EXPECT_EQ(Expr("APSP[V,E](z,y,j-1)"),
            "APSP[V, E](z, y, rel_primitive_subtract[j, 1])");
  EXPECT_EQ(Expr("R[_, x..., _...]"), "R[_, x..., _...]");
  EXPECT_EQ(Expr("addUp[?{11;22}]"), "addUp[?{{11; 22}}]");
  EXPECT_EQ(Expr("addUp[&{11;22}]"), "addUp[&{{11; 22}}]");
  EXPECT_EQ(Expr("reduce[add, A]"), "reduce[add, A]");
}

TEST(Parser, WhereClauses) {
  EXPECT_EQ(Expr("1.0/d where range(1,d,1,i)"),
            "(rel_primitive_divide[1.0, d] where range(1, d, 1, i))");
  EXPECT_EQ(Expr("x where a(x) where b(x)"),
            "((x where a(x)) where b(x))");
}

TEST(Parser, RuleOrderDoesNotMatterToParsing) {
  Program p = ParseProgram(
      "def a(x) : b(x)\n"
      "def b(x) : x = 1");
  EXPECT_EQ(p.defs.size(), 2u);
}

TEST(Parser, Errors) {
  EXPECT_THROW(ParseProgram("def"), ParseError);
  EXPECT_THROW(ParseProgram("def R(x : E(x)"), ParseError);
  EXPECT_THROW(ParseProgram("R(x)"), ParseError);  // missing def
  EXPECT_THROW(ParseExpression("exists(x | )"), ParseError);
  EXPECT_THROW(ParseExpression("(1,"), ParseError);
  EXPECT_THROW(ParseExpression("[x"), ParseError);
}

TEST(Parser, PositionsInErrors) {
  try {
    ParseProgram("def R(x) :\n  E(x,\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.line(), 2);
  }
}

}  // namespace
}  // namespace rel
