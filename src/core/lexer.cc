#include "core/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "base/error.h"

namespace rel {

namespace {

const std::unordered_map<std::string, TokenKind>& Keywords() {
  static auto* keywords = new std::unordered_map<std::string, TokenKind>{
      {"def", TokenKind::kDef},         {"ic", TokenKind::kIc},
      {"requires", TokenKind::kRequires}, {"and", TokenKind::kAnd},
      {"or", TokenKind::kOr},           {"not", TokenKind::kNot},
      {"exists", TokenKind::kExists},   {"forall", TokenKind::kForall},
      {"implies", TokenKind::kImplies}, {"iff", TokenKind::kIff},
      {"xor", TokenKind::kXor},         {"where", TokenKind::kWhere},
      {"in", TokenKind::kIn},           {"true", TokenKind::kTrue},
      {"false", TokenKind::kFalse},
  };
  return *keywords;
}

class LexerImpl {
 public:
  explicit LexerImpl(std::string_view source) : src_(source) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    for (;;) {
      SkipWhitespaceAndComments();
      Token token = NextToken();
      bool at_end = token.kind == TokenKind::kEof;
      tokens.push_back(std::move(token));
      if (at_end) break;
    }
    return tokens;
  }

 private:
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  bool Match(char expected) {
    if (Peek() != expected) return false;
    Advance();
    return true;
  }

  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError(message, line_, column_);
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        Advance();
      } else if (c == '/' && Peek(1) == '/') {
        while (Peek() != '\n' && Peek() != '\0') Advance();
      } else if (c == '/' && Peek(1) == '*') {
        int start_line = line_;
        Advance();
        Advance();
        while (!(Peek() == '*' && Peek(1) == '/')) {
          if (Peek() == '\0') {
            throw ParseError("unterminated block comment", start_line, 1);
          }
          Advance();
        }
        Advance();
        Advance();
      } else {
        return;
      }
    }
  }

  Token MakeToken(TokenKind kind) const {
    Token t;
    t.kind = kind;
    t.line = token_line_;
    t.column = token_column_;
    return t;
  }

  bool ConsumeDots() {
    // Consume a literal "..." if present.
    if (Peek() == '.' && Peek(1) == '.' && Peek(2) == '.') {
      Advance();
      Advance();
      Advance();
      return true;
    }
    return false;
  }

  Token LexIdentifier() {
    std::string text;
    while (std::isalnum(static_cast<unsigned char>(Peek())) || Peek() == '_') {
      text.push_back(Advance());
    }
    if (text == "_") {
      if (ConsumeDots()) return MakeToken(TokenKind::kWildcardTuple);
      return MakeToken(TokenKind::kWildcard);
    }
    if (ConsumeDots()) {
      Token t = MakeToken(TokenKind::kTupleVar);
      t.text = std::move(text);
      return t;
    }
    auto it = Keywords().find(text);
    if (it != Keywords().end()) return MakeToken(it->second);
    Token t = MakeToken(TokenKind::kIdent);
    t.text = std::move(text);
    return t;
  }

  Token LexNumber() {
    std::string text;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      text.push_back(Advance());
    }
    bool is_float = false;
    // A '.' makes a float only when followed by a digit; "1..3" or a
    // dot-join after a number must not swallow the dot. And "1.0" has space
    // before ".0" in the paper's PageRank listing ("1 .0/d"), so we also
    // treat "digit '.' digit" with no intervening chars as float — spaces
    // were an artifact of the paper's line breaking, normalized by callers.
    if (Peek() == '.' && std::isdigit(static_cast<unsigned char>(Peek(1)))) {
      is_float = true;
      text.push_back(Advance());
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        text.push_back(Advance());
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      size_t save = pos_;
      std::string exp;
      exp.push_back(Advance());
      if (Peek() == '+' || Peek() == '-') exp.push_back(Advance());
      if (std::isdigit(static_cast<unsigned char>(Peek()))) {
        while (std::isdigit(static_cast<unsigned char>(Peek()))) {
          exp.push_back(Advance());
        }
        text += exp;
        is_float = true;
      } else {
        pos_ = save;  // 'e' was the start of an identifier, not an exponent
      }
    }
    // A literal past the int64 range (INT64_MIN included: the lexer sees
    // no sign) or past the largest double is a parse error. A float literal
    // that underflows keeps its nearest double.
    errno = 0;
    if (is_float) {
      Token t = MakeToken(TokenKind::kFloat);
      t.float_value = std::strtod(text.c_str(), nullptr);
      if (errno == ERANGE && std::isinf(t.float_value)) {
        Fail("float literal " + text + " is out of range");
      }
      return t;
    }
    Token t = MakeToken(TokenKind::kInt);
    t.int_value = std::strtoll(text.c_str(), nullptr, 10);
    if (errno == ERANGE) Fail("integer literal " + text + " is out of range");
    return t;
  }

  Token LexString() {
    Advance();  // opening quote
    std::string text;
    for (;;) {
      char c = Peek();
      if (c == '\0') Fail("unterminated string literal");
      if (c == '"') {
        Advance();
        break;
      }
      if (c == '\\') {
        Advance();
        char esc = Advance();
        switch (esc) {
          case 'n': text.push_back('\n'); break;
          case 't': text.push_back('\t'); break;
          case '\\': text.push_back('\\'); break;
          case '"': text.push_back('"'); break;
          default: Fail(std::string("unknown escape '\\") + esc + "'");
        }
      } else {
        text.push_back(Advance());
      }
    }
    Token t = MakeToken(TokenKind::kString);
    t.text = std::move(text);
    return t;
  }

  Token NextToken() {
    token_line_ = line_;
    token_column_ = column_;
    char c = Peek();
    if (c == '\0') return MakeToken(TokenKind::kEof);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdentifier();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return LexNumber();
    }
    if (c == '"') return LexString();
    Advance();
    switch (c) {
      case '(': return MakeToken(TokenKind::kLParen);
      case ')': return MakeToken(TokenKind::kRParen);
      case '[': return MakeToken(TokenKind::kLBracket);
      case ']': return MakeToken(TokenKind::kRBracket);
      case '{': return MakeToken(TokenKind::kLBrace);
      case '}': return MakeToken(TokenKind::kRBrace);
      case ',': return MakeToken(TokenKind::kComma);
      case ';': return MakeToken(TokenKind::kSemi);
      case ':': return MakeToken(TokenKind::kColon);
      case '|': return MakeToken(TokenKind::kBar);
      case '=': return MakeToken(TokenKind::kEq);
      case '+': return MakeToken(TokenKind::kPlus);
      case '*': return MakeToken(TokenKind::kStar);
      case '/': return MakeToken(TokenKind::kSlash);
      case '%': return MakeToken(TokenKind::kPercent);
      case '^': return MakeToken(TokenKind::kCaret);
      case '?': return MakeToken(TokenKind::kQuestion);
      case '&': return MakeToken(TokenKind::kAmp);
      case '@': return MakeToken(TokenKind::kAt);
      case '-': return MakeToken(TokenKind::kMinus);
      case '!':
        if (Match('=')) return MakeToken(TokenKind::kNeq);
        Fail("expected '=' after '!'");
      case '<':
        if (Match('=')) return MakeToken(TokenKind::kLe);
        if (Peek() == '+' && Peek(1) == '+') {
          Advance();
          Advance();
          return MakeToken(TokenKind::kLeftOverride);
        }
        return MakeToken(TokenKind::kLt);
      case '>':
        if (Match('=')) return MakeToken(TokenKind::kGe);
        return MakeToken(TokenKind::kGt);
      case '.':
        if (Peek() == '.' && Peek(1) == '.') {
          Advance();
          Advance();
          Fail("'...' must follow an identifier or '_'");
        }
        return MakeToken(TokenKind::kDot);
      default:
        Fail(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int token_line_ = 1;
  int token_column_ = 1;
};

}  // namespace

std::vector<Token> Lex(std::string_view source) {
  return LexerImpl(source).Run();
}

}  // namespace rel
