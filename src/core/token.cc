#include "core/token.h"

#include "data/value.h"

namespace rel {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kTupleVar: return "tuple variable";
    case TokenKind::kWildcard: return "'_'";
    case TokenKind::kWildcardTuple: return "'_...'";
    case TokenKind::kInt: return "integer literal";
    case TokenKind::kFloat: return "float literal";
    case TokenKind::kString: return "string literal";
    case TokenKind::kDef: return "'def'";
    case TokenKind::kIc: return "'ic'";
    case TokenKind::kRequires: return "'requires'";
    case TokenKind::kAnd: return "'and'";
    case TokenKind::kOr: return "'or'";
    case TokenKind::kNot: return "'not'";
    case TokenKind::kExists: return "'exists'";
    case TokenKind::kForall: return "'forall'";
    case TokenKind::kImplies: return "'implies'";
    case TokenKind::kIff: return "'iff'";
    case TokenKind::kXor: return "'xor'";
    case TokenKind::kWhere: return "'where'";
    case TokenKind::kIn: return "'in'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemi: return "';'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kBar: return "'|'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kLeftOverride: return "'<++'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kAt: return "'@'";
  }
  return "?";
}

std::string Token::Describe() const {
  switch (kind) {
    case TokenKind::kIdent:
    case TokenKind::kTupleVar:
      return "'" + text + "'";
    case TokenKind::kInt:
      return std::to_string(int_value);
    case TokenKind::kFloat:
      return Value::Float(float_value).ToString();
    case TokenKind::kString:
      return "\"" + text + "\"";
    default:
      return TokenKindName(kind);
  }
}

}  // namespace rel
