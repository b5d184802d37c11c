#ifndef AQP_SQL_LEXER_H_
#define AQP_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace aqp {
namespace sql {

/// Token kinds produced by the SQL lexer. Keywords are recognized
/// case-insensitively and carry their canonical upper-case text.
enum class TokenKind {
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,
  // Punctuation / operators.
  kLParen,
  kRParen,
  kComma,
  kDot,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kSemicolon,
  kEnd,
};

/// One lexed token with its source position (for error messages).
struct Token {
  TokenKind kind;
  std::string text;     // Identifier/keyword text or literal spelling.
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t position = 0;  // Byte offset in the input.

  /// True iff this is the keyword `kw` (canonical upper-case).
  bool IsKeyword(std::string_view kw) const {
    return kind == TokenKind::kKeyword && text == kw;
  }
};

/// Tokenizes a SQL string. Fails on unterminated strings or stray characters.
Result<std::vector<Token>> Lex(std::string_view input);

/// The canonical form of a token stream: each token's kind and text, so
/// texts differing only in whitespace or keyword case share it (keywords
/// carry their upper-case text) while every literal keeps its exact source
/// spelling. Two texts share a key iff they lex to the same token sequence.
std::string CanonicalKey(const std::vector<Token>& tokens);

}  // namespace sql
}  // namespace aqp

#endif  // AQP_SQL_LEXER_H_
