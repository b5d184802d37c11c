#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "common/str_util.h"

namespace aqp {
namespace sql {
namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "SELECT", "FROM",   "WHERE",  "GROUP",      "BY",       "HAVING",
      "ORDER",  "LIMIT",  "JOIN",   "INNER",      "LEFT",     "OUTER",
      "ON",     "AS",     "AND",    "OR",         "NOT",      "IN",
      "BETWEEN", "LIKE",  "TABLESAMPLE", "BERNOULLI", "SYSTEM", "WITH",
      "ERROR",  "CONFIDENCE", "COUNT", "SUM",     "AVG",      "MIN",
      "MAX",    "VAR",    "STDDEV", "DISTINCT",   "TRUE",     "FALSE",
      "NULL",   "UNION",  "ALL",    "ASC",        "DESC",     "IS",
  };
  return *kKeywords;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  auto push = [&](TokenKind kind, std::string text, size_t pos) {
    tokens.push_back(Token{kind, std::move(text), 0, 0.0, pos});
  };
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(input[i])) ++i;
      std::string word(input.substr(start, i - start));
      std::string upper = ToUpper(word);
      if (Keywords().count(upper) > 0) {
        push(TokenKind::kKeyword, upper, start);
      } else {
        push(TokenKind::kIdentifier, word, start);
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i >= n || !std::isdigit(static_cast<unsigned char>(input[i]))) {
          return Status::InvalidArgument("malformed exponent at offset " +
                                         std::to_string(start));
        }
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      std::string spelling(input.substr(start, i - start));
      Token t;
      t.position = start;
      t.text = spelling;
      if (is_double) {
        AQP_ASSIGN_OR_RETURN(t.double_value, ParseDouble(spelling));
        t.kind = TokenKind::kDoubleLiteral;
      } else {
        AQP_ASSIGN_OR_RETURN(t.int_value, ParseInt64(spelling));
        t.kind = TokenKind::kIntLiteral;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // Escaped quote.
            value += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        value += input[i++];
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string at offset " +
                                       std::to_string(start));
      }
      push(TokenKind::kStringLiteral, std::move(value), start);
      continue;
    }
    switch (c) {
      case '(':
        push(TokenKind::kLParen, "(", start);
        ++i;
        break;
      case ')':
        push(TokenKind::kRParen, ")", start);
        ++i;
        break;
      case ',':
        push(TokenKind::kComma, ",", start);
        ++i;
        break;
      case '.':
        push(TokenKind::kDot, ".", start);
        ++i;
        break;
      case '*':
        push(TokenKind::kStar, "*", start);
        ++i;
        break;
      case '+':
        push(TokenKind::kPlus, "+", start);
        ++i;
        break;
      case '-':
        push(TokenKind::kMinus, "-", start);
        ++i;
        break;
      case '/':
        push(TokenKind::kSlash, "/", start);
        ++i;
        break;
      case '%':
        push(TokenKind::kPercent, "%", start);
        ++i;
        break;
      case ';':
        push(TokenKind::kSemicolon, ";", start);
        ++i;
        break;
      case '=':
        push(TokenKind::kEq, "=", start);
        ++i;
        break;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kNe, "!=", start);
          i += 2;
        } else {
          return Status::InvalidArgument("stray '!' at offset " +
                                         std::to_string(start));
        }
        break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kLe, "<=", start);
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          push(TokenKind::kNe, "<>", start);
          i += 2;
        } else {
          push(TokenKind::kLt, "<", start);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kGe, ">=", start);
          i += 2;
        } else {
          push(TokenKind::kGt, ">", start);
          ++i;
        }
        break;
      default:
        return Status::InvalidArgument(
            std::string("unexpected character '") + c + "' at offset " +
            std::to_string(start));
    }
  }
  push(TokenKind::kEnd, "", n);
  return tokens;
}

std::string CanonicalKey(const std::vector<Token>& tokens) {
  std::string key;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kEnd) break;
    key += static_cast<char>('a' + static_cast<int>(t.kind));
    // String literals may hold any byte, so their length keeps the encoding
    // unambiguous; every other token's text never contains a space.
    if (t.kind == TokenKind::kStringLiteral) {
      key += std::to_string(t.text.size());
      key += ':';
    }
    key += t.text;
    key += ' ';
  }
  return key;
}

}  // namespace sql
}  // namespace aqp
