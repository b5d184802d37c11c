#include "sql/parser.h"

#include "common/check.h"
#include "sql/lexer.h"

namespace aqp {
namespace sql {
namespace {

SqlExprPtr MakeColumn(std::string name) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kColumn;
  e->column = std::move(name);
  return e;
}

SqlExprPtr MakeLiteral(Value v) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

SqlExprPtr MakeUnary(OpKind op, SqlExprPtr operand) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kUnary;
  e->op = op;
  e->children = {std::move(operand)};
  return e;
}

SqlExprPtr MakeBinary(OpKind op, SqlExprPtr lhs, SqlExprPtr rhs) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = SqlExpr::Kind::kBinary;
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> ParseSelect();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }
  bool MatchKeyword(std::string_view kw) {
    if (!Peek().IsKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenKind kind, std::string_view what) {
    if (Match(kind)) return Status::OK();
    return Status::InvalidArgument("expected " + std::string(what) +
                                   " near offset " +
                                   std::to_string(Peek().position));
  }
  Status ExpectKeyword(std::string_view kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Status::InvalidArgument("expected " + std::string(kw) +
                                   " near offset " +
                                   std::to_string(Peek().position));
  }

  Result<std::string> ParseIdentifier(std::string_view what);
  Result<std::string> ParseQualifiedName();
  Result<double> ParsePercentOrFraction();
  Result<TableRef> ParseTableRef();
  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }
  Result<SqlExprPtr> ParseOr();
  Result<SqlExprPtr> ParseAnd();
  Result<SqlExprPtr> ParseNot();
  Result<SqlExprPtr> ParseComparison();
  Result<SqlExprPtr> ParseAdditive();
  Result<SqlExprPtr> ParseTerm();
  Result<SqlExprPtr> ParseUnary();
  Result<SqlExprPtr> ParsePrimary();
  Result<Value> ParseLiteralValue();

  // Hard ceiling on expression recursion: hostile input (thousands of nested
  // parens / NOTs / unary minuses) must come back as a parse error, not
  // exhaust the stack. Guards sit on every self-recursive production.
  static constexpr int kMaxExprDepth = 1000;
  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) { ++parser->depth_; }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };
  Status CheckDepth() const {
    if (depth_ > kMaxExprDepth) {
      return Status::InvalidArgument("expression nesting too deep");
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Result<std::string> Parser::ParseIdentifier(std::string_view what) {
  if (Peek().kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected " + std::string(what) +
                                   " near offset " +
                                   std::to_string(Peek().position));
  }
  return Advance().text;
}

Result<std::string> Parser::ParseQualifiedName() {
  AQP_ASSIGN_OR_RETURN(std::string name, ParseIdentifier("column name"));
  if (Match(TokenKind::kDot)) {
    AQP_ASSIGN_OR_RETURN(std::string member, ParseIdentifier("column name"));
    name += "." + member;
  }
  return name;
}

Result<double> Parser::ParsePercentOrFraction() {
  double v;
  if (Peek().kind == TokenKind::kIntLiteral) {
    v = static_cast<double>(Advance().int_value);
  } else if (Peek().kind == TokenKind::kDoubleLiteral) {
    v = Advance().double_value;
  } else {
    return Status::InvalidArgument("expected number near offset " +
                                   std::to_string(Peek().position));
  }
  if (Match(TokenKind::kPercent)) v /= 100.0;
  if (v <= 0.0 || v >= 1.0) {
    return Status::InvalidArgument("rate/probability out of (0,1): " +
                                   std::to_string(v));
  }
  return v;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  AQP_ASSIGN_OR_RETURN(ref.table, ParseIdentifier("table name"));
  if (MatchKeyword("AS")) {
    AQP_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier("alias"));
  } else if (Peek().kind == TokenKind::kIdentifier) {
    ref.alias = Advance().text;
  }
  if (MatchKeyword("TABLESAMPLE")) {
    SampleSpec spec;
    if (MatchKeyword("BERNOULLI")) {
      spec.method = SampleSpec::Method::kBernoulliRow;
    } else if (MatchKeyword("SYSTEM")) {
      spec.method = SampleSpec::Method::kSystemBlock;
    } else {
      return Status::InvalidArgument(
          "expected BERNOULLI or SYSTEM near offset " +
          std::to_string(Peek().position));
    }
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    // SQL TABLESAMPLE takes a percentage.
    double pct;
    if (Peek().kind == TokenKind::kIntLiteral) {
      pct = static_cast<double>(Advance().int_value);
    } else if (Peek().kind == TokenKind::kDoubleLiteral) {
      pct = Advance().double_value;
    } else {
      return Status::InvalidArgument("expected sampling percentage");
    }
    if (pct <= 0.0 || pct > 100.0) {
      return Status::InvalidArgument("sampling percentage out of (0,100]");
    }
    spec.rate = pct / 100.0;
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    ref.sample = spec;
  }
  return ref;
}

Result<Value> Parser::ParseLiteralValue() {
  DepthGuard guard(this);
  AQP_RETURN_IF_ERROR(CheckDepth());
  const Token& t = Peek();
  if (t.kind == TokenKind::kIntLiteral) {
    Advance();
    return Value(t.int_value);
  }
  if (t.kind == TokenKind::kDoubleLiteral) {
    Advance();
    return Value(t.double_value);
  }
  if (t.kind == TokenKind::kStringLiteral) {
    Advance();
    return Value(t.text);
  }
  if (t.IsKeyword("TRUE")) {
    Advance();
    return Value(true);
  }
  if (t.IsKeyword("FALSE")) {
    Advance();
    return Value(false);
  }
  if (t.IsKeyword("NULL")) {
    Advance();
    return Value::Null();
  }
  if (t.kind == TokenKind::kMinus) {
    Advance();
    AQP_ASSIGN_OR_RETURN(Value inner, ParseLiteralValue());
    if (inner.is_int64()) return Value(-inner.int64());
    if (inner.is_double()) return Value(-inner.dbl());
    return Status::InvalidArgument("cannot negate non-numeric literal");
  }
  return Status::InvalidArgument("expected literal near offset " +
                                 std::to_string(t.position));
}

Result<SqlExprPtr> Parser::ParseOr() {
  AQP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    AQP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAnd());
    lhs = MakeBinary(OpKind::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<SqlExprPtr> Parser::ParseAnd() {
  AQP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseNot());
  while (MatchKeyword("AND")) {
    AQP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseNot());
    lhs = MakeBinary(OpKind::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<SqlExprPtr> Parser::ParseNot() {
  DepthGuard guard(this);
  AQP_RETURN_IF_ERROR(CheckDepth());
  if (MatchKeyword("NOT")) {
    AQP_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseNot());
    return MakeUnary(OpKind::kNot, std::move(inner));
  }
  return ParseComparison();
}

Result<SqlExprPtr> Parser::ParseComparison() {
  AQP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAdditive());
  // NOT IN / NOT BETWEEN / NOT LIKE.
  bool negated = false;
  if (Peek().IsKeyword("NOT") &&
      (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN") ||
       Peek(1).IsKeyword("LIKE"))) {
    Advance();
    negated = true;
  }
  if (MatchKeyword("IN")) {
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExpr::Kind::kIn;
    e->children = {std::move(lhs)};
    while (true) {
      AQP_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      e->in_list.push_back(std::move(v));
      if (!Match(TokenKind::kComma)) break;
    }
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    SqlExprPtr result = e;
    if (negated) result = MakeUnary(OpKind::kNot, std::move(result));
    return result;
  }
  if (MatchKeyword("BETWEEN")) {
    AQP_ASSIGN_OR_RETURN(SqlExprPtr low, ParseAdditive());
    AQP_RETURN_IF_ERROR(ExpectKeyword("AND"));
    AQP_ASSIGN_OR_RETURN(SqlExprPtr high, ParseAdditive());
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExpr::Kind::kBetween;
    e->children = {std::move(lhs), std::move(low), std::move(high)};
    SqlExprPtr result = e;
    if (negated) result = MakeUnary(OpKind::kNot, std::move(result));
    return result;
  }
  if (MatchKeyword("LIKE")) {
    if (Peek().kind != TokenKind::kStringLiteral) {
      return Status::InvalidArgument("LIKE requires a string pattern");
    }
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExpr::Kind::kLike;
    e->children = {std::move(lhs)};
    e->like_pattern = Advance().text;
    SqlExprPtr result = e;
    if (negated) result = MakeUnary(OpKind::kNot, std::move(result));
    return result;
  }
  if (negated) {
    return Status::InvalidArgument("dangling NOT near offset " +
                                   std::to_string(Peek().position));
  }
  OpKind op;
  switch (Peek().kind) {
    case TokenKind::kEq:
      op = OpKind::kEq;
      break;
    case TokenKind::kNe:
      op = OpKind::kNe;
      break;
    case TokenKind::kLt:
      op = OpKind::kLt;
      break;
    case TokenKind::kLe:
      op = OpKind::kLe;
      break;
    case TokenKind::kGt:
      op = OpKind::kGt;
      break;
    case TokenKind::kGe:
      op = OpKind::kGe;
      break;
    default:
      return lhs;
  }
  Advance();
  AQP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAdditive());
  return MakeBinary(op, std::move(lhs), std::move(rhs));
}

Result<SqlExprPtr> Parser::ParseAdditive() {
  AQP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseTerm());
  while (true) {
    OpKind op;
    if (Peek().kind == TokenKind::kPlus) {
      op = OpKind::kAdd;
    } else if (Peek().kind == TokenKind::kMinus) {
      op = OpKind::kSub;
    } else {
      return lhs;
    }
    Advance();
    AQP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseTerm());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
}

Result<SqlExprPtr> Parser::ParseTerm() {
  AQP_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseUnary());
  while (true) {
    OpKind op;
    if (Peek().kind == TokenKind::kStar) {
      op = OpKind::kMul;
    } else if (Peek().kind == TokenKind::kSlash) {
      op = OpKind::kDiv;
    } else if (Peek().kind == TokenKind::kPercent) {
      op = OpKind::kMod;
    } else {
      return lhs;
    }
    Advance();
    AQP_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseUnary());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
}

Result<SqlExprPtr> Parser::ParseUnary() {
  DepthGuard guard(this);
  AQP_RETURN_IF_ERROR(CheckDepth());
  if (Match(TokenKind::kMinus)) {
    AQP_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseUnary());
    return MakeUnary(OpKind::kNeg, std::move(inner));
  }
  Match(TokenKind::kPlus);  // Unary plus is a no-op.
  return ParsePrimary();
}

Result<SqlExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  // Aggregate call?
  AggKind agg_kind;
  bool is_agg = true;
  if (t.IsKeyword("COUNT")) {
    agg_kind = AggKind::kCount;
  } else if (t.IsKeyword("SUM")) {
    agg_kind = AggKind::kSum;
  } else if (t.IsKeyword("AVG")) {
    agg_kind = AggKind::kAvg;
  } else if (t.IsKeyword("MIN")) {
    agg_kind = AggKind::kMin;
  } else if (t.IsKeyword("MAX")) {
    agg_kind = AggKind::kMax;
  } else if (t.IsKeyword("VAR")) {
    agg_kind = AggKind::kVar;
  } else if (t.IsKeyword("STDDEV")) {
    agg_kind = AggKind::kStddev;
  } else {
    is_agg = false;
  }
  if (is_agg) {
    Advance();
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "( after aggregate"));
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExpr::Kind::kAggCall;
    if (agg_kind == AggKind::kCount && Match(TokenKind::kStar)) {
      e->agg_kind = AggKind::kCountStar;
    } else {
      if (agg_kind == AggKind::kCount && MatchKeyword("DISTINCT")) {
        e->agg_kind = AggKind::kCountDistinct;
      } else {
        e->agg_kind = agg_kind;
      }
      AQP_ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
      if (arg->ContainsAggregate()) {
        return Status::InvalidArgument("nested aggregate calls not allowed");
      }
      e->children = {std::move(arg)};
    }
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ") after aggregate"));
    return SqlExprPtr(e);
  }
  if (t.kind == TokenKind::kIdentifier) {
    // Scalar function call: IDENT '(' args ')'.
    if (Peek(1).kind == TokenKind::kLParen) {
      std::string name = Advance().text;
      Advance();  // '('.
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kFunction;
      e->function_name = name;
      if (!Match(TokenKind::kRParen)) {
        while (true) {
          AQP_ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
          e->children.push_back(std::move(arg));
          if (!Match(TokenKind::kComma)) break;
        }
        AQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ") after arguments"));
      }
      return SqlExprPtr(e);
    }
    AQP_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
    return MakeColumn(std::move(name));
  }
  if (t.kind == TokenKind::kLParen) {
    Advance();
    AQP_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
    AQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    return inner;
  }
  AQP_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
  return MakeLiteral(std::move(v));
}

Result<SelectStmt> Parser::ParseSelect() {
  SelectStmt stmt;
  AQP_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  stmt.distinct = MatchKeyword("DISTINCT");
  while (true) {
    SelectItem item;
    AQP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (MatchKeyword("AS")) {
      AQP_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
    }
    stmt.items.push_back(std::move(item));
    if (!Match(TokenKind::kComma)) break;
  }
  AQP_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  AQP_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());

  while (true) {
    JoinType type = JoinType::kInner;
    if (MatchKeyword("LEFT")) {
      MatchKeyword("OUTER");
      AQP_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      type = JoinType::kLeftOuter;
    } else if (MatchKeyword("INNER")) {
      AQP_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
    } else if (!MatchKeyword("JOIN")) {
      break;
    }
    JoinClause clause;
    clause.type = type;
    AQP_ASSIGN_OR_RETURN(clause.table, ParseTableRef());
    AQP_RETURN_IF_ERROR(ExpectKeyword("ON"));
    while (true) {
      AQP_ASSIGN_OR_RETURN(std::string a, ParseQualifiedName());
      AQP_RETURN_IF_ERROR(Expect(TokenKind::kEq, "= in join condition"));
      AQP_ASSIGN_OR_RETURN(std::string b, ParseQualifiedName());
      clause.conditions.emplace_back(std::move(a), std::move(b));
      if (!MatchKeyword("AND")) break;
    }
    stmt.joins.push_back(std::move(clause));
  }

  if (MatchKeyword("WHERE")) {
    AQP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    if (stmt.where->ContainsAggregate()) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
  }
  if (MatchKeyword("GROUP")) {
    AQP_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      AQP_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
      if (e->ContainsAggregate()) {
        return Status::InvalidArgument("aggregates not allowed in GROUP BY");
      }
      stmt.group_by.push_back(std::move(e));
      if (!Match(TokenKind::kComma)) break;
    }
  }
  if (MatchKeyword("HAVING")) {
    AQP_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
  }
  if (MatchKeyword("ORDER")) {
    AQP_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      OrderItem item;
      AQP_ASSIGN_OR_RETURN(item.column, ParseQualifiedName());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt.order_by.push_back(std::move(item));
      if (!Match(TokenKind::kComma)) break;
    }
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().kind != TokenKind::kIntLiteral || Peek().int_value < 0) {
      return Status::InvalidArgument("LIMIT requires a non-negative integer");
    }
    stmt.limit = static_cast<uint64_t>(Advance().int_value);
  }
  if (MatchKeyword("WITH")) {
    AQP_RETURN_IF_ERROR(ExpectKeyword("ERROR"));
    ErrorSpec spec;
    AQP_ASSIGN_OR_RETURN(spec.relative_error, ParsePercentOrFraction());
    AQP_RETURN_IF_ERROR(ExpectKeyword("CONFIDENCE"));
    AQP_ASSIGN_OR_RETURN(spec.confidence, ParsePercentOrFraction());
    stmt.error_spec = spec;
  }
  Match(TokenKind::kSemicolon);
  if (Peek().kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input near offset " +
                                   std::to_string(Peek().position));
  }
  return stmt;
}

}  // namespace

Result<SelectStmt> Parse(std::string_view input, std::string* canonical_key) {
  AQP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  if (canonical_key != nullptr) *canonical_key = CanonicalKey(tokens);
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

}  // namespace sql
}  // namespace aqp
