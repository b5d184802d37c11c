#ifndef AQP_SQL_PARSER_H_
#define AQP_SQL_PARSER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace aqp {
namespace sql {

/// Parses one SELECT statement from `input` (optional trailing ';').
///
/// Supported grammar (case-insensitive keywords):
///   SELECT item [, item ...]
///   FROM table [AS alias] [TABLESAMPLE {BERNOULLI|SYSTEM} (pct)]
///   [ [LEFT] JOIN table [AS alias] [TABLESAMPLE ...] ON a = b [AND c = d]* ]*
///   [WHERE predicate]
///   [GROUP BY expr [, expr ...]]
///   [HAVING predicate]
///   [ORDER BY name [ASC|DESC] [, ...]]
///   [LIMIT n]
///   [WITH ERROR x% CONFIDENCE y%]
///
/// Items are scalar expressions over columns, literals, arithmetic,
/// comparisons, AND/OR/NOT, IN, BETWEEN, LIKE, and aggregate calls
/// COUNT(*) / COUNT(x) / COUNT(DISTINCT x) / SUM / AVG / MIN / MAX /
/// VAR / STDDEV, with optional "AS alias".
///
/// A non-null `canonical_key` receives the input's CanonicalKey
/// (sql/lexer.h), built from the same token stream.
Result<SelectStmt> Parse(std::string_view input,
                         std::string* canonical_key = nullptr);

}  // namespace sql
}  // namespace aqp

#endif  // AQP_SQL_PARSER_H_
