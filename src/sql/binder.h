#ifndef AQP_SQL_BINDER_H_
#define AQP_SQL_BINDER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "sql/ast.h"

namespace aqp {
namespace sql {

/// One aggregate call discovered in the SELECT list / HAVING, as placed in
/// the plan's Aggregate node.
struct BoundAggregate {
  AggKind kind;
  ExprPtr arg;                 // nullptr for COUNT(*).
  std::string internal_alias;  // Output column name in the aggregate node.
  std::string display;         // SQL text, e.g. "SUM(price)".
};

/// A SELECT statement lowered to an executable plan, plus the AQP-relevant
/// structure (the aggregate inventory and the scanned tables) that the
/// approximate executor needs to plan sampling.
struct BoundQuery {
  PlanPtr plan;
  std::optional<ErrorSpec> error_spec;
  bool has_aggregates = false;
  std::vector<BoundAggregate> aggregates;
  std::vector<std::string> group_names;    // Aggregate-node group columns.
  std::vector<std::string> output_names;   // Final projected column names.
  std::vector<TableRef> tables;            // FROM then JOIN order.
};

/// One submission's SQL, parsed once and bound once: the value the service
/// builds at submit and hands to every layer below it (each ladder rung, the
/// accuracy auditor), so none of them re-derives the query from its text.
struct PreparedQuery {
  std::string text;  // The SQL exactly as submitted.
  SelectStmt stmt;
  /// CanonicalKey of the text (sql/lexer.h): equal for whitespace and
  /// keyword-case variants, distinct for any other token difference.
  std::string key;
  std::optional<BoundQuery> bound;  // Set by BindPrepared.

  /// The base name of the single plain-column GROUP BY key of a one-table
  /// query, else empty: the column a stratified sample should be stratified
  /// on (BlinkDB's case — uniform samples lose small groups).
  std::string StrataColumn() const;
};

/// Parses `sql` under a "parse" span on `trace` (null = untraced).
Result<PreparedQuery> Prepare(std::string_view sql,
                              obs::QueryTrace* trace = nullptr);

/// Binds `query->stmt` against `catalog` under a "bind" span on `trace`.
Status BindPrepared(PreparedQuery* query, const Catalog& catalog,
                    obs::QueryTrace* trace = nullptr);

/// Prepare + BindPrepared.
Result<PreparedQuery> PrepareAndBind(std::string_view sql,
                                     const Catalog& catalog,
                                     obs::QueryTrace* trace = nullptr);

/// Base column name: the part after the last '.' ("l.price" -> "price").
std::string BaseName(const std::string& name);

/// Resolves names against the catalog, places aggregates, and lowers the
/// statement to a plan:
///   Scan -> (rename) -> Join* -> Filter(WHERE) -> Aggregate -> Filter(HAVING)
///   -> Project -> Sort -> Limit.
/// Every scanned column is renamed to "<qualifier>.<base>" so multi-table
/// queries never collide; unqualified references resolve by suffix.
Result<BoundQuery> Bind(const SelectStmt& stmt, const Catalog& catalog);

/// Parse + bind in one step.
Result<BoundQuery> BindSql(std::string_view sql, const Catalog& catalog);

/// Lowers a parser-level expression (no aggregate calls) to an engine
/// expression. Exposed for executors that evaluate pieces of a statement
/// outside a bound plan (e.g. the offline executor's predicate pushdown).
Result<ExprPtr> LowerSqlExpr(const SqlExprPtr& e);

/// Parse, bind, and execute exactly (ignores any WITH ERROR clause — that is
/// the approximate executor's job in core/). `trace`, when non-null,
/// receives parse/bind/execute lifecycle spans with per-operator detail.
Result<Table> ExecuteSql(std::string_view sql, const Catalog& catalog,
                         ExecStats* stats = nullptr,
                         obs::QueryTrace* trace = nullptr);

/// Builds the post-aggregation tail of `stmt` — SELECT-item projection, then
/// ORDER BY / LIMIT — over a scan of `agg_table`, whose schema must be the
/// aggregate node's output (bound.group_names columns followed by the
/// aggregates' internal aliases). The approximate executor materializes its
/// estimated aggregates into such a table and runs this plan to give the
/// user the exact output shape of the original query.
///
/// When `append_row_id` is true, a passthrough of column "__row_id" (which
/// must exist in `agg_table`) is appended as the last output column so the
/// caller can map output rows back to groups after sorting/limiting.
/// HAVING is not supported here (callers fall back to exact execution).
Result<PlanPtr> BindPostAggregation(const SelectStmt& stmt,
                                    const BoundQuery& bound,
                                    const std::string& agg_table,
                                    const Catalog& catalog,
                                    bool append_row_id);

}  // namespace sql
}  // namespace aqp

#endif  // AQP_SQL_BINDER_H_
