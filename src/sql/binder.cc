#include "sql/binder.h"

#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "sql/parser.h"

namespace aqp {
namespace sql {
namespace {

// Wraps `scan` in a Project renaming each column to "<qualifier>.<base>".
// With `refs`, only columns some reference names — qualified or by base
// name — are kept.
Result<PlanPtr> QualifiedScan(const TableRef& ref, const Catalog& catalog,
                              const std::unordered_set<std::string>* refs,
                              Schema* schema_out) {
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                       catalog.Get(ref.table));
  PlanPtr scan = PlanNode::Scan(ref.table, ref.sample);
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  Schema schema;
  for (const Field& f : table->schema().fields()) {
    const std::string base = BaseName(f.name);
    std::string qualified = ref.qualifier() + "." + base;
    if (refs != nullptr && refs->count(qualified) == 0 &&
        refs->count(base) == 0) {
      continue;
    }
    exprs.push_back(Col(f.name));
    names.push_back(qualified);
    schema.AddField({qualified, f.type});
  }
  *schema_out = std::move(schema);
  return PlanNode::Project(scan, std::move(exprs), std::move(names));
}

void CollectColumnRefs(const SqlExprPtr& e,
                       std::unordered_set<std::string>* refs) {
  if (e == nullptr) return;
  if (e->kind == SqlExpr::Kind::kColumn) refs->insert(e->column);
  for (const SqlExprPtr& c : e->children) CollectColumnRefs(c, refs);
}

// Every column name `stmt` references: select items, WHERE, GROUP BY,
// HAVING, ORDER BY and the join conditions.
std::unordered_set<std::string> ReferencedColumns(const SelectStmt& stmt) {
  std::unordered_set<std::string> refs;
  for (const SelectItem& item : stmt.items) CollectColumnRefs(item.expr, &refs);
  CollectColumnRefs(stmt.where, &refs);
  for (const SqlExprPtr& g : stmt.group_by) CollectColumnRefs(g, &refs);
  CollectColumnRefs(stmt.having, &refs);
  for (const OrderItem& item : stmt.order_by) refs.insert(item.column);
  for (const JoinClause& join : stmt.joins) {
    for (const auto& [a, b] : join.conditions) {
      refs.insert(a);
      refs.insert(b);
    }
  }
  return refs;
}

// Lowers a SqlExpr (with no aggregate calls remaining) to an engine Expr.
Result<ExprPtr> Lower(const SqlExprPtr& e) {
  AQP_CHECK(e != nullptr);
  switch (e->kind) {
    case SqlExpr::Kind::kColumn:
      return Col(e->column);
    case SqlExpr::Kind::kLiteral:
      return Expr::MakeLiteral(e->literal);
    case SqlExpr::Kind::kUnary: {
      AQP_ASSIGN_OR_RETURN(ExprPtr inner, Lower(e->children[0]));
      return Expr::MakeUnary(e->op, std::move(inner));
    }
    case SqlExpr::Kind::kBinary: {
      AQP_ASSIGN_OR_RETURN(ExprPtr lhs, Lower(e->children[0]));
      AQP_ASSIGN_OR_RETURN(ExprPtr rhs, Lower(e->children[1]));
      return Expr::MakeBinary(e->op, std::move(lhs), std::move(rhs));
    }
    case SqlExpr::Kind::kIn: {
      AQP_ASSIGN_OR_RETURN(ExprPtr operand, Lower(e->children[0]));
      return Expr::MakeIn(std::move(operand), e->in_list);
    }
    case SqlExpr::Kind::kBetween: {
      AQP_ASSIGN_OR_RETURN(ExprPtr operand, Lower(e->children[0]));
      AQP_ASSIGN_OR_RETURN(ExprPtr low, Lower(e->children[1]));
      AQP_ASSIGN_OR_RETURN(ExprPtr high, Lower(e->children[2]));
      return Expr::MakeBetween(std::move(operand), std::move(low),
                               std::move(high));
    }
    case SqlExpr::Kind::kLike: {
      AQP_ASSIGN_OR_RETURN(ExprPtr operand, Lower(e->children[0]));
      return Expr::MakeLike(std::move(operand), e->like_pattern);
    }
    case SqlExpr::Kind::kFunction: {
      std::vector<ExprPtr> args;
      for (const SqlExprPtr& c : e->children) {
        AQP_ASSIGN_OR_RETURN(ExprPtr arg, Lower(c));
        args.push_back(std::move(arg));
      }
      return Expr::MakeFunction(e->function_name, std::move(args));
    }
    case SqlExpr::Kind::kAggCall:
      return Status::InvalidArgument(
          "aggregate call in scalar context: " + e->ToString());
  }
  return Status::Internal("unreachable");
}

// Rewrites `e`, replacing (a) any subtree structurally equal (by SQL text) to
// a key of `replacements` with a column reference to the mapped name, and
// (b) leaving everything else intact. Used to turn post-aggregation
// expressions into expressions over the aggregate node's output columns.
SqlExprPtr Substitute(
    const SqlExprPtr& e,
    const std::unordered_map<std::string, std::string>& replacements) {
  auto it = replacements.find(e->ToString());
  if (it != replacements.end()) {
    auto col = std::make_shared<SqlExpr>();
    col->kind = SqlExpr::Kind::kColumn;
    col->column = it->second;
    return col;
  }
  auto copy = std::make_shared<SqlExpr>(*e);
  for (SqlExprPtr& c : copy->children) {
    if (c != nullptr) c = Substitute(c, replacements);
  }
  return copy;
}

// Collects aggregate calls in `e` into `aggs`, deduplicating by SQL text.
void CollectAggregates(const SqlExprPtr& e,
                       std::vector<SqlExprPtr>* aggs,
                       std::unordered_map<std::string, size_t>* index) {
  if (e == nullptr) return;
  if (e->kind == SqlExpr::Kind::kAggCall) {
    std::string key = e->ToString();
    if (index->count(key) == 0) {
      (*index)[key] = aggs->size();
      aggs->push_back(e);
    }
    return;  // No nested aggregates (parser enforces).
  }
  for (const SqlExprPtr& c : e->children) CollectAggregates(c, aggs, index);
}

}  // namespace

Result<BoundQuery> Bind(const SelectStmt& stmt, const Catalog& catalog) {
  BoundQuery bound;
  bound.error_spec = stmt.error_spec;
  bound.tables.push_back(stmt.from);

  // FROM + JOINs, building the qualified running schema. A join gathers
  // every column its inputs carry, so with JOINs each scan keeps only the
  // referenced columns; a single-table scan keeps all of them (its
  // projection is then a zero-copy view of the base table).
  std::unordered_set<std::string> refs;
  if (!stmt.joins.empty()) refs = ReferencedColumns(stmt);
  const std::unordered_set<std::string>* scan_refs =
      stmt.joins.empty() ? nullptr : &refs;
  Schema schema;
  AQP_ASSIGN_OR_RETURN(PlanPtr plan,
                       QualifiedScan(stmt.from, catalog, scan_refs, &schema));
  for (const JoinClause& join : stmt.joins) {
    bound.tables.push_back(join.table);
    Schema right_schema;
    AQP_ASSIGN_OR_RETURN(
        PlanPtr right,
        QualifiedScan(join.table, catalog, scan_refs, &right_schema));
    std::vector<std::string> left_keys;
    std::vector<std::string> right_keys;
    for (const auto& [a, b] : join.conditions) {
      Result<size_t> a_left = schema.FieldIndex(a);
      Result<size_t> b_right = right_schema.FieldIndex(b);
      if (a_left.ok() && b_right.ok()) {
        left_keys.push_back(schema.field(a_left.value()).name);
        right_keys.push_back(right_schema.field(b_right.value()).name);
        continue;
      }
      Result<size_t> b_left = schema.FieldIndex(b);
      Result<size_t> a_right = right_schema.FieldIndex(a);
      if (b_left.ok() && a_right.ok()) {
        left_keys.push_back(schema.field(b_left.value()).name);
        right_keys.push_back(right_schema.field(a_right.value()).name);
        continue;
      }
      return Status::InvalidArgument("cannot resolve join condition " + a +
                                     " = " + b);
    }
    plan = PlanNode::Join(plan, right, join.type, std::move(left_keys),
                          std::move(right_keys));
    for (const Field& f : right_schema.fields()) schema.AddField(f);
  }

  if (stmt.where != nullptr) {
    AQP_ASSIGN_OR_RETURN(ExprPtr predicate, Lower(stmt.where));
    AQP_ASSIGN_OR_RETURN(DataType t, predicate->TypeCheck(schema));
    if (t != DataType::kBool) {
      return Status::InvalidArgument("WHERE predicate is not boolean");
    }
    plan = PlanNode::Filter(plan, std::move(predicate));
  }

  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }
  if (stmt.having != nullptr && !has_agg) {
    return Status::InvalidArgument("HAVING without aggregation");
  }
  bound.has_aggregates = has_agg;

  // Names of the final projected outputs.
  auto output_name = [](const SelectItem& item) {
    return item.alias.empty() ? item.expr->ToString() : item.alias;
  };

  if (has_agg && stmt.distinct) {
    return Status::Unimplemented("SELECT DISTINCT with aggregates");
  }
  if (!has_agg) {
    // Plain projection query; DISTINCT dedupes via a keys-only aggregation.
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      AQP_ASSIGN_OR_RETURN(ExprPtr e, Lower(item.expr));
      AQP_RETURN_IF_ERROR(e->TypeCheck(schema).status());
      exprs.push_back(std::move(e));
      names.push_back(output_name(item));
      bound.output_names.push_back(names.back());
    }
    if (stmt.distinct) {
      plan = PlanNode::Aggregate(plan, std::move(exprs), std::move(names), {});
    } else {
      plan = PlanNode::Project(plan, std::move(exprs), std::move(names));
    }
  } else {
    // Aggregation query. Group keys first.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::unordered_map<std::string, std::string> replacements;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      const SqlExprPtr& ge = stmt.group_by[g];
      AQP_ASSIGN_OR_RETURN(ExprPtr lowered, Lower(ge));
      AQP_RETURN_IF_ERROR(lowered->TypeCheck(schema).status());
      std::string name = ge->kind == SqlExpr::Kind::kColumn
                             ? ge->column
                             : "__group_" + std::to_string(g);
      group_exprs.push_back(std::move(lowered));
      group_names.push_back(name);
      replacements[ge->ToString()] = name;
    }

    // Aggregate calls from SELECT items and HAVING, deduplicated.
    std::vector<SqlExprPtr> agg_calls;
    std::unordered_map<std::string, size_t> agg_index;
    for (const SelectItem& item : stmt.items) {
      CollectAggregates(item.expr, &agg_calls, &agg_index);
    }
    CollectAggregates(stmt.having, &agg_calls, &agg_index);

    std::vector<AggSpec> agg_specs;
    for (size_t a = 0; a < agg_calls.size(); ++a) {
      const SqlExprPtr& call = agg_calls[a];
      std::string internal = "__agg_" + std::to_string(a);
      ExprPtr arg;
      if (call->agg_kind != AggKind::kCountStar) {
        AQP_ASSIGN_OR_RETURN(arg, Lower(call->children[0]));
        AQP_ASSIGN_OR_RETURN(DataType arg_type, arg->TypeCheck(schema));
        AQP_RETURN_IF_ERROR(
            AggResultType(call->agg_kind, arg_type).status());
      }
      agg_specs.push_back({call->agg_kind, arg, internal});
      bound.aggregates.push_back(
          {call->agg_kind, arg, internal, call->ToString()});
      replacements[call->ToString()] = internal;
    }
    bound.group_names = group_names;
    plan = PlanNode::Aggregate(plan, std::move(group_exprs), group_names,
                               std::move(agg_specs));

    // Post-aggregation schema for validation.
    Schema agg_schema;
    {
      // Group columns keep their (possibly qualified) source types; we can't
      // easily recompute types here without executing, so validate via the
      // substituted expressions' own TypeCheck against a synthesized schema.
      // Synthesize: group columns -> type from base schema lookup when
      // possible; aggregates -> DOUBLE/INT64 per kind.
      for (size_t g = 0; g < group_names.size(); ++g) {
        DataType t = DataType::kDouble;
        Result<size_t> idx = schema.FieldIndex(group_names[g]);
        if (idx.ok()) {
          t = schema.field(idx.value()).type;
        } else {
          // Expression group key: re-derive its type.
          Result<ExprPtr> lowered = Lower(stmt.group_by[g]);
          if (lowered.ok()) {
            Result<DataType> dt = lowered.value()->TypeCheck(schema);
            if (dt.ok()) t = dt.value();
          }
        }
        agg_schema.AddField({group_names[g], t});
      }
      for (const BoundAggregate& ba : bound.aggregates) {
        DataType t = DataType::kDouble;
        if (ba.kind == AggKind::kCountStar || ba.kind == AggKind::kCount ||
            ba.kind == AggKind::kCountDistinct) {
          t = DataType::kInt64;
        } else if (ba.kind == AggKind::kMin || ba.kind == AggKind::kMax) {
          Result<DataType> dt = ba.arg->TypeCheck(schema);
          if (dt.ok()) t = dt.value();
        }
        agg_schema.AddField({ba.internal_alias, t});
      }
    }

    // HAVING over the aggregate output.
    if (stmt.having != nullptr) {
      SqlExprPtr substituted = Substitute(stmt.having, replacements);
      AQP_ASSIGN_OR_RETURN(ExprPtr predicate, Lower(substituted));
      AQP_ASSIGN_OR_RETURN(DataType t, predicate->TypeCheck(agg_schema));
      if (t != DataType::kBool) {
        return Status::InvalidArgument("HAVING predicate is not boolean");
      }
      plan = PlanNode::Filter(plan, std::move(predicate));
    }

    // Final projection of the SELECT items.
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      SqlExprPtr substituted = Substitute(item.expr, replacements);
      if (substituted->ContainsAggregate()) {
        return Status::Internal("unsubstituted aggregate in select item");
      }
      AQP_ASSIGN_OR_RETURN(ExprPtr e, Lower(substituted));
      Result<DataType> t = e->TypeCheck(agg_schema);
      if (!t.ok()) {
        return Status::InvalidArgument(
            "select item references column outside GROUP BY: " +
            item.expr->ToString());
      }
      exprs.push_back(std::move(e));
      names.push_back(output_name(item));
      bound.output_names.push_back(names.back());
    }
    plan = PlanNode::Project(plan, std::move(exprs), std::move(names));
  }

  // ORDER BY over output names.
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      bool known = false;
      for (const std::string& name : bound.output_names) {
        if (name == item.column) known = true;
      }
      if (!known) {
        return Status::InvalidArgument("ORDER BY references unknown output: " +
                                       item.column);
      }
      keys.push_back({item.column, item.ascending});
    }
    plan = PlanNode::Sort(plan, std::move(keys));
  }
  if (stmt.limit.has_value()) {
    plan = PlanNode::Limit(plan, *stmt.limit);
  }
  bound.plan = std::move(plan);
  return bound;
}

std::string BaseName(const std::string& name) {
  size_t pos = name.rfind('.');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

std::string PreparedQuery::StrataColumn() const {
  if (!stmt.joins.empty() || stmt.group_by.size() != 1 ||
      stmt.group_by[0]->kind != SqlExpr::Kind::kColumn) {
    return "";
  }
  return BaseName(stmt.group_by[0]->column);
}

Result<PreparedQuery> Prepare(std::string_view sql, obs::QueryTrace* trace) {
  obs::TraceSpan parse_span = obs::MaybeSpan(trace, "parse");
  PreparedQuery query;
  query.text = std::string(sql);
  AQP_ASSIGN_OR_RETURN(query.stmt, Parse(sql, &query.key));
  return query;
}

Status BindPrepared(PreparedQuery* query, const Catalog& catalog,
                    obs::QueryTrace* trace) {
  obs::TraceSpan bind_span = obs::MaybeSpan(trace, "bind");
  AQP_ASSIGN_OR_RETURN(query->bound, Bind(query->stmt, catalog));
  return Status::OK();
}

Result<PreparedQuery> PrepareAndBind(std::string_view sql,
                                     const Catalog& catalog,
                                     obs::QueryTrace* trace) {
  AQP_ASSIGN_OR_RETURN(PreparedQuery query, Prepare(sql, trace));
  AQP_RETURN_IF_ERROR(BindPrepared(&query, catalog, trace));
  return query;
}

Result<BoundQuery> BindSql(std::string_view sql, const Catalog& catalog) {
  AQP_ASSIGN_OR_RETURN(SelectStmt stmt, Parse(sql));
  return Bind(stmt, catalog);
}

Result<ExprPtr> LowerSqlExpr(const SqlExprPtr& e) { return Lower(e); }

Result<Table> ExecuteSql(std::string_view sql, const Catalog& catalog,
                         ExecStats* stats, obs::QueryTrace* trace) {
  AQP_ASSIGN_OR_RETURN(PreparedQuery query,
                       PrepareAndBind(sql, catalog, trace));
  obs::TraceSpan exec_span = obs::MaybeSpan(trace, "execute");
  return Execute(query.bound->plan, catalog, stats, trace);
}

Result<PlanPtr> BindPostAggregation(const SelectStmt& stmt,
                                    const BoundQuery& bound,
                                    const std::string& agg_table,
                                    const Catalog& catalog,
                                    bool append_row_id) {
  if (stmt.having != nullptr) {
    return Status::Unimplemented("HAVING is not supported post-aggregation");
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                       catalog.Get(agg_table));
  const Schema& schema = table->schema();

  // Rebuild the same substitution map the main binder used.
  std::unordered_map<std::string, std::string> replacements;
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    replacements[stmt.group_by[g]->ToString()] = bound.group_names[g];
  }
  for (const BoundAggregate& agg : bound.aggregates) {
    replacements[agg.display] = agg.internal_alias;
  }

  PlanPtr plan = PlanNode::Scan(agg_table);
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (const SelectItem& item : stmt.items) {
    SqlExprPtr substituted = Substitute(item.expr, replacements);
    if (substituted->ContainsAggregate()) {
      return Status::Internal("unsubstituted aggregate in select item");
    }
    AQP_ASSIGN_OR_RETURN(ExprPtr e, Lower(substituted));
    AQP_RETURN_IF_ERROR(e->TypeCheck(schema).status());
    exprs.push_back(std::move(e));
    names.push_back(item.alias.empty() ? item.expr->ToString() : item.alias);
  }
  if (append_row_id) {
    exprs.push_back(Col("__row_id"));
    names.push_back("__row_id");
  }
  plan = PlanNode::Project(plan, std::move(exprs), std::move(names));

  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      keys.push_back({item.column, item.ascending});
    }
    plan = PlanNode::Sort(plan, std::move(keys));
  }
  if (stmt.limit.has_value()) {
    plan = PlanNode::Limit(plan, *stmt.limit);
  }
  return plan;
}

}  // namespace sql
}  // namespace aqp
