#include "sql/binder.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace aqp {
namespace sql {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  auto sales = std::make_shared<Table>(Schema({{"region", DataType::kString},
                                               {"cust", DataType::kInt64},
                                               {"amount",
                                                DataType::kDouble}}));
  auto add_sale = [&](const char* r, int64_t c, double a) {
    EXPECT_TRUE(
        sales->AppendRow({Value(std::string(r)), Value(c), Value(a)}).ok());
  };
  add_sale("east", 1, 10.0);
  add_sale("west", 2, 20.0);
  add_sale("east", 1, 30.0);
  add_sale("west", 3, 40.0);
  add_sale("east", 2, 50.0);

  auto custs = std::make_shared<Table>(
      Schema({{"cid", DataType::kInt64}, {"name", DataType::kString}}));
  auto add_cust = [&](int64_t c, const char* n) {
    EXPECT_TRUE(custs->AppendRow({Value(c), Value(std::string(n))}).ok());
  };
  add_cust(1, "ana");
  add_cust(2, "bob");
  add_cust(3, "cat");

  EXPECT_TRUE(cat.Register("sales", sales).ok());
  EXPECT_TRUE(cat.Register("customers", custs).ok());
  return cat;
}

TEST(BinderTest, SimpleProjection) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql("SELECT amount FROM sales", cat).value();
  EXPECT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.schema().field(0).name, "amount");
}

TEST(BinderTest, ProjectionWithExpressionAndAlias) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount * 2 AS dbl, region FROM sales", cat).value();
  EXPECT_EQ(out.schema().field(0).name, "dbl");
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 20.0);
  EXPECT_EQ(out.column(1).StringAt(0), "east");
}

TEST(BinderTest, WhereFilters) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount FROM sales WHERE region = 'east'", cat)
          .value();
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(BinderTest, NonBooleanWhereRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT amount FROM sales WHERE amount", cat).ok());
}

TEST(BinderTest, GlobalAggregates) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a "
                  "FROM sales",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column(0).Int64At(0), 5);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 150.0);
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 30.0);
}

TEST(BinderTest, GroupByWithHavingAndOrder) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT region, SUM(amount) AS total FROM sales "
                  "GROUP BY region HAVING SUM(amount) > 50 "
                  "ORDER BY total DESC",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).StringAt(0), "east");  // 90 > 60.
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 90.0);
}

TEST(BinderTest, CompositeAggregateItem) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT SUM(amount) / COUNT(*) AS mean FROM sales", cat)
          .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 30.0);
}

TEST(BinderTest, DuplicateAggregatesComputedOnce) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT SUM(amount), SUM(amount) / COUNT(*) FROM sales", cat)
          .value();
  // SUM(amount) appears twice but is bound once.
  EXPECT_EQ(bound.aggregates.size(), 2u);  // SUM and COUNT(*).
}

TEST(BinderTest, SelectItemOutsideGroupByRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT cust, SUM(amount) FROM sales GROUP BY region", cat)
          .ok());
}

TEST(BinderTest, GroupByExpressionKey) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT cust % 2 AS parity, COUNT(*) AS n FROM sales "
                  "GROUP BY cust % 2 ORDER BY parity",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).Int64At(0), 0);
  EXPECT_EQ(out.column(1).Int64At(0), 2);  // cust 2 twice.
}

TEST(BinderTest, JoinWithQualifiedColumns) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT c.name, SUM(s.amount) AS total FROM sales AS s "
                  "JOIN customers AS c ON s.cust = c.cid "
                  "GROUP BY c.name ORDER BY total DESC",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.column(0).StringAt(0), "bob");  // 20 + 50 = 70.
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 70.0);
}

TEST(BinderTest, JoinConditionSidesAutodetected) {
  Catalog cat = MakeCatalog();
  // Condition written right-to-left still binds.
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n FROM sales AS s "
                  "JOIN customers AS c ON c.cid = s.cust",
                  cat)
                  .value();
  EXPECT_EQ(out.column(0).Int64At(0), 5);
}

TEST(BinderTest, UnresolvableJoinConditionRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql(
                   "SELECT 1 FROM sales AS s JOIN customers AS c "
                   "ON s.ghost = c.spirit",
                   cat)
                   .ok());
}

// Two tables sharing the key name `k` (so unqualified `k` is ambiguous),
// each with a column no statement below references.
Catalog PruneCatalog() {
  Catalog cat;
  auto a = std::make_shared<Table>(Schema({{"k", DataType::kInt64},
                                           {"x", DataType::kInt64},
                                           {"y", DataType::kDouble},
                                           {"z", DataType::kDouble},
                                           {"unused_a", DataType::kInt64}}));
  auto b = std::make_shared<Table>(Schema({{"k", DataType::kInt64},
                                           {"w", DataType::kString},
                                           {"v", DataType::kInt64},
                                           {"unused_b", DataType::kInt64}}));
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(a->AppendRow({Value(i % 2), Value(i), Value(1.0 * i),
                              Value(2.0 * i), Value(i)})
                    .ok());
  }
  EXPECT_TRUE(b->AppendRow({Value(int64_t{0}), Value(std::string("p")),
                            Value(int64_t{5}), Value(int64_t{0})})
                  .ok());
  EXPECT_TRUE(b->AppendRow({Value(int64_t{1}), Value(std::string("q")),
                            Value(int64_t{7}), Value(int64_t{0})})
                  .ok());
  EXPECT_TRUE(cat.Register("a", a).ok());
  EXPECT_TRUE(cat.Register("b", b).ok());
  return cat;
}

// The output names of each scan's projection, keyed by scanned table.
void CollectScanProjections(
    const PlanPtr& plan, std::map<std::string, std::vector<std::string>>* out) {
  if (plan->kind() == PlanKind::kProject &&
      plan->child()->kind() == PlanKind::kScan) {
    (*out)[plan->child()->table_name()] = plan->names();
    return;
  }
  for (size_t i = 0; i < plan->num_children(); ++i) {
    CollectScanProjections(plan->child(i), out);
  }
}

std::map<std::string, std::vector<std::string>> ScanProjections(
    std::string_view sql, const Catalog& cat) {
  Result<BoundQuery> bound = BindSql(sql, cat);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  std::map<std::string, std::vector<std::string>> out;
  if (bound.ok()) CollectScanProjections(bound.value().plan, &out);
  return out;
}

using Names = std::vector<std::string>;

TEST(BinderTest, JoinScansKeepOnlyReferencedColumns) {
  Catalog cat = PruneCatalog();
  // Qualified (a.x), unqualified (w, y, v), join keys, HAVING-only (z) and
  // ORDER BY references; unused_a / unused_b are never gathered.
  const char* sql =
      "SELECT a.x, w, SUM(y) AS s FROM a JOIN b ON a.k = b.k "
      "WHERE v > 1 GROUP BY a.x, w HAVING MAX(z) >= 0 ORDER BY a.x";
  auto scans = ScanProjections(sql, cat);
  EXPECT_EQ(scans["a"], (Names{"a.k", "a.x", "a.y", "a.z"}));
  EXPECT_EQ(scans["b"], (Names{"b.k", "b.w", "b.v"}));
  Table out = ExecuteSql(sql, cat).value();
  ASSERT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.column(1).StringAt(1), "q");  // x = 1 has k = 1.

  // Aliases qualify; a column named only by an alias-qualified reference is
  // kept on that side alone.
  scans = ScanProjections(
      "SELECT COUNT(*) FROM a AS l JOIN b AS r ON r.k = l.k WHERE l.y > 0",
      cat);
  EXPECT_EQ(scans["a"], (Names{"l.k", "l.y"}));
  EXPECT_EQ(scans["b"], (Names{"r.k"}));
}

TEST(BinderTest, SingleTableScanKeepsEveryColumn) {
  Catalog cat = PruneCatalog();
  auto scans = ScanProjections("SELECT SUM(y) FROM a WHERE x > 0", cat);
  EXPECT_EQ(scans["a"], (Names{"a.k", "a.x", "a.y", "a.z", "a.unused_a"}));
}

TEST(BinderTest, JoinNameErrorsUnchangedByPruning) {
  Catalog cat = PruneCatalog();
  Status unknown =
      BindSql("SELECT a.ghost FROM a JOIN b ON a.k = b.k", cat).status();
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.message(), "no column named a.ghost");

  Status ambiguous =
      BindSql("SELECT SUM(y) FROM a JOIN b ON a.k = b.k WHERE k > 0", cat)
          .status();
  EXPECT_EQ(ambiguous.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ambiguous.message(), "ambiguous column reference: k");

  Status join =
      BindSql("SELECT 1 FROM a JOIN b ON a.k = b.ghost", cat).status();
  EXPECT_EQ(join.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(join.message(), "cannot resolve join condition a.k = b.ghost");
}

TEST(BinderTest, UnknownTableRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT x FROM nope", cat).ok());
}

TEST(BinderTest, UnknownColumnRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT ghost FROM sales", cat).ok());
}

TEST(BinderTest, OrderByUnknownOutputRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT amount FROM sales ORDER BY ghost", cat).ok());
}

TEST(BinderTest, HavingWithoutAggRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT amount FROM sales HAVING 1 = 1", cat).ok());
}

TEST(BinderTest, LimitApplies) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount FROM sales ORDER BY amount DESC LIMIT 2", cat)
          .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 50.0);
}

TEST(BinderTest, ErrorSpecSurfacesInBoundQuery) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT AVG(amount) FROM sales WITH ERROR 5% CONFIDENCE 95%",
              cat)
          .value();
  ASSERT_TRUE(bound.error_spec.has_value());
  EXPECT_DOUBLE_EQ(bound.error_spec->relative_error, 0.05);
  EXPECT_TRUE(bound.has_aggregates);
  ASSERT_EQ(bound.aggregates.size(), 1u);
  EXPECT_EQ(bound.aggregates[0].kind, AggKind::kAvg);
  ASSERT_EQ(bound.tables.size(), 1u);
  EXPECT_EQ(bound.tables[0].table, "sales");
}

TEST(BinderTest, TableSamplePlanAnnotated) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT COUNT(*) FROM sales TABLESAMPLE BERNOULLI (50)", cat)
          .value();
  EXPECT_NE(bound.plan->ToString().find("SAMPLE BERNOULLI 50%"),
            std::string::npos);
}

TEST(BinderTest, CountDistinct) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT COUNT(DISTINCT region) AS d FROM sales", cat).value();
  EXPECT_EQ(out.column(0).Int64At(0), 2);
}

TEST(BinderTest, MinMaxVarStddev) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT MIN(amount) AS lo, MAX(amount) AS hi, "
                  "VAR(amount) AS v, STDDEV(amount) AS sd FROM sales",
                  cat)
                  .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 50.0);
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 250.0);
}

TEST(BinderTest, ScalarFunctionsInSql) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT ABS(amount - 30) AS dev, SQRT(amount) AS root "
                  "FROM sales ORDER BY dev",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 0.0);   // amount 30.
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(4), 20.0);  // amounts 10 and 50.
}

TEST(BinderTest, FunctionsInsideAggregates) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT SUM(ABS(amount - 30)) AS total_dev FROM sales", cat)
          .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 60.0);  // 20+10+0+10+20.
}

TEST(BinderTest, FunctionsInWhere) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n FROM sales WHERE ROUND(amount / 10) "
                  "% 2 = 0",
                  cat)
                  .value();
  // amount/10 in {1,2,3,4,5}; even rounds: 2 and 4.
  EXPECT_EQ(out.column(0).Int64At(0), 2);
}

TEST(BinderTest, SelectDistinct) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT DISTINCT region FROM sales ORDER BY region", cat)
          .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).StringAt(0), "east");
  EXPECT_EQ(out.column(0).StringAt(1), "west");
}

TEST(BinderTest, SelectDistinctMultiColumn) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql("SELECT DISTINCT region, cust FROM sales", cat)
                  .value();
  EXPECT_EQ(out.num_rows(), 4u);  // (east,1), (west,2), (west,3), (east,2).
}

TEST(BinderTest, SelectDistinctWithAggregatesRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_EQ(
      ExecuteSql("SELECT DISTINCT SUM(amount) FROM sales", cat).status().code(),
      StatusCode::kUnimplemented);
}

TEST(BinderTest, UnknownFunctionRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT FROBNICATE(amount) FROM sales", cat).ok());
}

}  // namespace
}  // namespace sql
}  // namespace aqp
