#include "core/rewriter.h"

#include <cmath>

#include "expr/eval.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "sampling/bernoulli.h"
#include "sampling/ht_estimator.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

PlanPtr TestPlan() {
  return PlanNode::Aggregate(
      PlanNode::Filter(
          PlanNode::Join(PlanNode::Scan("fact"), PlanNode::Scan("dim"),
                         JoinType::kInner, {"fk"}, {"pk"}),
          Gt(Col("x"), Lit(0.0))),
      {}, {}, {{AggKind::kSum, Col("x"), "s"}});
}

TEST(RewriterTest, StripSamplesRemovesAll) {
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.05, 7, 512};
  PlanPtr sampled = PlanNode::Aggregate(
      PlanNode::Join(PlanNode::Scan("fact", spec), PlanNode::Scan("dim", spec),
                     JoinType::kInner, {"fk"}, {"pk"}),
      {}, {}, {{AggKind::kSum, Col("x"), "s"}});
  ASSERT_NE(sampled->ToString().find("SAMPLE"), std::string::npos);
  PlanPtr stripped = StripSamples(sampled);
  EXPECT_EQ(stripped->ToString().find("SAMPLE"), std::string::npos);
}

TEST(RewriterTest, ScannedTablesInOrder) {
  auto tables = ScannedTables(TestPlan());
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], "fact");
  EXPECT_EQ(tables[1], "dim");
}

// The stage plan of an FK join: the sampled fact table's design columns
// ride through the join next to the group key and the aggregate argument,
// and the query's own TABLESAMPLE is dropped (the stage draws its sample).
TEST(RewriterTest, StagePlanCarriesDesignColumnsThroughJoin) {
  Catalog catalog = workload::GenerateLineitemLike(4000, 9).value();
  sql::BoundQuery bound =
      sql::BindSql(
          "SELECT o.orderpriority, SUM(l.extendedprice * (1 - l.discount)) "
          "AS rev, COUNT(*) AS n FROM lineitem AS l TABLESAMPLE SYSTEM (10) "
          "JOIN orders AS o ON l.orderkey = o.orderkey "
          "GROUP BY o.orderpriority",
          catalog)
          .value();
  StagePlan stage = BuildStagePlan(bound.plan, "lineitem").value();
  EXPECT_EQ(stage.plan->ToString().find("SAMPLE"), std::string::npos);
  ASSERT_EQ(stage.group_exprs.size(), 1u);
  ASSERT_EQ(stage.aggs.size(), 2u);
  EXPECT_EQ(stage.aggs[0].kind, AggKind::kSum);
  EXPECT_EQ(stage.aggs[1].kind, AggKind::kCountStar);
  EXPECT_EQ(stage.aggs[1].arg, nullptr);

  // Stage the whole table with unit = row and weight = row / 2, so every
  // output row names the lineitem row it came from.
  std::shared_ptr<const Table> lineitem = catalog.Get("lineitem").value();
  Schema schema = lineitem->schema();
  schema.AddField({kUnitColumn, DataType::kInt64});
  schema.AddField({kWeightColumn, DataType::kDouble});
  std::vector<Column> cols;
  for (size_t c = 0; c < lineitem->num_columns(); ++c) {
    cols.push_back(lineitem->column(c));
  }
  Column unit(DataType::kInt64);
  Column weight(DataType::kDouble);
  for (size_t i = 0; i < lineitem->num_rows(); ++i) {
    unit.AppendInt64(static_cast<int64_t>(i));
    weight.AppendDouble(static_cast<double>(i) / 2.0);
  }
  cols.push_back(std::move(unit));
  cols.push_back(std::move(weight));
  catalog.RegisterOrReplace(
      "lineitem", std::make_shared<Table>(
                      Table::Make(std::move(schema), std::move(cols)).value()));
  Table out = Execute(stage.plan, catalog).value();

  ASSERT_EQ(out.num_columns(), 4u);
  EXPECT_EQ(out.schema().field(0).name, "__g0");
  EXPECT_EQ(out.schema().field(1).name, "__arg0");
  EXPECT_EQ(out.schema().field(2).name, kUnitColumn);
  EXPECT_EQ(out.schema().field(3).name, kWeightColumn);
  Table joined = sql::ExecuteSql(
                     "SELECT COUNT(*) AS n FROM lineitem AS l JOIN orders AS "
                     "o ON l.orderkey = o.orderkey",
                     catalog)
                     .value();
  ASSERT_EQ(static_cast<int64_t>(out.num_rows()), joined.column(0).Int64At(0));
  ASSERT_GT(out.num_rows(), 0u);
  const size_t price = lineitem->ColumnIndex("extendedprice").value();
  const size_t discount = lineitem->ColumnIndex("discount").value();
  for (size_t i = 0; i < out.num_rows(); ++i) {
    const int64_t row = out.column(2).Int64At(i);
    ASSERT_GE(row, 0);
    ASSERT_LT(static_cast<size_t>(row), lineitem->num_rows());
    EXPECT_EQ(out.column(3).DoubleAt(i), static_cast<double>(row) / 2.0);
    const size_t r = static_cast<size_t>(row);
    EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(i),
                     lineitem->column(price).DoubleAt(r) *
                         (1 - lineitem->column(discount).DoubleAt(r)));
  }
}

TEST(RewriterTest, StagePlanNeedsAnAggregateOverTheTable) {
  Catalog catalog = workload::GenerateLineitemLike(1000, 9).value();
  sql::BoundQuery plain =
      sql::BindSql("SELECT quantity FROM lineitem", catalog).value();
  EXPECT_EQ(BuildStagePlan(plain.plan, "lineitem").status().code(),
            StatusCode::kInvalidArgument);
  sql::BoundQuery agg =
      sql::BindSql("SELECT SUM(quantity) AS s FROM lineitem", catalog).value();
  EXPECT_EQ(BuildStagePlan(agg.plan, "orders").status().code(),
            StatusCode::kInvalidArgument);
}

// The statistical claim behind sampler pushdown: Filter(Sample(T)) and
// Sample(Filter(T)) give HT SUM estimates with the same distribution. We
// verify mean agreement across seeds.
TEST(RewriterTest, SamplerCommutesWithSelectionStatistically) {
  Table t = testutil::ZipfGroupedTable(20000, 8, 0.7, 3);
  ExprPtr pred = Gt(Col("x"), Lit(3.0));
  double mean_sample_then_filter = 0.0;
  double mean_filter_then_sample = 0.0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Order A: sample first, then filter inside the estimator.
    Sample s = BernoulliRowSample(t, 0.05, 10 + trial).value();
    mean_sample_then_filter +=
        EstimateSum(s, Col("x"), pred).value().estimate / kTrials;

    // Order B: filter the base table first, then sample.
    std::vector<uint32_t> sel = EvalPredicate(*pred, t).value();
    Table filtered = t.Take(sel);
    Sample s2 = BernoulliRowSample(filtered, 0.05, 10 + trial).value();
    mean_filter_then_sample +=
        EstimateSum(s2, Col("x")).value().estimate / kTrials;
  }
  EXPECT_NEAR(mean_sample_then_filter, mean_filter_then_sample,
              std::fabs(mean_filter_then_sample) * 0.05);
}

}  // namespace
}  // namespace core
}  // namespace aqp
