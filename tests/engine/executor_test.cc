#include "engine/executor.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/memory_tracker.h"

namespace aqp {
namespace {

// Catalog with orders (id, customer, amount) and customers (cid, name).
Catalog MakeCatalog() {
  Catalog cat;
  auto orders = std::make_shared<Table>(Schema({{"o.id", DataType::kInt64},
                                                {"o.cust", DataType::kInt64},
                                                {"o.amount",
                                                 DataType::kDouble}}));
  auto add_order = [&](int64_t id, int64_t cust, double amount) {
    EXPECT_TRUE(orders->AppendRow({Value(id), Value(cust), Value(amount)}).ok());
  };
  add_order(1, 100, 10.0);
  add_order(2, 100, 20.0);
  add_order(3, 200, 30.0);
  add_order(4, 300, 40.0);
  add_order(5, 999, 50.0);  // Dangling customer.

  auto customers = std::make_shared<Table>(
      Schema({{"c.cid", DataType::kInt64}, {"c.name", DataType::kString}}));
  auto add_cust = [&](int64_t cid, const char* name) {
    EXPECT_TRUE(
        customers->AppendRow({Value(cid), Value(std::string(name))}).ok());
  };
  add_cust(100, "ana");
  add_cust(200, "bob");
  add_cust(300, "cat");
  add_cust(400, "dan");  // No orders.

  EXPECT_TRUE(cat.Register("orders", orders).ok());
  EXPECT_TRUE(cat.Register("customers", customers).ok());
  return cat;
}

TEST(ExecutorTest, ScanReturnsWholeTable) {
  Catalog cat = MakeCatalog();
  Table out = Execute(PlanNode::Scan("orders"), cat).value();
  EXPECT_EQ(out.num_rows(), 5u);
}

TEST(ExecutorTest, ScanMissingTableFails) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(Execute(PlanNode::Scan("nope"), cat).ok());
}

TEST(ExecutorTest, FilterSelectsRows) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Filter(PlanNode::Scan("orders"),
                               Gt(Col("o.amount"), Lit(25.0)));
  Table out = Execute(p, cat).value();
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(ExecutorTest, ProjectComputesExpressions) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Project(PlanNode::Scan("orders"),
                                {Col("o.id"), Mul(Col("o.amount"), Lit(2.0))},
                                {"id", "double_amount"});
  Table out = Execute(p, cat).value();
  EXPECT_EQ(out.schema().field(1).name, "double_amount");
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 20.0);
}

TEST(ExecutorTest, InnerJoinMatchesKeys) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Join(PlanNode::Scan("orders"),
                             PlanNode::Scan("customers"), JoinType::kInner,
                             {"o.cust"}, {"c.cid"});
  Table out = Execute(p, cat).value();
  // Order 5 (cust 999) drops out; 4 rows remain.
  EXPECT_EQ(out.num_rows(), 4u);
  EXPECT_EQ(out.num_columns(), 5u);
  // Row order follows probe (left) order.
  size_t name_idx = out.ColumnIndex("c.name").value();
  EXPECT_EQ(out.column(name_idx).StringAt(0), "ana");
  EXPECT_EQ(out.column(name_idx).StringAt(2), "bob");
}

TEST(ExecutorTest, LeftJoinKeepsUnmatched) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Join(PlanNode::Scan("orders"),
                             PlanNode::Scan("customers"), JoinType::kLeftOuter,
                             {"o.cust"}, {"c.cid"});
  Table out = Execute(p, cat).value();
  EXPECT_EQ(out.num_rows(), 5u);
  size_t name_idx = out.ColumnIndex("c.name").value();
  EXPECT_TRUE(out.column(name_idx).IsNull(4));  // Dangling order.
}

TEST(ExecutorTest, JoinNullKeysNeverMatch) {
  Catalog cat;
  auto a = std::make_shared<Table>(Schema({{"a.k", DataType::kInt64}}));
  ASSERT_TRUE(a->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{1})}).ok());
  auto b = std::make_shared<Table>(Schema({{"b.k", DataType::kInt64}}));
  ASSERT_TRUE(b->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(cat.Register("a", a).ok());
  ASSERT_TRUE(cat.Register("b", b).ok());
  Table out = Execute(PlanNode::Join(PlanNode::Scan("a"), PlanNode::Scan("b"),
                                     JoinType::kInner, {"a.k"}, {"b.k"}),
                      cat)
                  .value();
  EXPECT_EQ(out.num_rows(), 1u);  // Only the 1=1 match; NULLs don't join.
}

TEST(ExecutorTest, JoinKeyTypeMismatchRejected) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Join(PlanNode::Scan("orders"),
                             PlanNode::Scan("customers"), JoinType::kInner,
                             {"o.cust"}, {"c.name"});
  EXPECT_FALSE(Execute(p, cat).ok());
}

TEST(ExecutorTest, JoinStopsAtDeadlineMidJoin) {
  // 1M probe rows against a 1M-row build side: far longer than the 5 ms
  // deadline, while the two in-memory scans below the join take
  // microseconds, so the deadline fires inside the join itself.
  constexpr size_t kRows = size_t{1} << 20;
  std::vector<int64_t> keys(kRows);
  for (size_t i = 0; i < kRows; ++i) keys[i] = static_cast<int64_t>(i);
  auto make = [&](const char* key, const char* value) {
    Result<Table> t = Table::Make(
        Schema({{key, DataType::kInt64}, {value, DataType::kInt64}}),
        {Column::FromInt64(keys), Column::FromInt64(keys)});
    AQP_CHECK(t.ok());
    return std::make_shared<const Table>(std::move(t).value());
  };
  Catalog cat;
  ASSERT_TRUE(cat.Register("l", make("l.k", "l.v")).ok());
  ASSERT_TRUE(cat.Register("r", make("r.k", "r.v")).ok());
  CancellationSource source;
  CancellationToken token = source.token();
  MemoryTracker memory;
  ExecOptions options;
  options.cancel = &token;
  options.memory = &memory;
  source.SetDeadlineAfterMs(5);
  Result<Table> out =
      Execute(PlanNode::Join(PlanNode::Scan("l"), PlanNode::Scan("r"),
                             JoinType::kInner, {"l.k"}, {"r.k"}),
              cat, nullptr, nullptr, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(memory.used(), 0u);
}

TEST(ExecutorTest, AggregatePlan) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Aggregate(PlanNode::Scan("orders"), {Col("o.cust")},
                                  {"cust"},
                                  {{AggKind::kSum, Col("o.amount"), "total"}});
  Table out = Execute(p, cat).value();
  EXPECT_EQ(out.num_rows(), 4u);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 30.0);  // cust 100: 10+20.
}

TEST(ExecutorTest, SortAscDescAndNullsFirst) {
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value(int64_t{3})}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t->AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(cat.Register("t", t).ok());

  Table asc = Execute(PlanNode::Sort(PlanNode::Scan("t"), {{"x", true}}), cat)
                  .value();
  EXPECT_TRUE(asc.column(0).IsNull(0));
  EXPECT_EQ(asc.column(0).Int64At(1), 1);
  EXPECT_EQ(asc.column(0).Int64At(2), 3);

  Table desc =
      Execute(PlanNode::Sort(PlanNode::Scan("t"), {{"x", false}}), cat)
          .value();
  EXPECT_EQ(desc.column(0).Int64At(0), 3);
  EXPECT_EQ(desc.column(0).Int64At(1), 1);
  EXPECT_TRUE(desc.column(0).IsNull(2));
}

TEST(ExecutorTest, MultiKeySort) {
  Catalog cat = MakeCatalog();
  PlanPtr p = PlanNode::Sort(PlanNode::Scan("orders"),
                             {{"o.cust", true}, {"o.amount", false}});
  Table out = Execute(p, cat).value();
  EXPECT_EQ(out.column(0).Int64At(0), 2);  // cust 100, amount 20 first.
  EXPECT_EQ(out.column(0).Int64At(1), 1);
}

TEST(ExecutorTest, LimitTruncates) {
  Catalog cat = MakeCatalog();
  Table out = Execute(PlanNode::Limit(PlanNode::Scan("orders"), 2), cat).value();
  EXPECT_EQ(out.num_rows(), 2u);
  // Limit larger than input is fine.
  Table all =
      Execute(PlanNode::Limit(PlanNode::Scan("orders"), 100), cat).value();
  EXPECT_EQ(all.num_rows(), 5u);
}

TEST(ExecutorTest, UnionAllConcatenates) {
  Catalog cat = MakeCatalog();
  Table out = Execute(PlanNode::UnionAll({PlanNode::Scan("orders"),
                                          PlanNode::Scan("orders")}),
                      cat)
                  .value();
  EXPECT_EQ(out.num_rows(), 10u);
}

TEST(ExecutorTest, BernoulliSampleScanRoughlyMatchesRate) {
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(cat.Register("big", t).ok());
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.1, 7, 1024};
  Table out = Execute(PlanNode::Scan("big", spec), cat).value();
  EXPECT_NEAR(static_cast<double>(out.num_rows()), 2000.0, 200.0);
}

TEST(ExecutorTest, BlockSampleKeepsWholeBlocks) {
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(cat.Register("big", t).ok());
  SampleSpec spec{SampleSpec::Method::kSystemBlock, 0.2, 11, 100};
  Table out = Execute(PlanNode::Scan("big", spec), cat).value();
  // Sample size is a multiple of the block size.
  EXPECT_EQ(out.num_rows() % 100, 0u);
  EXPECT_GT(out.num_rows(), 0u);
  // Rows within a kept block are consecutive.
  bool found_consecutive = out.column(0).Int64At(1) ==
                           out.column(0).Int64At(0) + 1;
  EXPECT_TRUE(found_consecutive);
}

TEST(ExecutorTest, SampleSeedIsDeterministic) {
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(cat.Register("big", t).ok());
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.05, 99, 1024};
  Table a = Execute(PlanNode::Scan("big", spec), cat).value();
  Table b = Execute(PlanNode::Scan("big", spec), cat).value();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.column(0).Int64At(i), b.column(0).Int64At(i));
  }
}

TEST(ExecutorTest, StatsTrackBlocksReadAndRowsScanned) {
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(cat.Register("big", t).ok());

  ExecStats full_stats;
  ASSERT_TRUE(Execute(PlanNode::Scan("big"), cat, &full_stats).ok());
  EXPECT_EQ(full_stats.rows_scanned, 10000u);

  // Row sampling reads all blocks; block sampling reads ~rate of them.
  ExecStats row_stats;
  SampleSpec row{SampleSpec::Method::kBernoulliRow, 0.1, 3, 100};
  ASSERT_TRUE(Execute(PlanNode::Scan("big", row), cat, &row_stats).ok());
  EXPECT_EQ(row_stats.blocks_read, 100u);

  ExecStats blk_stats;
  SampleSpec blk{SampleSpec::Method::kSystemBlock, 0.1, 3, 100};
  ASSERT_TRUE(Execute(PlanNode::Scan("big", blk), cat, &blk_stats).ok());
  EXPECT_LT(blk_stats.blocks_read, 30u);
  EXPECT_GT(blk_stats.blocks_read, 0u);
}

TEST(ExecutorTest, EndToEndPipeline) {
  Catalog cat = MakeCatalog();
  // SELECT c.name, SUM(o.amount) AS total FROM orders JOIN customers
  // ON o.cust = c.cid WHERE o.amount > 5 GROUP BY c.name ORDER BY total DESC
  // LIMIT 2
  PlanPtr p = PlanNode::Limit(
      PlanNode::Sort(
          PlanNode::Aggregate(
              PlanNode::Filter(
                  PlanNode::Join(PlanNode::Scan("orders"),
                                 PlanNode::Scan("customers"), JoinType::kInner,
                                 {"o.cust"}, {"c.cid"}),
                  Gt(Col("o.amount"), Lit(5.0))),
              {Col("c.name")}, {"name"},
              {{AggKind::kSum, Col("o.amount"), "total"}}),
          {{"total", false}}),
      2);
  Table out = Execute(p, cat).value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).StringAt(0), "cat");   // 40.
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 40.0);
  EXPECT_EQ(out.column(0).StringAt(1), "ana");   // 30.
}

}  // namespace
}  // namespace aqp
