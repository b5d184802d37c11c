// Parallel-vs-serial equivalence for the morsel-driven executor.
//
// The determinism contract (see engine/exec_options.h): for a fixed query,
// seed, and morsel size, results are bit-for-bit identical for EVERY thread
// count, because algorithm selection is gated on input size only and
// per-morsel partial results are merged in morsel order. These tests pin
// that contract down over a thread grid {1, 2, 4, 8}.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "test_util.h"

namespace aqp {
namespace {

constexpr size_t kRows = 24000;  // Comfortably above parallel_min_rows.
const size_t kThreadGrid[] = {1, 2, 4, 8};

// 24k-row table: id (0..n-1), g in [0, 16), x ~ N(g, 10). Deterministic.
Catalog BigCatalog() {
  Pcg32 rng(17);
  auto t = std::make_shared<Table>(Schema({{"id", DataType::kInt64},
                                           {"g", DataType::kInt64},
                                           {"x", DataType::kDouble}}));
  for (size_t i = 0; i < kRows; ++i) {
    int64_t g = static_cast<int64_t>(rng.UniformUint32(16));
    double x = static_cast<double>(g) + rng.Gaussian() * 10.0;
    AQP_CHECK(
        t->AppendRow({Value(static_cast<int64_t>(i)), Value(g), Value(x)})
            .ok());
  }
  Catalog cat;
  AQP_CHECK(cat.Register("t", t).ok());
  return cat;
}

Table RunPlan(const PlanPtr& plan, const Catalog& cat, size_t threads,
          ExecStats* stats = nullptr) {
  ExecOptions opt;
  opt.num_threads = threads;
  Result<Table> r = Execute(plan, cat, stats, nullptr, opt);
  AQP_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// Cell-by-cell bit-for-bit comparison (EXPECT_EQ on doubles is exact ==,
// which is what the determinism contract promises — not EXPECT_DOUBLE_EQ).
void ExpectIdentical(const Table& a, const Table& b, const char* what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).type(), b.column(c).type()) << what;
    for (size_t i = 0; i < a.num_rows(); ++i) {
      ASSERT_EQ(a.column(c).IsNull(i), b.column(c).IsNull(i))
          << what << " col " << c << " row " << i;
      if (a.column(c).IsNull(i)) continue;
      switch (a.column(c).type()) {
        case DataType::kInt64:
          ASSERT_EQ(a.column(c).Int64At(i), b.column(c).Int64At(i))
              << what << " col " << c << " row " << i;
          break;
        case DataType::kDouble:
          ASSERT_EQ(a.column(c).DoubleAt(i), b.column(c).DoubleAt(i))
              << what << " col " << c << " row " << i;
          break;
        case DataType::kString:
          ASSERT_EQ(a.column(c).StringAt(i), b.column(c).StringAt(i))
              << what << " col " << c << " row " << i;
          break;
        case DataType::kBool:
          ASSERT_EQ(a.column(c).BoolAt(i), b.column(c).BoolAt(i))
              << what << " col " << c << " row " << i;
          break;
      }
    }
  }
}

TEST(ParallelExecutorTest, FilterBitIdenticalAcrossThreadCounts) {
  Catalog cat = BigCatalog();
  PlanPtr p =
      PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("x"), Lit(3.0)));
  Table baseline = RunPlan(p, cat, 1);
  EXPECT_GT(baseline.num_rows(), 0u);
  EXPECT_LT(baseline.num_rows(), kRows);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "filter");
  }
}

TEST(ParallelExecutorTest, GlobalAggregatesBitIdentical) {
  Catalog cat = BigCatalog();
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Scan("t"), {}, {},
      {{AggKind::kSum, Col("x"), "s"},
       {AggKind::kAvg, Col("x"), "a"},
       {AggKind::kCountStar, nullptr, "n"},
       {AggKind::kMin, Col("x"), "lo"},
       {AggKind::kMax, Col("x"), "hi"},
       {AggKind::kVar, Col("x"), "v"},
       {AggKind::kStddev, Col("x"), "sd"},
       {AggKind::kCountDistinct, Col("g"), "d"}});
  Table baseline = RunPlan(p, cat, 1);
  ASSERT_EQ(baseline.num_rows(), 1u);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "global-agg");
  }
}

TEST(ParallelExecutorTest, GroupByBitIdenticalIncludingGroupOrder) {
  Catalog cat = BigCatalog();
  // No ORDER BY: group output order itself is part of the contract (serial
  // first-appearance order, reproduced by the ordered morsel merge).
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Scan("t"), {Col("g")}, {"g"},
      {{AggKind::kSum, Col("x"), "s"},
       {AggKind::kAvg, Col("x"), "a"},
       {AggKind::kCountStar, nullptr, "n"},
       {AggKind::kVar, Col("x"), "v"}});
  Table baseline = RunPlan(p, cat, 1);
  EXPECT_EQ(baseline.num_rows(), 16u);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "group-by");
  }
}

TEST(ParallelExecutorTest, FilterAggregateSortPipelineBitIdentical) {
  Catalog cat = BigCatalog();
  PlanPtr p = PlanNode::Sort(
      PlanNode::Aggregate(
          PlanNode::Filter(PlanNode::Scan("t"), Ge(Col("x"), Lit(-5.0))),
          {Col("g")}, {"g"}, {{AggKind::kSum, Col("x"), "s"}}),
      {{"s", false}});
  Table baseline = RunPlan(p, cat, 1);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "pipeline");
  }
}

TEST(ParallelExecutorTest, ProjectBitIdenticalAcrossThreadCounts) {
  Catalog cat = BigCatalog();
  PlanPtr p = PlanNode::Project(
      PlanNode::Scan("t"),
      {Col("id"), Add(Mul(Col("x"), Lit(2.0)), Lit(1.0)),
       Mod(Col("g"), Lit(int64_t{4}))},
      {"id", "y", "g4"});
  Table baseline = RunPlan(p, cat, 1);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "project");
  }
}

TEST(ParallelExecutorTest, BernoulliSampledScanSameDrawnSetEveryThreadCount) {
  Catalog cat = BigCatalog();
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.1, 99, 1024};
  PlanPtr p = PlanNode::Scan("t", spec);
  Table baseline = RunPlan(p, cat, 1);
  EXPECT_NEAR(static_cast<double>(baseline.num_rows()), kRows * 0.1,
              kRows * 0.01);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "bernoulli-scan");
  }
}

TEST(ParallelExecutorTest, BlockSampledScanSameDrawnSetEveryThreadCount) {
  Catalog cat = BigCatalog();
  SampleSpec spec{SampleSpec::Method::kSystemBlock, 0.2, 7, 256};
  PlanPtr p = PlanNode::Scan("t", spec);
  Table baseline = RunPlan(p, cat, 1);
  EXPECT_EQ(baseline.num_rows() % 256, 0u);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "block-scan");
  }
}

TEST(ParallelExecutorTest, SampledAggregateEstimateIdenticalAcrossThreads) {
  Catalog cat = BigCatalog();
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.25, 5, 1024};
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Scan("t", spec), {}, {},
      {{AggKind::kSum, Col("x"), "s"}, {AggKind::kCountStar, nullptr, "n"}});
  Table baseline = RunPlan(p, cat, 1);
  for (size_t threads : kThreadGrid) {
    ExpectIdentical(baseline, RunPlan(p, cat, threads), "sampled-agg");
  }
}

TEST(ParallelExecutorTest, MorselFoldMatchesClassicSerialWithinUlps) {
  // The morsel fold reassociates FP sums, so it need not bit-match the
  // classic single-accumulator path — but it must agree to rounding error,
  // and must produce exactly the same group set and integer aggregates.
  Catalog cat = BigCatalog();
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Scan("t"), {Col("g")}, {"g"},
      {{AggKind::kSum, Col("x"), "s"},
       {AggKind::kCountStar, nullptr, "n"},
       {AggKind::kMin, Col("x"), "lo"},
       {AggKind::kMax, Col("x"), "hi"}});
  ExecOptions classic;
  classic.num_threads = 1;
  classic.parallel_min_rows = SIZE_MAX;  // Force the pre-morsel code path.
  Table serial = Execute(p, cat, nullptr, nullptr, classic).value();
  Table morsel = RunPlan(p, cat, 4);
  ASSERT_EQ(serial.num_rows(), morsel.num_rows());
  for (size_t i = 0; i < serial.num_rows(); ++i) {
    EXPECT_EQ(serial.column(0).Int64At(i), morsel.column(0).Int64At(i));
    double s = serial.column(1).DoubleAt(i);
    EXPECT_NEAR(morsel.column(1).DoubleAt(i), s,
                std::fabs(s) * 1e-12 + 1e-9);
    EXPECT_EQ(serial.column(2).Int64At(i), morsel.column(2).Int64At(i));
    // MIN/MAX pick elements, not sums: exact across both paths.
    EXPECT_EQ(serial.column(3).DoubleAt(i), morsel.column(3).DoubleAt(i));
    EXPECT_EQ(serial.column(4).DoubleAt(i), morsel.column(4).DoubleAt(i));
  }
}

TEST(ParallelExecutorTest, ParallelRunStatsPopulated) {
  Catalog cat = BigCatalog();
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("x"), Lit(-100.0))),
      {Col("g")}, {"g"}, {{AggKind::kSum, Col("x"), "s"}});
  ExecStats stats;
  RunPlan(p, cat, 4, &stats);
  EXPECT_GT(stats.parallel.morsels, 0u);
  ASSERT_GE(stats.parallel.worker_items.size(), 1u);
  uint64_t total_items = 0;
  for (uint64_t n : stats.parallel.worker_items) total_items += n;
  EXPECT_GT(total_items, 0u);

  // Single-threaded execution of a large input still runs the morsel fold
  // (that is what makes results thread-count-independent), so morsels are
  // counted there too. The counts need not match the 4-thread run — the
  // column-parallel gather only engages with >1 thread — only results must.
  ExecStats serial_stats;
  RunPlan(p, cat, 1, &serial_stats);
  EXPECT_GT(serial_stats.parallel.morsels, 0u);
  EXPECT_EQ(serial_stats.parallel.steals, 0u);
}

TEST(ParallelExecutorTest, SmallInputsNeverUseMorselPath) {
  // Below parallel_min_rows nothing is morselized even with many threads.
  Catalog cat;
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(static_cast<double>(i))}).ok());
  }
  ASSERT_TRUE(cat.Register("small", t).ok());
  PlanPtr p = PlanNode::Aggregate(PlanNode::Scan("small"), {}, {},
                                  {{AggKind::kSum, Col("x"), "s"}});
  ExecStats stats;
  Table out = RunPlan(p, cat, 8, &stats);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 4950.0);
  EXPECT_EQ(stats.parallel.morsels, 0u);
}

// Join inputs covering what the hash join must get right: duplicate build
// keys, NULL keys on both sides, keys unmatched on either side (probe keys
// in [10, 70), build keys in [0, 60)), a STRING key column for the
// INT64+STRING two-column key, and a DOUBLE key with -0.0/+0.0 and NaN.
std::shared_ptr<const Table> JoinTable(Pcg32& rng, size_t rows, bool probe) {
  Column key(DataType::kInt64);
  Column str(DataType::kString);
  Column dbl(DataType::kDouble);
  Column measure(DataType::kDouble);
  const char* strings[] = {"a", "b", "c"};
  const double odd[] = {-0.0, 0.0, std::nan("")};
  for (size_t i = 0; i < rows; ++i) {
    const int64_t k = static_cast<int64_t>(rng.UniformUint32(60));
    if (rng.UniformUint32(20) == 0) {
      key.AppendNull();
    } else {
      key.AppendInt64(probe ? k + 10 : k);
    }
    if (rng.UniformUint32(20) == 0) {
      str.AppendNull();
    } else {
      str.AppendString(strings[rng.UniformUint32(3)]);
    }
    if (rng.UniformUint32(20) == 0) {
      dbl.AppendNull();
    } else if (rng.UniformUint32(10) == 0) {
      dbl.AppendDouble(odd[rng.UniformUint32(3)]);
    } else {
      dbl.AppendDouble(0.5 * rng.UniformUint32(40));
    }
    measure.AppendDouble(rng.Gaussian());
  }
  Schema schema = probe ? Schema({{"k", DataType::kInt64},
                                  {"s", DataType::kString},
                                  {"d", DataType::kDouble},
                                  {"m", DataType::kDouble}})
                        : Schema({{"qk", DataType::kInt64},
                                  {"qs", DataType::kString},
                                  {"qd", DataType::kDouble},
                                  {"y", DataType::kDouble}});
  Result<Table> t = Table::Make(std::move(schema),
                                {std::move(key), std::move(str),
                                 std::move(dbl), std::move(measure)});
  AQP_CHECK(t.ok());
  return std::make_shared<const Table>(std::move(t).value());
}

// Nested-loop reference: probe rows in order, each followed by its matching
// build rows in build order (a NULL key never matches); a LEFT JOIN pads an
// unmatched probe row with NULLs.
Table NestedLoopJoin(const Table& l, const Table& r,
                     const std::vector<std::string>& lkeys,
                     const std::vector<std::string>& rkeys, JoinType type) {
  std::vector<size_t> lk;
  std::vector<size_t> rk;
  for (const std::string& k : lkeys) lk.push_back(l.ColumnIndex(k).value());
  for (const std::string& k : rkeys) rk.push_back(r.ColumnIndex(k).value());
  Schema schema = l.schema();
  for (const Field& f : r.schema().fields()) schema.AddField(f);
  std::vector<Column> cols;
  for (const Field& f : schema.fields()) cols.emplace_back(f.type);
  auto emit = [&](size_t i, const size_t* j) {
    for (size_t c = 0; c < l.num_columns(); ++c) {
      cols[c].AppendFrom(l.column(c), i);
    }
    for (size_t c = 0; c < r.num_columns(); ++c) {
      Column& dst = cols[l.num_columns() + c];
      if (j == nullptr) {
        dst.AppendNull();
      } else {
        dst.AppendFrom(r.column(c), *j);
      }
    }
  };
  for (size_t i = 0; i < l.num_rows(); ++i) {
    bool matched = false;
    for (size_t j = 0; j < r.num_rows(); ++j) {
      bool equal = true;
      for (size_t k = 0; k < lk.size() && equal; ++k) {
        const Column& a = l.column(lk[k]);
        const Column& b = r.column(rk[k]);
        equal = !a.IsNull(i) && !b.IsNull(j) && a.SlotEquals(i, b, j);
      }
      if (equal) {
        emit(i, &j);
        matched = true;
      }
    }
    if (!matched && type == JoinType::kLeftOuter) emit(i, nullptr);
  }
  return Table::Make(std::move(schema), std::move(cols)).value();
}

TEST(ParallelExecutorTest, HashJoinMatchesNestedLoopAcrossThreadCounts) {
  // Low thresholds (as in the differential harness): the 3000-row probe side
  // and the 400-row build side both take the morsel path, the 200-row probe
  // side stays below parallel_min_rows.
  ExecOptions base;
  base.morsel_rows = 128;
  base.parallel_min_rows = 256;
  Pcg32 rng(41);
  Catalog cat;
  ASSERT_TRUE(cat.Register("p_big", JoinTable(rng, 3000, true)).ok());
  ASSERT_TRUE(cat.Register("p_small", JoinTable(rng, 200, true)).ok());
  ASSERT_TRUE(cat.Register("q", JoinTable(rng, 400, false)).ok());
  struct KeySet {
    std::vector<std::string> left;
    std::vector<std::string> right;
  };
  const KeySet key_sets[] = {
      {{"k"}, {"qk"}}, {{"k", "s"}, {"qk", "qs"}}, {{"d"}, {"qd"}}};
  size_t nonempty = 0;
  for (const char* probe : {"p_big", "p_small"}) {
    for (bool filtered : {false, true}) {
      // Filtered inputs reach the batch join as views with selections.
      PlanPtr left = PlanNode::Scan(probe);
      PlanPtr right = PlanNode::Scan("q");
      if (filtered) {
        left = PlanNode::Filter(left, Gt(Col("m"), Lit(-0.5)));
        right = PlanNode::Filter(right, Lt(Col("y"), Lit(0.5)));
      }
      Table l = RunPlan(left, cat, 1);
      Table r = RunPlan(right, cat, 1);
      for (const KeySet& keys : key_sets) {
        for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
          Table expected = NestedLoopJoin(l, r, keys.left, keys.right, type);
          nonempty += expected.num_rows() > 0 ? 1 : 0;
          PlanPtr join =
              PlanNode::Join(left, right, type, keys.left, keys.right);
          for (ExecPath path : {ExecPath::kScalar, ExecPath::kVectorized}) {
            for (size_t threads : kThreadGrid) {
              ExecOptions opt = base;
              opt.path = path;
              opt.num_threads = threads;
              Result<Table> got = Execute(join, cat, nullptr, nullptr, opt);
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              std::string what = std::string(probe) + " keys=" +
                                 keys.left.back() + " filtered=" +
                                 std::to_string(filtered) + " left=" +
                                 std::to_string(type == JoinType::kLeftOuter) +
                                 " threads=" + std::to_string(threads);
              EXPECT_TRUE(testutil::TablesBitIdentical(expected, got.value()))
                  << what;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(nonempty, 24u);
}

}  // namespace
}  // namespace aqp
