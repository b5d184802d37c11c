#include "gov/governed_executor.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/offline_executor.h"
#include "gov/fault_injector.h"
#include "workload/datagen.h"

namespace aqp {
namespace gov {
namespace {

constexpr const char* kSumQuery =
    "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
    "CONFIDENCE 95%";
constexpr const char* kGroupQuery =
    "SELECT shipmode, AVG(quantity) AS q FROM lineitem GROUP BY shipmode "
    "WITH ERROR 10% CONFIDENCE 90%";

class GovernedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(60000, 11).value();
    ASSERT_TRUE(samples_.BuildUniform(catalog_, "lineitem", 5000, 3).ok());
  }

  GovernedOptions Options() const {
    GovernedOptions o;
    o.aqp.pilot_rate = 0.02;
    o.aqp.block_size = 64;
    o.aqp.min_table_rows = 1000;
    o.aqp.max_rate = 0.8;
    o.aqp.exec.num_threads = 2;
    return o;
  }

  static void ExpectValidCi(const core::ApproxResult& r) {
    ASSERT_FALSE(r.cis.empty());
    for (const auto& row : r.cis) {
      for (const stats::ConfidenceInterval& ci : row) {
        EXPECT_LE(ci.low, ci.estimate);
        EXPECT_GE(ci.high, ci.estimate);
      }
    }
  }

  Catalog catalog_;
  core::SampleCatalog samples_;
};

TEST_F(GovernedExecutorTest, UngovernedQueryRunsRungZero) {
  ScopedFaultInjection quiet;
  GovernedExecutor exec(&catalog_, &samples_, Options());
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 0);
  EXPECT_TRUE(r.profile.degraded_reason.empty());
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
  ExpectValidCi(r);
}

TEST_F(GovernedExecutorTest, ZeroDeadlineDegradesToStoredSample) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 1);
  EXPECT_NE(r.profile.degraded_reason.find("stored offline sample"),
            std::string::npos);
  EXPECT_TRUE(r.approximated);
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
  ExpectValidCi(r);
}

TEST_F(GovernedExecutorTest, ZeroDeadlineWithoutSamplesDegradesToOla) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, /*samples=*/nullptr, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 2);
  EXPECT_NE(r.profile.degraded_reason.find("online-aggregation"),
            std::string::npos);
  EXPECT_TRUE(r.approximated);
  EXPECT_EQ(r.table.num_rows(), 1u);
  EXPECT_GT(r.table.column(0).DoubleAt(0), 0.0);
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
  ExpectValidCi(r);
}

TEST_F(GovernedExecutorTest, ZeroDeadlineGroupByWithoutSamplesExhausts) {
  // GROUP BY is beyond the OLA rung and there is no stored sample: the
  // ladder runs out honestly instead of inventing an answer.
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, /*samples=*/nullptr, opts);
  Result<core::ApproxResult> r = exec.Execute(kGroupQuery);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("degradation ladder"),
            std::string::npos);
}

TEST_F(GovernedExecutorTest, ZeroDeadlineGroupByDegradesToStoredSample) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kGroupQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 1);
  EXPECT_GT(r.table.num_rows(), 1u);  // Groups survive degradation.
  ExpectValidCi(r);
}

TEST_F(GovernedExecutorTest, UserCancelDoesNotDegrade) {
  ScopedFaultInjection quiet;
  GovernedExecutor exec(&catalog_, &samples_, Options());
  QueryContext ctx;
  ctx.Start();
  ctx.Cancel("user hit ctrl-c");
  Result<core::ApproxResult> r = exec.ExecuteWithContext(
      sql::PrepareAndBind(kSumQuery, catalog_).value(), ctx);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.memory().used(), 0u);  // Nothing leaked on the cancel path.
}

TEST_F(GovernedExecutorTest, TinyMemoryBudgetDegrades) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.memory_budget_bytes = 2048;  // Far below any stage sample.
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 1);
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
  ExpectValidCi(r);
}

TEST_F(GovernedExecutorTest, TinyMemoryBudgetWithoutSamplesExhausts) {
  // Rung 2 needs its working set charged too; with a 2 KB budget over a
  // 60k-row table nothing can answer.
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.memory_budget_bytes = 2048;
  GovernedExecutor exec(&catalog_, /*samples=*/nullptr, opts);
  Result<core::ApproxResult> r = exec.Execute(kSumQuery);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedExecutorTest, InjectedFaultsDegrade) {
  // With faults firing at 50% per site, rung 0 (many sites: sample draws,
  // scans, dispatches) almost always dies while rung 1 (one tiny assembly
  // scan) usually survives. Sweep seeds: every outcome must be well-formed,
  // and the fault->ladder->stored-sample path must actually be observed.
  int degraded = 0;
  for (uint64_t seed = 1; seed <= 20 && degraded == 0; ++seed) {
    ScopedFaultInjection arm(seed, 0.5);
    GovernedExecutor exec(&catalog_, &samples_, Options());
    Result<core::ApproxResult> r = exec.Execute(kSumQuery);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    EXPECT_EQ(r->profile.memory_leaked_bytes, 0u);
    if (r->profile.degradation_rung == 1) {
      EXPECT_NE(r->profile.degraded_reason.find("injected fault"),
                std::string::npos);
      ExpectValidCi(*r);
      ++degraded;
    }
  }
  EXPECT_GT(degraded, 0) << "no seed in 1..20 exercised the fault ladder";
}

TEST_F(GovernedExecutorTest, DegradedCiIsWidened) {
  ScopedFaultInjection quiet;
  GovernedOptions degraded_opts = Options();
  degraded_opts.deadline_ms = 0;
  GovernedExecutor degraded_exec(&catalog_, &samples_, degraded_opts);
  core::ApproxResult degraded = degraded_exec.Execute(kSumQuery).value();

  // The same rung-1 answer via the offline executor directly, unwidened.
  core::OfflineExecutor offline(&catalog_, &samples_);
  core::ApproxResult plain =
      offline.Execute("SELECT SUM(extendedprice) AS s FROM lineitem").value();

  const stats::ConfidenceInterval& wide = degraded.cis[0][0];
  const stats::ConfidenceInterval& narrow = plain.cis[0][0];
  EXPECT_DOUBLE_EQ(wide.estimate, narrow.estimate);
  EXPECT_NEAR(wide.high - wide.low,
              (narrow.high - narrow.low) * degraded_opts.degraded_ci_inflation,
              (narrow.high - narrow.low) * 1e-9);
}

TEST_F(GovernedExecutorTest, MalformedSqlIsNotDegraded) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;  // Even with an expired deadline...
  GovernedExecutor exec(&catalog_, &samples_, opts);
  // ...a parse error must surface as a parse error, not a degraded answer.
  Result<core::ApproxResult> r = exec.Execute("SELEC nonsense FROM nowhere");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedExecutorTest, GenerousLimitsStayOnRungZero) {
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 60 * 1000;
  opts.memory_budget_bytes = uint64_t{1} << 30;
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 0);
  EXPECT_GT(r.profile.memory_peak_bytes, 0u);  // Accounting actually ran.
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
}

TEST_F(GovernedExecutorTest, RetryRecoversTransientFaultOnRungZero) {
  // With faults on the scan site only and a generous retry budget, some
  // seed must show rung 0 surviving THROUGH retries: the answer is
  // undegraded and the profile records the backoff it paid.
  GovernedOptions opts = Options();
  opts.retry.max_attempts = 8;
  opts.retry.base_backoff_ms = 1;
  opts.retry.max_backoff_ms = 4;
  int recovered = 0;
  for (uint64_t seed = 1; seed <= 20 && recovered == 0; ++seed) {
    ScopedFaultInjection arm(seed, 0.3, {"engine.scan"});
    GovernedExecutor exec(&catalog_, &samples_, opts);
    Result<core::ApproxResult> r = exec.Execute(kSumQuery);
    if (!r.ok()) continue;
    if (r->profile.degradation_rung == 0 && r->profile.retry_count > 0) {
      EXPECT_GT(r->profile.retry_wait_seconds, 0.0);
      ExpectValidCi(*r);
      ++recovered;
    }
  }
  EXPECT_GT(recovered, 0) << "no seed in 1..20 exercised retry recovery";
}

TEST_F(GovernedExecutorTest, RetryAccountingIsDeterministicPerSeed) {
  GovernedOptions opts = Options();
  opts.retry.max_attempts = 6;
  opts.retry.base_backoff_ms = 1;
  opts.retry.max_backoff_ms = 4;
  auto run = [&]() -> std::pair<uint64_t, int> {
    ScopedFaultInjection arm(17, 0.4, {"engine.scan"});
    GovernedExecutor exec(&catalog_, &samples_, opts);
    Result<core::ApproxResult> r = exec.Execute(kSumQuery);
    if (!r.ok()) return {~uint64_t{0}, -1};
    return {r->profile.retry_count, r->profile.degradation_rung};
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);  // Same seed: same retries, same rung, bit for bit.
}

TEST_F(GovernedExecutorTest, RetryDisabledFailsStraightDownTheLadder) {
  GovernedOptions opts = Options();
  opts.retry.max_attempts = 0;
  ScopedFaultInjection arm(17, 0.4, {"engine.scan"});
  GovernedExecutor exec(&catalog_, &samples_, opts);
  Result<core::ApproxResult> r = exec.Execute(kSumQuery);
  if (r.ok()) {
    EXPECT_EQ(r->profile.retry_count, 0u);
    EXPECT_DOUBLE_EQ(r->profile.retry_wait_seconds, 0.0);
  }
}

TEST_F(GovernedExecutorTest, RetryNeverSpendsMoreThanTheDeadline) {
  // Backoffs larger than the remaining deadline are skipped entirely: with
  // a 10-second base backoff and a 100 ms deadline, the whole query must
  // conclude in far less time than one backoff.
  GovernedOptions opts = Options();
  opts.deadline_ms = 100;
  opts.retry.max_attempts = 4;
  opts.retry.base_backoff_ms = 10000;
  ScopedFaultInjection arm(5, 1.0, {"engine.scan"});
  GovernedExecutor exec(&catalog_, &samples_, opts);
  auto start = std::chrono::steady_clock::now();
  Result<core::ApproxResult> r = exec.Execute(kSumQuery);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 5.0) << "retry slept past the deadline budget";
  // Every rung's scan fails at p=1.0, so the ladder concludes exhausted —
  // without having paid a single 10 s backoff.
  if (r.ok()) {
    EXPECT_EQ(r->profile.retry_count, 0u);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

/// Scripted gate: denies exactly the configured rungs, records every call.
class FakeGate : public RungGate {
 public:
  explicit FakeGate(std::vector<int> denied) : denied_(std::move(denied)) {}
  Decision Allow(const std::string& table, int rung) override {
    tables_seen.push_back(table);
    allow_calls.push_back(rung);
    for (int d : denied_) {
      if (d == rung) return {false, 250};
    }
    return {};
  }
  void RecordOutcome(const std::string& table, int rung, bool ok) override {
    (void)table;
    outcomes.emplace_back(rung, ok);
  }

  std::vector<std::string> tables_seen;
  std::vector<int> allow_calls;
  std::vector<std::pair<int, bool>> outcomes;

 private:
  std::vector<int> denied_;
};

TEST_F(GovernedExecutorTest, GateDeniedRungZeroDescendsTheLadder) {
  ScopedFaultInjection quiet;
  FakeGate gate({0});
  GovernedOptions opts = Options();
  opts.rung_gate = &gate;
  opts.gate_table = "lineitem";
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 1);
  EXPECT_NE(r.profile.degraded_reason.find("circuit open"), std::string::npos);
  ASSERT_FALSE(gate.tables_seen.empty());
  EXPECT_EQ(gate.tables_seen[0], "lineitem");
  // The denied rung was never attempted, so no outcome may be reported for
  // it — a denial feeding back as a failure would self-sustain the trip.
  for (const auto& [rung, ok] : gate.outcomes) {
    EXPECT_NE(rung, 0);
  }
}

TEST_F(GovernedExecutorTest, AllRungsDeniedFastFailsWithRetryAfterHint) {
  ScopedFaultInjection quiet;
  FakeGate gate({0, 1, 2});
  GovernedOptions opts = Options();
  opts.rung_gate = &gate;
  opts.gate_table = "lineitem";
  GovernedExecutor exec(&catalog_, &samples_, opts);
  Result<core::ApproxResult> r = exec.Execute(kSumQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsLadderExhausted(r.status()));
  EXPECT_NE(r.status().message().find("(retry_after_ms="), std::string::npos);
  EXPECT_TRUE(gate.outcomes.empty());  // Nothing ran, nothing reported.
}

TEST_F(GovernedExecutorTest, SuccessfulRungZeroReportsOkToGate) {
  ScopedFaultInjection quiet;
  FakeGate gate({});
  GovernedOptions opts = Options();
  opts.rung_gate = &gate;
  opts.gate_table = "lineitem";
  GovernedExecutor exec(&catalog_, &samples_, opts);
  core::ApproxResult r = exec.Execute(kSumQuery).value();
  EXPECT_EQ(r.profile.degradation_rung, 0);
  ASSERT_FALSE(gate.outcomes.empty());
  EXPECT_EQ(gate.outcomes[0], (std::pair<int, bool>{0, true}));
}

TEST_F(GovernedExecutorTest, IsLadderExhaustedMatchesOnlyTheLadderStatus) {
  EXPECT_FALSE(IsLadderExhausted(Status::OK()));
  EXPECT_FALSE(IsLadderExhausted(Status::ResourceExhausted("queue full")));
  EXPECT_FALSE(IsLadderExhausted(Status::Internal(
      "no rung of the degradation ladder could answer: x")));
  EXPECT_TRUE(IsLadderExhausted(Status::ResourceExhausted(
      "no rung of the degradation ladder could answer: x")));
}

TEST(RetryOptionsTest, FromEnvOverlays) {
  setenv("AQP_RETRY_MAX", "5", 1);
  setenv("AQP_RETRY_BASE_MS", "20", 1);
  setenv("AQP_RETRY_MULTIPLIER", "3.0", 1);
  setenv("AQP_RETRY_MAX_BACKOFF_MS", "900", 1);
  RetryOptions o = RetryOptions::FromEnv(RetryOptions());
  EXPECT_EQ(o.max_attempts, 5);
  EXPECT_EQ(o.base_backoff_ms, 20);
  EXPECT_DOUBLE_EQ(o.backoff_multiplier, 3.0);
  EXPECT_EQ(o.max_backoff_ms, 900);
  unsetenv("AQP_RETRY_MAX");
  unsetenv("AQP_RETRY_BASE_MS");
  unsetenv("AQP_RETRY_MULTIPLIER");
  unsetenv("AQP_RETRY_MAX_BACKOFF_MS");
}

}  // namespace
}  // namespace gov
}  // namespace aqp
