#include "core/sample_planner.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "sampling/bernoulli.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

GroupedEstimates PilotFrom(const Table& t, double rate, uint64_t seed) {
  Sample s = BernoulliRowSample(t, rate, seed).value();
  return EstimateGroupedAggregates(s, {}, {{AggKind::kSum, Col("x"), "s"}})
      .value();
}

TEST(PlannerTest, LooseTargetGivesLowRate) {
  Table t = testutil::ZipfGroupedTable(50000, 10, 0.3, 3);
  GroupedEstimates pilot = PilotFrom(t, 0.01, 5);
  PlanningInputs inputs;
  inputs.pilot = &pilot;
  inputs.pilot_rate = 0.01;
  inputs.target = {0.10, 0.95};
  SamplingPlan plan = PlanSamplingRate(inputs);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_LT(plan.rate, 0.05);
}

TEST(PlannerTest, TighterErrorNeedsHigherRate) {
  Table t = testutil::ZipfGroupedTable(50000, 10, 0.3, 3);
  GroupedEstimates pilot = PilotFrom(t, 0.01, 5);
  PlanningInputs loose;
  loose.pilot = &pilot;
  loose.pilot_rate = 0.01;
  loose.target = {0.10, 0.95};
  loose.max_rate = 1.0;
  PlanningInputs tight = loose;
  tight.target = {0.005, 0.95};
  double loose_rate = PlanSamplingRate(loose).rate;
  double tight_rate = PlanSamplingRate(tight).rate;
  EXPECT_GT(tight_rate, loose_rate);
}

TEST(PlannerTest, HigherConfidenceNeedsHigherRate) {
  Table t = testutil::ZipfGroupedTable(50000, 10, 0.3, 3);
  GroupedEstimates pilot = PilotFrom(t, 0.01, 5);
  PlanningInputs low;
  low.pilot = &pilot;
  low.pilot_rate = 0.01;
  low.target = {0.02, 0.80};
  low.max_rate = 1.0;
  PlanningInputs high = low;
  high.target = {0.02, 0.999};
  EXPECT_GT(PlanSamplingRate(high).rate, PlanSamplingRate(low).rate);
}

TEST(PlannerTest, InfeasibleWhenRateExceedsCap) {
  Table t = testutil::ZipfGroupedTable(2000, 10, 0.3, 3);
  GroupedEstimates pilot = PilotFrom(t, 0.05, 5);
  PlanningInputs inputs;
  inputs.pilot = &pilot;
  inputs.pilot_rate = 0.05;
  inputs.target = {0.0005, 0.99};  // Absurdly tight for 2k rows.
  inputs.max_rate = 0.1;
  SamplingPlan plan = PlanSamplingRate(inputs);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("exceeds max feasible rate"), std::string::npos);
}

TEST(PlannerTest, AllZeroPilotIsInfeasible) {
  Table t = testutil::DoubleTable(std::vector<double>(1000, 0.0));
  GroupedEstimates pilot = PilotFrom(t, 0.1, 5);
  PlanningInputs inputs;
  inputs.pilot = &pilot;
  inputs.pilot_rate = 0.1;
  inputs.target = {0.05, 0.95};
  SamplingPlan plan = PlanSamplingRate(inputs);
  EXPECT_FALSE(plan.feasible);
}

TEST(PlannerTest, SafetyFactorScalesRate) {
  Table t = testutil::ZipfGroupedTable(50000, 10, 0.3, 3);
  GroupedEstimates pilot = PilotFrom(t, 0.01, 5);
  PlanningInputs base;
  base.pilot = &pilot;
  base.pilot_rate = 0.01;
  base.target = {0.05, 0.95};
  base.max_rate = 1.0;
  base.safety_factor = 1.0;
  PlanningInputs padded = base;
  padded.safety_factor = 3.0;
  double r1 = PlanSamplingRate(base).rate;
  double r3 = PlanSamplingRate(padded).rate;
  EXPECT_NEAR(r3, std::min(1.0, r1 * 3.0), r1 * 0.01);
}

// A GROUP BY pilot of m units over a table of M units, with two groups
// whose estimates are tight enough that only the CLT floor and the
// coverage term can set the rate: the common group sits in every pilot
// unit, the rare one in `rare_units` of them.
PlanningInputs CoverageInputs(GroupedEstimates* pilot, uint64_t m,
                              uint64_t rare_units, uint64_t big_m) {
  PointEstimate pe;
  pe.estimate = 1000.0;
  pe.variance = 1e-6;
  pe.df = m - 1;
  pilot->num_groups = 2;
  pilot->estimates = {{pe, pe}};
  pilot->units_per_group = {m, rare_units};
  PlanningInputs inputs;
  inputs.pilot = pilot;
  inputs.pilot_rate = static_cast<double>(m) / static_cast<double>(big_m);
  inputs.target = {0.05, 0.95};
  inputs.max_rate = 0.1;
  inputs.population_units = big_m;
  return inputs;
}

// The smallest span B with P(Binomial(B, p) >= seen) > alpha, by summing
// the binomial terms directly.
uint64_t SpanLowerBoundBySum(uint64_t seen, double p, double alpha) {
  for (uint64_t span = seen;; ++span) {
    double below = 0.0;  // P(Binomial(span, p) < seen).
    double term = std::pow(1.0 - p, static_cast<double>(span));
    for (uint64_t k = 0; k < seen; ++k) {
      below += term;
      term *= static_cast<double>(span - k) / static_cast<double>(k + 1) * p /
              (1.0 - p);
    }
    if (1.0 - below > alpha) return span;
  }
}

TEST(PlannerTest, GroupSeenInFewPilotUnitsRaisesRate) {
  GroupedEstimates pilot;
  PlanningInputs inputs = CoverageInputs(&pilot, 30, 5, 1000);
  SamplingPlan plan = PlanSamplingRate(inputs);
  // delta = 0.05 splits into 0.025 for the span bound and 0.025 for the
  // miss: (1 - r)^span <= 0.025. Five of 30 pilot units bound the span at
  // 56 units, where b_g * M / m would claim 167.
  const uint64_t span = SpanLowerBoundBySum(5, 0.03, 0.025);
  EXPECT_EQ(span, 56u);
  const double expected = 1.0 - std::pow(0.025, 1.0 / span);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_NEAR(plan.coverage_rate, expected, 1e-12);
  EXPECT_EQ(plan.rate, plan.coverage_rate);
  EXPECT_GT(plan.rate, 30.0 / 1000.0);  // Above the CLT floor.
}

TEST(PlannerTest, GroupSeenInOnePilotUnitIsInfeasible) {
  GroupedEstimates pilot;
  PlanningInputs inputs = CoverageInputs(&pilot, 30, 1, 1000);
  SamplingPlan plan = PlanSamplingRate(inputs);
  // One pilot unit cannot rule out a group packed into one table unit.
  EXPECT_NEAR(plan.coverage_rate, 0.975, 1e-12);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("group coverage (a group seen in 1 pilot unit(s))"),
            std::string::npos)
      << plan.reason;
  EXPECT_NE(plan.reason.find("exceeds max feasible rate"), std::string::npos)
      << plan.reason;
}

TEST(PlannerTest, GroupInEveryPilotUnitNeverBinds) {
  GroupedEstimates pilot;
  PlanningInputs inputs = CoverageInputs(&pilot, 30, 30, 1000);
  SamplingPlan with_coverage = PlanSamplingRate(inputs);
  GroupedEstimates global = pilot;
  global.units_per_group.clear();
  inputs.pilot = &global;
  SamplingPlan without = PlanSamplingRate(inputs);
  ASSERT_TRUE(with_coverage.feasible) << with_coverage.reason;
  EXPECT_LT(with_coverage.coverage_rate, with_coverage.rate);
  EXPECT_EQ(with_coverage.rate, without.rate);
  EXPECT_EQ(without.coverage_rate, 0.0);
}

// End-to-end planner validity: plan a rate for a 5% error target, then
// verify empirically that the achieved error at that rate stays within
// target for the vast majority of runs.
TEST(PlannerTest, PlannedRateAchievesTargetError) {
  Table t = testutil::ZipfGroupedTable(60000, 10, 0.5, 11);
  double truth = testutil::ExactSum(t, "x");
  GroupedEstimates pilot = PilotFrom(t, 0.01, 21);
  PlanningInputs inputs;
  inputs.pilot = &pilot;
  inputs.pilot_rate = 0.01;
  inputs.target = {0.05, 0.95};
  inputs.max_rate = 1.0;
  SamplingPlan plan = PlanSamplingRate(inputs);
  ASSERT_TRUE(plan.feasible) << plan.reason;
  int within = 0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BernoulliRowSample(t, plan.rate, 500 + trial).value();
    GroupedEstimates est =
        EstimateGroupedAggregates(s, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value();
    double rel =
        std::fabs(est.estimates[0][0].estimate - truth) / std::fabs(truth);
    if (rel <= 0.05) ++within;
  }
  EXPECT_GE(within, static_cast<int>(kTrials * 0.93));
}

}  // namespace
}  // namespace core
}  // namespace aqp
