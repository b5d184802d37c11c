#include "stats/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace aqp {
namespace stats {
namespace {

TEST(HoeffdingTest, SampleSizeMatchesFormula) {
  // n = (b-a)^2 ln(2/delta) / (2 eps^2), with range 1, eps 0.1, delta 0.05:
  // ln(40)/0.02 ~ 184.4 -> 185.
  EXPECT_EQ(HoeffdingSampleSize(0.0, 1.0, 0.1, 0.05), 185u);
}

TEST(HoeffdingTest, EpsilonInvertsSampleSize) {
  uint64_t n = HoeffdingSampleSize(0.0, 1.0, 0.05, 0.01);
  double eps = HoeffdingEpsilon(0.0, 1.0, n, 0.01);
  EXPECT_LE(eps, 0.05 + 1e-4);
  EXPECT_GT(eps, 0.045);
}

TEST(HoeffdingTest, WiderRangeNeedsMoreSamples) {
  EXPECT_GT(HoeffdingSampleSize(0.0, 10.0, 0.1, 0.05),
            HoeffdingSampleSize(0.0, 1.0, 0.1, 0.05));
}

TEST(HoeffdingTest, BoundActuallyHolds) {
  // Empirical check: deviations exceed the Hoeffding epsilon at most delta
  // fraction of the time (the bound is loose, so far fewer in practice).
  Pcg32 rng(33);
  const double kDelta = 0.1;
  const uint64_t kN = 200;
  double eps = HoeffdingEpsilon(0.0, 1.0, kN, kDelta);
  int violations = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    double sum = 0.0;
    for (uint64_t i = 0; i < kN; ++i) sum += rng.NextDouble();
    if (std::fabs(sum / kN - 0.5) > eps) ++violations;
  }
  EXPECT_LE(violations, static_cast<int>(kTrials * kDelta));
}

TEST(ChernoffTest, DecaysWithN) {
  double small = ChernoffUpperTail(100, 0.5, 0.1);
  double large = ChernoffUpperTail(10000, 0.5, 0.1);
  EXPECT_LT(large, small);
  EXPECT_NEAR(small, std::exp(-100 * 0.5 * 0.01 / 3.0), 1e-12);
}

TEST(GroupMissTest, Formula) {
  EXPECT_NEAR(GroupMissProbability(10, 0.1), std::pow(0.9, 10), 1e-12);
  EXPECT_DOUBLE_EQ(GroupMissProbability(5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(GroupMissProbability(5, 0.0), 1.0);
}

TEST(GroupCoverageTest, RateInverts) {
  double rate = RateForGroupCoverage(100, 0.01);
  EXPECT_LE(GroupMissProbability(100, rate), 0.01 + 1e-12);
  // Slightly smaller rate must violate the coverage target.
  EXPECT_GT(GroupMissProbability(100, rate * 0.9), 0.01);
}

TEST(GroupCoverageTest, LargerGroupsNeedLowerRate) {
  EXPECT_GT(RateForGroupCoverage(10, 0.05), RateForGroupCoverage(1000, 0.05));
}

TEST(GroupCoverageTest, EmpiricalCoverage) {
  // Sample rows i.i.d. Bernoulli(rate); a group of size m should be hit with
  // probability >= 1 - delta.
  const uint64_t kGroupSize = 50;
  const double kDelta = 0.05;
  double rate = RateForGroupCoverage(kGroupSize, kDelta);
  Pcg32 rng(44);
  int missed = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    bool hit = false;
    for (uint64_t i = 0; i < kGroupSize && !hit; ++i) {
      hit = rng.Bernoulli(rate);
    }
    if (!hit) ++missed;
  }
  double miss_rate = static_cast<double>(missed) / kTrials;
  EXPECT_LE(miss_rate, kDelta + 0.02);
}


// The bound holds at its level for every true span: summing the binomial
// law of `seen` over the outcomes whose bound exceeds the span gives at
// most alpha.
TEST(UnitSpanLowerBoundTest, CoversAtItsLevel) {
  const double kRate = 0.05;
  const double kAlpha = 0.05;
  const uint64_t kPopulation = 400;
  for (uint64_t span : {1u, 5u, 20u, 60u, 200u, 400u}) {
    double above = 0.0;  // P(bound > span).
    double pmf = std::pow(1.0 - kRate, static_cast<double>(span));
    for (uint64_t seen = 0; seen <= span; ++seen) {
      if (seen > 0 &&
          UnitSpanLowerBound(seen, kRate, kPopulation, kAlpha) > span) {
        above += pmf;
      }
      pmf *= static_cast<double>(span - seen) / static_cast<double>(seen + 1) *
             kRate / (1.0 - kRate);
    }
    EXPECT_LE(above, kAlpha) << "span " << span;
  }
}

TEST(UnitSpanLowerBoundTest, GrowsWithSeenAndStaysInRange) {
  uint64_t last = 0;
  for (uint64_t seen = 1; seen <= 30; ++seen) {
    const uint64_t bound = UnitSpanLowerBound(seen, 0.03, 1000, 0.025);
    EXPECT_GE(bound, seen);
    EXPECT_GT(bound, last);
    last = bound;
  }
  // One unit seen cannot rule out a span of one.
  EXPECT_EQ(UnitSpanLowerBound(1, 0.03, 1000, 0.025), 1u);
  // More units seen than the population makes likely: capped at it.
  EXPECT_EQ(UnitSpanLowerBound(30, 0.03, 40, 0.025), 40u);
}

}  // namespace
}  // namespace stats
}  // namespace aqp
