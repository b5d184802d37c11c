#include "stats/bounds.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/distributions.h"

namespace aqp {
namespace stats {

uint64_t HoeffdingSampleSize(double range_low, double range_high,
                             double epsilon, double delta) {
  AQP_CHECK(range_high > range_low);
  AQP_CHECK(epsilon > 0.0);
  AQP_CHECK(delta > 0.0 && delta < 1.0);
  double range = range_high - range_low;
  double n = range * range * std::log(2.0 / delta) / (2.0 * epsilon * epsilon);
  return static_cast<uint64_t>(std::ceil(n));
}

double HoeffdingEpsilon(double range_low, double range_high, uint64_t n,
                        double delta) {
  AQP_CHECK(range_high > range_low);
  AQP_CHECK(n > 0);
  AQP_CHECK(delta > 0.0 && delta < 1.0);
  double range = range_high - range_low;
  return range * std::sqrt(std::log(2.0 / delta) /
                           (2.0 * static_cast<double>(n)));
}

double ChernoffUpperTail(uint64_t n, double p, double delta) {
  AQP_CHECK(p > 0.0 && p <= 1.0);
  AQP_CHECK(delta > 0.0 && delta <= 1.0);
  return std::exp(-static_cast<double>(n) * p * delta * delta / 3.0);
}

double GroupMissProbability(uint64_t group_size, double rate) {
  AQP_CHECK(rate >= 0.0 && rate <= 1.0);
  if (rate >= 1.0) return 0.0;
  return std::pow(1.0 - rate, static_cast<double>(group_size));
}

double RateForGroupCoverage(uint64_t group_size, double delta) {
  AQP_CHECK(group_size > 0);
  AQP_CHECK(delta > 0.0 && delta < 1.0);
  // (1-p)^m <= delta  <=>  p >= 1 - delta^(1/m).
  double p = 1.0 - std::pow(delta, 1.0 / static_cast<double>(group_size));
  return std::min(1.0, std::max(0.0, p));
}

uint64_t UnitSpanLowerBound(uint64_t seen, double rate, uint64_t population,
                            double alpha) {
  AQP_CHECK(seen > 0 && seen <= population);
  AQP_CHECK(rate > 0.0 && rate < 1.0);
  AQP_CHECK(alpha > 0.0 && alpha < 1.0);
  // P(Binomial(B, rate) >= seen) = I_rate(seen, B - seen + 1), increasing
  // in B: bisect for the smallest B whose tail exceeds alpha.
  const double a = static_cast<double>(seen);
  auto tail = [&](uint64_t b) {
    return RegularizedBeta(rate, a, static_cast<double>(b - seen + 1));
  };
  uint64_t lo = seen;
  uint64_t hi = population;
  if (tail(hi) <= alpha) return population;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (tail(mid) > alpha) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace stats
}  // namespace aqp
