#ifndef AQP_STATS_BOUNDS_H_
#define AQP_STATS_BOUNDS_H_

#include <cstdint>

namespace aqp {
namespace stats {

/// Hoeffding bound: sample size n such that a mean of i.i.d. observations
/// bounded in [range_low, range_high] deviates from the true mean by more
/// than `epsilon` with probability at most `delta`:
///   n >= (b-a)^2 ln(2/delta) / (2 epsilon^2).
uint64_t HoeffdingSampleSize(double range_low, double range_high,
                             double epsilon, double delta);

/// Hoeffding deviation bound for a fixed sample size: the epsilon such that
/// P(|mean_hat - mean| > epsilon) <= delta.
double HoeffdingEpsilon(double range_low, double range_high, uint64_t n,
                        double delta);

/// Multiplicative Chernoff upper tail for Binomial(n, p):
/// P(X >= (1+delta) n p) <= exp(-n p delta^2 / 3) for delta in (0, 1].
double ChernoffUpperTail(uint64_t n, double p, double delta);

/// Probability that Bernoulli(rate) row sampling misses ALL m rows of a group:
/// (1 - rate)^m.
double GroupMissProbability(uint64_t group_size, double rate);

/// Minimum Bernoulli sampling rate so a group with at least `group_size` rows
/// (or sampling units) is included with probability >= 1 - delta.
double RateForGroupCoverage(uint64_t group_size, double delta);

/// Lower confidence bound on the number of units B that hold a group, when
/// Bernoulli(`rate`) unit sampling drew `seen` > 0 of them from a table of
/// `population` units: the smallest B in [seen, population] with
/// P(Binomial(B, rate) >= seen) > alpha, so P(bound > B) <= alpha. A group
/// seen in few units may span only a few, whatever `seen / rate` suggests.
uint64_t UnitSpanLowerBound(uint64_t seen, double rate, uint64_t population,
                            double alpha);

}  // namespace stats
}  // namespace aqp

#endif  // AQP_STATS_BOUNDS_H_
