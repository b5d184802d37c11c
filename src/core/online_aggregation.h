#ifndef AQP_CORE_ONLINE_AGGREGATION_H_
#define AQP_CORE_ONLINE_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/result.h"
#include "engine/exec_options.h"
#include "expr/expr.h"
#include "obs/profile.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "storage/table.h"

namespace aqp {
namespace core {

/// Progressive snapshot after a chunk of rows has been consumed.
struct OlaProgress {
  uint64_t rows_seen = 0;
  double fraction = 0.0;  // rows_seen / table rows.
  stats::ConfidenceInterval sum_ci;
  stats::ConfidenceInterval avg_ci;
  stats::ConfidenceInterval count_ci;  // Qualifying-row count.
  bool complete = false;               // Entire table consumed: exact result.
};

/// Online aggregation (Hellerstein, Haas, Wang 1997): consume the table in a
/// random order and keep refreshing running estimates with shrinking
/// confidence intervals. The caller — or an interactive UI — may stop as
/// soon as the interval is tight enough. Intervals use the finite-population
/// correction, so they collapse to zero width at 100%.
///
/// The paper's caveat applies and is part of the contract here: intervals
/// are valid *pointwise*; stopping the first time a monitored interval looks
/// good ("peeking") consumes more than the nominal error budget.
class OnlineAggregator {
 public:
  /// Aggregates `measure` over rows of `table` matching `predicate`
  /// (nullptr = all rows). The random consumption order is fixed by `seed`.
  /// `exec` controls morsel-parallel setup and stepping; the consumption
  /// order, every estimate, and every interval are identical for every
  /// thread count (epoch semantics below).
  static Result<OnlineAggregator> Create(const Table& table, ExprPtr measure,
                                         ExprPtr predicate, uint64_t seed,
                                         ExecOptions exec = {});

  /// Consumes up to `chunk_rows` more rows and returns the refreshed
  /// estimates at the given confidence. Each Step is one epoch: the chunk is
  /// folded morsel-parallel into per-morsel partial accumulators, which
  /// merge in morsel order into the shared running accumulator once, at the
  /// epoch boundary. Estimates therefore refresh per epoch (never
  /// mid-chunk), and the CI half-width tightens monotonically in expectation
  /// as epochs consume more rows — collapsing to zero at 100% via the
  /// finite-population correction.
  OlaProgress Step(size_t chunk_rows, double confidence);

  /// Steps until the SUM interval's relative half-width drops to
  /// `target_relative_error` (or the table is exhausted).
  OlaProgress RunToTarget(double target_relative_error, double confidence,
                          size_t chunk_rows);

  bool done() const { return consumed_ >= order_.size(); }
  uint64_t rows_seen() const { return consumed_; }
  uint64_t steps() const { return steps_; }

  /// Snapshot of what the aggregator has done so far: setup span (measure
  /// eval + permutation), rows consumed, steps taken, and the fraction of
  /// the table it cost. Callable mid-stream — OLA's profile is progressive
  /// like its answer.
  obs::ExecutionProfile Profile() const;

 private:
  OnlineAggregator() = default;

  std::vector<uint32_t> order_;       // Random permutation of row indices.
  std::vector<double> values_;        // Measure per row (NaN if null).
  std::vector<uint8_t> qualifies_;    // Predicate mask per row.
  size_t consumed_ = 0;
  uint64_t population_ = 0;
  stats::Accumulator acc_;            // Over qualifying, non-null measures.
  uint64_t qualifying_seen_ = 0;
  uint64_t steps_ = 0;
  ExecOptions exec_;
  // Budget charge for order_/values_/qualifies_; released on destruction.
  ScopedMemoryCharge memory_charge_;
  obs::ExecutionProfile profile_;
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_ONLINE_AGGREGATION_H_
