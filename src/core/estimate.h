#ifndef AQP_CORE_ESTIMATE_H_
#define AQP_CORE_ESTIMATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/aggregate.h"
#include "sampling/ht_estimator.h"
#include "sampling/sample.h"

namespace aqp {
namespace core {

/// Per-group, per-aggregate point estimates with estimator variances,
/// computed unit-aware (blocks stay blocks) from a design-carrying Sample.
struct GroupedEstimates {
  Table group_keys;  // One row per group; empty schema for global queries.
  /// estimates[a][g]: aggregate a of group g.
  std::vector<std::vector<PointEstimate>> estimates;
  size_t num_groups = 0;
  /// units_per_group[g]: how many sampled units hold any row of group g
  /// (b_g). Filled for GROUP BY estimates only; empty for a global query.
  std::vector<uint64_t> units_per_group;
};

/// Estimates each (linear) aggregate per group over the sampled population.
/// Aggregates must be SUM / COUNT / COUNT(*) / AVG; group_exprs may be empty
/// (one global group, present even if the sample is empty).
///
/// This is the estimation core of the approximate executor: the Sample's
/// rows are the query's aggregate input (already filtered/joined), its
/// weights and unit ids carry the design, and the group totals per sampling
/// unit drive Horvitz–Thompson totals and linearized AVG ratios exactly as
/// in sampling/ht_estimator.h, but for many groups at once.
Result<GroupedEstimates> EstimateGroupedAggregates(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_ESTIMATE_H_
