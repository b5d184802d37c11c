#ifndef AQP_CORE_REWRITER_H_
#define AQP_CORE_REWRITER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/plan.h"

namespace aqp {
namespace core {

/// Plan rewrites for query-time (online) sampling, in the spirit of Quickr's
/// sampler placement: samplers commute with selection and project, and may
/// be pushed through the fact side of an FK join — which is why sampling the
/// *scanned table* is statistically equivalent to sampling the aggregate's
/// input, while being enormously cheaper.

/// Returns a copy of `plan` with ALL sampling annotations removed: a stage
/// plan's starting point, since the stage draws its own sample.
PlanPtr StripSamples(const PlanPtr& plan);

/// Names of all tables scanned by the plan, in scan order.
std::vector<std::string> ScannedTables(const PlanPtr& plan);

/// The sample-design columns a staged sample table carries after its own
/// columns: the sampling-unit id (INT64) and the HT weight (DOUBLE) per row.
inline constexpr char kUnitColumn[] = "__unit";
inline constexpr char kWeightColumn[] = "__weight";

/// The pre-aggregation plan one online-sampling stage runs, plus the
/// aggregation the estimator applies to its output.
struct StagePlan {
  /// The input of the bound plan's Aggregate node, sampling annotations
  /// stripped, with the sampled table's scan projection passing
  /// kUnitColumn / kWeightColumn through, topped by one Project that
  /// outputs the group keys ("__g<i>"), each aggregate's argument
  /// ("__arg<a>"; none for COUNT(*)), and the two design columns.
  PlanPtr plan;
  /// Group keys over `plan`'s output: Col("__g<i>").
  std::vector<ExprPtr> group_exprs;
  /// The Aggregate node's aggregates, arguments rebound to "__arg<a>".
  std::vector<AggSpec> aggs;
};

/// Builds the stage plan of a bound aggregation plan for sampling `table`.
/// The result runs against a catalog in which `table` is replaced by a
/// sample carrying the design columns. `table` must be scanned exactly once,
/// through the projection the binder puts over every scan; InvalidArgument
/// when the plan has no Aggregate node or no such scan.
Result<StagePlan> BuildStagePlan(const PlanPtr& plan, const std::string& table);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_REWRITER_H_
