#ifndef AQP_CORE_SAMPLE_PLANNER_H_
#define AQP_CORE_SAMPLE_PLANNER_H_

#include <string>
#include <vector>

#include "core/contract.h"
#include "core/estimate.h"

namespace aqp {
namespace core {

/// Inputs to rate planning: what the pilot saw, and the design parameters
/// under which the final sample will be drawn.
struct PlanningInputs {
  /// Pilot estimates (per aggregate per group), computed unit-aware from a
  /// pilot sample drawn at `pilot_rate`.
  const GroupedEstimates* pilot = nullptr;
  double pilot_rate = 0.0;
  /// Per-estimate contract target after Boole allocation.
  PerEstimateTarget target;
  /// Planner caps: rates above max_rate are declared infeasible (sampling
  /// overhead makes them slower than exact execution).
  double max_rate = 0.1;
  /// Multiplier on the required rate to absorb pilot-estimate noise.
  double safety_factor = 2.0;
  /// CLT hygiene: the final sample must be expected to contain at least
  /// `min_units` sampling units (the literature's "n >= 30" rule); the rate
  /// is floored at min_units / population_units when population_units > 0.
  uint64_t min_units = 30;
  /// Sampling units in the table (M); also caps the pilot's group spans.
  uint64_t population_units = 0;
};

/// Outcome of rate planning.
struct SamplingPlan {
  bool feasible = false;
  double rate = 1.0;        // Final sampling rate when feasible.
  std::string reason;       // Why infeasible (diagnostic).
  double worst_required_rate = 0.0;  // Before capping, for diagnostics.
  /// Largest group-coverage requirement (0 without GROUP BY).
  double coverage_rate = 0.0;
};

/// Chooses the smallest Bernoulli unit-sampling rate that makes every
/// (aggregate, group) estimate meet the per-estimate target, by inverting
/// the HT variance law:
///
///   Var_r(T_hat) ~ ((1 - r) / r) * S2,  with S2 estimated from the pilot as
///   S2_hat = (pilot_rate) * sum of w_u(w_u-1) y_u^2-style terms — i.e. the
///   pilot's variance estimate rescaled from pilot_rate to rate r:
///   Var_r = Var_pilot * ((1-r)/r) / ((1-p)/p).
///
/// Requiring z^2 * Var_r <= (eps * |T|)^2 and solving for r gives the
/// per-estimate required rate; the plan takes the max over estimates, then
/// applies the safety factor and the min_units floor. Estimates with
/// |T| == 0 (empty pilot groups) are skipped.
///
/// Group coverage (GROUP BY pilots, which carry `units_per_group`): a group
/// seen in b_g pilot units may span few table units even when b_g * M / m
/// is large, so the plan uses a lower confidence bound on its span
/// (stats::UnitSpanLowerBound at level delta/2, delta = 1 -
/// target.confidence, the failure share each estimate already has) and
/// raises the rate until a sample misses that many units with probability
/// at most delta/2. A group the pilot saw is thus missed with probability
/// at most delta. A group seen in one or two pilot units bounds its span
/// near b_g and so asks for a rate near 1: it declines. Then a rate above
/// max_rate is infeasible; the reason names coverage when coverage set the
/// rate. Groups the pilot never saw cannot be measured: a clustered
/// layout's rare groups belong to synopses or to exact execution.
SamplingPlan PlanSamplingRate(const PlanningInputs& inputs);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_SAMPLE_PLANNER_H_
