#include "core/approx_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/memory_tracker.h"
#include "core/contract.h"
#include "core/estimate.h"
#include "core/result_assembly.h"
#include "core/rewriter.h"
#include "obs/metrics.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"

namespace aqp {
namespace core {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Moves the sample's columns into a table that carries the design columns
// kUnitColumn / kWeightColumn after them. `sample->table` is left hollow
// until AdoptStageOutput refills it.
Result<Table> WithDesignColumns(Sample* sample) {
  Schema schema = sample->table.schema();
  schema.AddField({kUnitColumn, DataType::kInt64});
  schema.AddField({kWeightColumn, DataType::kDouble});
  const size_t rows = sample->num_rows();
  std::vector<Column> cols;
  cols.reserve(schema.num_fields());
  for (size_t c = 0; c < sample->table.num_columns(); ++c) {
    cols.push_back(std::move(sample->table.mutable_column(c)));
  }
  Column unit(DataType::kInt64);
  Column weight(DataType::kDouble);
  unit.Reserve(rows);
  weight.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    unit.AppendInt64(static_cast<int64_t>(sample->unit_ids[i]));
    weight.AppendDouble(sample->weights[i]);
  }
  cols.push_back(std::move(unit));
  cols.push_back(std::move(weight));
  return Table::Make(std::move(schema), std::move(cols));
}

// Makes the stage plan's output, which carries the design columns, the rows
// of `sample`; the design metadata (unit sizes and counts, rates) stays.
Status AdoptStageOutput(Table output, Sample* sample) {
  AQP_ASSIGN_OR_RETURN(size_t unit_col, output.ColumnIndex(kUnitColumn));
  AQP_ASSIGN_OR_RETURN(size_t weight_col, output.ColumnIndex(kWeightColumn));
  sample->unit_ids.resize(output.num_rows());
  sample->weights.resize(output.num_rows());
  for (size_t i = 0; i < output.num_rows(); ++i) {
    sample->unit_ids[i] =
        static_cast<uint32_t>(output.column(unit_col).Int64At(i));
    sample->weights[i] = output.column(weight_col).DoubleAt(i);
  }
  sample->table = std::move(output);
  return Status::OK();
}

}  // namespace

double MaxRelativeCiHalfWidth(
    const std::vector<std::vector<stats::ConfidenceInterval>>& cis) {
  double worst = 0.0;
  for (const auto& row : cis) {
    for (const stats::ConfidenceInterval& ci : row) {
      double r = ci.relative_half_width();
      if (std::isfinite(r)) worst = std::max(worst, r);
    }
  }
  return worst;
}

Result<ApproxResult> PrepareAndRun(
    std::string_view sql, const Catalog& catalog,
    obs::QueryTrace* parent_trace,
    const std::function<Result<ApproxResult>(const sql::PreparedQuery&,
                                             obs::QueryTrace*)>& run) {
  std::optional<obs::QueryTrace> own;
  if (parent_trace == nullptr && obs::Enabled()) own.emplace();
  obs::QueryTrace* trace = own.has_value() ? &*own : parent_trace;
  AQP_ASSIGN_OR_RETURN(sql::PreparedQuery query,
                       sql::PrepareAndBind(sql, catalog, trace));
  Result<ApproxResult> result = run(query, trace);
  if (result.ok() && own.has_value()) {
    own->Finish();
    result.value().profile.trace = std::move(*own);
  }
  return result;
}

ApproxExecutor::ApproxExecutor(const Catalog* catalog, AqpOptions options)
    : catalog_(catalog), options_(options) {
  AQP_CHECK(catalog != nullptr);
}

Result<ApproxResult> ApproxExecutor::Execute(std::string_view sql,
                                             obs::QueryTrace* parent_trace) {
  return PrepareAndRun(sql, *catalog_, parent_trace,
                       [this](const sql::PreparedQuery& query,
                              obs::QueryTrace* trace) {
                         return Execute(query, trace);
                       });
}

Result<ApproxResult> ApproxExecutor::Execute(const sql::PreparedQuery& query,
                                             obs::QueryTrace* trace) {
  AQP_CHECK(query.bound.has_value());
  const sql::SelectStmt& stmt = query.stmt;
  const sql::BoundQuery& bound = *query.bound;
  ++invocation_;
  const Clock::time_point start = Clock::now();
  const bool instrumented = obs::Enabled();

  ApproxResult result;
  obs::ExecutionProfile& prof = result.profile;
  prof.query = query.text;
  prof.executor = "online-two-stage";
  if (stmt.error_spec.has_value()) {
    obs::ContractReport contract;
    contract.requested_error = stmt.error_spec->relative_error;
    contract.requested_confidence = stmt.error_spec->confidence;
    prof.contract = contract;
  }

  // Mirrors the scalar result fields into the profile and records the
  // query-level metrics; every exit path funnels through here.
  auto finish = [&]() {
    prof.approximated = result.approximated;
    prof.fallback_reason = result.fallback_reason;
    prof.sampled_table = result.sampled_table;
    prof.sampled_fraction = result.approximated ? result.final_rate : 1.0;
    prof.rows_scanned = result.exec_stats.rows_scanned;
    prof.blocks_read = result.exec_stats.blocks_read;
    prof.rows_joined = result.exec_stats.rows_joined;
    prof.pilot_seconds = result.pilot_seconds;
    prof.planning_seconds = result.planning_seconds;
    prof.final_seconds = result.final_seconds;
    prof.total_seconds = Seconds(start);
    if (result.exec_stats.parallel.morsels > 0) {
      obs::ParallelReport par;
      par.num_threads = options_.exec.ResolvedThreads();
      par.morsels = result.exec_stats.parallel.morsels;
      par.steals = result.exec_stats.parallel.steals;
      par.worker_rows = result.exec_stats.parallel.worker_items;
      prof.parallel = std::move(par);
    }
    prof.estimated_error = MaxRelativeCiHalfWidth(result.cis);
    if (prof.contract.has_value()) {
      prof.contract->achieved_error = prof.estimated_error;
    }
    if (instrumented) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      static obs::Counter* queries = reg.GetCounter("aqp_queries_total");
      static obs::Counter* approx =
          reg.GetCounter("aqp_queries_approximated_total");
      static obs::Counter* fallbacks =
          reg.GetCounter("aqp_queries_fallback_total");
      static obs::LatencyHistogram* latency =
          reg.GetHistogram("aqp_query_seconds");
      static obs::LatencyHistogram* pilot_latency =
          reg.GetHistogram("aqp_pilot_seconds");
      queries->Increment();
      (result.approximated ? approx : fallbacks)->Increment();
      latency->Observe(prof.total_seconds);
      if (result.pilot_seconds > 0.0) {
        pilot_latency->Observe(result.pilot_seconds);
      }
    }
  };

  auto fallback = [&](std::string reason) -> Result<ApproxResult> {
    result.approximated = false;
    result.fallback_reason = std::move(reason);
    prof.executor = "exact";
    obs::TraceSpan exact_span = obs::MaybeSpan(trace, "exact-execute");
    AQP_ASSIGN_OR_RETURN(result.table,
                         aqp::Execute(bound.plan, *catalog_,
                                      &result.exec_stats, trace, options_.exec));
    exact_span.End();
    finish();
    return result;
  };

  if (!stmt.error_spec.has_value()) {
    return fallback("no error contract (WITH ERROR clause) given");
  }
  if (!bound.has_aggregates) {
    return fallback("query has no aggregates to approximate");
  }
  std::vector<AggKind> kinds;
  for (const sql::BoundAggregate& agg : bound.aggregates) {
    kinds.push_back(agg.kind);
  }
  if (!ContractCoversAggregates(kinds)) {
    return fallback(
        "non-linear aggregate (MIN/MAX/COUNT DISTINCT/VAR/STDDEV) cannot "
        "carry a sampling error contract");
  }
  if (stmt.having != nullptr) {
    return fallback("HAVING is answered exactly");
  }

  // Pick the largest scanned table above the sampling threshold.
  std::string target_table;
  uint64_t target_rows = 0;
  for (const sql::TableRef& ref : bound.tables) {
    AQP_ASSIGN_OR_RETURN(uint64_t rows, catalog_->Cardinality(ref.table));
    if (rows >= options_.min_table_rows && rows > target_rows) {
      target_rows = rows;
      target_table = ref.table;
    }
  }
  if (target_table.empty()) {
    return fallback("no table is large enough to benefit from sampling");
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                       catalog_->Get(target_table));
  prof.sampling_design =
      options_.method == SampleSpec::Method::kSystemBlock
          ? "system-block(block_size=" + std::to_string(options_.block_size) +
                ")"
          : "bernoulli-row";

  // A stage samples the target once; a second scan of it (a self-join)
  // would need its own design columns and a joint estimator.
  const std::vector<std::string> scanned = ScannedTables(bound.plan);
  if (std::count(scanned.begin(), scanned.end(), target_table) > 1) {
    return fallback("table " + target_table +
                    " is scanned more than once (self-join); a stage samples "
                    "each table once");
  }
  AQP_ASSIGN_OR_RETURN(StagePlan stage_plan,
                       BuildStagePlan(bound.plan, target_table));

  // One stage = sample -> substitute -> run the stage plan -> estimate.
  auto run_stage =
      [&](const char* stage, double rate,
          uint64_t seed) -> Result<std::pair<GroupedEstimates, ExecStats>> {
    // Stage-boundary cancellation point: a deadline that fires between the
    // pilot and the final pass stops the query before the expensive stage.
    AQP_RETURN_IF_ERROR(CheckCancelled(options_.exec.cancel));
    obs::TraceSpan stage_span = obs::MaybeSpan(trace, stage);
    stage_span.AddAttr("rate", rate);
    obs::TraceSpan draw_span = obs::MaybeSpan(trace, "draw-sample");
    Sample sample;
    ParallelRunStats sampler_stats;
    if (options_.method == SampleSpec::Method::kSystemBlock) {
      AQP_ASSIGN_OR_RETURN(sample,
                           BlockSample(*base, rate, options_.block_size, seed,
                                       options_.exec, &sampler_stats));
    } else {
      AQP_ASSIGN_OR_RETURN(sample, BernoulliRowSample(*base, rate, seed,
                                                      options_.exec,
                                                      &sampler_stats));
    }
    draw_span.AddAttr("rows", static_cast<uint64_t>(sample.num_rows()));
    draw_span.AddAttr("units", static_cast<uint64_t>(sample.num_units_sampled));
    // The draw's gather is the stage's morselized row movement (the
    // vectorized engine path defers everything else zero-copy), so its
    // parallel attribution lives on this span.
    if (sampler_stats.morsels > 0) {
      draw_span.AddAttr("parallel_morsels", sampler_stats.morsels);
      draw_span.AddAttr("parallel_steals", sampler_stats.steals);
    }
    draw_span.End();
    AQP_ASSIGN_OR_RETURN(Table design_table, WithDesignColumns(&sample));
    // The design-carrying sample is the stage's dominant allocation; charge
    // it against the query budget for the stage's lifetime so a too-small
    // budget trips here rather than in the OS allocator.
    AQP_ASSIGN_OR_RETURN(
        ScopedMemoryCharge stage_charge,
        ScopedMemoryCharge::Make(options_.exec.memory,
                                 design_table.ApproxBytes(), "stage sample"));
    Catalog staged = *catalog_;
    staged.RegisterOrReplace(target_table,
                             std::make_shared<Table>(std::move(design_table)));
    ExecStats stats;
    stats.parallel.MergeFrom(sampler_stats);
    AQP_ASSIGN_OR_RETURN(Table output,
                         aqp::Execute(stage_plan.plan, staged, &stats, trace,
                                      options_.exec));
    obs::TraceSpan estimate_span = obs::MaybeSpan(trace, "estimate");
    AQP_RETURN_IF_ERROR(AdoptStageOutput(std::move(output), &sample));
    AQP_ASSIGN_OR_RETURN(GroupedEstimates estimates,
                         EstimateGroupedAggregates(sample,
                                                   stage_plan.group_exprs,
                                                   stage_plan.aggs));
    estimate_span.AddAttr("groups",
                          static_cast<uint64_t>(estimates.num_groups));
    if (!estimates.units_per_group.empty()) {
      stage_span.AddAttr("min_group_units",
                         *std::min_element(estimates.units_per_group.begin(),
                                           estimates.units_per_group.end()));
    }
    return std::make_pair(std::move(estimates), stats);
  };

  // ---- Stage 1: pilot --------------------------------------------------
  Clock::time_point t0 = Clock::now();
  const uint64_t population_units =
      options_.method == SampleSpec::Method::kSystemBlock
          ? base->NumBlocks(options_.block_size)
          : base->num_rows();
  // Both stages must expect at least min_units units. When that floor alone
  // is above max_rate, no plan can be feasible, so decline before paying
  // for a pilot.
  const double unit_floor =
      population_units > 0
          ? std::min(1.0, static_cast<double>(options_.min_units) /
                              static_cast<double>(population_units))
          : 0.0;
  if (unit_floor > options_.max_rate) {
    return fallback("sampling plan infeasible before the pilot: " +
                    std::to_string(options_.min_units) + " units of " +
                    target_table + " need rate " +
                    std::to_string(unit_floor) + ", above max feasible rate " +
                    std::to_string(options_.max_rate) +
                    "; exact execution is cheaper");
  }
  const double pilot_rate =
      std::max(options_.pilot_rate, std::min(0.5, unit_floor));
  AQP_ASSIGN_OR_RETURN(
      auto pilot,
      run_stage("pilot", pilot_rate, options_.seed + invocation_ * 2));
  result.exec_stats = pilot.second;
  result.pilot_seconds = Seconds(t0);
  prof.pilot_rate = pilot_rate;
  prof.pilot_rows_scanned = pilot.second.rows_scanned;

  // ---- Stage 2: plan -----------------------------------------------------
  Clock::time_point t1 = Clock::now();
  obs::TraceSpan plan_span = obs::MaybeSpan(trace, "plan");
  size_t pilot_groups = std::max<size_t>(pilot.first.num_groups, 1);
  size_t num_estimates = pilot_groups * bound.aggregates.size();
  // Composite items split the error budget across their factors.
  int max_factors = 1;
  for (const sql::SelectItem& item : stmt.items) {
    std::unordered_map<std::string, int> counts;
    CountAggOccurrences(item.expr, &counts);
    int factors = 0;
    for (const auto& [display, c] : counts) factors += c;
    max_factors = std::max(max_factors, factors);
  }
  sql::ErrorSpec spec = *stmt.error_spec;
  PerEstimateTarget target = AllocateContract(spec, num_estimates);
  target.relative_error =
      AllocateCompositeError(target.relative_error, max_factors);

  PlanningInputs inputs;
  inputs.pilot = &pilot.first;
  inputs.pilot_rate = pilot_rate;
  inputs.target = target;
  inputs.max_rate = options_.max_rate;
  inputs.safety_factor = options_.safety_factor;
  inputs.min_units = options_.min_units;
  inputs.population_units = population_units;
  SamplingPlan plan = PlanSamplingRate(inputs);
  result.planning_seconds = Seconds(t1);
  prof.worst_required_rate = plan.worst_required_rate;
  plan_span.AddAttr("estimates", static_cast<uint64_t>(num_estimates));
  plan_span.AddAttr("planned_rate", plan.rate);
  if (!pilot.first.units_per_group.empty()) {
    plan_span.AddAttr("coverage_rate", plan.coverage_rate);
  }
  plan_span.AddAttr("feasible", plan.feasible ? "true" : "false");
  plan_span.End();
  if (!plan.feasible) {
    return fallback("sampling plan infeasible: " + plan.reason);
  }

  // ---- Stage 3: final ----------------------------------------------------
  Clock::time_point t2 = Clock::now();
  AQP_ASSIGN_OR_RETURN(
      auto final_stage,
      run_stage("final", plan.rate, options_.seed + invocation_ * 2 + 1));
  const GroupedEstimates& estimates = final_stage.first;
  result.exec_stats.rows_scanned += final_stage.second.rows_scanned;
  result.exec_stats.blocks_read += final_stage.second.blocks_read;
  result.exec_stats.rows_joined += final_stage.second.rows_joined;
  result.exec_stats.parallel.MergeFrom(final_stage.second.parallel);

  // Materialize the estimates into the exact query's output shape with
  // per-cell confidence intervals.
  obs::TraceSpan assemble_span = obs::MaybeSpan(trace, "assemble");
  AQP_ASSIGN_OR_RETURN(AssembledResult assembled,
                       AssembleOutput(stmt, bound, estimates, *catalog_,
                                      target.confidence));
  assemble_span.End();
  result.table = std::move(assembled.table);
  result.cis = std::move(assembled.cis);

  result.approximated = true;
  result.final_rate = plan.rate;
  result.sampled_table = target_table;
  result.final_seconds = Seconds(t2);
  finish();
  return result;
}

}  // namespace core
}  // namespace aqp
