#include "core/offline_executor.h"

#include <chrono>
#include <cmath>

#include "common/cancellation.h"
#include "common/check.h"
#include "core/contract.h"
#include "core/result_assembly.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"
#include "obs/metrics.h"

namespace aqp {
namespace core {
namespace {

// Restricts a sample to the rows matching `predicate`, keeping the design
// metadata intact (units that lose all rows simply stop contributing).
// Predicate evaluation and the gather run morsel-parallel when the sample is
// big enough; either way the output is identical to the serial path.
Result<Sample> FilterSample(const Sample& sample, const ExprPtr& predicate,
                            const ExecOptions& exec,
                            ParallelRunStats* run_stats) {
  const bool use_morsels = exec.UseMorsels(sample.table.num_rows());
  const bool vectorized = exec.ResolvedPath() == ExecPath::kVectorized;
  std::vector<uint32_t> selected;
  if (vectorized) {
    // Batch kernels over the sample's column spans; the selection is
    // bit-identical to the scalar evaluators for every thread count.
    AQP_ASSIGN_OR_RETURN(
        selected,
        EvalPredicateBatch(*predicate, sample.table, exec.morsel_rows,
                           use_morsels ? exec.ResolvedThreads() : 1, run_stats,
                           exec.cancel, exec.memory));
  } else if (use_morsels) {
    AQP_ASSIGN_OR_RETURN(
        selected, EvalPredicateMorsel(*predicate, sample.table,
                                      exec.morsel_rows, exec.ResolvedThreads(),
                                      run_stats, exec.cancel));
  } else {
    AQP_ASSIGN_OR_RETURN(selected, EvalPredicate(*predicate, sample.table));
  }
  AQP_RETURN_IF_ERROR(CheckCancelled(exec.cancel));
  Sample out;
  if (vectorized) {
    out.table = use_morsels ? sample.table.TakeBatch(
                                  selected, exec.ResolvedThreads(), run_stats)
                            : sample.table.TakeBatch(selected);
  } else {
    out.table = use_morsels ? sample.table.Take(selected,
                                                exec.ResolvedThreads(),
                                                run_stats)
                            : sample.table.Take(selected);
  }
  out.weights.reserve(selected.size());
  out.unit_ids.reserve(selected.size());
  for (uint32_t i : selected) {
    out.weights.push_back(sample.weights[i]);
    out.unit_ids.push_back(sample.unit_ids[i]);
  }
  out.unit_sizes = sample.unit_sizes;
  out.num_units_sampled = sample.num_units_sampled;
  out.num_units_population = sample.num_units_population;
  out.nominal_rate = sample.nominal_rate;
  out.population_rows = sample.population_rows;
  return out;
}

}  // namespace

OfflineExecutor::OfflineExecutor(const Catalog* catalog,
                                 const SampleCatalog* samples,
                                 ExecOptions exec)
    : catalog_(catalog), samples_(samples), exec_(exec) {
  AQP_CHECK(catalog != nullptr);
  AQP_CHECK(samples != nullptr);
}

Result<ApproxResult> OfflineExecutor::Execute(std::string_view sql,
                                              double confidence,
                                              obs::QueryTrace* parent_trace) {
  return PrepareAndRun(sql, *catalog_, parent_trace,
                       [&](const sql::PreparedQuery& query,
                           obs::QueryTrace* trace) {
                         return Execute(query, confidence, trace);
                       });
}

Result<ApproxResult> OfflineExecutor::Execute(const sql::PreparedQuery& query,
                                              double confidence,
                                              obs::QueryTrace* trace) {
  AQP_CHECK(query.bound.has_value());
  const auto start = std::chrono::steady_clock::now();
  AQP_RETURN_IF_ERROR(CheckCancelled(exec_.cancel));
  const sql::SelectStmt& stmt = query.stmt;
  const sql::BoundQuery& bound = *query.bound;
  const bool instrumented = obs::Enabled();
  ApproxResult result;
  obs::ExecutionProfile& prof = result.profile;
  prof.query = query.text;
  prof.executor = "offline-sample";

  if (!bound.has_aggregates) {
    return Status::Unimplemented("offline AQP answers aggregate queries only");
  }
  if (!stmt.joins.empty()) {
    return Status::Unimplemented(
        "offline AQP over joins needs a join synopsis; fall back");
  }
  if (stmt.having != nullptr) {
    return Status::Unimplemented("HAVING unsupported offline; fall back");
  }
  std::vector<AggKind> kinds;
  for (const sql::BoundAggregate& agg : bound.aggregates) {
    kinds.push_back(agg.kind);
  }
  if (!ContractCoversAggregates(kinds)) {
    return Status::Unimplemented(
        "non-linear aggregates unsupported offline; fall back");
  }

  // Pick the best stored sample: prefer one stratified on the GROUP BY
  // column (sample selection, the BlinkDB step).
  obs::TraceSpan select_span = obs::MaybeSpan(trace, "select-sample");
  AQP_ASSIGN_OR_RETURN(
      const StoredSample* stored,
      samples_->FindBest(stmt.from.table, query.StrataColumn()));
  prof.sampling_design =
      stored->strata_column.empty()
          ? "stored-uniform(budget=" + std::to_string(stored->budget) + ")"
          : "stored-stratified(" + stored->strata_column +
                ", budget=" + std::to_string(stored->budget) + ")";
  select_span.AddAttr("sample_rows",
                      static_cast<uint64_t>(stored->sample.num_rows()));
  select_span.End();

  // Qualify the stored sample's columns to the query's table alias so both
  // qualified and bare references resolve.
  Sample sample = stored->sample;
  {
    std::vector<std::string> names;
    for (const Field& f : sample.table.schema().fields()) {
      names.push_back(stmt.from.qualifier() + "." + sql::BaseName(f.name));
    }
    AQP_RETURN_IF_ERROR(sample.table.RenameColumns(names));
  }

  if (stmt.where != nullptr) {
    obs::TraceSpan filter_span = obs::MaybeSpan(trace, "filter-sample");
    AQP_ASSIGN_OR_RETURN(ExprPtr predicate, sql::LowerSqlExpr(stmt.where));
    AQP_ASSIGN_OR_RETURN(
        sample,
        FilterSample(sample, predicate, exec_, &result.exec_stats.parallel));
    filter_span.AddAttr("rows_out",
                        static_cast<uint64_t>(sample.num_rows()));
  }

  std::vector<ExprPtr> group_exprs;
  for (const sql::SqlExprPtr& g : stmt.group_by) {
    AQP_ASSIGN_OR_RETURN(ExprPtr e, sql::LowerSqlExpr(g));
    group_exprs.push_back(std::move(e));
  }
  std::vector<AggSpec> agg_specs;
  for (const sql::BoundAggregate& agg : bound.aggregates) {
    agg_specs.push_back({agg.kind, agg.arg, agg.internal_alias});
  }
  obs::TraceSpan estimate_span = obs::MaybeSpan(trace, "estimate");
  AQP_ASSIGN_OR_RETURN(GroupedEstimates estimates,
                       EstimateGroupedAggregates(sample, group_exprs,
                                                 agg_specs));
  estimate_span.End();

  obs::TraceSpan assemble_span = obs::MaybeSpan(trace, "assemble");
  AQP_ASSIGN_OR_RETURN(
      AssembledResult assembled,
      AssembleOutput(stmt, bound, estimates, *catalog_, confidence));
  assemble_span.End();
  result.table = std::move(assembled.table);
  result.cis = std::move(assembled.cis);
  result.approximated = true;
  result.sampled_table = stmt.from.table;
  result.final_rate = stored->sample.nominal_rate;

  prof.approximated = true;
  prof.sampled_table = result.sampled_table;
  prof.sampled_fraction = result.final_rate;
  prof.estimated_error = MaxRelativeCiHalfWidth(result.cis);
  // Query-time cost of the offline path: only the stored sample is read.
  prof.rows_scanned = stored->sample.num_rows();
  if (result.exec_stats.parallel.morsels > 0) {
    obs::ParallelReport par;
    par.num_threads = exec_.ResolvedThreads();
    par.morsels = result.exec_stats.parallel.morsels;
    par.steals = result.exec_stats.parallel.steals;
    par.worker_rows = result.exec_stats.parallel.worker_items;
    prof.parallel = std::move(par);
  }
  result.final_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  prof.final_seconds = result.final_seconds;
  prof.total_seconds = result.final_seconds;
  if (instrumented) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Counter* queries = reg.GetCounter("aqp_offline_queries_total");
    static obs::LatencyHistogram* latency =
        reg.GetHistogram("aqp_offline_query_seconds");
    queries->Increment();
    latency->Observe(prof.total_seconds);
  }
  return result;
}

}  // namespace core
}  // namespace aqp
