#ifndef AQP_CORE_APPROX_EXECUTOR_H_
#define AQP_CORE_APPROX_EXECUTOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/sample_planner.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "obs/profile.h"
#include "sql/binder.h"
#include "stats/confidence.h"

namespace aqp {
namespace core {

/// Knobs of the approximate executor.
struct AqpOptions {
  /// Pilot-stage sampling rate, raised to min_units / (units in the table)
  /// so the pilot sees enough units for its variance estimates. A table
  /// whose floor exceeds `max_rate` is answered exactly without a pilot.
  /// GROUP BY queries pilot at the same rate: group coverage is a term of
  /// the plan (sample_planner.h), measured from the pilot's groups.
  double pilot_rate = 0.01;

  /// Sampling method for both stages. Block sampling is the default: it is
  /// what actually skips I/O; the executor's estimators stay valid because
  /// they aggregate per block (unit).
  SampleSpec::Method method = SampleSpec::Method::kSystemBlock;
  uint32_t block_size = kDefaultBlockSize;

  /// Plans above this rate fall back to exact execution (sampling overhead
  /// no longer pays for itself).
  double max_rate = 0.1;
  /// Tables smaller than this are never sampled.
  uint64_t min_table_rows = 5000;
  /// Inflation on the planned rate to absorb pilot noise.
  double safety_factor = 2.0;
  /// Both stages must be expected to draw at least this many sampling units
  /// (blocks for block sampling, rows for row sampling).
  uint64_t min_units = 30;

  uint64_t seed = 42;

  /// Morsel-parallel execution knobs forwarded to the engine and the
  /// samplers for every stage (pilot, final, exact fallback). The default
  /// resolves to all hardware threads; set `exec.num_threads = 1` for
  /// strictly serial execution. Results never depend on the thread count.
  ExecOptions exec;
};

/// Result of an approximate execution. `table` always has the exact query's
/// output shape; when `approximated` is false it IS the exact answer and
/// `fallback_reason` says why sampling was declined.
struct ApproxResult {
  Table table;
  bool approximated = false;
  std::string fallback_reason;

  double final_rate = 1.0;
  std::string sampled_table;

  /// cis[row][item]: confidence interval of each output cell at the
  /// contract's (allocated) confidence; zero-width for group-key items.
  std::vector<std::vector<stats::ConfidenceInterval>> cis;

  /// Latency decomposition (seconds).
  double pilot_seconds = 0.0;
  double planning_seconds = 0.0;
  double final_seconds = 0.0;

  ExecStats exec_stats;

  /// What the executor actually did: sampling design, rates, per-stage span
  /// timings, contract requested vs. achieved. Render with
  /// `profile.ToText()` (EXPLAIN ANALYZE tree) or `profile.ToJson()`.
  /// Span collection is gated on the global observability flag
  /// (`obs::MetricsRegistry::Global().set_enabled(...)` / env `AQP_OBS=0`);
  /// the scalar fields are always filled.
  obs::ExecutionProfile profile;
};

/// Widest finite relative CI half-width across all of `cis`' cells — the
/// error the system can attest a posteriori (0 when every cell is exact).
/// Shared by the contract report, the governed executor's degraded-answer
/// accounting, and the service query log.
double MaxRelativeCiHalfWidth(
    const std::vector<std::vector<stats::ConfidenceInterval>>& cis);

/// The executors' string entry points: prepares `sql` against `catalog` on
/// the trace the run will use, then calls `run(query, trace)` — the
/// prepared path. Without a `parent_trace` (and with observability on) the
/// run traces into a fresh "query" trace, installed into the result's
/// profile, so a standalone profile still shows its parse and bind spans.
/// This is the only place a standalone run's trace is owned.
Result<ApproxResult> PrepareAndRun(
    std::string_view sql, const Catalog& catalog,
    obs::QueryTrace* parent_trace,
    const std::function<Result<ApproxResult>(const sql::PreparedQuery&,
                                             obs::QueryTrace*)>& run);

/// Two-stage online approximate SQL executor with a-priori error contracts:
///
///   1. PILOT: block-sample the largest scanned table at a small rate,
///      execute the query's pre-aggregation pipeline over the sample (the
///      sampling-equivalence rules make this a valid sample of the
///      aggregate's input), and estimate every aggregate with a unit-aware
///      variance.
///   2. PLAN: allocate the user's joint (error, confidence) contract across
///      all estimates (Boole), invert the HT variance law for the smallest
///      sufficient rate, raise it until every group the pilot saw is
///      covered, and decline (exact fallback) when sampling cannot win.
///   3. FINAL: resample at the planned rate, re-estimate, and assemble the
///      original query's output shape with per-cell confidence intervals.
///
/// The executor never modifies the underlying engine: sampling happens via
/// plain table substitution + ordinary query execution, the middleware
/// posture the AQP-adoption literature argues for.
class ApproxExecutor {
 public:
  /// `catalog` must outlive the executor.
  ApproxExecutor(const Catalog* catalog, AqpOptions options);

  /// Executes `query`, which must be bound. Queries without a WITH ERROR
  /// clause, without aggregates, with non-linear aggregates (MIN/MAX/COUNT
  /// DISTINCT/VAR), with HAVING, or whose planned rate is infeasible run
  /// exactly.
  ///
  /// The executor's spans (pilot, plan, final, per-operator) open under
  /// `trace`'s current cursor; a null `trace` runs untraced. The trace
  /// belongs to the caller: it is never Finish()ed here, and
  /// `result.profile.trace` is left empty for the caller to fill (the
  /// service moves its finished submission trace in).
  Result<ApproxResult> Execute(const sql::PreparedQuery& query,
                               obs::QueryTrace* trace = nullptr);

  /// Prepares `sql` and executes it through PrepareAndRun: spans go under a
  /// non-null `parent_trace`, else into the profile's own trace.
  Result<ApproxResult> Execute(std::string_view sql,
                               obs::QueryTrace* parent_trace = nullptr);

 private:
  const Catalog* catalog_;
  AqpOptions options_;
  uint64_t invocation_ = 0;  // Salts stage seeds across calls.
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_APPROX_EXECUTOR_H_
