#ifndef AQP_CORE_OFFLINE_EXECUTOR_H_
#define AQP_CORE_OFFLINE_EXECUTOR_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "core/approx_executor.h"
#include "core/offline_catalog.h"
#include "engine/catalog.h"
#include "sql/binder.h"

namespace aqp {
namespace core {

/// BlinkDB-style offline AQP: answer aggregation SQL from pre-computed
/// samples in the SampleCatalog, never touching the base table at query
/// time. The other corner of the paper's design space from ApproxExecutor:
///   + query latency independent of data size (only the sample is read)
///   - a-priori guarantees only hold for workloads the samples were built
///     for; the error is REPORTED (a posteriori CI), not promised
///   - maintenance cost on every update (see SampleCatalog)
///
/// Supported queries: single-table SELECT with linear aggregates, optional
/// WHERE / GROUP BY / ORDER BY / LIMIT. Joins, HAVING, and non-linear
/// aggregates report Unimplemented, signalling the caller to fall back.
class OfflineExecutor {
 public:
  /// Both registries must outlive the executor. `exec` controls
  /// morsel-parallel sample filtering/gathering at query time (results are
  /// identical for every thread count).
  OfflineExecutor(const Catalog* catalog, const SampleCatalog* samples,
                  ExecOptions exec = {});

  /// Executes `query`, which must be bound, against the best stored sample
  /// (preferring one stratified on the query's StrataColumn()). The result
  /// has the same shape as the exact query; `cis` carries a posteriori
  /// intervals at `confidence`. Spans go under `trace` (null = untraced),
  /// with the same ownership contract as ApproxExecutor::Execute — the
  /// trace is never Finish()ed here.
  Result<ApproxResult> Execute(const sql::PreparedQuery& query,
                               double confidence = 0.95,
                               obs::QueryTrace* trace = nullptr);

  /// Prepares `sql` and executes it through PrepareAndRun.
  Result<ApproxResult> Execute(std::string_view sql, double confidence = 0.95,
                               obs::QueryTrace* parent_trace = nullptr);

 private:
  const Catalog* catalog_;
  const SampleCatalog* samples_;
  ExecOptions exec_;
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_OFFLINE_EXECUTOR_H_
