#ifndef AQP_SERVICE_ACCURACY_AUDITOR_H_
#define AQP_SERVICE_ACCURACY_AUDITOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "obs/query_log.h"

namespace aqp {
namespace service {

/// Accuracy-auditor knobs. `FromEnv` overlays the environment:
///   AQP_AUDIT_FRACTION     sampling fraction in [0, 1] (0 disables)
///   AQP_AUDIT_DEADLINE_MS  ground-truth re-execution deadline
struct AuditOptions {
  /// Fraction of completed approximate answers re-checked exactly.
  /// Sampling is deterministic (every round(1/fraction)-th eligible answer)
  /// so coverage statistics accumulate at a predictable rate. 0 disables
  /// the auditor entirely (no thread is started).
  double fraction = 0.0;
  /// Governed budget of one ground-truth re-execution; the audit is
  /// abandoned (counted, not retried) when it cannot finish within these.
  int64_t deadline_ms = 10000;  // < 0 = none.
  uint64_t memory_budget_bytes = 0;
  /// Answers waiting to be audited; when full, new candidates are DROPPED
  /// (counted) — the auditor must never back-pressure foreground queries.
  size_t queue_capacity = 64;
  /// Rolling window (in audited CI cells, per (table, rung) key) over which
  /// empirical coverage and observed error are maintained.
  size_t window_cells = 512;
  /// Empirical coverage below nominal-confidence − slack (with at least 50
  /// cells in the window) raises the coverage-regression flag.
  double coverage_slack = 0.03;

  static AuditOptions FromEnv(AuditOptions base);
  static AuditOptions FromEnv() { return FromEnv(AuditOptions()); }
};

/// Point-in-time auditor counters. `cells`/`covered` aggregate over ALL
/// audited CI cells since startup; `coverage()` is the all-time empirical
/// coverage (the per-key rolling windows feed the metrics registry).
struct AuditorStats {
  uint64_t eligible = 0;   // Answers offered to MaybeEnqueue.
  uint64_t sampled = 0;    // Answers picked by the sampling fraction.
  uint64_t dropped = 0;    // Sampled but the queue was full.
  uint64_t audited = 0;    // Ground-truth runs that completed.
  uint64_t failed = 0;     // Ground-truth runs that errored / timed out.
  uint64_t cells = 0;      // CI cells compared.
  uint64_t covered = 0;    // CI cells whose interval contained the truth.
  bool coverage_regression = false;
  double coverage() const {
    return cells == 0 ? 0.0 : static_cast<double>(covered) / cells;
  }
};

/// Background accuracy auditor: the empirical check on the system's central
/// promise. It samples a configurable fraction of completed approximate
/// answers, re-executes their bound plan EXACTLY (the plan carries no error
/// clause) on its own low-priority thread under its own governed
/// deadline/memory budget, and
/// compares the ground truth against each claimed confidence interval.
/// Rolling empirical-coverage and observed-vs-claimed-error metrics are
/// maintained per (table, degradation rung) in the global MetricsRegistry:
///
///   service.audit.cells.<table>.rung<k>        counter
///   service.audit.covered.<table>.rung<k>      counter
///   service.audit.coverage.<table>.rung<k>     gauge (rolling window)
///   service.audit.observed_error.<table>.rung<k> gauge (rolling mean)
///   service.audit.coverage_regression          gauge (0/1, any key)
///
/// Ground truth runs single-threaded (never on the shared morsel pool) and
/// candidates are dropped, never queued unboundedly, so the auditor cannot
/// block or slow foreground admission. Each verdict is also appended to the
/// query log (kind="audit") when one is attached.
class AccuracyAuditor {
 public:
  /// `catalog` must outlive the auditor; `log` may be null. When
  /// `options.fraction` <= 0 the auditor is inert (no thread).
  AccuracyAuditor(const Catalog* catalog, AuditOptions options,
                  obs::QueryLog* log = nullptr);
  ~AccuracyAuditor();
  AccuracyAuditor(const AccuracyAuditor&) = delete;
  AccuracyAuditor& operator=(const AccuracyAuditor&) = delete;

  /// Offers one completed approximate answer to the bound `query` for
  /// auditing. Returns true iff the answer was enqueued (sampled and the
  /// queue had room). Cheap and non-blocking; call from the foreground
  /// result path.
  bool MaybeEnqueue(const sql::PreparedQuery& query,
                    const core::ApproxResult& result);

  /// Marks `table` as audit-priority: its next `budget` eligible answers
  /// bypass the sampling interval (still bounded by the queue). The
  /// DriftMonitor calls this when it flags a table, so ground-truth checks
  /// concentrate where staleness is suspected.
  void PrioritizeTable(const std::string& table, uint64_t budget = 8);

  /// Blocks until every enqueued audit has been processed (tests/bench).
  void Drain();

  AuditorStats stats() const;
  bool enabled() const { return interval_ > 0; }

 private:
  struct Pending {
    sql::PreparedQuery query;
    Table answer;
    std::vector<std::vector<stats::ConfidenceInterval>> cis;
    std::string table;   // Sampled table (metrics key; may be empty).
    int rung = 0;
    double nominal_confidence = 0.95;
    double estimated_error = 0.0;
    double pre_inflation_error = 0.0;
  };
  /// One (table, rung) key's rolling cell window.
  struct Window {
    std::deque<std::pair<bool, double>> cells;  // (covered, observed error).
    uint64_t covered = 0;
    double error_sum = 0.0;
  };

  void Loop();
  void AuditOne(const Pending& p);
  /// Re-executes `p.query` exactly and compares; returns the verdict cells or
  /// a status when ground truth could not be computed.
  Result<std::pair<uint64_t, uint64_t>> CompareAgainstTruth(
      const Pending& p, double* worst_observed_error);
  void RecordVerdict(const Pending& p, uint64_t cells, uint64_t covered,
                     double worst_observed_error);

  const Catalog* catalog_;
  const AuditOptions options_;
  obs::QueryLog* log_;
  const uint64_t interval_;  // Every interval_-th eligible answer is sampled.

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drained_cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool idle_ = true;
  uint64_t eligible_ = 0;
  uint64_t sampled_ = 0;
  uint64_t dropped_ = 0;
  uint64_t audited_ = 0;
  uint64_t failed_ = 0;
  uint64_t cells_ = 0;
  uint64_t covered_ = 0;
  bool coverage_regression_ = false;
  std::map<std::string, Window> windows_;  // Keyed "<table>.rung<k>".
  /// Remaining bypass-the-interval audits per prioritized table.
  std::map<std::string, uint64_t> priority_tables_;

  std::thread worker_;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_ACCURACY_AUDITOR_H_
