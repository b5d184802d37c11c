// Shared declarations of the repo benchmark (perfbench): command-line
// arguments, the submission/outcome records every workload produces, the
// closed-loop runner, answer verification against 1-thread exact references,
// and the metric report.
//
// The benchmark only calls the library's public API: queries go through
// service::QueryService, references through sql::BindSql + the engine
// executor, and per-layer numbers come from timing public functions of each
// module from here (layers.cc) plus counters those functions already return.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "service/query_service.h"
#include "storage/value.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// lineitem rows (orders = rows / 4). The default is the sized benchmark;
  /// smaller values are for the smoke test only.
  size_t rows = 1000000;
  /// Directory (relative to the working directory) for the JSON reports.
  std::string out_dir = ".bench_out";
  bool full_size() const { return rows >= 1000000; }
};

/// One submission a workload makes.
struct Query {
  std::string sql;       // Text submitted to the service.
  std::string ref_sql;   // Exact query whose 1-thread answer is the reference.
  std::string klass;     // Query class label (adhoc classes, panel kinds).
  int64_t deadline_ms = -1;  // < 0: service default (no deadline).
  double error = 0.0;        // Requested relative error; 0 = no contract.
  int group_cols = 0;        // Leading output columns that are group keys.
  int64_t pair = -1;         // Twin-pair id within a session; -1 = none.
  bool variant = false;      // Whitespace/keyword-case variant of a panel.
  bool contract() const { return error > 0.0; }
};

/// Produces one session's submissions, deterministically from the seed.
class Generator {
 public:
  virtual ~Generator() = default;
  virtual Query Next() = 0;
};

/// A deduplicated answer: rows in canonical (sorted) order, cell values and,
/// for approximate answers, each cell's confidence interval.
struct Answer {
  bool approximated = false;
  std::vector<std::vector<aqp::Value>> rows;
  std::vector<std::vector<std::pair<double, double>>> cis;  // [row][col]
  std::string values_key;  // Canonical text of the values only.
};

/// Thread-safe store of distinct answers; submissions keep an id.
class AnswerStore {
 public:
  int Add(const aqp::core::ApproxResult& result);
  const Answer& Get(int id) const { return answers_[static_cast<size_t>(id)]; }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, int> ids_;
  std::vector<Answer> answers_;
};

/// What happened to one submission.
struct Outcome {
  Query q;
  int session = 0;
  double start_s = 0.0;  // Since the loop started.
  double latency_ms = 0.0;
  bool ok = false;
  bool hit = false;  // Served by the result cache.
  bool approximated = false;
  int rung = 0;
  int answer = -1;
  // Profile fields read by the traced run.
  double admission_wait_ms = 0.0;
  double pilot_s = 0.0;
  uint64_t rows_scanned = 0;
  uint64_t retries = 0;
};

/// Self time per span name, summed over the submissions of a traced loop.
class SpanAccumulator {
 public:
  void Add(const aqp::obs::QueryTrace& trace, double wall_ms);
  std::map<std::string, double> self_ms;  // name -> total self ms
  double unattributed_ms = 0.0;           // total (wall - named spans' self)
  uint64_t traces = 0;
  std::mutex mu;
};

/// Closed-loop runner: each session submits its next query only after the
/// previous one returned. Stops when `seconds` elapsed (time-bounded) or when
/// every session made its `counts[s]` submissions (count-bounded replay).
struct LoopLimit {
  double seconds = 0.0;
  std::vector<size_t> counts;
};

struct LoopRun {
  std::vector<Outcome> outcomes;  // Sorted by start time.
  std::vector<size_t> per_session;
  double wall_s = 0.0;
};

LoopRun RunClosedLoop(aqp::service::QueryService& service,
                      const std::vector<Generator*>& sessions,
                      const LoopLimit& limit, AnswerStore& answers,
                      SpanAccumulator* spans);

/// Checks answers against 1-thread exact references computed on `catalog`.
struct Verification {
  uint64_t exact_checked = 0;
  uint64_t exact_mismatches = 0;
  uint64_t approx_answers = 0;
  uint64_t contract_met = 0;
  uint64_t approx_cells = 0;
  uint64_t covered_cells = 0;
  uint64_t references = 0;
  std::vector<std::string> errors;  // First few mismatch descriptions.
};

Verification Verify(const std::vector<Outcome>& outcomes,
                    const AnswerStore& answers, const aqp::Catalog& catalog);

/// 1-thread exact execution of `sql` (parse + bind + engine, one thread).
aqp::Result<aqp::Table> ReferenceExecute(const std::string& sql,
                                         const aqp::Catalog& catalog);

// ---- Data and service ------------------------------------------------------

/// The tables and service of one workload instance. The service is declared
/// after the catalog it reads, so it is destroyed first.
struct Env {
  std::unique_ptr<aqp::Catalog> catalog;
  std::unique_ptr<aqp::service::QueryService> service;
  size_t rows = 0;
};

aqp::service::ServiceOptions MakeServiceOptions(size_t rows);

// ---- Metrics ----------------------------------------------------------------

double Percentile(std::vector<double> v, double p);  // p in [0, 100]
double Median(std::vector<double> v);
/// Median latency (ms) of the run's submissions.
double P50Ms(const LoopRun& run);

/// An ordered name -> (value, unit) list plus free-form notes for the report.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

/// Everything one workload run hands back to main.
struct WorkloadResult {
  Report e2e;    // --trace 0 metrics (plus extras printed, not gated).
  Report layer;  // --trace 1 metrics.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // Non-empty = incorrect.
};

/// Service counters the traced run reads before and after its loop.
struct ServiceCounters {
  aqp::service::ResultCacheStats cache;
  aqp::service::SynopsisCacheStats synopsis;
  uint64_t drift_sweeps = 0;
  static ServiceCounters Of(const aqp::service::QueryService& service);
};

/// A workload: its sessions (which only read) and warm-up submissions.
struct ReadWorkload {
  int sessions = 1;
  std::vector<std::string> warmup;
  /// One fresh generator per session, deterministic in the seed.
  std::function<std::vector<std::unique_ptr<Generator>>(uint64_t seed)>
      make_sessions;
  /// Every submitted text is distinct, so a result-cache hit is an error.
  bool distinct_texts = false;
};

/// Untraced: set-up, the closed loop for --seconds, verification, the
/// end-to-end metrics. Traced: the loop for half the time untraced, a fresh
/// service replaying the same submissions traced, verification of the
/// replay, the per-layer metrics.
WorkloadResult RunReadWorkload(const Args& args, const ReadWorkload& w);

WorkloadResult RunAdhoc(const Args& args);
WorkloadResult RunDashboard(const Args& args);

// ---- Per-layer measurements (layers.cc) -------------------------------------

/// Per-layer metrics of a traced loop plus standalone calls into each layer.
struct LayerInputs {
  Env* env = nullptr;
  const LoopRun* traced = nullptr;
  const SpanAccumulator* spans = nullptr;
  ServiceCounters before, after;  // Around the traced loop.
  double untraced_p50_ms = 0.0;
  uint64_t seed = 1;
  std::string extent_dir;  // Where the extent copy is written if needed.
};
void AddLayerMetrics(const LayerInputs& in, Report* report);

/// Names of the adhoc query classes, reused for per-class layer timings.
extern const char* const kClasses[6];
/// The contract adhoc submissions carry, and its relative error.
extern const char* const kAdhocContract;
extern const double kAdhocError;
/// A representative query of `klass` (no contract), parameterized by `k`.
std::string ClassSql(const std::string& klass, int64_t k);

/// snprintf of a format taking up to two doubles.
std::string Fmt(const char* fmt, double a = 0.0, double b = 0.0);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
