#include "gov/governed_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/str_util.h"
#include "core/offline_executor.h"
#include "core/online_aggregation.h"
#include "obs/metrics.h"

namespace aqp {
namespace gov {
namespace {

void BumpCounter(const char* name) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global().GetCounter(name)->Increment();
}

/// Backoff before retry `attempt` (0-based): exponential with a
/// deterministic jitter in [0.5, 1.0) keyed on (seed, attempt) — seeded runs
/// replay with identical waits, so fault-matrix failures stay reproducible.
int64_t BackoffMs(const RetryOptions& retry, uint64_t seed, uint64_t attempt) {
  double base = static_cast<double>(std::max<int64_t>(1, retry.base_backoff_ms));
  for (uint64_t i = 0; i < attempt; ++i) {
    base *= std::max(1.0, retry.backoff_multiplier);
    if (base >= static_cast<double>(retry.max_backoff_ms)) break;
  }
  base = std::min(base, static_cast<double>(std::max<int64_t>(1, retry.max_backoff_ms)));
  uint64_t h = Mix64(seed ^ (0x9e3779b97f4a7c15ull * (attempt + 1)));
  double jitter = 0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * jitter)));
}

/// Sleeps `ms` in small slices, bailing early once the query's token fires —
/// a backoff must never outlive the deadline it is spending.
void SleepWithToken(int64_t ms, const CancellationToken& token) {
  constexpr int64_t kSliceMs = 5;
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < end) {
    if (token.IsCancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(kSliceMs));
  }
}

// Widens `ci` about its point estimate by half-width factor `f` (>= 1).
void WidenCi(stats::ConfidenceInterval* ci, double f) {
  ci->low = ci->estimate - f * (ci->estimate - ci->low);
  ci->high = ci->estimate + f * (ci->high - ci->estimate);
}

void WidenAllCis(core::ApproxResult* result, double f) {
  for (auto& row : result->cis) {
    for (auto& ci : row) WidenCi(&ci, f);
  }
}

}  // namespace

bool IsDegradable(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:  // Runtime faults, injected or real.
      return true;
    default:
      return false;
  }
}

bool IsLadderExhausted(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted &&
         s.message().rfind("no rung of the degradation ladder", 0) == 0;
}

RetryOptions RetryOptions::FromEnv(RetryOptions base) {
  auto load_i64 = [](const char* name, int64_t* out) {
    const char* env = std::getenv(name);
    if (env == nullptr || *env == '\0') return;
    auto parsed = ParseInt64(env);
    if (parsed.ok()) *out = *parsed;
  };
  auto load_f64 = [](const char* name, double* out) {
    const char* env = std::getenv(name);
    if (env == nullptr || *env == '\0') return;
    auto parsed = ParseDouble(env);
    if (parsed.ok()) *out = *parsed;
  };
  int64_t max_attempts = base.max_attempts;
  load_i64("AQP_RETRY_MAX", &max_attempts);
  base.max_attempts = static_cast<int>(
      std::clamp<int64_t>(max_attempts, 0, 1000));
  load_i64("AQP_RETRY_BASE_MS", &base.base_backoff_ms);
  load_f64("AQP_RETRY_MULTIPLIER", &base.backoff_multiplier);
  load_i64("AQP_RETRY_MAX_BACKOFF_MS", &base.max_backoff_ms);
  return base;
}

GovernedExecutor::GovernedExecutor(const Catalog* catalog,
                                   const core::SampleCatalog* samples,
                                   GovernedOptions options)
    : catalog_(catalog), samples_(samples), options_(std::move(options)) {}

Result<core::ApproxResult> GovernedExecutor::Execute(std::string_view sql) {
  QueryContext ctx(Limits{options_.deadline_ms, options_.memory_budget_bytes});
  ctx.Start();
  return core::PrepareAndRun(
      sql, *catalog_, /*parent_trace=*/nullptr,
      [&](const sql::PreparedQuery& query, obs::QueryTrace* trace) {
        return ExecuteWithContext(query, ctx, trace);
      });
}

Result<core::ApproxResult> GovernedExecutor::ExecuteWithContext(
    const sql::PreparedQuery& query, QueryContext& ctx,
    obs::QueryTrace* trace) {
  AQP_CHECK(query.bound.has_value());
  BumpCounter("gov.queries");

  RetryState retry;
  retry.attempts_left = std::max(0, options_.retry.max_attempts);

  core::AqpOptions governed = options_.aqp;
  ctx.Bind(&governed.exec);
  core::ApproxExecutor rung0(catalog_, governed);
  Result<core::ApproxResult> preferred = [&]() -> Result<core::ApproxResult> {
    if (!GateAllow(0, retry).allow) {
      // A denied rung behaves exactly like a failed one: kInternal sends the
      // query down the ladder without recording a breaker outcome.
      return Status::Internal("circuit open: rung 0 denied for table '" +
                              options_.gate_table + "'");
    }
    return AttemptWithRetry(0, ctx, retry, [&] {
      // The rung span's End() closes any spans the executor left open when it
      // failed mid-stage, so a later rung's spans never nest under rung 0's.
      obs::TraceSpan rung_span = obs::MaybeSpan(trace, "rung-0");
      Result<core::ApproxResult> r = rung0.Execute(query, trace);
      rung_span.AddAttr("ok", r.ok() ? "true" : "false");
      return r;
    });
  }();
  if (preferred.ok()) {
    core::ApproxResult result = std::move(preferred).value();
    FinishProfile(&result, ctx, retry, /*rung=*/0, /*degraded_reason=*/"");
    return result;
  }

  Status failure = preferred.status();
  if (failure.code() == StatusCode::kCancelled) {
    // The caller asked the query to stop; a substitute answer would be
    // exactly what they did not want.
    BumpCounter("gov.cancelled");
    return failure;
  }
  if (!IsDegradable(failure)) return failure;
  return RunLadder(query, ctx, std::move(failure), retry, trace);
}

template <typename Fn>
Result<core::ApproxResult> GovernedExecutor::AttemptWithRetry(
    int rung, QueryContext& ctx, RetryState& retry, Fn&& attempt) {
  const bool gated =
      options_.rung_gate != nullptr && !options_.gate_table.empty();
  bool retried_here = false;
  for (;;) {
    Result<core::ApproxResult> r = attempt();
    const bool internal =
        !r.ok() && r.status().code() == StatusCode::kInternal;
    if (!internal || retry.attempts_left <= 0 || ctx.cancelled()) {
      // Conclusive: success, a non-transient failure, or no budget left.
      // Only success and kInternal are rung health signals — deadline /
      // memory / unimplemented failures say nothing about the rung itself.
      if (gated && (r.ok() || internal)) {
        options_.rung_gate->RecordOutcome(options_.gate_table, rung, r.ok());
      }
      if (r.ok() && retried_here) BumpCounter("gov.retry.recovered");
      return r;
    }
    const int64_t backoff =
        BackoffMs(options_.retry, options_.aqp.seed, retry.count);
    const int64_t remaining = ctx.remaining_deadline_ms();
    if (remaining >= 0 && backoff >= remaining) {
      // Not enough deadline left to both wait and re-run; spend what is left
      // on the ladder instead.
      if (gated) {
        options_.rung_gate->RecordOutcome(options_.gate_table, rung, false);
      }
      return r;
    }
    --retry.attempts_left;
    ++retry.count;
    retried_here = true;
    BumpCounter("gov.retry.attempts");
    SleepWithToken(backoff, ctx.token());
    retry.wait_seconds += static_cast<double>(backoff) / 1000.0;
  }
}

RungGate::Decision GovernedExecutor::GateAllow(int rung,
                                               RetryState& retry) const {
  if (options_.rung_gate == nullptr || options_.gate_table.empty()) return {};
  RungGate::Decision d = options_.rung_gate->Allow(options_.gate_table, rung);
  if (!d.allow) {
    BumpCounter("gov.breaker_skipped");
    retry.retry_after_ms = std::max(retry.retry_after_ms, d.retry_after_ms);
  }
  return d;
}

Result<core::ApproxResult> GovernedExecutor::RunLadder(
    const sql::PreparedQuery& query, QueryContext& ctx, Status failure,
    RetryState& retry, obs::QueryTrace* trace) {
  // Rung 1: a pre-computed offline sample answers at cost proportional to
  // the (small) stored sample, no base-table scan. A synopsis the
  // DriftMonitor scored past the decline threshold is refused outright —
  // rung 2 reads current data, and a wrong-but-confident answer is worse
  // than a wider honest one.
  const bool drift_declined =
      options_.synopsis_drift_score >= options_.drift_decline_threshold &&
      options_.drift_decline_threshold > 0.0;
  if (drift_declined) BumpCounter("gov.drift_declined");
  if (samples_ != nullptr && !drift_declined && GateAllow(1, retry).allow) {
    Result<core::ApproxResult> offline = AttemptWithRetry(1, ctx, retry, [&] {
      obs::TraceSpan rung_span = obs::MaybeSpan(trace, "rung-1");
      Result<core::ApproxResult> r = RunOfflineRung(query, ctx, trace);
      rung_span.AddAttr("ok", r.ok() ? "true" : "false");
      return r;
    });
    if (offline.ok()) {
      core::ApproxResult result = std::move(offline).value();
      double raw_error = core::MaxRelativeCiHalfWidth(result.cis);
      // Drift-dependent inflation: measured staleness buys wider intervals.
      const double inflation =
          options_.degraded_ci_inflation *
          (1.0 + options_.drift_inflation_gain *
                     std::max(0.0, options_.synopsis_drift_score));
      WidenAllCis(&result, inflation);
      FinishProfile(&result, ctx, retry, /*rung=*/1,
                    "degraded to stored offline sample: " + failure.message(),
                    raw_error);
      BumpCounter("gov.degraded_rung1");
      return result;
    }
  }

  // Rung 2: an online-aggregation early answer over one bounded grace chunk.
  if (GateAllow(2, retry).allow) {
    Result<core::ApproxResult> ola = AttemptWithRetry(2, ctx, retry, [&] {
      obs::TraceSpan rung_span = obs::MaybeSpan(trace, "rung-2");
      Result<core::ApproxResult> r = RunOlaRung(query, ctx, rung_span);
      rung_span.AddAttr("ok", r.ok() ? "true" : "false");
      return r;
    });
    if (ola.ok()) {
      core::ApproxResult result = std::move(ola).value();
      double raw_error = core::MaxRelativeCiHalfWidth(result.cis);
      WidenAllCis(&result, options_.degraded_ci_inflation);
      FinishProfile(&result, ctx, retry, /*rung=*/2,
                    "degraded to online-aggregation early answer: " +
                        failure.message(),
                    raw_error);
      BumpCounter("gov.degraded_rung2");
      return result;
    }
  }

  BumpCounter("gov.exhausted");
  std::string message =
      "no rung of the degradation ladder could answer: " + failure.message();
  // A fast-fail caused (at least partly) by open circuits carries the gate's
  // worst retry-after hint in the parseable form clients already understand.
  if (retry.retry_after_ms > 0) {
    message += " (retry_after_ms=" + std::to_string(retry.retry_after_ms) + ")";
  }
  return Status::ResourceExhausted(std::move(message));
}

Result<core::ApproxResult> GovernedExecutor::RunOfflineRung(
    const sql::PreparedQuery& query, QueryContext& ctx,
    obs::QueryTrace* trace) {
  // The context's token has already tripped (that is why we are here);
  // rung 1 runs without it but keeps the memory budget honest — the stored
  // sample is small, and if even it does not fit the ladder descends.
  ExecOptions exec = options_.aqp.exec;
  exec.cancel = nullptr;
  exec.memory = &ctx.memory();
  core::OfflineExecutor offline(catalog_, samples_, exec);
  return offline.Execute(query, options_.confidence, trace);
}

Result<core::ApproxResult> GovernedExecutor::RunOlaRung(
    const sql::PreparedQuery& query, QueryContext& ctx,
    obs::TraceSpan& rung_span) {
  const sql::SelectStmt& stmt = query.stmt;
  if (!stmt.joins.empty() || !stmt.group_by.empty() ||
      stmt.having != nullptr || stmt.distinct || stmt.items.size() != 1) {
    return Status::Unimplemented(
        "online-aggregation rung answers single-aggregate single-table "
        "queries only");
  }
  const sql::SelectItem& item = stmt.items[0];
  if (item.expr == nullptr || item.expr->kind != sql::SqlExpr::Kind::kAggCall) {
    return Status::Unimplemented("online-aggregation rung needs an aggregate");
  }
  AggKind kind = item.expr->agg_kind;
  if (kind != AggKind::kSum && kind != AggKind::kAvg &&
      kind != AggKind::kCountStar) {
    return Status::Unimplemented(
        "online-aggregation rung supports SUM/AVG/COUNT(*) only");
  }

  ExprPtr measure;
  if (kind == AggKind::kCountStar) {
    measure = Expr::MakeLiteral(Value(1.0));
  } else {
    AQP_ASSIGN_OR_RETURN(measure, sql::LowerSqlExpr(item.expr->children[0]));
  }
  ExprPtr predicate;
  if (stmt.where != nullptr) {
    AQP_ASSIGN_OR_RETURN(predicate, sql::LowerSqlExpr(stmt.where));
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                       catalog_->Get(stmt.from.table));

  // No token: the grace chunk is the bounded cost we accept after the
  // deadline. The memory budget stays bound so the OLA working set (order,
  // measures, mask) is still accounted.
  ExecOptions exec = options_.aqp.exec;
  exec.cancel = nullptr;
  exec.memory = &ctx.memory();
  AQP_ASSIGN_OR_RETURN(
      core::OnlineAggregator agg,
      core::OnlineAggregator::Create(*table, measure, predicate,
                                     options_.aqp.seed, exec));
  core::OlaProgress progress =
      agg.Step(options_.ola_grace_rows, options_.confidence);
  rung_span.AddAttr("steps", agg.steps());
  rung_span.AddAttr("rows_seen", agg.rows_seen());

  stats::ConfidenceInterval ci;
  switch (kind) {
    case AggKind::kSum:
      ci = progress.sum_ci;
      break;
    case AggKind::kAvg:
      ci = progress.avg_ci;
      break;
    default:
      ci = progress.count_ci;
      break;
  }

  std::string name =
      item.alias.empty() ? item.expr->ToString() : item.alias;
  core::ApproxResult result;
  if (kind == AggKind::kCountStar) {
    Column col(DataType::kInt64);
    col.AppendInt64(static_cast<int64_t>(std::llround(ci.estimate)));
    AQP_ASSIGN_OR_RETURN(
        result.table,
        Table::Make(Schema({Field{name, DataType::kInt64}}), {std::move(col)}));
  } else {
    Column col(DataType::kDouble);
    col.AppendDouble(ci.estimate);
    AQP_ASSIGN_OR_RETURN(
        result.table,
        Table::Make(Schema({Field{name, DataType::kDouble}}),
                    {std::move(col)}));
  }
  result.approximated = true;
  result.sampled_table = stmt.from.table;
  result.final_rate = progress.fraction;
  result.cis = {{ci}};
  result.profile = agg.Profile();
  // The span tree belongs to the caller's trace, as on rungs 0 and 1.
  result.profile.trace = obs::QueryTrace();
  result.profile.query = query.text;
  result.profile.executor = "online-aggregation";
  result.profile.approximated = true;
  result.profile.sampled_table = stmt.from.table;
  result.profile.sampled_fraction = progress.fraction;
  return result;
}

void GovernedExecutor::FinishProfile(core::ApproxResult* result,
                                     const QueryContext& ctx,
                                     const RetryState& retry, int rung,
                                     std::string degraded_reason,
                                     double pre_inflation_error) const {
  obs::ExecutionProfile& profile = result->profile;
  profile.degradation_rung = rung;
  profile.degraded_reason = std::move(degraded_reason);
  // For degraded answers the CIs have already been widened; recompute so the
  // profile reports the error the caller actually received, and keep the raw
  // estimator half-width alongside it so coverage misses can be attributed
  // to estimation error vs. insufficient inflation.
  profile.estimated_error = core::MaxRelativeCiHalfWidth(result->cis);
  profile.pre_inflation_error = pre_inflation_error;
  profile.memory_peak_bytes = ctx.memory().peak();
  profile.memory_leaked_bytes = ctx.memory().used();
  profile.synopsis_drift_score = options_.synopsis_drift_score;
  profile.synopsis_age_seconds = options_.synopsis_age_seconds;
  profile.retry_count = retry.count;
  profile.retry_wait_seconds = retry.wait_seconds;
}

}  // namespace gov
}  // namespace aqp
