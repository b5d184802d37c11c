#include "service/query_service.h"

#include <algorithm>
#include <cstdlib>
#include <chrono>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "gov/fault_injector.h"
#include "obs/metrics.h"
#include "service/synopsis_store.h"

namespace aqp {
namespace service {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Stamps the service-tier fields onto a result's profile and installs the
/// submit-scoped trace (admission → cache → rungs → morsels) as the
/// profile's span tree, so EXPLAIN ANALYZE shows the time spent waiting at
/// the front door next to the time spent executing. `trace` is finished
/// here — the submission is over.
void StampProfile(core::ApproxResult* result, double wait_seconds,
                  uint64_t queue_depth, std::string cache_source,
                  obs::QueryTrace* trace) {
  obs::ExecutionProfile& profile = result->profile;
  profile.admission_wait_seconds = wait_seconds;
  profile.queue_depth_at_admission = queue_depth;
  profile.cache_source = std::move(cache_source);
  if (trace != nullptr) {
    trace->Finish();
    // Move, not copy: the submission is over and nobody reads the original
    // again, so the span tree transfers without re-allocating every node.
    profile.trace = std::move(*trace);
  }
}

/// One query-log event from a completed (or refused) submission.
obs::QueryLogEvent MakeEvent(const std::string& sql, uint64_t session_id,
                             const char* status, double wait_seconds,
                             uint64_t queue_depth, double wall_seconds,
                             const obs::ExecutionProfile* profile) {
  obs::QueryLogEvent e;
  e.sql = sql;
  e.sql_fingerprint = HashString(sql);
  e.session_id = session_id;
  e.status = status;
  e.admission_wait_ms = wait_seconds * 1e3;
  e.queue_depth = queue_depth;
  e.wall_ms = wall_seconds * 1e3;
  if (profile != nullptr) {
    e.cache_source = profile->cache_source;
    e.degradation_rung = profile->degradation_rung;
    e.degraded_reason = profile->degraded_reason;
    e.estimated_error = profile->estimated_error;
    e.pre_inflation_error = profile->pre_inflation_error;
    e.memory_peak_bytes = profile->memory_peak_bytes;
    e.pilot_ms = profile->pilot_seconds * 1e3;
    e.plan_ms = profile->planning_seconds * 1e3;
    e.final_ms = profile->final_seconds * 1e3;
    e.synopsis_drift_score = profile->synopsis_drift_score;
    e.synopsis_age_seconds = profile->synopsis_age_seconds;
    e.retry_count = profile->retry_count;
    e.retry_wait_ms = profile->retry_wait_seconds * 1e3;
  }
  return e;
}

void RecordQueryMetrics(double wait_seconds, double exec_seconds,
                        const char* outcome) {
  if (!obs::Enabled()) return;
  auto& reg = obs::MetricsRegistry::Global();
  static obs::LatencyHistogram* wait_ms =
      reg.GetHistogram("service.admission_wait_ms");
  static obs::LatencyHistogram* query_ms =
      reg.GetHistogram("service.query_ms");
  wait_ms->Observe(wait_seconds * 1e3);
  query_ms->Observe(exec_seconds * 1e3);
  reg.GetCounter(std::string("service.queries.") + outcome)->Increment();
}

/// Applies the environment overlays that other members read during
/// construction (the drift options configure BOTH the monitor and the
/// cache's baseline capture, so they resolve once, up front).
ServiceOptions ResolveOptions(ServiceOptions options) {
  options.drift = DriftMonitorOptions::FromEnv(options.drift);
  options.gov.retry = gov::RetryOptions::FromEnv(options.gov.retry);
  options.watchdog = WatchdogOptions::FromEnv(options.watchdog);
  options.breaker = BreakerOptions::FromEnv(options.breaker);
  if (const char* v = std::getenv("AQP_DATA_DIR")) options.data_dir = v;
  return options;
}

/// Baseline capture mirrors the monitor switch: without a monitor nobody
/// would read the baselines, so the extra build-time scan is skipped.
SynopsisCache::Options CacheOptions(const ServiceOptions& options) {
  SynopsisCache::Options o;
  o.capture_baselines = options.drift.enabled;
  o.baseline.sketch = options.drift.sketch;
  return o;
}

}  // namespace

QueryService::QueryService(const Catalog* catalog, ServiceOptions options)
    : catalog_(catalog),
      options_(ResolveOptions(std::move(options))),
      admission_(options_.admission),
      synopsis_cache_(options_.synopsis_cache_bytes, &cache_memory_,
                      CacheOptions(options_)),
      result_cache_(options_.result_cache_bytes, &cache_memory_),
      query_log_(obs::QueryLogOptions::FromEnv(options_.query_log)),
      breaker_(options_.breaker, &query_log_),
      auditor_(catalog, AuditOptions::FromEnv(options_.audit), &query_log_),
      drift_monitor_(catalog, &synopsis_cache_, options_.drift, &query_log_,
                     &auditor_),
      watchdog_(&admission_, options_.watchdog, &query_log_) {
  // Without enough pool workers, admitted queries would queue behind each
  // other inside the pool and the admission bound would be a fiction.
  ThreadPool::Shared().EnsureAtLeast(options_.admission.max_inflight);
  LoadPersistedSynopses();
}

QueryService::~QueryService() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }
  // After drain: no builds are in flight, so the snapshot is complete.
  SavePersistedSynopses();
}

static std::string SynopsisSidecarPath(const std::string& data_dir) {
  return data_dir + "/synopses.aqps";
}

void QueryService::LoadPersistedSynopses() {
  persistence_stats_.enabled =
      !options_.data_dir.empty() && options_.use_synopsis_cache;
  if (!persistence_stats_.enabled) return;
  const std::string path = SynopsisSidecarPath(options_.data_dir);
  SynopsisLoadStats load;
  Result<std::vector<PersistedSynopsis>> entries = LoadSynopses(path, &load);
  if (!entries.ok()) {
    // First boot (no sidecar yet) is the normal cold path, not a failure.
    // Anything else — torn header, version skew, unreadable file — leaves
    // the cache cold and is surfaced via persistence_stats(); serving
    // cannot proceed from questionable synopses (docs/STORAGE.md §10).
    persistence_stats_.load_failed =
        entries.status().code() != StatusCode::kNotFound;
    if (obs::Enabled() && persistence_stats_.load_failed) {
      obs::MetricsRegistry::Global()
          .GetCounter("service.synopsis_persistence.load_failures")
          ->Increment();
    }
    return;
  }
  persistence_stats_.load_found = load.entries_in_file;
  persistence_stats_.loaded = load.loaded;
  persistence_stats_.skipped_corrupt = load.skipped_corrupt;
  persistence_stats_.adopted =
      synopsis_cache_.Preload(*catalog_, std::move(entries).value());
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("service.synopsis_persistence.loaded")
        ->Increment(persistence_stats_.loaded);
    reg.GetCounter("service.synopsis_persistence.adopted")
        ->Increment(persistence_stats_.adopted);
    reg.GetCounter("service.synopsis_persistence.skipped_corrupt")
        ->Increment(persistence_stats_.skipped_corrupt);
  }
}

void QueryService::SavePersistedSynopses() {
  if (options_.data_dir.empty() || !options_.use_synopsis_cache) return;
  std::vector<PersistedSynopsis> snapshot =
      synopsis_cache_.SnapshotForPersist();
  if (snapshot.empty()) return;  // Keep whatever sidecar already exists.
  Result<uint64_t> saved =
      SaveSynopses(SynopsisSidecarPath(options_.data_dir), snapshot);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter(saved.ok() ? "service.synopsis_persistence.saved"
                               : "service.synopsis_persistence.save_failures")
        ->Increment();
  }
}

std::shared_ptr<Session> QueryService::OpenSession(SessionOptions options) {
  return std::shared_ptr<Session>(
      new Session(next_session_id_.fetch_add(1), options));
}

std::future<Result<core::ApproxResult>> QueryService::Submit(
    std::shared_ptr<Session> session, Submission submission) {
  auto promise =
      std::make_shared<std::promise<Result<core::ApproxResult>>>();
  std::future<Result<core::ApproxResult>> future = promise->get_future();
  if (session == nullptr) {
    promise->set_value(Status::InvalidArgument("Submit: null session"));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      promise->set_value(
          Status::FailedPrecondition("Submit: service is shutting down"));
      return future;
    }
  }
  session->submitted_.fetch_add(1, std::memory_order_relaxed);

  // The submission's one span tree starts here, so everything that happens
  // to it — admission wait included — nests under a single root. The trace
  // crosses the pool boundary by shared_ptr (Post needs copyable tasks).
  std::shared_ptr<obs::QueryTrace> trace;
  if (obs::Enabled()) trace = std::make_shared<obs::QueryTrace>("submit");

  // Admission blocks the SUBMITTING thread: overload is backpressure to the
  // client, not an unbounded internal queue.
  auto wait_start = std::chrono::steady_clock::now();
  obs::TraceSpan admission_span = obs::MaybeSpan(trace.get(), "admission");
  uint64_t queue_depth = 0;
  Status admitted = admission_.Acquire(&queue_depth);
  double wait_seconds = SecondsSince(wait_start);
  admission_span.AddAttr("queue_depth", queue_depth);
  admission_span.End();
  if (!admitted.ok()) {
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("service.rejected")
          ->Increment();
    }
    session->rejected_.fetch_add(1, std::memory_order_relaxed);
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    query_log_.Append(MakeEvent(submission.sql, session->id(), "rejected",
                                wait_seconds, queue_depth, wait_seconds,
                                /*profile=*/nullptr));
    promise->set_value(std::move(admitted));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      admission_.Release();
      promise->set_value(
          Status::FailedPrecondition("Submit: service is shutting down"));
      return future;
    }
    ++outstanding_;
  }
  ThreadPool::Shared().Post([this, promise, session = std::move(session),
                             submission = std::move(submission), wait_seconds,
                             queue_depth, trace = std::move(trace)]() mutable {
    auto exec_start = std::chrono::steady_clock::now();
    std::shared_ptr<Watchdog::Ticket> ticket;
    Result<core::ApproxResult> result =
        RunAdmitted(*session, submission, wait_seconds, queue_depth,
                    trace.get(), &ticket);
    (result.ok() ? session->ok_ : session->failed_)
        .fetch_add(1, std::memory_order_relaxed);
    (result.ok() ? queries_ok_ : queries_failed_)
        .fetch_add(1, std::memory_order_relaxed);
    // The watchdog may have reclaimed this submission's admission slot
    // already (hung-query incident); whoever flips the ticket's flag first
    // owns the one Release. The service-time sample feeds the retry-after
    // hint's EWMA.
    if (ticket == nullptr || !ticket->slot_released.exchange(true)) {
      admission_.Release(SecondsSince(exec_start));
    }
    {
      // Last member access: after outstanding_ hits 0 the destructor may
      // return, so only the (self-contained) promise is touched below.
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      drained_cv_.notify_all();
    }
    promise->set_value(std::move(result));
  });
  return future;
}

Result<core::ApproxResult> QueryService::Execute(
    std::shared_ptr<Session> session, Submission submission) {
  return Submit(std::move(session), std::move(submission)).get();
}

Result<core::ApproxResult> QueryService::RunAdmitted(
    Session& session, const Submission& submission, double wait_seconds,
    uint64_t queue_depth, obs::QueryTrace* trace,
    std::shared_ptr<Watchdog::Ticket>* ticket_out) {
  auto exec_start = std::chrono::steady_clock::now();

  gov::GovernedOptions gopts = options_.gov;
  if (submission.deadline_ms.has_value()) {
    gopts.deadline_ms = *submission.deadline_ms;
  }
  if (submission.memory_budget_bytes.has_value()) {
    gopts.memory_budget_bytes = *submission.memory_budget_bytes;
  }

  // Every failure after admission ends the same way: one "failed" event.
  auto fail = [&](Status status) -> Result<core::ApproxResult> {
    obs::QueryLogEvent e = MakeEvent(
        submission.sql, session.id(), "failed", wait_seconds, queue_depth,
        wait_seconds + SecondsSince(exec_start), /*profile=*/nullptr);
    e.retry_after_ms = RetryAfterMsFromStatus(status);
    query_log_.Append(std::move(e));
    RecordQueryMetrics(wait_seconds, SecondsSince(exec_start), "failed");
    return status;
  };

  // The submission's one parse: the referenced tables (cache keys), the
  // canonical key (result cache, quarantine) and the strata column all come
  // from it, and the same prepared query runs on every rung.
  Result<sql::PreparedQuery> prepared = sql::Prepare(submission.sql, trace);
  if (!prepared.ok()) return fail(prepared.status());
  sql::PreparedQuery& query = prepared.value();
  std::vector<std::string> tables = {query.stmt.from.table};
  for (const auto& join : query.stmt.joins) {
    if (std::find(tables.begin(), tables.end(), join.table.table) ==
        tables.end()) {
      tables.push_back(join.table.table);
    }
  }

  std::vector<std::pair<std::string, uint64_t>> versions;
  bool versions_ok = true;
  for (const std::string& table : tables) {
    Result<uint64_t> version = catalog_->Version(table);
    if (!version.ok()) {
      versions_ok = false;
      break;
    }
    versions.emplace_back(table, version.value());
  }

  // Version movement since the last query that touched these tables nudges
  // the drift monitor: a bump means the baseline's snapshot is known-old.
  if (drift_monitor_.enabled() && versions_ok) {
    bool moved = false;
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      for (const auto& [table, version] : versions) {
        auto [it, inserted] = seen_versions_.emplace(table, version);
        if (!inserted && it->second != version) {
          it->second = version;
          moved = true;
        }
      }
    }
    if (moved) drift_monitor_.NotifyVersionActivity();
  }

  // Result cache: identical (canonical SQL, table versions, contract) →
  // answer from memory. The fingerprint pins table versions, so
  // appends/replaces invalidate by making old keys unreachable. A
  // submission without a deadline that misses while an identical one
  // executes waits for that answer instead of computing it again; one with
  // a deadline never waits, as its deadline clock starts only at execution.
  uint64_t fingerprint = 0;
  const bool fingerprint_ok = versions_ok && options_.use_result_cache;
  ResultCache::Claim claim;
  if (fingerprint_ok) {
    obs::TraceSpan probe_span = obs::MaybeSpan(trace, "result-cache");
    ContractFingerprint contract;
    contract.deadline_ms = gopts.deadline_ms;
    contract.memory_budget_bytes = gopts.memory_budget_bytes;
    contract.seed = gopts.aqp.seed;
    contract.confidence = gopts.confidence;
    fingerprint = FingerprintQuery(query.key, versions, contract);
    ResultCache::Probe probe;
    if (gopts.deadline_ms < 0) {
      probe = result_cache_.LookupOrClaim(fingerprint);
    } else {
      probe.result = result_cache_.Lookup(fingerprint);
    }
    claim = std::move(probe.claim);
    if (const std::shared_ptr<const core::ApproxResult>& cached =
            probe.result) {
      probe_span.AddAttr("hit", "true");
      if (probe.waited) probe_span.AddAttr("coalesced", "true");
      probe_span.End();
      core::ApproxResult result = *cached;  // Deep copy; cache stays immutable.
      // The entry may have been stored by a differently spelled variant.
      result.profile.query = submission.sql;
      StampProfile(&result, wait_seconds, queue_depth, "result-cache", trace);
      double wall_seconds = wait_seconds + SecondsSince(exec_start);
      query_log_.Append(MakeEvent(submission.sql, session.id(), "ok",
                                  wait_seconds, queue_depth, wall_seconds,
                                  &result.profile));
      RecordQueryMetrics(wait_seconds, SecondsSince(exec_start),
                         "result_cache_hit");
      return result;
    }
    probe_span.AddAttr("hit", "false");
  }

  // Poison-query quarantine: a fingerprint that keeps failing conclusively
  // is fast-failed here, before it burns an execution, until its quarantine
  // window lapses and one probe is let through.
  if (fingerprint_ok) {
    if (Status quarantined = breaker_.CheckQuarantine(fingerprint);
        !quarantined.ok()) {
      double wall_seconds = wait_seconds + SecondsSince(exec_start);
      obs::QueryLogEvent e =
          MakeEvent(submission.sql, session.id(), "quarantined", wait_seconds,
                    queue_depth, wall_seconds, /*profile=*/nullptr);
      e.retry_after_ms = RetryAfterMsFromStatus(quarantined);
      query_log_.Append(std::move(e));
      RecordQueryMetrics(wait_seconds, SecondsSince(exec_start), "quarantined");
      return quarantined;
    }
  }

  // Bound only now: a result-cache hit or a quarantined query never pays for
  // binding.
  if (Status bound = sql::BindPrepared(&query, *catalog_, trace);
      !bound.ok()) {
    if (fingerprint_ok) {
      breaker_.RecordQueryOutcome(fingerprint, /*poison=*/false);
    }
    return fail(std::move(bound));
  }

  // Synopsis cache: adopt shared stored samples into this query's private
  // offline-rung view. Build/lookup failures are non-fatal — the ladder
  // simply has no rung 1 for that table. The drift score/age of the
  // adopted synopses travel into GovernedOptions so rung 1 can widen its
  // CIs (or decline) proportionally to measured staleness.
  core::SampleCatalog synopsis_view;
  bool adopted = false;
  double drift_score = 0.0;
  double synopsis_age_seconds = 0.0;
  if (options_.use_synopsis_cache && versions_ok) {
    obs::TraceSpan synopsis_span = obs::MaybeSpan(trace, "synopsis-cache");
    const double now_unix =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    auto adopt = [&](const std::string& table, const SynopsisSpec& spec) {
      auto cached = synopsis_cache_.GetOrBuild(*catalog_, table, spec);
      if (!cached.ok()) return;
      if (!synopsis_view.Adopt(cached.value().sample).ok()) return;
      adopted = true;
      drift_score = std::max(drift_score, cached.value().drift_score);
      if (cached.value().built_unix_seconds > 0.0) {
        synopsis_age_seconds =
            std::max(synopsis_age_seconds,
                     now_unix - cached.value().built_unix_seconds);
      }
    };
    const std::string strata_column = query.StrataColumn();
    for (const auto& [table, version] : versions) {
      (void)version;  // The cache re-reads the live version under its lock.
      Result<uint64_t> rows = catalog_->Cardinality(table);
      if (!rows.ok() || rows.value() < options_.synopsis_min_table_rows) {
        continue;
      }
      SynopsisSpec uniform;
      uniform.budget = options_.synopsis_rows;
      uniform.seed = gopts.aqp.seed;
      adopt(table, uniform);
      if (!strata_column.empty()) {
        SynopsisSpec stratified = uniform;
        stratified.strata_column = strata_column;
        adopt(table, stratified);
      }
    }
    synopsis_span.AddAttr("adopted", adopted ? "true" : "false");
  }

  // The drift consultation is its own span: what the serving path knew
  // about synopsis staleness when it chose how to answer.
  {
    obs::TraceSpan drift_span = obs::MaybeSpan(trace, "drift_check");
    gopts.synopsis_drift_score = drift_score;
    gopts.synopsis_age_seconds = synopsis_age_seconds;
    if (trace != nullptr && adopted) {
      drift_span.AddAttr("drift_score", std::to_string(drift_score));
      drift_span.AddAttr("flagged",
                         drift_score >= drift_monitor_.options().flag_threshold
                             ? "true"
                             : "false");
    }
  }

  // Per-(table, rung) circuit breakers gate the ladder's rungs for the
  // query's primary table: a rung with a tripped breaker is skipped (or the
  // query fast-fails with a retry-after hint if no rung remains).
  if (options_.breaker.enabled) {
    gopts.rung_gate = &breaker_;
    gopts.gate_table = tables[0];
  }

  // The query's own tracker chains to the session's: EITHER budget trips
  // the memory stop.
  gov::QueryContext ctx(
      gov::Limits{gopts.deadline_ms, gopts.memory_budget_bytes},
      &session.memory_);
  ctx.Start();
  // From here until Unregister the watchdog can see the context: a query
  // that blows through deadline + grace gets a hard cancel and loses its
  // admission slot to the reclaim path.
  *ticket_out = watchdog_.Register(session.id(), submission.sql,
                                   HashString(submission.sql), &ctx,
                                   gopts.deadline_ms);
  gov::GovernedExecutor executor(catalog_, adopted ? &synopsis_view : nullptr,
                                 gopts);
  Result<core::ApproxResult> result =
      executor.ExecuteWithContext(query, ctx, trace);
  // MUST precede ctx going out of scope (and every return below): detaches
  // the context from the watchdog's view.
  watchdog_.Unregister(*ticket_out);
  double wall_seconds = wait_seconds + SecondsSince(exec_start);

  // Conclusive failures feed the poison tracker; successes clear it. A
  // breaker-caused exhaustion carries a retry-after hint and is NOT poison —
  // the query never got a fair chance to run.
  if (fingerprint_ok) {
    const bool poison =
        !result.ok() &&
        (result.status().code() == StatusCode::kInternal ||
         (gov::IsLadderExhausted(result.status()) &&
          RetryAfterMsFromStatus(result.status()) == 0));
    breaker_.RecordQueryOutcome(fingerprint, poison);
  }

  if (!result.ok()) return fail(result.status());

  core::ApproxResult& r = result.value();
  std::string cache_source;
  if (r.profile.degradation_rung == 1 && adopted) {
    cache_source = "synopsis-cache";
  }
  // Only undegraded answers are worth replaying: a degraded answer encodes
  // a transient resource situation, not the query's answer. Inserted BEFORE
  // stamping so the cached entry carries no per-submission admission fields
  // and no span tree (hits would otherwise deep-copy a dead trace).
  if (fingerprint_ok && r.profile.degradation_rung == 0) {
    result_cache_.Insert(fingerprint, r);
  }
  claim.Release();
  StampProfile(&r, wait_seconds, queue_depth, std::move(cache_source), trace);
  query_log_.Append(MakeEvent(submission.sql, session.id(), "ok", wait_seconds,
                              queue_depth, wall_seconds, &r.profile));
  // Offer the completed approximate answer to the background accuracy
  // auditor (result-cache hits returned above — the original execution was
  // already offered; re-auditing an identical answer adds no information).
  auditor_.MaybeEnqueue(query, r);
  RecordQueryMetrics(wait_seconds, SecondsSince(exec_start), "ok");
  return result;
}

ServiceStatsSnapshot QueryService::StatsSnapshot() const {
  ServiceStatsSnapshot s;
  s.admission = admission_.stats();
  s.result_cache = result_cache_.stats();
  s.synopsis_cache = synopsis_cache_.stats();
  s.cache_bytes = cache_memory_.used();
  s.sessions_opened = next_session_id_.load(std::memory_order_relaxed) - 1;
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  s.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  s.query_log = query_log_.stats();
  s.audit = auditor_.stats();
  s.drift = drift_monitor_.stats();
  s.watchdog = watchdog_.stats();
  s.breaker = breaker_.stats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.outstanding = outstanding_;
  }
  return s;
}

void QueryService::PublishStats() const {
  ServiceStatsSnapshot s = StatsSnapshot();
  auto& reg = obs::MetricsRegistry::Global();
  auto set = [&reg](const char* name, double v) {
    reg.GetGauge(name)->Set(v);
  };
  set("service.outstanding", static_cast<double>(s.outstanding));
  set("service.sessions_opened", static_cast<double>(s.sessions_opened));
  set("service.queries_ok", static_cast<double>(s.queries_ok));
  set("service.queries_failed", static_cast<double>(s.queries_failed));
  set("service.queries_rejected", static_cast<double>(s.queries_rejected));
  set("service.admission.inflight", static_cast<double>(s.admission.inflight));
  set("service.admission.queue_depth",
      static_cast<double>(s.admission.queue_depth));
  set("service.admission.admitted", static_cast<double>(s.admission.admitted));
  set("service.cache.bytes", static_cast<double>(s.cache_bytes));
  set("service.result_cache.hits", static_cast<double>(s.result_cache.hits));
  set("service.result_cache.coalesced",
      static_cast<double>(s.result_cache.coalesced));
  set("service.result_cache.misses",
      static_cast<double>(s.result_cache.misses));
  set("service.result_cache.entries",
      static_cast<double>(s.result_cache.entries));
  set("service.synopsis_cache.hits",
      static_cast<double>(s.synopsis_cache.hits));
  set("service.synopsis_cache.builds",
      static_cast<double>(s.synopsis_cache.builds));
  set("service.synopsis_cache.entries",
      static_cast<double>(s.synopsis_cache.entries));
  set("service.query_log.appended", static_cast<double>(s.query_log.appended));
  set("service.query_log.slow", static_cast<double>(s.query_log.slow));
  set("service.query_log.sink_dropped",
      static_cast<double>(s.query_log.sink_dropped));
  set("service.audit.audited", static_cast<double>(s.audit.audited));
  set("service.audit.dropped", static_cast<double>(s.audit.dropped));
  set("service.audit.coverage_all_time", s.audit.coverage());
  set("service.synopsis_cache.invalidations",
      static_cast<double>(s.synopsis_cache.invalidations));
  set("service.synopsis_cache.drift_flags",
      static_cast<double>(s.synopsis_cache.drift_flags));
  set("service.drift.sweeps", static_cast<double>(s.drift.sweeps));
  set("service.drift.checks", static_cast<double>(s.drift.checks));
  set("service.drift.failed", static_cast<double>(s.drift.failed));
  set("service.drift.flagged", static_cast<double>(s.drift.flagged));
  set("service.drift.invalidated", static_cast<double>(s.drift.invalidated));
  set("service.drift.last_max_score_ratio", s.drift.last_max_score);
  set("service.admission.rejected_fault",
      static_cast<double>(s.admission.rejected_fault));
  set("service.admission.ewma_service_seconds",
      s.admission.ewma_service_seconds);
  set("service.watchdog.tracked", static_cast<double>(s.watchdog.tracked));
  set("service.watchdog.hung_total", static_cast<double>(s.watchdog.hung));
  set("service.watchdog.reclaimed_total",
      static_cast<double>(s.watchdog.reclaimed_slots));
  set("service.watchdog.completed_late",
      static_cast<double>(s.watchdog.completed_late));
  set("service.breaker.open_circuits",
      static_cast<double>(s.breaker.open_circuits));
  set("service.breaker.denials", static_cast<double>(s.breaker.denials));
  set("service.breaker.quarantine_denials",
      static_cast<double>(s.breaker.quarantine_denials));
  // Mirror the fault injector's per-site counters so a chaos run's coverage
  // (which sites actually fired) is visible in the same scrape.
  for (const auto& [site, counters] :
       gov::FaultInjector::Global().SiteCountersSnapshot()) {
    auto labeled = [&site](const char* family) {
      return std::string(family) + "{site=\"" + site + "\"}";
    };
    reg.GetGauge(labeled("fault.site.evaluated"))
        ->Set(static_cast<double>(counters.evaluated));
    reg.GetGauge(labeled("fault.site.injected"))
        ->Set(static_cast<double>(counters.injected));
    reg.GetGauge(labeled("fault.site.hung"))
        ->Set(static_cast<double>(counters.hung));
  }
}

}  // namespace service
}  // namespace aqp
