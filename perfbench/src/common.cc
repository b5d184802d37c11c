#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>

#include "bench.h"
#include "common/check.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace perfbench {

using aqp::Catalog;
using aqp::Table;
using aqp::Value;

namespace {

std::string CellText(const Value& v) {
  char buf[64];
  if (v.is_null()) return "null";
  if (v.is_int64()) {
    std::snprintf(buf, sizeof(buf), "i%" PRId64, v.int64());
    return buf;
  }
  if (v.is_double()) {
    std::snprintf(buf, sizeof(buf), "d%.17g", v.dbl());
    return buf;
  }
  if (v.is_bool()) return v.boolean() ? "btrue" : "bfalse";
  return "s" + v.str();
}

std::string RowText(const std::vector<Value>& row, size_t cols) {
  std::string s;
  for (size_t c = 0; c < cols && c < row.size(); ++c) {
    s += CellText(row[c]);
    s += '\x1f';
  }
  return s;
}

/// Rows of `table` in canonical order (sorted by their text), with the
/// source row index of each.
void CanonicalRows(const Table& table, Answer* out,
                   std::vector<size_t>* source_rows) {
  const size_t n = table.num_rows();
  const size_t m = table.num_columns();
  std::vector<std::vector<Value>> rows(n, std::vector<Value>(m));
  std::vector<std::string> text(n);
  for (size_t c = 0; c < m; ++c) {
    const aqp::Column& col = table.column(c);
    for (size_t r = 0; r < n; ++r) rows[r][c] = col.GetValue(r);
  }
  for (size_t r = 0; r < n; ++r) text[r] = RowText(rows[r], m);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return text[a] < text[b]; });
  out->rows.clear();
  out->values_key.clear();
  for (size_t r : order) {
    out->rows.push_back(std::move(rows[r]));
    out->values_key += text[r];
    out->values_key += '\n';
  }
  if (source_rows != nullptr) *source_rows = std::move(order);
}

}  // namespace

int AnswerStore::Add(const aqp::core::ApproxResult& result) {
  Answer a;
  a.approximated = result.approximated;
  std::vector<size_t> source;
  CanonicalRows(result.table, &a, &source);
  std::string key = (a.approximated ? "A\n" : "E\n") + a.values_key;
  if (a.approximated) {
    char buf[80];
    for (size_t src : source) {
      std::vector<std::pair<double, double>> row_ci;
      for (size_t c = 0; c < result.table.num_columns(); ++c) {
        double lo = 0.0, hi = 0.0;
        if (src < result.cis.size() && c < result.cis[src].size()) {
          lo = result.cis[src][c].low;
          hi = result.cis[src][c].high;
        }
        row_ci.emplace_back(lo, hi);
        std::snprintf(buf, sizeof(buf), "%.17g:%.17g,", lo, hi);
        key += buf;
      }
      a.cis.push_back(std::move(row_ci));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = ids_.emplace(std::move(key), 0);
  if (inserted) {
    it->second = static_cast<int>(answers_.size());
    answers_.push_back(std::move(a));
  }
  return it->second;
}

// ---- Span self times ----------------------------------------------------------

namespace {

const std::set<std::string>& NamedSpans() {
  static const std::set<std::string> names = {
      "admission", "result-cache", "synopsis-cache", "drift_check",
      "rung-0",    "rung-1",       "rung-2",         "parse",
      "bind",      "pilot",        "plan",           "final",
      "exact-execute"};
  return names;
}

/// Adds the self time of `span` and every descendant to `self_ms`; returns
/// the total added.
double AccumulateSelf(const aqp::obs::SpanRecord& span,
                      std::map<std::string, double>* self_ms) {
  double total = 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const auto& child : span.children) {
    iv.emplace_back(child->start_seconds,
                    child->start_seconds + child->duration_seconds);
    total += AccumulateSelf(*child, self_ms);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (const auto& [lo, hi] : iv) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  const double self = std::max(0.0, span.duration_seconds - covered) * 1e3;
  const std::string& name =
      NamedSpans().count(span.name) > 0 ? span.name : std::string("other");
  (*self_ms)[name] += self;
  return total + self;
}

}  // namespace

void SpanAccumulator::Add(const aqp::obs::QueryTrace& trace, double wall_ms) {
  std::map<std::string, double> local;
  double named = 0.0;
  for (const auto& child : trace.root().children) {
    named += AccumulateSelf(*child, &local);
  }
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& [name, ms] : local) self_ms[name] += ms;
  unattributed_ms += wall_ms - named;
  ++traces;
}

// ---- Closed loop --------------------------------------------------------------

LoopRun RunClosedLoop(aqp::service::QueryService& service,
                      const std::vector<Generator*>& sessions,
                      const LoopLimit& limit, AnswerStore& answers,
                      SpanAccumulator* spans) {
  const size_t n = sessions.size();
  std::vector<std::vector<Outcome>> per(n);
  const Clock::time_point start = Clock::now();
  auto body = [&](size_t s) {
    auto session = service.OpenSession();
    for (size_t i = 0;; ++i) {
      if (limit.counts.empty()) {
        if (SecondsSince(start) >= limit.seconds) break;
      } else if (i >= limit.counts[s]) {
        break;
      }
      Outcome o;
      o.q = sessions[s]->Next();
      o.session = static_cast<int>(s);
      aqp::service::Submission sub(o.q.sql);
      if (o.q.deadline_ms >= 0) sub.deadline_ms = o.q.deadline_ms;
      const Clock::time_point t0 = Clock::now();
      o.start_s = std::chrono::duration<double>(t0 - start).count();
      aqp::Result<aqp::core::ApproxResult> r =
          service.Execute(session, std::move(sub));
      o.latency_ms = SecondsSince(t0) * 1e3;
      o.ok = r.ok();
      if (o.ok) {
        const aqp::core::ApproxResult& v = r.value();
        o.hit = v.profile.cache_source == "result-cache";
        o.approximated = v.approximated;
        o.rung = v.profile.degradation_rung;
        o.admission_wait_ms = v.profile.admission_wait_seconds * 1e3;
        o.pilot_s = v.pilot_seconds;
        o.rows_scanned = v.exec_stats.rows_scanned;
        o.retries = v.profile.retry_count;
        o.answer = answers.Add(v);
        if (spans != nullptr) spans->Add(v.profile.trace, o.latency_ms);
      } else {
        std::fprintf(stderr, "submission failed: %s\n  %s\n",
                     r.status().ToString().c_str(), o.q.sql.c_str());
      }
      per[s].push_back(std::move(o));
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 0; s < n; ++s) threads.emplace_back(body, s);
  for (auto& t : threads) t.join();

  LoopRun run;
  run.wall_s = SecondsSince(start);
  for (size_t s = 0; s < n; ++s) {
    run.per_session.push_back(per[s].size());
    for (auto& o : per[s]) run.outcomes.push_back(std::move(o));
  }
  std::stable_sort(run.outcomes.begin(), run.outcomes.end(),
                   [](const Outcome& a, const Outcome& b) {
                     return a.start_s < b.start_s;
                   });
  return run;
}

// ---- Verification -----------------------------------------------------------

aqp::Result<Table> ReferenceExecute(const std::string& sql,
                                    const Catalog& catalog) {
  AQP_ASSIGN_OR_RETURN(aqp::sql::BoundQuery bound,
                       aqp::sql::BindSql(sql, catalog));
  aqp::ExecOptions options;
  options.num_threads = 1;
  return aqp::Execute(bound.plan, catalog, nullptr, nullptr, options);
}

namespace {

struct ApproxCheck {
  bool met = true;
  uint64_t cells = 0;
  uint64_t covered = 0;
};

ApproxCheck CheckApprox(const Answer& ans, const Answer& ref, const Query& q) {
  ApproxCheck out;
  const size_t g = static_cast<size_t>(q.group_cols);
  std::unordered_map<std::string, size_t> by_key;
  for (size_t r = 0; r < ans.rows.size(); ++r) {
    by_key[RowText(ans.rows[r], g)] = r;
  }
  if (ans.rows.size() != ref.rows.size()) out.met = false;
  for (const auto& ref_row : ref.rows) {
    auto it = by_key.find(RowText(ref_row, g));
    const size_t cols = ref_row.size() > g ? ref_row.size() - g : 0;
    out.cells += cols;
    if (it == by_key.end()) {
      out.met = false;
      continue;
    }
    const auto& row = ans.rows[it->second];
    for (size_t c = g; c < ref_row.size() && c < row.size(); ++c) {
      if (ref_row[c].is_null() || row[c].is_null()) {
        out.met = false;
        continue;
      }
      const double exact = ref_row[c].AsDouble();
      const double est = row[c].AsDouble();
      const double rel = exact == 0.0 ? (est == 0.0 ? 0.0 : INFINITY)
                                      : std::fabs(est - exact) / std::fabs(exact);
      if (!(rel <= q.error)) out.met = false;
      const auto& ci = ans.cis[it->second][c];
      if (ci.first <= exact && exact <= ci.second) ++out.covered;
    }
  }
  return out;
}

}  // namespace

Verification Verify(const std::vector<Outcome>& outcomes,
                    const AnswerStore& answers, const Catalog& catalog) {
  Verification v;
  std::vector<std::string> sqls;
  {
    std::set<std::string> seen;
    for (const Outcome& o : outcomes) {
      if (o.ok && seen.insert(o.q.ref_sql).second) sqls.push_back(o.q.ref_sql);
    }
  }
  // References run one thread each, several at a time.
  std::vector<Answer> refs(sqls.size());
  std::vector<std::string> ref_errors(sqls.size());
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t i = next++; i < sqls.size(); i = next++) {
      aqp::Result<Table> t = ReferenceExecute(sqls[i], catalog);
      if (!t.ok()) {
        ref_errors[i] = t.status().ToString();
        continue;
      }
      CanonicalRows(t.value(), &refs[i], nullptr);
    }
  };
  const size_t workers =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  v.references = sqls.size();

  std::unordered_map<std::string, size_t> ref_index;
  for (size_t i = 0; i < sqls.size(); ++i) ref_index[sqls[i]] = i;
  std::set<std::pair<int, size_t>> checked;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    const size_t ri = ref_index.at(o.q.ref_sql);
    if (!ref_errors[ri].empty()) {
      ++v.exact_mismatches;
      if (v.errors.size() < 5) {
        v.errors.push_back("reference failed: " + ref_errors[ri] + " | " +
                           o.q.ref_sql);
      }
      continue;
    }
    const Answer& ans = answers.Get(o.answer);
    if (!ans.approximated) {
      ++v.exact_checked;
      if (ans.values_key != refs[ri].values_key) {
        ++v.exact_mismatches;
        if (v.errors.size() < 5) {
          v.errors.push_back("exact answer differs from reference: " +
                             o.q.sql);
        }
      }
      continue;
    }
    // Quality counts each distinct approximate answer once: a cache hit
    // repeats an answer already counted and adds no information about it.
    auto key = std::make_pair(o.answer, ri);
    if (!checked.insert(key).second) continue;
    const ApproxCheck c = CheckApprox(ans, refs[ri], o.q);
    ++v.approx_answers;
    v.contract_met += c.met ? 1 : 0;
    v.approx_cells += c.cells;
    v.covered_cells += c.covered;
  }
  return v;
}

// ---- Data and service ---------------------------------------------------------

aqp::service::ServiceOptions MakeServiceOptions(size_t rows) {
  aqp::service::ServiceOptions o;
  // lineitem gets cached synopses (rung 1); orders (rows / 4) stays below
  // the threshold, so its deadline-0 answers come from rung 2 (OLA).
  o.synopsis_min_table_rows = rows / 2;
  // Drift checks run only when the benchmark calls CheckNow().
  o.drift.enabled = true;
  o.drift.period_ms = 0;
  return o;
}

std::string Fmt(const char* fmt, double a, double b) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

namespace {

/// Replaces the service with a fresh one (empty caches) and warms it up.
void RestartService(Env& env, const std::vector<std::string>& warmup) {
  env.service.reset();
  env.service = std::make_unique<aqp::service::QueryService>(
      env.catalog.get(), MakeServiceOptions(env.rows));
  auto session = env.service->OpenSession();
  for (const std::string& sql : warmup) {
    auto r = env.service->Execute(session, aqp::service::Submission(sql));
    AQP_CHECK(r.ok()) << "warm-up failed: " << r.status().ToString() << " | "
                      << sql;
  }
}

/// Generates lineitem/orders from `seed`, builds the service and runs the
/// warm-up submissions.
std::unique_ptr<Env> MakeEnv(size_t rows, uint64_t seed,
                             const std::vector<std::string>& warmup) {
  auto env = std::make_unique<Env>();
  env->rows = rows;
  auto cat = aqp::workload::GenerateLineitemLike(rows, seed);
  AQP_CHECK(cat.ok()) << cat.status().ToString();
  env->catalog = std::make_unique<Catalog>(std::move(cat.value()));
  RestartService(*env, warmup);
  return env;
}

}  // namespace

// ---- Metrics ------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest-rank on the sorted samples, interpolated.
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

namespace {

/// End-to-end metrics of one loop (the names in BENCHMARK.json).
struct E2eInputs {
  const LoopRun* run = nullptr;
  const Verification* verification = nullptr;
  double setup_s = 0.0;
  double measured_s = 0.0;  // Denominator of throughput.
  double peak_rss_mb = 0.0;
};

// The per-pair cost ratios form one cluster per query class; a median jumps
// between clusters when a class gains or loses a pair, the geometric mean
// moves smoothly with the class mix.
double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Per query class: submissions, approximated share and p50 latency (ms).
std::string ClassLatency(const std::vector<Outcome>& outcomes) {
  std::map<std::string, std::vector<double>> lat;
  std::map<std::string, uint64_t> approx;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    const std::string key = o.q.klass + (o.q.contract() ? "+c" : "");
    lat[key].push_back(o.latency_ms);
    approx[key] += o.approximated ? 1 : 0;
  }
  std::string s;
  char buf[160];
  for (const auto& [k, v] : lat) {
    std::snprintf(buf, sizeof(buf), "%s n=%zu approx=%.2f p50=%.2f max=%.2f; ",
                  k.c_str(), v.size(),
                  static_cast<double>(approx[k]) / v.size(), Median(v),
                  *std::max_element(v.begin(), v.end()));
    s += buf;
  }
  return s;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

constexpr size_t kWindows = 5;

void AddEndToEnd(const E2eInputs& in, Report* report) {
  const std::vector<Outcome>& outs = in.run->outcomes;
  std::vector<double> lat, degraded;
  uint64_t contract = 0, approximated = 0;
  std::map<std::pair<int, int64_t>, std::vector<const Outcome*>> pairs;
  for (const Outcome& o : outs) {
    if (!o.ok) continue;
    lat.push_back(o.latency_ms);
    if (o.rung > 0) degraded.push_back(o.latency_ms);
    if (o.q.contract()) {
      ++contract;
      approximated += o.approximated ? 1 : 0;
    }
    if (o.q.pair >= 0) pairs[{o.session, o.q.pair}].push_back(&o);
  }
  // A twin pair counts when both halves were executed (no cache hit) at
  // rung 0: the contract half's latency over its exact twin's.
  std::vector<double> approx_ratio, decline_ratio;
  for (const auto& [key, members] : pairs) {
    if (members.size() != 2) continue;
    const Outcome* c = members[0]->q.contract() ? members[0] : members[1];
    const Outcome* e = members[0]->q.contract() ? members[1] : members[0];
    if (!c->q.contract() || e->q.contract()) continue;
    if (c->hit || e->hit || c->rung != 0 || e->rung != 0) continue;
    (c->approximated ? approx_ratio : decline_ratio)
        .push_back(c->latency_ms / e->latency_ms);
  }
  const Verification& v = *in.verification;
  report->Add("setup_s", in.setup_s, "s", 3);
  // With enough submissions for every window to carry ten samples beyond
  // its p99, the percentiles and the throughput are medians over equal time
  // windows of the run, so a stretch of the run slowed by something outside
  // the program moves them less.
  const size_t windows = std::min<size_t>(kWindows, lat.size() / 1000);
  double p50 = Percentile(lat, 50), p99 = Percentile(lat, 99);
  double qps = in.measured_s > 0
                   ? static_cast<double>(outs.size()) / in.measured_s
                   : 0.0;
  if (windows >= 2) {
    std::vector<std::vector<double>> wlat(windows);
    std::vector<double> wcount(windows, 0.0);
    for (const Outcome& o : outs) {
      const size_t w = std::min(
          windows - 1, static_cast<size_t>(o.start_s / in.measured_s *
                                           static_cast<double>(windows)));
      wcount[w] += 1.0;
      if (o.ok) wlat[w].push_back(o.latency_ms);
    }
    std::vector<double> w50, w99, wqps;
    for (size_t w = 0; w < windows; ++w) {
      w50.push_back(Percentile(wlat[w], 50));
      w99.push_back(Percentile(wlat[w], 99));
      wqps.push_back(wcount[w] / (in.measured_s / static_cast<double>(windows)));
    }
    p50 = Median(w50);
    p99 = Median(w99);
    qps = Median(wqps);
  }
  report->Add("query_p50_ms", p50, "ms", lat.size());
  report->Add("query_p99_ms", p99, "ms", lat.size());
  report->Add("throughput_qps", qps, "1/s", outs.size());
  report->Add("approx_cost_ratio", GeoMean(approx_ratio), "ratio",
              approx_ratio.size());
  report->Add("decline_cost_ratio", GeoMean(decline_ratio), "ratio",
              decline_ratio.size());
  report->Add("degraded_p50_ms", Percentile(degraded, 50), "ms",
              degraded.size());
  report->Add("approximated_frac",
              contract > 0 ? static_cast<double>(approximated) / contract : 0.0,
              "fraction", contract);
  report->Add("contract_met_frac",
              v.approx_answers > 0
                  ? static_cast<double>(v.contract_met) / v.approx_answers
                  : 0.0,
              "fraction", v.approx_answers);
  report->Add("ci_coverage_frac",
              v.approx_cells > 0
                  ? static_cast<double>(v.covered_cells) / v.approx_cells
                  : 0.0,
              "fraction", v.approx_cells);
  report->Add("peak_rss_mb", in.peak_rss_mb, "MB", 1);
}

}  // namespace

double P50Ms(const LoopRun& run) {
  std::vector<double> lat;
  for (const Outcome& o : run.outcomes) lat.push_back(o.latency_ms);
  return Percentile(std::move(lat), 50);
}

// ---- Workload runners ---------------------------------------------------------

namespace {

/// Runs MakeEnv three times (the median is setup_s) and keeps the last.
std::unique_ptr<Env> SetupRepeated(const Args& args,
                                   const std::vector<std::string>& warmup,
                                   double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<Env> env;
  for (int i = 0; i < 3; ++i) {
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = MakeEnv(args.rows, args.seed, warmup);
    times.push_back(SecondsSince(t0));
  }
  *setup_s = Median(times);
  return env;
}

/// Counts the run's submissions and failures; exact mismatches are problems.
void RecordOutcomes(const LoopRun& run, const Verification& v,
                    WorkloadResult* out) {
  for (const Outcome& o : run.outcomes) {
    ++out->attempted;
    if (!o.ok) ++out->failed;
  }
  if (v.exact_mismatches > 0) {
    out->problems.push_back(std::to_string(v.exact_mismatches) +
                            " exact answers differ from their reference");
    for (const auto& e : v.errors) out->problems.push_back(e);
  }
}

/// The workload record: class shares and latencies, the share of
/// submissions repeating an earlier text (warm-up included) and the share
/// of text variants.
void AddWorkloadInfo(const std::vector<Outcome>& outcomes,
                     const std::vector<std::string>& warmup, Report* report) {
  std::set<std::pair<std::string, int64_t>> seen;
  for (const std::string& sql : warmup) seen.insert({sql, -1});
  std::map<std::string, uint64_t> per_class;
  uint64_t repeats = 0, variants = 0;
  for (const Outcome& o : outcomes) {
    ++per_class[o.q.klass];
    if (!seen.insert({o.q.sql, o.q.deadline_ms}).second) ++repeats;
    if (o.q.variant) ++variants;
  }
  const double n = static_cast<double>(std::max<size_t>(outcomes.size(), 1));
  char buf[96];
  std::string shares;
  for (const auto& [k, c] : per_class) {
    std::snprintf(buf, sizeof(buf), "%s=%.3f ", k.c_str(), c / n);
    shares += buf;
  }
  report->info["class_shares"] = shares;
  report->info["class_latency"] = ClassLatency(outcomes);
  std::snprintf(buf, sizeof(buf), "%.4f", repeats / n);
  report->info["repeat_share"] = buf;
  std::snprintf(buf, sizeof(buf), "%.4f", variants / n);
  report->info["variant_share"] = buf;
}

}  // namespace

ServiceCounters ServiceCounters::Of(const aqp::service::QueryService& service) {
  ServiceCounters c;
  c.cache = service.result_cache_stats();
  c.synopsis = service.synopsis_cache_stats();
  c.drift_sweeps = service.drift_monitor().stats().sweeps;
  return c;
}

WorkloadResult RunReadWorkload(const Args& args, const ReadWorkload& w) {
  WorkloadResult out;
  // Untraced loops run with observability off (as AQP_OBS=0 would), so
  // span collection does not weigh on the gated figures; the traced replay
  // turns it on and reports its cost as obs.trace_overhead_ms.
  aqp::obs::MetricsRegistry::Global().set_enabled(false);
  double setup_s = 0.0;
  std::unique_ptr<Env> env = SetupRepeated(args, w.warmup, &setup_s);

  AnswerStore answers;
  auto gens = w.make_sessions(args.seed);
  std::vector<Generator*> raw;
  for (const auto& g : gens) raw.push_back(g.get());
  LoopLimit limit;
  limit.seconds = args.trace ? args.seconds / 2 : args.seconds;
  const ServiceCounters before = ServiceCounters::Of(*env->service);
  LoopRun run = RunClosedLoop(*env->service, raw, limit, answers, nullptr);
  const double peak_rss_mb = PeakRssMb();  // Before verification's own work.
  const ServiceCounters after = ServiceCounters::Of(*env->service);
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  if (w.distinct_texts && hits > 0) {
    out.problems.push_back("result cache hit " + std::to_string(hits) +
                           " times; every text of this workload is distinct");
  }

  if (!args.trace) {
    const Clock::time_point verify0 = Clock::now();
    Verification v = Verify(run.outcomes, answers, *env->catalog);
    const double verify_s = SecondsSince(verify0);
    RecordOutcomes(run, v, &out);
    E2eInputs in;
    in.run = &run;
    in.verification = &v;
    in.setup_s = setup_s;
    in.measured_s = run.wall_s;
    in.peak_rss_mb = peak_rss_mb;
    AddEndToEnd(in, &out.e2e);
    AddWorkloadInfo(run.outcomes, w.warmup, &out.e2e);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                    : 0.0);
    out.e2e.info["result_cache_hit_ratio"] = buf;
    std::snprintf(buf, sizeof(buf), "%.2f", verify_s);
    out.e2e.info["verify_s"] = buf;
    out.e2e.info["sessions"] = std::to_string(w.sessions);
    out.e2e.info["lineitem_rows"] = std::to_string(args.rows);
    out.e2e.info["orders_rows"] = std::to_string(args.rows / 4);
    out.e2e.info["references"] = std::to_string(v.references);
    out.e2e.info["exact_answers_checked"] = std::to_string(v.exact_checked);
    return out;
  }

  // Traced: a fresh service on the same data replays the same submissions.
  RestartService(*env, w.warmup);
  aqp::obs::MetricsRegistry::Global().set_enabled(true);
  auto replay = w.make_sessions(args.seed);
  raw.clear();
  for (const auto& g : replay) raw.push_back(g.get());
  SpanAccumulator spans;
  LayerInputs li;
  li.before = ServiceCounters::Of(*env->service);
  LoopLimit counts;
  counts.counts = run.per_session;
  LoopRun traced = RunClosedLoop(*env->service, raw, counts, answers, &spans);
  li.after = ServiceCounters::Of(*env->service);
  RecordOutcomes(traced, Verify(traced.outcomes, answers, *env->catalog),
                 &out);
  li.env = env.get();
  li.traced = &traced;
  li.spans = &spans;
  li.untraced_p50_ms = P50Ms(run);
  li.seed = args.seed;
  li.extent_dir = args.out_dir;
  AddLayerMetrics(li, &out.layer);
  return out;
}

}  // namespace perfbench
