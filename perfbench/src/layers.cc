// Per-layer metrics of the traced run. Each comes from timing a call into
// one module's public functions from here, or from counters and profile
// fields those functions already return; nothing is traced inside src/.
// Every workload reports the full set, so standalone calls that a workload's
// own loop does not make (e.g. an extent scan on dashboard) are made here on
// that workload's data.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "bench.h"
#include "core/offline_catalog.h"
#include "core/offline_executor.h"
#include "engine/executor.h"
#include "expr/expr.h"
#include "gov/governed_executor.h"
#include "sampling/block.h"
#include "service/result_cache.h"
#include "service/synopsis_cache.h"
#include "storage/extent/extent_reader.h"
#include "storage/extent/extent_writer.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/datagen.h"

namespace perfbench {
namespace {

using aqp::service::Submission;

constexpr const char* kRung1Sql =
    "SELECT SUM(extendedprice), COUNT(*) FROM lineitem WHERE quantity <= 20 "
    "WITH ERROR 5% CONFIDENCE 95%";

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0) * 1e3;
}

/// Up to `n` distinct submitted texts without a deadline whose loop latency
/// was below `max_ms` (keeps probes cheap), spread over the whole run.
std::vector<std::string> SampleSql(const std::vector<Outcome>& outs, size_t n,
                                   double max_ms) {
  std::vector<std::string> all;
  std::set<std::string> seen;
  for (const Outcome& o : outs) {
    if (o.ok && o.q.deadline_ms < 0 && o.latency_ms < max_ms &&
        seen.insert(o.q.sql).second) {
      all.push_back(o.q.sql);
    }
  }
  std::vector<std::string> out;
  const size_t stride = std::max<size_t>(1, all.size() / std::max<size_t>(n, 1));
  for (size_t i = 0; i < all.size() && out.size() < n; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

/// Writes lineitem sorted on orderkey to an extent file in `dir`, registers
/// it as "lineitem_ext", runs `measure(decoded_bytes)`, then drops the name
/// and deletes the file.
template <typename Fn>
void WithExtentCopy(Env& env, const std::string& dir, Fn&& measure) {
  auto li = env.catalog->Get("lineitem");
  AQP_CHECK(li.ok()) << li.status().ToString();
  const aqp::Table& t = *li.value();
  const aqp::Column& keys = t.column(t.ColumnIndex("orderkey").value());
  std::vector<int64_t> k(t.num_rows());
  for (size_t i = 0; i < k.size(); ++i) k[i] = keys.GetValue(i).int64();
  std::vector<uint32_t> idx(t.num_rows());
  std::iota(idx.begin(), idx.end(), 0u);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](uint32_t a, uint32_t b) { return k[a] < k[b]; });
  const std::string path =
      dir + "/lineitem_" + std::to_string(::getpid()) + ".aqpx";
  aqp::extent::ExtentWriter::Options wo;
  wo.extent_rows = 4096;  // Small extents: zone maps prune a narrow range.
  auto written = aqp::extent::WriteTableToExtents(path, t.TakeBatch(idx), wo);
  AQP_CHECK(written.ok()) << written.status().ToString();
  auto reader = aqp::extent::ExtentReader::Open(path);
  AQP_CHECK(reader.ok()) << reader.status().ToString();
  uint64_t decoded = 0;
  for (const auto& e : reader.value()->extents()) decoded += e.raw_bytes;
  env.catalog->RegisterExtentBacked("lineitem_ext", reader.value());
  measure(decoded);
  AQP_CHECK(env.catalog->Drop("lineitem_ext").ok());
  std::remove(path.c_str());
}

}  // namespace

void AddLayerMetrics(const LayerInputs& in, Report* r) {
  Env& env = *in.env;
  aqp::service::QueryService& svc = *env.service;
  const aqp::Catalog& catalog = *env.catalog;
  const std::vector<Outcome>& outs = in.traced->outcomes;
  const aqp::service::ServiceOptions& sopts = svc.options();
  auto lineitem = catalog.Get("lineitem");
  AQP_CHECK(lineitem.ok());
  const double lineitem_rows = static_cast<double>(lineitem.value()->num_rows());

  // ---- service -----------------------------------------------------------
  {
    // Result-cache hit path: re-submit texts the run answered; the second
    // submission of each is a hit.
    auto session = svc.OpenSession();
    std::vector<double> hit_ms;
    for (const std::string& sql : SampleSql(outs, 40, 200.0)) {
      svc.Execute(session, Submission(sql));
      const Clock::time_point t0 = Clock::now();
      auto res = svc.Execute(session, Submission(sql));
      const double ms = SecondsSince(t0) * 1e3;
      if (res.ok() && res.value().profile.cache_source == "result-cache") {
        hit_ms.push_back(ms);
      }
    }
    r->Add("service.hit_ms", Median(hit_ms), "ms", hit_ms.size());
  }
  std::vector<double> gov_ms;
  {
    // Service overhead on a miss: QueryService::Execute (result cache off,
    // synopses warm) minus a standalone GovernedExecutor::Execute of the
    // same text and options, interleaved, alternating which goes first.
    aqp::service::ServiceOptions probe_opts = MakeServiceOptions(env.rows);
    probe_opts.use_result_cache = false;
    aqp::service::QueryService probe(&catalog, probe_opts);
    auto session = probe.OpenSession();
    const std::vector<std::string> sqls = SampleSql(outs, 20, 300.0);
    for (const std::string& sql : sqls) probe.Execute(session, Submission(sql));
    std::vector<double> overhead;
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t i = 0; i < sqls.size(); ++i) {
        double svc_ms = 0.0, g_ms = 0.0;
        auto run_svc = [&] {
          svc_ms = TimeMs([&] { probe.Execute(session, Submission(sqls[i])); });
        };
        auto run_gov = [&] {
          aqp::gov::GovernedExecutor gov(&catalog, nullptr, probe_opts.gov);
          g_ms = TimeMs([&] { (void)gov.Execute(sqls[i]); });
        };
        if ((i + rep) % 2 == 0) {
          run_svc();
          run_gov();
        } else {
          run_gov();
          run_svc();
        }
        overhead.push_back(svc_ms - g_ms);
        gov_ms.push_back(g_ms);
      }
    }
    r->Add("service.miss_overhead_ms", Median(overhead), "ms", overhead.size());
  }
  {
    std::vector<double> wait;
    for (const Outcome& o : outs) {
      if (o.ok) wait.push_back(o.admission_wait_ms);
    }
    r->Add("service.admission_wait_ms", Percentile(wait, 99), "ms", wait.size());
  }
  {
    // Front-end calls on each submission's text (first 2000).
    std::vector<double> fp, parse, bind;
    const std::vector<std::pair<std::string, uint64_t>> versions = {
        {"lineitem", catalog.Version("lineitem").value()}};
    aqp::service::ContractFingerprint contract;
    size_t n = 0;
    for (const Outcome& o : outs) {
      if (++n > 2000) break;
      const std::string& sql = o.q.sql;
      Clock::time_point t0 = Clock::now();
      volatile uint64_t f = aqp::service::FingerprintQuery(sql, versions, contract);
      (void)f;
      fp.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      auto stmt = aqp::sql::Parse(sql);
      parse.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      auto bound = aqp::sql::BindSql(sql, catalog);
      bind.push_back(SecondsSince(t0) * 1e6);
    }
    r->Add("service.fingerprint_us", Median(fp), "us", fp.size());
    r->Add("sql.parse_us", Median(parse), "us", parse.size());
    r->Add("sql.bind_us", Median(bind), "us", bind.size());
  }
  {
    const uint64_t hits = in.after.cache.hits - in.before.cache.hits;
    const uint64_t misses = in.after.cache.misses - in.before.cache.misses;
    r->Add("service.result_cache.hits", static_cast<double>(hits), "count");
    r->Add("service.result_cache.misses", static_cast<double>(misses), "count");
    r->Add("service.result_cache.evictions",
           static_cast<double>(in.after.cache.evictions -
                               in.before.cache.evictions),
           "count");
    r->Add("service.result_cache.hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
           "fraction");
    r->Add("service.synopsis_cache.builds",
           static_cast<double>(in.after.synopsis.builds -
                               in.before.synopsis.builds),
           "count");
  }
  aqp::service::SynopsisSpec uniform;
  uniform.budget = sopts.synopsis_rows;
  uniform.seed = sopts.gov.aqp.seed;
  {
    // The service's synopsis specs for lineitem, each built on a fresh cache.
    std::vector<double> build_ms;
    for (int rep = 0; rep < 3; ++rep) {
      aqp::service::SynopsisCache cache(0);
      build_ms.push_back(TimeMs([&] {
        for (const char* strata : {"", "shipmode", "suppkey"}) {
          aqp::service::SynopsisSpec spec = uniform;
          spec.strata_column = strata;
          auto built = cache.GetOrBuild(catalog, "lineitem", spec);
          AQP_CHECK(built.ok()) << built.status().ToString();
        }
      }));
    }
    r->Add("service.synopsis_build_ms", Median(build_ms), "ms", build_ms.size());
  }
  {
    std::vector<double> drift;
    for (int rep = 0; rep < 3; ++rep) {
      drift.push_back(TimeMs([&] { svc.drift_monitor().CheckNow(); }));
    }
    r->Add("service.drift_check_ms", Median(drift), "ms", drift.size());
    r->Add("service.drift.sweeps",
           static_cast<double>(in.after.drift_sweeps - in.before.drift_sweeps),
           "count");
  }

  // ---- gov -----------------------------------------------------------------
  r->Add("gov.execute_ms", Median(gov_ms), "ms", gov_ms.size());
  auto synopsis = svc.synopsis_cache().GetOrBuild(catalog, "lineitem", uniform);
  AQP_CHECK(synopsis.ok()) << synopsis.status().ToString();
  aqp::core::SampleCatalog samples;
  AQP_CHECK(samples.Adopt(synopsis.value().sample).ok());
  {
    aqp::gov::GovernedOptions g = sopts.gov;
    g.deadline_ms = 0;
    std::vector<double> ms;
    for (int rep = 0; rep < 20; ++rep) {
      aqp::gov::GovernedExecutor gov(&catalog, &samples, g);
      ms.push_back(TimeMs([&] {
        auto res = gov.Execute(kRung1Sql);
        AQP_CHECK(res.ok() && res.value().profile.degradation_rung == 1)
            << "deadline-0 probe was not answered by rung 1";
      }));
    }
    r->Add("gov.degraded_ms", Median(ms), "ms", ms.size());
  }
  {
    uint64_t rung[3] = {0, 0, 0};
    uint64_t retries = 0;
    for (const Outcome& o : outs) {
      if (!o.ok) continue;
      ++rung[std::min(o.rung, 2)];
      retries += o.retries;
    }
    for (int i = 0; i < 3; ++i) {
      r->Add("gov.rung" + std::to_string(i), static_cast<double>(rung[i]),
             "count");
    }
    r->Add("gov.retries", static_cast<double>(retries), "count");
  }

  // ---- core and engine, per adhoc class -------------------------------------
  const int64_t k = 1 + static_cast<int64_t>(in.seed % 3);
  uint64_t morsels = 0, steals = 0;
  for (const char* klass : kClasses) {
    const std::string c(klass);
    const std::string sql = ClassSql(c, k);
    std::vector<double> total, pilot, plan, fin, exact;
    for (int rep = 0; rep < 3; ++rep) {
      aqp::core::ApproxExecutor ex(&catalog, sopts.gov.aqp);
      aqp::core::ApproxResult res;
      total.push_back(TimeMs([&] {
        auto out = ex.Execute(sql + kAdhocContract);
        AQP_CHECK(out.ok()) << out.status().ToString();
        res = std::move(out.value());
      }));
      pilot.push_back(res.pilot_seconds * 1e3);
      plan.push_back(res.planning_seconds * 1e3);
      fin.push_back(res.final_seconds * 1e3);
      aqp::ExecStats stats;
      exact.push_back(TimeMs([&] {
        auto out = aqp::sql::ExecuteSql(sql, catalog, &stats);
        AQP_CHECK(out.ok()) << out.status().ToString();
      }));
      morsels += stats.parallel.morsels;
      steals += stats.parallel.steals;
    }
    r->Add("core.execute_ms." + c, Median(total), "ms", total.size());
    if (c != "distinct") {  // Declined by rule: no pilot, no plan.
      r->Add("core.pilot_ms." + c, Median(pilot), "ms", pilot.size());
      r->Add("core.plan_ms." + c, Median(plan), "ms", plan.size());
    }
    if (c == "global" || c == "join") {  // Always approximated at this size.
      r->Add("core.final_ms." + c, Median(fin), "ms", fin.size());
    }
    r->Add("engine.exact_ms." + c, Median(exact), "ms", exact.size());
  }
  r->Add("engine.morsels", static_cast<double>(morsels), "count");
  r->Add("engine.steals", static_cast<double>(steals), "count");
  {
    uint64_t piloted = 0, useful = 0;
    double read_ratio = 0.0;
    uint64_t approximated = 0;
    for (const Outcome& o : outs) {
      if (!o.ok || o.hit || o.rung != 0) continue;
      if (o.pilot_s > 0.0) {
        ++piloted;
        useful += o.approximated ? 1 : 0;
      }
      if (o.approximated) {
        ++approximated;
        read_ratio += static_cast<double>(o.rows_scanned) / lineitem_rows;
      }
    }
    r->Add("core.pilot_useful_ratio",
           piloted > 0 ? static_cast<double>(useful) / piloted : 0.0, "fraction",
           piloted);
    r->Add("core.rows_read_ratio",
           approximated > 0 ? read_ratio / approximated : 0.0, "fraction",
           approximated);
  }
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 20; ++rep) {
      aqp::core::OfflineExecutor off(&catalog, &samples, sopts.gov.aqp.exec);
      ms.push_back(TimeMs([&] {
        auto res = off.Execute(kRung1Sql);
        AQP_CHECK(res.ok()) << res.status().ToString();
      }));
    }
    r->Add("core.offline_ms", Median(ms), "ms", ms.size());
  }

  // ---- sampling and storage --------------------------------------------------
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      ms.push_back(TimeMs([&] {
        auto s = aqp::BlockSample(*lineitem.value(), sopts.gov.aqp.pilot_rate,
                                  sopts.gov.aqp.block_size,
                                  in.seed + static_cast<uint64_t>(rep),
                                  sopts.gov.aqp.exec);
        AQP_CHECK(s.ok());
      }));
    }
    r->Add("sampling.block_sample_ms", Median(ms), "ms", ms.size());
  }
  {
    // Appending a 1% batch of new rows from the generator to a copy.
    auto batch = aqp::workload::GenerateLineitemLike(
        std::max<size_t>(env.rows / 100, 1), in.seed * 1000003ull + 7);
    AQP_CHECK(batch.ok());
    auto fresh = batch.value().Get("lineitem");
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      aqp::Table copy = *lineitem.value();
      ms.push_back(TimeMs([&] { AQP_CHECK(copy.Append(*fresh.value()).ok()); }));
    }
    r->Add("storage.append_ms", Median(ms), "ms", ms.size());
  }
  WithExtentCopy(env, in.extent_dir, [&](uint64_t decoded_bytes) {
    // Range aggregate over the orderkey-clustered extent copy under a budget
    // of 1/8 of its decoded size: only the fused filter scan fits.
    const int64_t orders = static_cast<int64_t>(env.rows / 4);
    const int64_t lo = static_cast<int64_t>(in.seed % 16) * (orders / 32);
    auto plan = aqp::PlanNode::Aggregate(
        aqp::PlanNode::Filter(
            aqp::PlanNode::Scan("lineitem_ext"),
            aqp::Between(aqp::Col("orderkey"), aqp::Lit(lo),
                         aqp::Lit(lo + orders / 32))),
        {}, {},
        {{aqp::AggKind::kSum, aqp::Col("extendedprice"), "revenue"},
         {aqp::AggKind::kCountStar, nullptr, "n"}});
    std::vector<double> ms;
    aqp::ExecStats stats;
    for (int rep = 0; rep < 5; ++rep) {
      aqp::MemoryTracker memory(decoded_bytes / 8);
      aqp::ExecOptions options;
      options.memory = &memory;
      stats = aqp::ExecStats();
      ms.push_back(TimeMs([&] {
        auto res = aqp::Execute(plan, catalog, &stats, nullptr, options);
        AQP_CHECK(res.ok()) << res.status().ToString();
      }));
    }
    r->Add("storage.extent.scan_ms", Median(ms), "ms", ms.size());
    r->Add("storage.extent.pruned_frac",
           stats.extents_total > 0 ? static_cast<double>(stats.extents_pruned) /
                                         stats.extents_total
                                   : 0.0,
           "fraction", stats.extents_total);
  });

  // ---- obs: self time per span name, per submission ---------------------------
  {
    const double n = static_cast<double>(std::max<uint64_t>(in.spans->traces, 1));
    for (const char* name :
         {"admission", "result-cache", "synopsis-cache", "drift_check",
          "rung-0", "rung-1", "rung-2", "parse", "bind", "pilot", "plan",
          "final", "exact-execute", "other"}) {
      auto it = in.spans->self_ms.find(name);
      const double total = it == in.spans->self_ms.end() ? 0.0 : it->second;
      r->Add(std::string("obs.span.") + name + ".self_ms", total / n, "ms",
             in.spans->traces);
    }
    r->Add("obs.unattributed_ms", in.spans->unattributed_ms / n, "ms",
           in.spans->traces);
    r->Add("obs.trace_overhead_ms", P50Ms(*in.traced) - in.untraced_p50_ms,
           "ms");
  }
}

}  // namespace perfbench
