// perfbench: the repo benchmark. One process runs one workload:
//
//   aqp_perfbench --workload adhoc|dashboard --seed N --seconds S
//                 --trace 0|1 [--rows R] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// seeded submissions with span collection on and prints the per-layer
// metrics. Both also write a JSON report to DIR. The last stdout line is
// the machine-readable result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/json.h"

extern char** environ;

namespace perfbench {
namespace {

/// The end-to-end metrics the result line carries (BENCHMARK.json order).
const char* const kEndToEnd[] = {
    "setup_s",           "query_p50_ms",       "query_p99_ms",
    "throughput_qps",    "approx_cost_ratio",  "decline_cost_ratio",
    "degraded_p50_ms",   "approximated_frac",  "contract_met_frac",
    "ci_coverage_frac",  "peak_rss_mb"};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: aqp_perfbench --workload adhoc|dashboard "
               "--seed N --seconds S --trace 0|1 [--rows R] [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--rows") {
      a.rows = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || a.rows < 1000) Usage("bad --rows (>= 1000)");
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.workload != "adhoc" && a.workload != "dashboard") {
    Usage("unknown workload");
  }
  return a;
}

/// The service reads AQP_* knobs from the environment at construction;
/// clearing them keeps runs comparable across machines and shells.
void ClearAqpEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AQP_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
}

std::string Quote(const std::string& s) {
  return "\"" + aqp::obs::JsonEscape(s) + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  ClearAqpEnvironment();
  // Creates the report directory and any missing parents.
  const std::string& dir = args.out_dir;
  for (size_t pos = dir.find('/', 1);; pos = dir.find('/', pos + 1)) {
    ::mkdir(dir.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }

  WorkloadResult res =
      args.workload == "adhoc" ? RunAdhoc(args) : RunDashboard(args);
  const Report& report = args.trace ? res.layer : res.e2e;

  std::vector<std::string> gated;
  if (args.trace) {
    for (const auto& m : report.metrics) gated.push_back(m.name);
  } else {
    for (const char* n : kEndToEnd) gated.push_back(n);
  }
  std::map<std::string, const Report::Metric*> by_name;
  for (const auto& m : report.metrics) by_name[m.name] = &m;
  for (const std::string& n : gated) {
    auto it = by_name.find(n);
    if (it == by_name.end()) {
      res.problems.push_back("metric " + n + " was not measured");
    } else if (!std::isfinite(it->second->value)) {
      res.problems.push_back("metric " + n + " is not finite");
    } else if (!args.trace && args.full_size() && it->second->samples == 0) {
      res.problems.push_back("metric " + n + " has no samples");
    }
  }
  if (res.failed > 0) {
    res.problems.push_back(std::to_string(res.failed) +
                           " submissions failed or were rejected");
  }
  const bool correct = res.problems.empty();

  std::printf("workload %s seed %llu trace %d rows %zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.rows);
  for (const auto& m : report.metrics) {
    std::printf("  %-36s %14.4f %-8s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("  %-36s %14.4f %-8s (n=%llu)\n", "failed_frac",
              res.attempted > 0 ? static_cast<double>(res.failed) / res.attempted
                                : 0.0,
              "fraction", static_cast<unsigned long long>(res.attempted));
  for (const auto& [k, v] : report.info) {
    std::printf("  %s: %s\n", k.c_str(), v.c_str());
  }
  for (const std::string& p : res.problems) {
    std::printf("  PROBLEM: %s\n", p.c_str());
  }

  // Machine-readable report next to the printed one.
  std::string file = "{\"workload\": " + Quote(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "true" : "false") +
                     ", \"rows\": " + std::to_string(args.rows) +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    file += (first ? "" : ", ") + Quote(m.name) +
            ": {\"value\": " + Num(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + Quote(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  file += "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : report.info) {
    file += (first ? "" : ", ") + Quote(k) + ": " +
            Quote(v);
    first = false;
  }
  file += "}, \"problems\": [";
  first = true;
  for (const std::string& p : res.problems) {
    file += (first ? "" : ", ") + Quote(p);
    first = false;
  }
  file += "]}\n";
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace.json" : "-e2e.json");
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(file.c_str(), f);
    std::fclose(f);
  }

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const std::string& n : gated) {
    auto it = by_name.find(n);
    const double v = it != by_name.end() && std::isfinite(it->second->value)
                         ? it->second->value
                         : 0.0;
    const std::string unit = it != by_name.end() ? it->second->unit : "";
    line += (first ? "" : ", ") + Quote(n) +
            ": {\"value\": " + Num(v) + ", \"unit\": " +
            Quote(unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
