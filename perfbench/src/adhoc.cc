// adhoc: one analyst session exploring lineitem/orders. Every submission's
// SQL text is distinct (each query carries its own literal), so the result
// cache never hits; the benchmark fails the run if it does.
//
// The mix is a seeded shuffle of fixed rounds, so class shares do not depend
// on the seed: per round, twin pairs (each query once with
// WITH ERROR 10% CONFIDENCE 95% and once without, back to back, the order
// alternating) of global SUM/COUNT x2, selective filter x3,
// GROUP BY shipmode x2, GROUP BY suppkey x1 (pilot, then decline),
// COUNT(DISTINCT) x1 (declined by rule), an FK join to orders every second
// round, plus five deadline-0 submissions answered from the cached lineitem
// synopsis (rung 1) and one deadline-0 submission on orders, which the
// synopsis cache skips, answered by online aggregation (rung 2).
//
// Shares are chosen so that the medians fall inside one class's cluster
// rather than between two: the submissions cheaper than an exact filter
// (deadline-0, approximate filter and global) number as many as those
// dearer than it, so query_p50_ms is the exact filter's latency, and rung 1
// outnumbers rung 2 five to one, so degraded_p50_ms is rung 1's median
// region rather than its upper tail.

#include <algorithm>
#include <string>

#include "bench.h"
#include "common/random.h"

namespace perfbench {

const char* const kClasses[6] = {"global",        "filter", "group_shipmode",
                                 "group_suppkey", "join",   "distinct"};

// 10%: at 5% the GROUP BY shipmode and selective-filter classes sit at the
// planner's max_rate boundary (required rate ~0.09 against 0.1), so whether
// they approximate flips from seed to seed; at 10% every class is clearly on
// one side (suppkey and COUNT(DISTINCT) still decline).
const char* const kAdhocContract = " WITH ERROR 10% CONFIDENCE 95%";
const double kAdhocError = 0.10;

std::string ClassSql(const std::string& klass, int64_t k) {
  // `k` keeps the texts distinct: every literal below is strictly increasing
  // in k. At the benchmark's size (250k orders) and run length k stays in
  // the low thousands, so "orderkey >= k" keeps practically every row.
  const double kd = static_cast<double>(k);
  if (klass == "global") {
    return Fmt("SELECT SUM(extendedprice), COUNT(*) FROM lineitem "
               "WHERE orderkey >= %.0f", kd);
  }
  if (klass == "filter") {
    // ~7% of the rows for every k below a million, so the exact filter's
    // latency (the median of the mix) does not depend on the literal.
    return Fmt("SELECT SUM(extendedprice), COUNT(*) FROM lineitem "
               "WHERE quantity <= 5 AND discount < %.7f",
               0.7 + 1e-7 * kd);
  }
  if (klass == "group_shipmode") {
    return Fmt("SELECT shipmode, SUM(extendedprice), COUNT(*) FROM lineitem "
               "WHERE orderkey >= %.0f GROUP BY shipmode", kd);
  }
  if (klass == "group_suppkey") {
    return Fmt("SELECT suppkey, SUM(extendedprice) FROM lineitem "
               "WHERE orderkey >= %.0f GROUP BY suppkey", kd);
  }
  if (klass == "join") {
    return Fmt("SELECT orderpriority, SUM(extendedprice), COUNT(*) "
               "FROM lineitem JOIN orders ON lineitem.orderkey = "
               "orders.orderkey WHERE lineitem.orderkey >= %.0f "
               "GROUP BY orderpriority", kd);
  }
  if (klass == "distinct") {
    return Fmt("SELECT COUNT(DISTINCT suppkey) FROM lineitem "
               "WHERE orderkey >= %.0f", kd);
  }
  if (klass == "rung1") {
    return Fmt("SELECT SUM(extendedprice), COUNT(*) FROM lineitem "
               "WHERE quantity <= %.0f AND discount < %.7f",
               static_cast<double>(10 + k % 30), 0.5 + 1e-7 * kd);
  }
  if (klass == "rung2") {
    // Online aggregation (rung 2) answers single-aggregate queries only.
    return Fmt("SELECT SUM(custkey) FROM orders WHERE orderkey >= %.0f", kd);
  }
  AQP_CHECK(false) << "unknown class " << klass;
  return "";
}

namespace {

int GroupCols(const std::string& klass) {
  return klass == "group_shipmode" || klass == "group_suppkey" ||
                 klass == "join"
             ? 1
             : 0;
}

class AdhocGenerator : public Generator {
 public:
  explicit AdhocGenerator(uint64_t seed) : rng_(seed, 11) {}

  Query Next() override {
    if (pending_.empty()) FillRound();
    Query q = pending_.front();
    pending_.erase(pending_.begin());
    return q;
  }

 private:
  void FillRound() {
    std::vector<std::string> items = {
        "global", "global", "filter", "filter", "filter", "group_shipmode",
        "group_shipmode", "group_suppkey", "distinct", "rung1", "rung1",
        "rung1", "rung1", "rung1", "rung2"};
    if (round_ % 2 == 1) items.push_back("join");
    ++round_;
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng_.UniformUint32(static_cast<uint32_t>(i))]);
    }
    for (const std::string& klass : items) {
      // Distinct literal per submission: a per-class counter plus jitter.
      const int64_t k =
          static_cast<int64_t>(3 * counter_[klass]++ + rng_.UniformUint32(3)) + 1;
      const std::string base = ClassSql(klass, k);
      Query exact;
      exact.sql = base;
      exact.ref_sql = base;
      exact.klass = klass;
      exact.group_cols = GroupCols(klass);
      if (klass == "rung1" || klass == "rung2") {
        exact.sql = base + kAdhocContract;
        exact.error = kAdhocError;
        exact.deadline_ms = 0;
        pending_.push_back(exact);
        continue;
      }
      Query contract = exact;
      contract.sql = base + kAdhocContract;
      contract.error = kAdhocError;
      exact.pair = contract.pair = next_pair_;
      // Twin order alternates pair by pair.
      if (next_pair_++ % 2 == 0) {
        pending_.push_back(contract);
        pending_.push_back(exact);
      } else {
        pending_.push_back(exact);
        pending_.push_back(contract);
      }
    }
  }

  aqp::Pcg32 rng_;
  uint64_t round_ = 0;
  int64_t next_pair_ = 0;
  std::map<std::string, uint64_t> counter_;
  std::vector<Query> pending_;
};

std::vector<std::string> Warmup() {
  // Builds the lineitem synopses (uniform + stratified on both GROUP BY
  // columns) with texts no timed submission uses.
  return {"SELECT COUNT(*) FROM lineitem GROUP BY shipmode",
          "SELECT COUNT(*) FROM lineitem GROUP BY suppkey"};
}

}  // namespace

WorkloadResult RunAdhoc(const Args& args) {
  // Set-up writes no extent file: SQL cannot bind an extent-backed table
  // (the binder asks Catalog::Get for it), so no submission could read one.
  ReadWorkload w;
  w.sessions = 1;
  w.warmup = Warmup();
  w.make_sessions = [](uint64_t seed) {
    std::vector<std::unique_ptr<Generator>> g;
    g.push_back(std::make_unique<AdhocGenerator>(seed));
    return g;
  };
  w.distinct_texts = true;
  return RunReadWorkload(args, w);
}

}  // namespace perfbench
