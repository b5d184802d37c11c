// dashboard: 4 sessions refreshing a fixed set of 48 panel queries (37
// tiles; a twin tile refreshes its WITH ERROR query and the exact twin back
// to back), tiles drawn by Zipf(1) popularity over fixed ranks. Each tile's
// literal window advances every kSlideRefreshes refreshes of that tile in a
// session, which gives a steady result-cache miss share that does not depend
// on run length, and kVariantShare of submissions are whitespace or
// keyword-case variants of the canonical text (the result cache keys on raw
// text, so these miss).

#include <algorithm>
#include <cctype>
#include <string>

#include "bench.h"
#include "common/random.h"

namespace perfbench {
namespace {

constexpr int kSlideRefreshes = 16;
constexpr double kVariantShare = 0.05;

enum class Kind {
  kSumQty,        // SUM(extendedprice) over a quantity window.
  kCountQty,      // COUNT(*) over a quantity window.
  kAvgDiscount,   // AVG(discount), SUM(quantity) over a quantity window.
  kDiscountBand,  // SUM(extendedprice), COUNT(*) over a discount band.
  kPriceFloor,    // SUM(quantity) above an extendedprice floor.
  kShipmodeMix,   // GROUP BY shipmode over a quantity window.
  kRareSlice,     // Very selective slice: the pilot declines.
  kDistinctSupp,  // COUNT(DISTINCT suppkey): declined by rule.
  kOrdersByPrio,  // orders GROUP BY orderpriority: the pilot declines.
  kOrdersSum,     // Exact orders panel.
  kExactCount,    // Exact lineitem panel.
  kDeadlineLine,  // Deadline 0 on lineitem: rung 1 (cached synopsis).
  kDeadlineOrd,   // Deadline 0 on orders: rung 2 (no synopsis).
};

struct Tile {
  Kind kind;
  bool twin = false;      // Contract query plus its exact twin.
  bool contract = true;   // For single tiles.
  int width = 9;          // Window width, keeps tile texts apart.
  int offset = 0;         // Window phase.
};

/// Tiles in popularity order (rank 1 first). One deadline-0 tile is popular
/// (rank 6), so degraded_p50_ms has many samples.
std::vector<Tile> Tiles() {
  using K = Kind;
  return {
      {K::kSumQty, true, true, 9, 0},       {K::kCountQty, false, true, 10, 3},
      {K::kRareSlice, true, true, 0, 0},    {K::kAvgDiscount, false, true, 11, 5},
      {K::kPriceFloor, true, true, 0, 0},   {K::kDeadlineLine, false, true, 9, 0},
      {K::kShipmodeMix, false, true, 9, 2}, {K::kCountQty, true, true, 13, 1},
      {K::kOrdersSum, false, false, 0, 0},  {K::kDiscountBand, false, true, 20, 4},
      {K::kDiscountBand, true, true, 25, 0}, {K::kAvgDiscount, true, true, 14, 6},
      {K::kSumQty, false, true, 15, 9},     {K::kPriceFloor, false, true, 0, 3},
      {K::kDistinctSupp, false, true, 1, 0}, {K::kExactCount, false, false, 0, 0},
      {K::kRareSlice, true, true, 0, 17},   {K::kDiscountBand, true, true, 30, 2},
      {K::kShipmodeMix, false, true, 12, 8}, {K::kAvgDiscount, false, true, 17, 13},
      {K::kOrdersByPrio, false, true, 0, 0}, {K::kSumQty, true, true, 18, 4},
      {K::kOrdersSum, false, false, 0, 5},  {K::kCountQty, false, true, 19, 15},
      {K::kPriceFloor, true, true, 0, 6},   {K::kDiscountBand, false, true, 15, 7},
      {K::kShipmodeMix, false, true, 15, 10}, {K::kAvgDiscount, false, true, 8, 17},
      {K::kSumQty, false, true, 7, 19},     {K::kExactCount, false, false, 0, 3},
      {K::kRareSlice, true, true, 0, 33},   {K::kCountQty, false, true, 6, 21},
      {K::kSumQty, false, true, 12, 7},     {K::kDeadlineLine, false, true, 11, 4},
      {K::kDiscountBand, false, true, 10, 9}, {K::kDeadlineLine, false, true, 13, 8},
      {K::kDeadlineOrd, false, true, 0, 0},
  };
}

struct PanelText {
  std::string sql;  // Without contract.
  std::string klass;
  int group_cols = 0;
  int64_t deadline_ms = -1;
};

/// A predicate every row satisfies whose literal is the window step: the
/// windows below cycle, this keeps every step's text (and answer key) new.
std::string Distinct(double step) {
  return Fmt(" AND orderkey < %.0f", 1.0e9 + step);
}

/// The tile's query (no contract) for window step `step`.
PanelText PanelSql(const Tile& t, int64_t step) {
  const double s = static_cast<double>(step);
  // Quantity window [lo, lo + width], lo in 1..(50 - width).
  const int span = std::max(1, 50 - t.width);
  const double lo = 1 + (t.offset + 3 * step) % span;
  const double hi = lo + t.width;
  const std::string win =
      Fmt("quantity BETWEEN %.0f AND %.0f", lo, hi) +
      Distinct(s);
  switch (t.kind) {
    case Kind::kSumQty:
      return {"SELECT SUM(extendedprice) FROM lineitem WHERE " + win, "sum_qty"};
    case Kind::kCountQty:
      return {"SELECT COUNT(*) FROM lineitem WHERE " + win, "count_qty"};
    case Kind::kAvgDiscount:
      return {"SELECT AVG(discount), SUM(quantity) FROM lineitem WHERE " + win,
              "avg_discount"};
    case Kind::kDiscountBand: {
      const double d = 0.01 * ((t.offset * 7 + 5 * step) % (100 - t.width));
      return {Fmt("SELECT SUM(extendedprice), COUNT(*) FROM lineitem WHERE "
                "discount BETWEEN %.2f AND %.2f",
                d, d + 0.01 * t.width) +
                  Distinct(s),
              "discount_band"};
    }
    case Kind::kPriceFloor:
      return {Fmt("SELECT SUM(quantity) FROM lineitem WHERE extendedprice > "
                "%.4f",
                1.0 + 0.0013 * ((t.offset * 11 + step) % 300)) +
                  Distinct(s),
              "price_floor"};
    case Kind::kShipmodeMix:
      return {"SELECT shipmode, SUM(extendedprice) FROM lineitem WHERE " + win +
                  " GROUP BY shipmode",
              "shipmode_mix", 1};
    case Kind::kRareSlice:
      return {Fmt("SELECT SUM(extendedprice) FROM lineitem WHERE quantity = %.0f "
                "AND discount < 0.1",
                1 + static_cast<double>((t.offset + step) % 50)) +
                  Distinct(s),
              "rare_slice"};
    case Kind::kDistinctSupp:
      return {Fmt("SELECT COUNT(DISTINCT suppkey) FROM lineitem WHERE quantity "
                "BETWEEN %.0f AND %.0f",
                lo, lo + 1) +
                  Distinct(s),
              "distinct_supp"};
    case Kind::kOrdersByPrio:
      return {Fmt("SELECT orderpriority, COUNT(*) FROM orders WHERE orderkey >= "
                "%.0f GROUP BY orderpriority",
                static_cast<double>((t.offset + 17 * step) % 1000)) ,
              "orders_by_priority", 1};
    case Kind::kOrdersSum:
      return {Fmt("SELECT SUM(custkey), COUNT(*) FROM orders WHERE orderkey >= "
                "%.0f",
                static_cast<double>(t.offset + 13 * step)),
              "orders_sum"};
    case Kind::kExactCount:
      return {Fmt("SELECT COUNT(*) FROM lineitem WHERE quantity = %.0f",
                1 + static_cast<double>((t.offset + step) % 50)) +
                  Distinct(s),
              "exact_count"};
    case Kind::kDeadlineLine:
      return {"SELECT SUM(extendedprice), COUNT(*) FROM lineitem WHERE " + win,
              "deadline_rung1", 0, 0};
    case Kind::kDeadlineOrd:
      // Online aggregation (rung 2) answers single-aggregate queries only.
      return {Fmt("SELECT SUM(custkey) FROM orders WHERE orderkey >= %.0f",
                static_cast<double>(t.offset + 7 * step)),
              "deadline_rung2", 0, 0};
  }
  return {};
}

constexpr const char* kContract = " WITH ERROR 5% CONFIDENCE 95%";

/// Whitespace or keyword-case variant `form` of `sql` (same query).
std::string Variant(const std::string& sql, int form) {
  if (form == 0) {
    static const char* kKeywords[] = {"SELECT", "FROM",  "WHERE", "BETWEEN",
                                      "AND",    "GROUP", "BY",    "WITH",
                                      "ERROR",  "CONFIDENCE", "COUNT", "SUM",
                                      "AVG",    "DISTINCT"};
    std::string out = sql;
    for (const char* kw : kKeywords) {
      const std::string k(kw);
      std::string lower = k;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      for (size_t pos = out.find(k); pos != std::string::npos;
           pos = out.find(k, pos + k.size())) {
        out.replace(pos, k.size(), lower);
      }
    }
    return out;
  }
  if (form == 1) {
    std::string out;
    for (char c : sql) {
      out += c;
      if (c == ' ') out += ' ';
    }
    return out;
  }
  return "\n  " + sql + " ;";
}

/// Zipf(1) sampler over tile ranks.
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double total = 0.0;
    for (size_t r = 1; r <= n; ++r) {
      total += 1.0 / static_cast<double>(r);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(aqp::Pcg32& rng) const {
    const double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

class PanelGenerator : public Generator {
 public:
  PanelGenerator(uint64_t seed, int session)
      : rng_(seed, 100 + session),
        tiles_(Tiles()),
        zipf_(tiles_.size()),
        refreshes_(tiles_.size(), 0) {}

  Query Next() override {
    if (pending_.empty()) Refresh();
    Query q = pending_.front();
    pending_.erase(pending_.begin());
    return q;
  }

 private:
  void Refresh() {
    const size_t tile = zipf_.Draw(rng_);
    const Tile& t = tiles_[tile];
    const int64_t step = refreshes_[tile] / kSlideRefreshes;
    ++refreshes_[tile];
    const PanelText p = PanelSql(t, step);
    Query base;
    base.ref_sql = p.sql;
    base.klass = p.klass;
    base.group_cols = p.group_cols;
    base.deadline_ms = p.deadline_ms;
    Query with_contract = base;
    with_contract.sql = p.sql + kContract;
    with_contract.error = 0.05;
    Query exact = base;
    exact.sql = p.sql;
    std::vector<Query> qs;
    if (t.twin) {
      with_contract.pair = exact.pair = next_pair_;
      if (next_pair_++ % 2 == 0) {
        qs = {with_contract, exact};
      } else {
        qs = {exact, with_contract};
      }
    } else {
      qs = {t.contract ? with_contract : exact};
    }
    for (Query& q : qs) {
      if (rng_.NextDouble() < kVariantShare) {
        q.sql = Variant(q.sql, static_cast<int>(rng_.UniformUint32(3)));
        q.variant = true;
      }
      pending_.push_back(std::move(q));
    }
  }

  aqp::Pcg32 rng_;
  std::vector<Tile> tiles_;
  Zipf zipf_;
  std::vector<int64_t> refreshes_;
  int64_t next_pair_ = 0;
  std::vector<Query> pending_;
};

/// Every tile's queries at window step 0: fills the result cache (the first
/// refresh of a dashboard is its cold start) and builds the synopses.
std::vector<std::string> Warmup() {
  std::vector<std::string> sqls;
  for (const Tile& t : Tiles()) {
    const PanelText p = PanelSql(t, 0);
    if (p.deadline_ms >= 0) {
      continue;  // Degraded answers are never cached.
    }
    if (t.twin || !t.contract) sqls.push_back(p.sql);
    if (t.twin || t.contract) sqls.push_back(p.sql + kContract);
  }
  return sqls;
}

}  // namespace

WorkloadResult RunDashboard(const Args& args) {
  ReadWorkload w;
  w.sessions = 4;
  w.warmup = Warmup();
  w.make_sessions = [n = w.sessions](uint64_t seed) {
    std::vector<std::unique_ptr<Generator>> gens;
    for (int s = 0; s < n; ++s) {
      gens.push_back(std::make_unique<PanelGenerator>(seed, s));
    }
    return gens;
  };
  return RunReadWorkload(args, w);
}

}  // namespace perfbench
