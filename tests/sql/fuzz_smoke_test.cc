// Parser/binder fuzz smoke: a thousand seeded random mutations of valid
// queries must flow through Parse (and, when parsing succeeds, Bind and the
// full engine) as Status values — never a crash, hang, or UB. This is the
// cheap always-on cousin of a real fuzzer: deterministic, a few milliseconds,
// and it runs in every CI configuration including the sanitizers.
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace sql {
namespace {

const char* const kSeedQueries[] = {
    "SELECT SUM(quantity) AS s FROM lineitem",
    "SELECT shipmode, AVG(extendedprice) AS p FROM lineitem "
    "GROUP BY shipmode HAVING AVG(extendedprice) > 10 ORDER BY shipmode",
    "SELECT COUNT(*) AS n FROM lineitem WHERE quantity < 25 AND discount "
    ">= 0.01",
    "SELECT l.quantity FROM lineitem AS l JOIN orders AS o ON l.orderkey = "
    "o.orderkey LIMIT 7",
    "SELECT SUM(extendedprice * (1 - discount)) AS rev FROM lineitem "
    "TABLESAMPLE BERNOULLI (10 PERCENT) WITH ERROR 5% CONFIDENCE 95%",
    "SELECT MIN(quantity) AS lo, MAX(quantity) AS hi FROM lineitem "
    "WHERE shipmode = 'AIR' OR shipmode = 'RAIL'",
};

// Applies one random byte-level mutation. Byte-level on purpose: token
// boundaries, quotes, and multi-byte garbage are exactly where hand-written
// lexers break.
std::string Mutate(std::string q, Pcg32& rng) {
  if (q.empty()) return q;
  switch (rng.UniformUint32(6)) {
    case 0:  // Delete a byte.
      q.erase(rng.UniformUint32(static_cast<uint32_t>(q.size())), 1);
      break;
    case 1:  // Insert a random byte (full range, including non-UTF8).
      q.insert(q.begin() + rng.UniformUint32(
                               static_cast<uint32_t>(q.size()) + 1),
               static_cast<char>(rng.UniformUint32(256)));
      break;
    case 2: {  // Overwrite a byte with random punctuation.
      const char punct[] = "(),.;'\"%*<>=+-";
      q[rng.UniformUint32(static_cast<uint32_t>(q.size()))] =
          punct[rng.UniformUint32(sizeof(punct) - 1)];
      break;
    }
    case 3:  // Truncate.
      q.resize(rng.UniformUint32(static_cast<uint32_t>(q.size())));
      break;
    case 4: {  // Swap two bytes.
      size_t a = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      size_t b = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      std::swap(q[a], q[b]);
      break;
    }
    case 5: {  // Duplicate a random slice (nested / repeated clauses).
      size_t at = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      size_t len = rng.UniformUint32(16) + 1;
      q.insert(at, q.substr(at, len));
      break;
    }
  }
  return q;
}

TEST(FuzzSmokeTest, ThousandMutatedQueriesNeverCrash) {
  Catalog catalog = workload::GenerateLineitemLike(2000, 23).value();
  Pcg32 rng(20260807);
  size_t parsed = 0;
  size_t bound = 0;
  size_t differential = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string q = kSeedQueries[i % std::size(kSeedQueries)];
    const uint32_t rounds = 1 + rng.UniformUint32(4);
    for (uint32_t r = 0; r < rounds; ++r) q = Mutate(std::move(q), rng);

    Result<SelectStmt> stmt = Parse(q);
    if (!stmt.ok()) continue;
    ++parsed;
    Result<BoundQuery> b = Bind(stmt.value(), catalog);
    if (!b.ok()) continue;
    ++bound;
    // Queries that survive binding must also execute without crashing.
    (void)ExecuteSql(q, catalog);
    // Differential leg: the bound plan must behave identically on the
    // scalar and vectorized paths — same success/failure, and on success a
    // cell-for-cell bit-identical table at every thread count.
    ExecOptions scalar;
    scalar.path = ExecPath::kScalar;
    scalar.num_threads = 1;
    Result<Table> ref = Execute(b->plan, catalog, nullptr, nullptr, scalar);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions vec;
      vec.path = ExecPath::kVectorized;
      vec.num_threads = threads;
      Result<Table> got = Execute(b->plan, catalog, nullptr, nullptr, vec);
      ASSERT_EQ(ref.ok(), got.ok()) << q;
      if (ref.ok()) {
        ++differential;
        EXPECT_TRUE(testutil::TablesBitIdentical(ref.value(), got.value()))
            << q;
      } else {
        EXPECT_EQ(ref.status().code(), got.status().code()) << q;
      }
    }
  }
  // The mutator must not be so destructive that the test stops exercising
  // the deeper layers: some mutants still parse and bind.
  EXPECT_GT(parsed, 50u);
  EXPECT_GT(bound, 10u);
  EXPECT_GT(differential, 0u);
}

// The lexer's keywords (sql/lexer.cc), the only words Respell may re-case.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "SELECT", "FROM",   "WHERE",  "GROUP",      "BY",       "HAVING",
      "ORDER",  "LIMIT",  "JOIN",   "INNER",      "LEFT",     "OUTER",
      "ON",     "AS",     "AND",    "OR",         "NOT",      "IN",
      "BETWEEN", "LIKE",  "TABLESAMPLE", "BERNOULLI", "SYSTEM", "WITH",
      "ERROR",  "CONFIDENCE", "COUNT", "SUM",     "AVG",      "MIN",
      "MAX",    "VAR",    "STDDEV", "DISTINCT",   "TRUE",     "FALSE",
      "NULL",   "UNION",  "ALL",    "ASC",        "DESC",     "IS",
  };
  return kKeywords;
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Re-spells `q` without changing the tokens it lexes to, working on the raw
// characters rather than on the lexer's output: every whitespace run becomes
// a random run of 1-3 spaces/tabs/newlines, whitespace may appear around
// parentheses and commas, and keywords get random letter case. String
// literals and numbers are copied verbatim.
std::string Respell(const std::string& q, Pcg32& rng) {
  std::string out;
  auto whitespace = [&] {
    const uint32_t n = 1 + rng.UniformUint32(3);
    for (uint32_t k = 0; k < n; ++k) out += " \t\n"[rng.UniformUint32(3)];
  };
  size_t i = 0;
  while (i < q.size()) {
    const char c = q[i];
    if (c == '\'') {  // A quoted run, copied whole; '' escapes re-enter here.
      size_t end = q.find('\'', i + 1);
      end = end == std::string::npos ? q.size() : end + 1;
      out.append(q, i, end - i);
      i = end;
    } else if (IsSpace(c)) {
      while (i < q.size() && IsSpace(q[i])) ++i;
      whitespace();
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i;  // A number ("1.5e3"), copied whole.
      while (end < q.size() && (IsWordChar(q[end]) || q[end] == '.')) ++end;
      out.append(q, i, end - i);
      i = end;
    } else if (IsWordChar(c)) {
      size_t end = i;  // A keyword or an identifier.
      while (end < q.size() && IsWordChar(q[end])) ++end;
      std::string word = q.substr(i, end - i);
      if (Keywords().count(ToUpper(word)) > 0) {
        for (char& ch : word) {
          ch = rng.UniformUint32(2) == 0
                   ? static_cast<char>(std::tolower(static_cast<unsigned char>(ch)))
                   : static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
        }
      }
      out += word;
      i = end;
    } else if (c == '(' || c == ')' || c == ',') {
      if (rng.UniformUint32(2) == 0) whitespace();
      out += c;
      if (rng.UniformUint32(2) == 0) whitespace();
      ++i;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

std::string RenderExpr(const SqlExprPtr& e) {
  return e == nullptr ? "<none>" : e->ToString();
}

std::string RenderRef(const TableRef& ref) {
  return ref.table + " AS " + ref.alias + " SAMPLE " +
         std::to_string(static_cast<int>(ref.sample.method)) + "/" +
         std::to_string(ref.sample.rate) + "/" +
         std::to_string(ref.sample.block_size);
}

// Every clause of `stmt`, rendered (SqlExpr::ToString for expressions).
std::string RenderStmt(const SelectStmt& stmt) {
  std::string out = stmt.distinct ? "DISTINCT|" : "|";
  for (const SelectItem& item : stmt.items) {
    out += RenderExpr(item.expr) + " AS " + item.alias + ",";
  }
  out += "|FROM " + RenderRef(stmt.from);
  for (const JoinClause& join : stmt.joins) {
    out += "|JOIN " + std::to_string(static_cast<int>(join.type)) + " " +
           RenderRef(join.table) + " ON";
    for (const auto& [lhs, rhs] : join.conditions) {
      out += " " + lhs + "=" + rhs;
    }
  }
  out += "|WHERE " + RenderExpr(stmt.where) + "|GROUP";
  for (const SqlExprPtr& g : stmt.group_by) out += " " + RenderExpr(g);
  out += "|HAVING " + RenderExpr(stmt.having) + "|ORDER";
  for (const OrderItem& o : stmt.order_by) {
    out += " " + o.column + (o.ascending ? " ASC" : " DESC");
  }
  out += "|LIMIT " + (stmt.limit.has_value() ? std::to_string(*stmt.limit)
                                              : std::string("-"));
  if (stmt.error_spec.has_value()) {
    out += "|ERROR " + std::to_string(stmt.error_spec->relative_error) + " " +
           std::to_string(stmt.error_spec->confidence);
  }
  return out;
}

// The result cache and the poison quarantine key on CanonicalKey, so it must
// (a) ignore whitespace and keyword case and (b) never join two texts that
// parse to different statements.
TEST(FuzzSmokeTest, CanonicalKeyIgnoresSpellingAndNeverMergesStatements) {
  Pcg32 rng(20261017);
  std::map<std::string, std::string> rendering_by_key;
  size_t parsed = 0;
  size_t shared = 0;
  auto check_unique = [&](const std::string& key, const SelectStmt& stmt,
                          const std::string& text) {
    auto [it, inserted] = rendering_by_key.emplace(key, RenderStmt(stmt));
    if (!inserted) {
      ++shared;
      EXPECT_EQ(it->second, RenderStmt(stmt)) << text;
    }
  };
  for (int i = 0; i < 1000; ++i) {
    std::string q = kSeedQueries[i % std::size(kSeedQueries)];
    const uint32_t rounds = 1 + rng.UniformUint32(4);
    for (uint32_t r = 0; r < rounds; ++r) q = Mutate(std::move(q), rng);

    std::string key;
    Result<SelectStmt> stmt = Parse(q, &key);
    if (!stmt.ok()) continue;
    ++parsed;
    check_unique(key, stmt.value(), q);

    const std::string variant = Respell(q, rng);
    std::string variant_key;
    Result<SelectStmt> variant_stmt = Parse(variant, &variant_key);
    ASSERT_TRUE(variant_stmt.ok())
        << q << "\n" << variant << "\n" << variant_stmt.status().ToString();
    EXPECT_EQ(variant_key, key) << q << "\n" << variant;
    check_unique(variant_key, variant_stmt.value(), variant);
  }
  EXPECT_GT(parsed, 50u);
  EXPECT_GE(shared, parsed);  // Every variant shares its original's key.
}

TEST(FuzzSmokeTest, PathologicalInputsReturnStatus) {
  Catalog catalog = workload::GenerateLineitemLike(100, 23).value();
  const std::string cases[] = {
      "",
      "   ",
      std::string(1, '\0'),
      "\xff\xfe\xfd",
      "SELECT",
      "SELECT FROM",
      "((((((((((",
      "SELECT * FROM t WHERE " + std::string(10000, '('),
      // Unbounded-recursion probes: each production with self-recursion.
      "SELECT (" + std::string(5000, '(') + "1" + std::string(5000, ')') +
          ") AS x FROM lineitem",
      [] {
        std::string nots = "SELECT ";
        for (int i = 0; i < 5000; ++i) nots += "NOT ";
        return nots + "quantity FROM lineitem";
      }(),
      "SELECT " + std::string(8000, '-') + "1 AS x FROM lineitem",
      "SELECT '" + std::string(100000, 'a'),
      std::string(65536, '9'),
      "SELECT " + std::string(5000, ','),
  };
  for (const std::string& q : cases) {
    (void)Parse(q);  // Must return, not crash; most are parse errors.
    (void)ExecuteSql(q, catalog);
  }
}

}  // namespace
}  // namespace sql
}  // namespace aqp
