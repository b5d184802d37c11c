#ifndef AQP_SERVICE_RESULT_CACHE_H_
#define AQP_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "core/approx_executor.h"

namespace aqp {
namespace service {

/// The execution-contract half of a result-cache key: everything outside
/// the SQL text that can change the answer a governed executor produces.
struct ContractFingerprint {
  int64_t deadline_ms = -1;
  uint64_t memory_budget_bytes = 0;
  uint64_t seed = 0;
  double confidence = 0.0;
};

/// Order-sensitive 64-bit fingerprint of (SQL, referenced table versions,
/// execution contract). The service passes the query's canonical key
/// (sql::PreparedQuery::key) as `sql`, so spelling variants share a
/// fingerprint. Two submissions share a fingerprint only
/// when they would provably produce the same (seeded, version-pinned)
/// answer under the same contract. Collisions are possible in principle at
/// 64 bits; at cache sizes of ~1e4 entries the birthday probability is
/// ~1e-12 — accepted, as for every hash-keyed semantic cache.
uint64_t FingerprintQuery(
    std::string_view sql,
    const std::vector<std::pair<std::string, uint64_t>>& table_versions,
    const ContractFingerprint& contract);

/// Point-in-time cache counters.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t insert_faults = 0;  // Inserts skipped by an injected fault.
  uint64_t evictions = 0;
  uint64_t bytes_used = 0;
  size_t entries = 0;
};

/// Estimated heap footprint of a cached result (table, CIs, profile text).
uint64_t ApproxResultBytes(const core::ApproxResult& result);

/// Small semantic result cache: identical (query fingerprint, table
/// versions, contract) submissions are answered from memory without
/// executing anything. Entries are LRU-evicted past `byte_budget` bytes
/// (0 = unbounded); every insert/evict is charged/released on the optional
/// MemoryTracker. Because fingerprints pin table versions, a table
/// replace/append silently invalidates by making old keys unreachable.
///
/// Results are stored behind shared_ptr, so a hit is a cheap pointer copy
/// plus one ApproxResult copy into the caller's hands (the cached object is
/// immutable and never handed out mutable). Thread-safe.
class ResultCache {
 public:
  explicit ResultCache(uint64_t byte_budget, MemoryTracker* tracker = nullptr)
      : byte_budget_(byte_budget), tracker_(tracker) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached result for `fingerprint`, or null on miss.
  std::shared_ptr<const core::ApproxResult> Lookup(uint64_t fingerprint);

  /// Caches `result` under `fingerprint`, evicting LRU entries past the
  /// byte budget. An entry larger than the whole budget is still inserted
  /// and becomes the next eviction victim (bounded memory either way).
  /// The `result_cache.insert` fault site lives here: an injected failure
  /// skips caching (counted) — the answer already reached the client, only
  /// reuse is lost.
  void Insert(uint64_t fingerprint, core::ApproxResult result);

  ResultCacheStats stats() const;
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const core::ApproxResult> result;
    uint64_t bytes = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  void EvictToBudget(uint64_t keep);

  const uint64_t byte_budget_;
  MemoryTracker* tracker_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // Front = most recently used.
  uint64_t bytes_used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t insert_faults_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_RESULT_CACHE_H_
