#ifndef AQP_SERVICE_RESULT_CACHE_H_
#define AQP_SERVICE_RESULT_CACHE_H_

#include <condition_variable>
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
  uint64_t coalesced = 0;  // Hits that waited for a claim holder's insert.
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
///
/// Concurrent misses on one fingerprint can be coalesced: the first
/// LookupOrClaim miss takes a Claim, and later LookupOrClaim callers wait
/// for it to be released and take the answer its holder inserted, so N
/// sessions submitting the same cold query execute it once.
class ResultCache {
 public:
  explicit ResultCache(uint64_t byte_budget, MemoryTracker* tracker = nullptr)
      : byte_budget_(byte_budget), tracker_(tracker) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The right to compute one fingerprint's answer while LookupOrClaim
  /// callers of the same fingerprint wait. Released (waking them) by
  /// Release() or destruction; the holder Inserts first when it has an
  /// answer worth caching. Must not outlive the cache.
  class Claim {
   public:
    Claim() = default;
    Claim(Claim&& other) noexcept { *this = std::move(other); }
    Claim& operator=(Claim&& other) noexcept;
    ~Claim() { Release(); }
    void Release();

   private:
    friend class ResultCache;
    Claim(ResultCache* cache, uint64_t fingerprint)
        : cache_(cache), fingerprint_(fingerprint) {}
    ResultCache* cache_ = nullptr;
    uint64_t fingerprint_ = 0;
  };

  struct Probe {
    std::shared_ptr<const core::ApproxResult> result;  // Null on a miss.
    bool waited = false;  // Waited for another caller's claim.
    Claim claim;          // Held on a miss nobody else was computing.
  };

  /// The cached result for `fingerprint`, or null on miss.
  std::shared_ptr<const core::ApproxResult> Lookup(uint64_t fingerprint);

  /// Lookup that coalesces concurrent misses. A miss while another caller
  /// holds the fingerprint's claim waits for its release and returns what
  /// the holder inserted; a miss that finds no holder takes the claim. A
  /// waiter whose holder inserted nothing (failure, degraded answer,
  /// insert fault) gets a miss without a claim and computes the answer
  /// itself, so a failing query is never run one waiter after another.
  Probe LookupOrClaim(uint64_t fingerprint);

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

  // One claimed fingerprint: waiters sleep on `cv` until `done`.
  struct Flight {
    bool done = false;
    std::condition_variable cv;
  };

  void EvictToBudget(uint64_t keep);
  void ReleaseClaim(uint64_t fingerprint);

  const uint64_t byte_budget_;
  MemoryTracker* tracker_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // Front = most recently used.
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> in_flight_;
  uint64_t bytes_used_ = 0;
  uint64_t hits_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t insert_faults_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_RESULT_CACHE_H_
