#include "service/result_cache.h"

#include "common/hash.h"
#include "gov/fault_injector.h"
#include "stats/confidence.h"

namespace aqp {
namespace service {

uint64_t FingerprintQuery(
    std::string_view sql,
    const std::vector<std::pair<std::string, uint64_t>>& table_versions,
    const ContractFingerprint& contract) {
  uint64_t h = HashString(sql, /*seed=*/0x51ce);
  for (const auto& [table, version] : table_versions) {
    h = HashCombine(h, HashString(table));
    h = HashCombine(h, Mix64(version));
  }
  h = HashCombine(h, HashInt64(contract.deadline_ms));
  h = HashCombine(h, Mix64(contract.memory_budget_bytes));
  h = HashCombine(h, Mix64(contract.seed));
  h = HashCombine(h, HashDouble(contract.confidence));
  return h;
}

uint64_t ApproxResultBytes(const core::ApproxResult& result) {
  uint64_t bytes = result.table.ApproxBytes();
  for (const auto& row : result.cis) {
    bytes += row.capacity() * sizeof(stats::ConfidenceInterval);
  }
  bytes += result.fallback_reason.size() + result.sampled_table.size();
  bytes += result.profile.query.size() + result.profile.executor.size();
  // Flat allowance for the profile's span tree and small strings.
  bytes += 1024;
  return bytes;
}

std::shared_ptr<const core::ApproxResult> ResultCache::Lookup(
    uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.result;
}

ResultCache::Probe ResultCache::LookupOrClaim(uint64_t fingerprint) {
  Probe probe;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    auto flight = in_flight_.find(fingerprint);
    if (flight != in_flight_.end()) {
      std::shared_ptr<Flight> f = flight->second;
      f->cv.wait(lock, [&f] { return f->done; });
      probe.waited = true;
      it = entries_.find(fingerprint);
    }
  }
  if (it != entries_.end()) {
    ++hits_;
    if (probe.waited) ++coalesced_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    probe.result = it->second.result;
    return probe;
  }
  ++misses_;
  if (!probe.waited) {
    in_flight_.emplace(fingerprint, std::make_shared<Flight>());
    probe.claim = Claim(this, fingerprint);
  }
  return probe;
}

ResultCache::Claim& ResultCache::Claim::operator=(Claim&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    fingerprint_ = other.fingerprint_;
    other.cache_ = nullptr;
  }
  return *this;
}

void ResultCache::Claim::Release() {
  if (cache_ == nullptr) return;
  cache_->ReleaseClaim(fingerprint_);
  cache_ = nullptr;
}

void ResultCache::ReleaseClaim(uint64_t fingerprint) {
  std::shared_ptr<Flight> f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = in_flight_.find(fingerprint);
    if (it == in_flight_.end()) return;
    f = std::move(it->second);
    in_flight_.erase(it);
    f->done = true;
  }
  f->cv.notify_all();
}

void ResultCache::Insert(uint64_t fingerprint, core::ApproxResult result) {
  if (!gov::FaultInjector::Global().MaybeFail("result_cache.insert").ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++insert_faults_;
    return;
  }
  uint64_t bytes = ApproxResultBytes(result);
  auto shared =
      std::make_shared<const core::ApproxResult>(std::move(result));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    // Refresh (e.g. two racing executions of the same cold query): replace
    // the value, re-account the bytes, touch the LRU position.
    bytes_used_ -= it->second.bytes;
    if (tracker_ != nullptr && it->second.bytes > 0) {
      tracker_->Release(it->second.bytes);
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(fingerprint);
    it = entries_.emplace(fingerprint, Entry{}).first;
    it->second.lru_it = lru_.begin();
  }
  it->second.result = std::move(shared);
  it->second.bytes = bytes;
  bytes_used_ += bytes;
  if (tracker_ != nullptr) {
    if (!tracker_->TryCharge(bytes, "result-cache entry").ok()) {
      // Accounting tracker refused (budgeted tracker): keep the entry but
      // leave it uncounted, mirroring SynopsisCache.
      it->second.bytes = 0;
      bytes_used_ -= bytes;
    }
  }
  ++insertions_;
  EvictToBudget(fingerprint);
}

void ResultCache::EvictToBudget(uint64_t keep) {
  if (byte_budget_ == 0) return;
  while (bytes_used_ > byte_budget_ && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    if (*victim == keep) {
      if (lru_.size() == 1) return;
      victim = std::prev(victim);
    }
    auto it = entries_.find(*victim);
    if (it != entries_.end()) {
      bytes_used_ -= it->second.bytes;
      if (tracker_ != nullptr && it->second.bytes > 0) {
        tracker_->Release(it->second.bytes);
      }
      entries_.erase(it);
      ++evictions_;
    }
    lru_.erase(victim);
  }
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ResultCacheStats s;
  s.hits = hits_;
  s.coalesced = coalesced_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.insert_faults = insert_faults_;
  s.evictions = evictions_;
  s.bytes_used = bytes_used_;
  s.entries = entries_.size();
  return s;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fp, entry] : entries_) {
    if (tracker_ != nullptr && entry.bytes > 0) tracker_->Release(entry.bytes);
  }
  entries_.clear();
  lru_.clear();
  bytes_used_ = 0;
}

}  // namespace service
}  // namespace aqp
