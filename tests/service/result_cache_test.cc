#include "service/result_cache.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "test_util.h"

namespace aqp {
namespace service {
namespace {

core::ApproxResult MakeResult(double value) {
  core::ApproxResult r;
  r.table = testutil::DoubleTable({value});
  r.approximated = true;
  r.profile.executor = "online-two-stage";
  return r;
}

TEST(FingerprintTest, SensitiveToEveryKeyComponent) {
  std::vector<std::pair<std::string, uint64_t>> v1 = {{"t", 1}};
  std::vector<std::pair<std::string, uint64_t>> v2 = {{"t", 2}};
  ContractFingerprint c;
  c.deadline_ms = 100;

  uint64_t base = FingerprintQuery("SELECT 1", v1, c);
  EXPECT_EQ(base, FingerprintQuery("SELECT 1", v1, c));  // Deterministic.
  EXPECT_NE(base, FingerprintQuery("SELECT 2", v1, c));  // SQL text.
  EXPECT_NE(base, FingerprintQuery("SELECT 1", v2, c));  // Table version.

  ContractFingerprint c2 = c;
  c2.deadline_ms = 200;
  EXPECT_NE(base, FingerprintQuery("SELECT 1", v1, c2));
  c2 = c;
  c2.memory_budget_bytes = 1 << 20;
  EXPECT_NE(base, FingerprintQuery("SELECT 1", v1, c2));
  c2 = c;
  c2.seed = 7;
  EXPECT_NE(base, FingerprintQuery("SELECT 1", v1, c2));
  c2 = c;
  c2.confidence = 0.99;
  EXPECT_NE(base, FingerprintQuery("SELECT 1", v1, c2));
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(/*byte_budget=*/0);
  EXPECT_EQ(cache.Lookup(42), nullptr);
  cache.Insert(42, MakeResult(3.5));

  auto hit = cache.Lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->table.num_rows(), 1u);
  EXPECT_EQ(hit->profile.executor, "online-two-stage");

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_used, 0u);
}

TEST(ResultCacheTest, ReinsertReplacesWithoutLeakingAccounting) {
  MemoryTracker tracker;
  ResultCache cache(0, &tracker);
  cache.Insert(1, MakeResult(1.0));
  uint64_t after_first = tracker.used();
  cache.Insert(1, MakeResult(2.0));
  EXPECT_EQ(cache.stats().entries, 1u);
  // Same-size entry re-inserted: accounting replaced, not accumulated.
  EXPECT_EQ(tracker.used(), after_first);
  EXPECT_EQ(cache.stats().bytes_used, after_first);
}

TEST(ResultCacheTest, EvictsLruPastByteBudget) {
  uint64_t one = ApproxResultBytes(MakeResult(1.0));
  MemoryTracker tracker;
  ResultCache cache(2 * one + one / 2, &tracker);

  cache.Insert(1, MakeResult(1.0));
  cache.Insert(2, MakeResult(2.0));
  ASSERT_NE(cache.Lookup(1), nullptr);  // Touch 1: entry 2 becomes LRU.
  cache.Insert(3, MakeResult(3.0));

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);  // The LRU entry was the victim.
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(tracker.used(), cache.stats().bytes_used);
}

TEST(ResultCacheTest, OversizedEntryStillInsertedButBounded) {
  uint64_t one = ApproxResultBytes(MakeResult(1.0));
  ResultCache cache(one / 2);  // Budget below a single entry.
  cache.Insert(1, MakeResult(1.0));
  // The fresh entry is spared by its own insert's eviction pass...
  EXPECT_NE(cache.Lookup(1), nullptr);
  // ...but the next insert evicts it.
  cache.Insert(2, MakeResult(2.0));
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(ResultCacheTest, ClearReleasesTracker) {
  MemoryTracker tracker;
  ResultCache cache(0, &tracker);
  cache.Insert(1, MakeResult(1.0));
  cache.Insert(2, MakeResult(2.0));
  EXPECT_GT(tracker.used(), 0u);
  cache.Clear();
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(ResultCacheTest, ClaimHolderAnswersConcurrentMisses) {
  ResultCache cache(0);
  ResultCache::Probe first = cache.LookupOrClaim(7);
  EXPECT_EQ(first.result, nullptr);
  EXPECT_FALSE(first.waited);

  // The second caller either waits for the claim or, if it runs after the
  // release, hits the inserted entry: it never misses.
  std::shared_ptr<const core::ApproxResult> seen;
  std::thread other([&] { seen = cache.LookupOrClaim(7).result; });
  // Time for the other caller to start waiting; the checks hold either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.Insert(7, MakeResult(4.5));
  first.claim.Release();
  other.join();

  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen, cache.Lookup(7));
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_LE(stats.coalesced, 1u);
}

TEST(ResultCacheTest, WaiterOfAClaimWithoutAnswerMissesOnce) {
  ResultCache cache(0);
  ResultCache::Probe first = cache.LookupOrClaim(9);
  std::thread other([&] { EXPECT_EQ(cache.LookupOrClaim(9).result, nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  first.claim.Release();  // The holder failed: nothing inserted.
  other.join();

  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Every claim is released, so the next caller claims again.
  ResultCache::Probe next = cache.LookupOrClaim(9);
  EXPECT_FALSE(next.waited);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ResultCacheTest, MovedClaimReleasesOnce) {
  ResultCache cache(0);
  ResultCache::Claim held = cache.LookupOrClaim(3).claim;
  ResultCache::Claim moved = std::move(held);
  held.Release();  // Moved-from: no effect.
  moved.Release();
  moved.Release();
  EXPECT_FALSE(cache.LookupOrClaim(3).waited);
}

}  // namespace
}  // namespace service
}  // namespace aqp
