// Tests for the memoized query-cost cache: content interning, exact hit/miss
// accounting over id-tuple keys, epoch eviction that keeps interned ids,
// snapshot deltas, and a concurrent mixed-load stress (the TSAN leg's main
// target).
#include "engine/cost_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace pse {
namespace {

using Id = QueryCostCache::Id;
using Key = std::vector<Id>;
using Outcome = QueryCostCache::Outcome;

TEST(CostCacheTest, MissThenHit) {
  QueryCostCache cache;
  const Key key{0, 1, 2, 2};
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, Outcome{42.5, false});
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost, 42.5);
  EXPECT_FALSE(hit->bind_error);
  CostCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.lookups(), 2u);
  EXPECT_DOUBLE_EQ(stats.hit_pct(), 50.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CostCacheTest, KeysAreComparedExactly) {
  QueryCostCache cache;
  cache.Insert(Key{0, 0, 1}, Outcome{1.0, false});
  cache.Insert(Key{0, 0, 1, 1}, Outcome{2.0, false});  // a prefix is a different key
  cache.Insert(Key{0, 0, QueryCostCache::kAbsent}, Outcome{3.0, false});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.Lookup(Key{0, 0, 1})->cost, 1.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(Key{0, 0, 1, 1})->cost, 2.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(Key{0, 0, QueryCostCache::kAbsent})->cost, 3.0);
  EXPECT_FALSE(cache.Lookup(Key{0, 0}).has_value());
  EXPECT_FALSE(cache.Lookup(Key{0, 1, 1}).has_value());
  EXPECT_FALSE(cache.Lookup(Key{}).has_value());
}

TEST(CostCacheTest, InterningIsDenseAndContentExact) {
  QueryCostCache cache;
  const std::vector<uint64_t> orders{3, 10, 11, 12};
  const std::vector<uint64_t> orders_wider{3, 10, 11, 12, 13};
  const std::vector<uint64_t> items{3, 10, 11};
  EXPECT_EQ(cache.InternLayout(orders), 0u);
  EXPECT_EQ(cache.InternLayout(orders_wider), 1u);
  EXPECT_EQ(cache.InternLayout(items), 2u);
  EXPECT_EQ(cache.InternLayout(std::vector<uint64_t>{3, 10, 11, 12}), 0u);
  // Each kind has its own id space; equal content in two kinds is unrelated.
  EXPECT_EQ(cache.InternStats(orders), 0u);
  EXPECT_EQ(cache.InternStats(std::vector<uint64_t>{}), 1u);
  EXPECT_EQ(cache.InternStats(std::vector<uint64_t>{}), 1u);
  EXPECT_EQ(cache.InternQuery("Q|SELECT a"), 0u);
  EXPECT_EQ(cache.InternQuery("Q|SELECT b"), 1u);
  EXPECT_EQ(cache.InternQuery("Q|SELECT a"), 0u);
  // Interning is not a lookup: it leaves the hit/miss counters alone.
  EXPECT_EQ(cache.Snapshot().lookups(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CostCacheTest, ReinsertingAnExistingKeyIsANoOp) {
  QueryCostCache cache;
  const Key key{7};
  cache.Insert(key, Outcome{7.0, false});
  cache.Insert(key, Outcome{9.0, false});  // outcomes are deterministic
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.Lookup(key)->cost, 7.0);
}

TEST(CostCacheTest, BindErrorOutcomesRoundTrip) {
  QueryCostCache cache;
  const Key key{1, 0, QueryCostCache::kAbsent};
  cache.Insert(key, Outcome{0.0, true});
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->bind_error);
}

TEST(CostCacheTest, EpochEvictionClearsWholesale) {
  QueryCostCache cache(/*max_entries=*/2);
  cache.Insert(Key{0}, Outcome{1, false});
  cache.Insert(Key{1}, Outcome{2, false});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Snapshot().evictions, 0u);
  cache.Insert(Key{1}, Outcome{2, false});  // already present: no eviction
  EXPECT_EQ(cache.Snapshot().evictions, 0u);
  cache.Insert(Key{2}, Outcome{3, false});
  EXPECT_EQ(cache.size(), 1u);  // both earlier entries were dropped in one epoch
  EXPECT_EQ(cache.Snapshot().evictions, 2u);
  EXPECT_FALSE(cache.Lookup(Key{0}).has_value());
  EXPECT_TRUE(cache.Lookup(Key{2}).has_value());
}

TEST(CostCacheTest, EvictionAndClearKeepInternedIds) {
  QueryCostCache cache(/*max_entries=*/1);
  const Id layout = cache.InternLayout(std::vector<uint64_t>{1, 2});
  const Id query = cache.InternQuery("Q");
  cache.Insert(Key{query, layout}, Outcome{1, false});
  cache.Insert(Key{query, layout, layout}, Outcome{2, false});  // evicts
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  // An estimator still holding these ids must not see them reassigned.
  EXPECT_EQ(cache.InternLayout(std::vector<uint64_t>{1, 2}), layout);
  EXPECT_EQ(cache.InternQuery("Q"), query);
  EXPECT_NE(cache.InternLayout(std::vector<uint64_t>{1, 3}), layout);
}

TEST(CostCacheTest, SnapshotDeltaIsolatesOneRun) {
  QueryCostCache cache;
  cache.Insert(Key{0}, Outcome{1, false});
  (void)cache.Lookup(Key{0});
  CostCacheStats before = cache.Snapshot();
  (void)cache.Lookup(Key{0});
  (void)cache.Lookup(Key{1});
  CostCacheStats delta = cache.Snapshot() - before;
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(delta.evictions, 0u);
}

TEST(CostCacheTest, ToStringMentionsTheCounters) {
  QueryCostCache cache;
  (void)cache.Lookup(Key{1});
  std::string s = cache.Snapshot().ToString();
  EXPECT_NE(s.find("hits"), std::string::npos) << s;
  EXPECT_NE(s.find("evictions"), std::string::npos) << s;
}

// Concurrent mixed load: many threads race interning, lookups and inserts
// over an overlapping key population; every hit must return the key's one
// true outcome, every thread must see one id per content, and the counters
// must stay consistent. Run under TSAN via scripts/check.sh --tsan.
TEST(CostCacheTest, ConcurrentMixedLoadKeepsExactOutcomes) {
  QueryCostCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  std::atomic<int> wrong{0};
  std::vector<std::vector<Id>> seen(kThreads, std::vector<Id>(kKeys, QueryCostCache::kAbsent));
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &cache, &wrong, &seen]() {
      for (int i = 0; i < kIters; ++i) {
        int k = (t * 31 + i) % kKeys;
        const Id layout = cache.InternLayout(std::vector<uint64_t>{static_cast<uint64_t>(k)});
        if (seen[t][k] != QueryCostCache::kAbsent && seen[t][k] != layout) wrong.fetch_add(1);
        seen[t][k] = layout;
        const Key key{layout};
        if (auto hit = cache.Lookup(key)) {
          if (hit->cost != static_cast<double>(k)) wrong.fetch_add(1);
        } else {
          cache.Insert(key, Outcome{static_cast<double>(k), false});
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeys));
  CostCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.lookups(), static_cast<uint64_t>(kThreads) * kIters);
  // Every thread saw the same id for each content, and every key's outcome
  // survived the race intact.
  for (int k = 0; k < kKeys; ++k) {
    const Id layout = cache.InternLayout(std::vector<uint64_t>{static_cast<uint64_t>(k)});
    EXPECT_LT(layout, static_cast<Id>(kKeys));
    for (int t = 0; t < kThreads; ++t) {
      if (seen[t][k] != QueryCostCache::kAbsent) {
        EXPECT_EQ(seen[t][k], layout);
      }
    }
    auto hit = cache.Lookup(Key{layout});
    ASSERT_TRUE(hit.has_value()) << k;
    EXPECT_DOUBLE_EQ(hit->cost, static_cast<double>(k));
  }
}

}  // namespace
}  // namespace pse
