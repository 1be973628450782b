#include "src/kv/cache.h"

#include <gtest/gtest.h>

namespace libra::kv {
namespace {

constexpr iosched::TenantSlot kSlot{0};

TEST(LruCacheTest, MissOnEmpty) {
  LruCache cache(1024);
  EXPECT_FALSE(cache.Get(kSlot, "a").has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, PutThenGet) {
  LruCache cache(1024);
  cache.Put(kSlot, "key", "value");
  const auto v = cache.Get(kSlot, "key");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "value");
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(LruCacheTest, OverwriteUpdatesValueAndBytes) {
  LruCache cache(1024);
  cache.Put(kSlot, "key", "short");
  cache.Put(kSlot, "key", "a much longer value");
  EXPECT_EQ(*cache.Get(kSlot, "key"), "a much longer value");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.size_bytes(), 3 + 19u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.Put(kSlot, "a", std::string(9, '1'));  // 10 bytes each
  cache.Put(kSlot, "b", std::string(9, '2'));
  cache.Put(kSlot, "c", std::string(9, '3'));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch "a" so "b" becomes LRU; inserting "d" evicts "b".
  cache.Get(kSlot, "a");
  cache.Put(kSlot, "d", std::string(9, '4'));
  EXPECT_TRUE(cache.Get(kSlot, "a").has_value());
  EXPECT_FALSE(cache.Get(kSlot, "b").has_value());
  EXPECT_TRUE(cache.Get(kSlot, "c").has_value());
  EXPECT_TRUE(cache.Get(kSlot, "d").has_value());
}

TEST(LruCacheTest, OversizedObjectNotAdmitted) {
  LruCache cache(10);
  cache.Put(kSlot, "k", std::string(100, 'x'));
  EXPECT_FALSE(cache.Get(kSlot, "k").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCacheTest, OversizedOverwriteDropsStaleEntry) {
  LruCache cache(20);
  cache.Put(kSlot, "k", "small");
  ASSERT_TRUE(cache.Get(kSlot, "k").has_value());
  cache.Put(kSlot, "k", std::string(100, 'x'));  // too big: drop stale
  EXPECT_FALSE(cache.Get(kSlot, "k").has_value());
}

TEST(LruCacheTest, EraseRemovesEntry) {
  LruCache cache(100);
  cache.Put(kSlot, "k", "v");
  cache.Erase(kSlot, "k");
  EXPECT_FALSE(cache.Get(kSlot, "k").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
  cache.Erase(kSlot, "never-existed");  // no-op
}

TEST(LruCacheTest, EvictionCounterTracksCapacityEvictions) {
  LruCache cache(30);
  cache.Put(kSlot, "a", std::string(9, '1'));  // 10 bytes each
  cache.Put(kSlot, "b", std::string(9, '2'));
  cache.Put(kSlot, "c", std::string(9, '3'));
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Put(kSlot, "d", std::string(9, '4'));  // over budget: evicts "a"
  EXPECT_EQ(cache.evictions(), 1u);
  cache.Put(kSlot, "e", std::string(9, '5'));
  EXPECT_EQ(cache.evictions(), 2u);
  // Explicit Erase is invalidation, not a capacity eviction.
  cache.Erase(kSlot, "e");
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(LruCacheTest, SameKeyOfTwoTenantsIsTwoEntries) {
  LruCache cache(100);
  const iosched::TenantSlot other{1};
  cache.Put(kSlot, "k", "mine");
  cache.Put(other, "k", "theirs");
  EXPECT_EQ(*cache.Get(kSlot, "k"), "mine");
  EXPECT_EQ(*cache.Get(other, "k"), "theirs");
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.size_bytes(), 1 + 4 + 1 + 6u);  // user keys and values
  cache.Erase(other, "k");
  EXPECT_EQ(*cache.Get(kSlot, "k"), "mine");
  EXPECT_FALSE(cache.Get(other, "k").has_value());
}

TEST(LruCacheTest, ClearDropsEntriesAndKeepsCounters) {
  LruCache cache(100);
  cache.Put(kSlot, "k", "v");
  ASSERT_TRUE(cache.Get(kSlot, "k").has_value());
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(cache.Get(kSlot, "k").has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, ByteBudgetRespectedUnderChurn) {
  LruCache cache(1000);
  for (int i = 0; i < 500; ++i) {
    cache.Put(kSlot, "key" + std::to_string(i), std::string(50, 'v'));
    EXPECT_LE(cache.size_bytes(), 1000u);
  }
}

}  // namespace
}  // namespace libra::kv
