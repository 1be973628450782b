#include "src/lsm/sstable.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

const iosched::IoTag kFlushTag{.tenant = 1,
                               .app = iosched::AppRequest::kPut,
                               .internal = iosched::InternalOp::kFlush};
const iosched::IoTag kGetTag{.tenant = 1, .app = iosched::AppRequest::kGet};

// Builds a table with `n` keys "key00000i" -> "value_i" at seq i+1.
fs::FileId BuildTestTable(LsmRig& rig, int n, uint32_t value_size = 100) {
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&, file]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    for (int i = 0; i < n; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      builder.Add(key, static_cast<SequenceNumber>(i + 1), ValueType::kPut,
                  std::string(value_size, 'a' + (i % 26)));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  return file;
}

// A whole point lookup: TryGet, then ResumeGet when a block must be read.
sim::Task<SstableReader::GetResult> Get(SstableReader& reader,
                                        std::string_view key,
                                        SequenceNumber snapshot) {
  SstableReader::Lookup lk;
  if (!reader.TryGet(key, snapshot, lk)) {
    co_await reader.ResumeGet(kGetTag, key, snapshot, lk);
  }
  co_return std::move(lk.result);
}

TEST(SstableTest, BuildAndLookup) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = BuildTestTable(rig, 500);
  SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0000042", UINT64_MAX);
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.found);
    if (r.found) {
      EXPECT_EQ(r.value, std::string(100, 'a' + (42 % 26)));
    }
  }());
}

TEST(SstableTest, MissingKeyNotFound) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = BuildTestTable(rig, 100);
  SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0000xyz", UINT64_MAX);
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.found);
    // Before the first key and after the last key.
    r = co_await Get(reader, "aaa", UINT64_MAX);
    EXPECT_FALSE(r.found);
    r = co_await Get(reader, "zzz", UINT64_MAX);
    EXPECT_FALSE(r.found);
  }());
}

TEST(SstableTest, SmallestLargestTracked) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("apple", 1, ValueType::kPut, "1");
    builder.Add("mango", 2, ValueType::kPut, "2");
    builder.Add("zebra", 3, ValueType::kPut, "3");
    EXPECT_EQ(builder.smallest_key(), "apple");
    EXPECT_EQ(builder.largest_key(), "zebra");
    EXPECT_EQ(builder.num_entries(), 3u);
    co_await builder.Finish(kFlushTag);
  }());
}

TEST(SstableTest, TombstonesSurfaceAsDeleted) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("key", 5, ValueType::kDelete, "");
    builder.Add("key", 2, ValueType::kPut, "old");
    co_await builder.Finish(kFlushTag);
    SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
    auto r = co_await Get(reader, "key", UINT64_MAX);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.deleted);
    // At an older snapshot the PUT is visible.
    r = co_await Get(reader, "key", 2);
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.deleted);
    EXPECT_EQ(r.value, "old");
  }());
}

TEST(SstableTest, LookupCostsIndexPlusDataBlock) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = BuildTestTable(rig, 2000);  // many 4KB blocks
  SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  const auto before = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  const auto after = rig.sched.tracker().Stats(1);
  // Footer + index + one data block = 3 reads (both cached afterwards,
  // like LevelDB's table cache).
  EXPECT_EQ(after.read_ops - before.read_ops, 3u);

  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0000001", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Second lookup: one data-block read only.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 1u);
}

TEST(BlockCacheTest, BoundedCapacityEvictsLeastRecentlyUsed) {
  constexpr auto kIdx = BlockCache::Kind::kIndex;
  BlockCache cache(100);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  const std::string index_bytes(40, 'i');
  BlockCache::Slot s1, s2, s3;  // three tables' index slots
  cache.Insert(s1, t1, index_bytes);
  cache.Insert(s2, t1, index_bytes);
  EXPECT_EQ(cache.resident_bytes(), 80u);
  // Touch table 1 so table 2 becomes the LRU tail.
  EXPECT_TRUE(cache.Get(s1, kIdx, t1));
  cache.Insert(s3, t1, index_bytes);  // 120 > 100: evicts table 2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 80u);
  EXPECT_FALSE(cache.Get(s2, kIdx, t1));  // miss
  EXPECT_TRUE(cache.Get(s1, kIdx, t1));
  EXPECT_TRUE(cache.Get(s3, kIdx, t1));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  // Erasing a dead table's slot is not an eviction.
  cache.Erase(s1);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BlockCacheTest, ZeroCapacityIsUnbounded) {
  BlockCache cache(0);
  const std::string index_bytes(1 * kMiB, 'i');
  std::vector<BlockCache::Slot> slots(32);
  for (BlockCache::Slot& slot : slots) {
    cache.Insert(slot, cache.Counters(iosched::TenantSlot{1}), index_bytes);
  }
  EXPECT_EQ(cache.entries(), 32u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 32u * kMiB);
  for (BlockCache::Slot& slot : slots) {
    cache.Erase(slot);
  }
}

TEST(SstableTest, SharedCacheServesRepeatLookups) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 2000);
  // A bounded index-only cache (LsmOptions::table_cache_bytes).
  BlockCache cache(1 * kMiB, /*cache_data=*/false);
  SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  const auto before = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Cold: footer + index + data block, and the index landed in the cache.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - before.read_ops, 3u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);
  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(reader, "key0000001", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Warm: the shared cache supplies the index; only the data block is read.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SstableTest, EvictedIndexReloadIsRereadAndCharged) {
  LsmRig rig;
  const fs::FileId file_a = BuildTestTable(rig, 2000);
  // A second table in the same FS (BuildTestTable always names "sst_1").
  const fs::FileId file_b = *rig.fs.Create("sst_2");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file_b);
    for (int i = 0; i < 2000; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      builder.Add(key, static_cast<SequenceNumber>(i + 1), ValueType::kPut,
                  std::string(100, 'b'));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  // Capacity below a single index: every insert evicts the other table's
  // entry (an insert never evicts itself, so the newest index is resident).
  BlockCache cache(1, /*cache_data=*/false);
  SstableReader ra(rig.fs, file_a, {}, cache, iosched::TenantSlot{1});
  SstableReader rb(rig.fs, file_b, {}, cache, iosched::TenantSlot{1});
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(ra, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
    r = co_await Get(rb, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  ASSERT_GE(cache.evictions(), 1u);
  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await Get(ra, "key0000500", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Table A's index was evicted: reload re-reads the index block (footer
  // stays cached in the reader) plus the data block = 2 charged reads,
  // where a cached index would have cost 1.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 2u);
}

// With every block resident a lookup finishes inside TryGet: no IO, no
// suspension, and the same answer the cold lookup gave.
TEST(SstableTest, WarmLookupFinishesInTryGet) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file, {.bloom_bits_per_key = 10});
    for (int i = 0; i < 2000; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      builder.Add(key, static_cast<SequenceNumber>(i + 1), ValueType::kPut,
                  std::string(100, 'a' + (i % 26)));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  BlockCache cache(0, /*cache_data=*/true);
  TableReadCounters counters;
  SstableReader reader(rig.fs, file, {.bloom_bits_per_key = 10}, cache,
                       iosched::TenantSlot{1}, &counters);
  SstableReader::Lookup cold;
  EXPECT_FALSE(reader.TryGet("key0001000", UINT64_MAX, cold));
  rig.RunTask([&]() -> sim::Task<void> {
    co_await reader.ResumeGet(kGetTag, "key0001000", UINT64_MAX, cold);
  }());
  ASSERT_TRUE(cold.result.found);
  // Footer + filter, index, one data block; each slot now resident.
  EXPECT_EQ(counters.filter_block_reads, 1u);
  EXPECT_EQ(counters.data_block_reads, 1u);
  EXPECT_EQ(cache.entries(), 3u);

  const auto before = rig.sched.tracker().Stats(1);
  SstableReader::Lookup warm;
  ASSERT_TRUE(reader.TryGet("key0001000", UINT64_MAX, warm));
  EXPECT_TRUE(warm.result.status.ok());
  EXPECT_TRUE(warm.result.found);
  EXPECT_EQ(warm.result.value, cold.result.value);
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops, before.read_ops);
  const auto tc = cache.CountersOf(iosched::TenantSlot{1});
  EXPECT_EQ(tc.hits[static_cast<int>(BlockCache::Kind::kFilter)], 1u);
  EXPECT_EQ(tc.hits[static_cast<int>(BlockCache::Kind::kIndex)], 1u);
  EXPECT_EQ(tc.hits[static_cast<int>(BlockCache::Kind::kData)], 1u);
  // The cold lookup counted one index and one data miss; its filter was
  // read with the footer, before any probe.
  EXPECT_EQ(tc.misses[static_cast<int>(BlockCache::Kind::kFilter)], 0u);
  EXPECT_EQ(tc.misses[static_cast<int>(BlockCache::Kind::kIndex)], 1u);
  EXPECT_EQ(tc.misses[static_cast<int>(BlockCache::Kind::kData)], 1u);
  EXPECT_EQ(counters.data_block_reads, 1u);
}

// A reader's destruction drops exactly its own blocks from a shared
// cache, and is not an eviction.
TEST(SstableTest, ReaderDestructionDropsItsBlocksOnly) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 2000);
  BlockCache cache(0, /*cache_data=*/true);
  SstableReader keep(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  auto drop = std::make_unique<SstableReader>(rig.fs, file, SstableOptions{},
                                              cache, iosched::TenantSlot{2});
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await Get(keep, "key0000001", UINT64_MAX)).found);
    EXPECT_TRUE((co_await Get(*drop, "key0000001", UINT64_MAX)).found);
    EXPECT_TRUE((co_await Get(*drop, "key0001999", UINT64_MAX)).found);
  }());
  EXPECT_EQ(cache.entries(), 2u + 3u);  // index + data, index + 2 data
  const uint64_t kept_bytes = cache.resident_bytes();
  drop.reset();
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LT(cache.resident_bytes(), kept_bytes);
  EXPECT_EQ(cache.evictions(), 0u);
  SstableReader::Lookup lk;
  EXPECT_TRUE(keep.TryGet("key0000001", UINT64_MAX, lk));
  EXPECT_TRUE(lk.result.found);
}

TEST(SstableTest, ScanAllYieldsEverythingInOrder) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = BuildTestTable(rig, 777);
  SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
  std::vector<std::string> keys;
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await reader.ScanAll(
                     kGetTag, [&](const Record& r) { keys.emplace_back(r.key); }))
                    .ok());
  }());
  ASSERT_EQ(keys.size(), 777u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), "key0000000");
  EXPECT_EQ(keys.back(), "key0000776");
}

TEST(SstableTest, LargeValuesSpanBlocks) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = *rig.fs.Create("sst_1");
  const std::string big(64 * 1024, 'B');
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("big0", 1, ValueType::kPut, big);
    builder.Add("big1", 2, ValueType::kPut, big);
    co_await builder.Finish(kFlushTag);
    SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
    auto r = co_await Get(reader, "big1", UINT64_MAX);
    EXPECT_TRUE(r.found);
    if (r.found) {
      EXPECT_EQ(r.value, big);
    }
  }());
}

TEST(SstableTest, EmptyTableLookups) {
  LsmRig rig;
  BlockCache cache(0, /*cache_data=*/false);  // the LsmDb default
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    co_await builder.Finish(kFlushTag);
    SstableReader reader(rig.fs, file, {}, cache, iosched::TenantSlot{1});
    auto r = co_await Get(reader, "anything", UINT64_MAX);
    EXPECT_FALSE(r.found);
  }());
}

}  // namespace
}  // namespace libra::lsm
