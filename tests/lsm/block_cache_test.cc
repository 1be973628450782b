#include "src/lsm/block_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"

namespace libra::lsm {
namespace {

using Slot = BlockCache::Slot;
constexpr auto kIdx = BlockCache::Kind::kIndex;
constexpr auto kFlt = BlockCache::Kind::kFilter;
constexpr auto kDat = BlockCache::Kind::kData;

// `n` bytes of backing storage to take block views of (the stand-in for a
// table's stored bytes).
std::string_view Bytes(const std::string& backing, size_t n) {
  return std::string_view(backing).substr(0, n);
}

TEST(BlockCacheTest, KindsAndOffsetsAreDistinctKeys) {
  // One reader's index, filter and two data blocks are four entries.
  BlockCache cache(0);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  const std::string i = "i", f = "f", d0 = "d0", d1 = "d1";
  Slot index, filter, data0, data1;
  cache.Insert(index, t1, i);
  cache.Insert(filter, t1, f);
  cache.Insert(data0, t1, d0);
  cache.Insert(data1, t1, d1);
  EXPECT_EQ(cache.entries(), 4u);
  ASSERT_TRUE(cache.Get(index, kIdx, t1));
  EXPECT_EQ(index.bytes(), "i");
  ASSERT_TRUE(cache.Get(filter, kFlt, t1));
  EXPECT_EQ(filter.bytes(), "f");
  ASSERT_TRUE(cache.Get(data0, kDat, t1));
  EXPECT_EQ(data0.bytes(), "d0");
  ASSERT_TRUE(cache.Get(data1, kDat, t1));
  EXPECT_EQ(data1.bytes(), "d1");
}

TEST(BlockCacheTest, TenantsDoNotShareEntries) {
  BlockCache cache(0);
  // Two tenants' partitions both number their first table 1; each reader
  // owns its own slots, and each charges its own tenant.
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  BlockCache::TenantCounters& t2 = cache.Counters(iosched::TenantSlot{2});
  const std::string b1 = "tenant1", b2 = "tenant2";
  Slot s1, s2;
  cache.Insert(s1, t1, b1);
  cache.Insert(s2, t2, b2);
  EXPECT_EQ(cache.entries(), 2u);
  ASSERT_TRUE(cache.Get(s1, kDat, t1));
  EXPECT_EQ(s1.bytes(), "tenant1");
  ASSERT_TRUE(cache.Get(s2, kDat, t2));
  EXPECT_EQ(s2.bytes(), "tenant2");
  EXPECT_EQ(
      cache.CountersOf(iosched::TenantSlot{1}).hits[static_cast<int>(kDat)],
      1u);
  EXPECT_EQ(
      cache.CountersOf(iosched::TenantSlot{2}).hits[static_cast<int>(kDat)],
      1u);
}

TEST(BlockCacheTest, PerTenantPerKindCounters) {
  BlockCache cache(0);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  BlockCache::TenantCounters& t2 = cache.Counters(iosched::TenantSlot{2});
  const std::string backing(10, 'x');
  Slot index1, filter1, data2a, data2b;
  cache.Insert(index1, t1, backing);
  cache.Insert(data2a, t2, backing);
  EXPECT_TRUE(cache.Get(index1, kIdx, t1));    // tenant 1 index hit
  EXPECT_FALSE(cache.Get(filter1, kFlt, t1));  // tenant 1 filter miss
  EXPECT_TRUE(cache.Get(data2a, kDat, t2));    // tenant 2 data hit
  EXPECT_FALSE(cache.Get(data2b, kDat, t2));   // tenant 2 data miss

  const auto c1 = cache.CountersOf(iosched::TenantSlot{1});
  EXPECT_EQ(c1.hits[static_cast<int>(kIdx)], 1u);
  EXPECT_EQ(c1.misses[static_cast<int>(kFlt)], 1u);
  EXPECT_EQ(c1.hits[static_cast<int>(kDat)], 0u);
  const auto c2 = cache.CountersOf(iosched::TenantSlot{2});
  EXPECT_EQ(c2.hits[static_cast<int>(kDat)], 1u);
  EXPECT_EQ(c2.misses[static_cast<int>(kDat)], 1u);
  // Globals are the per-tenant sums.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  // Unknown tenant: all zero.
  const auto c9 = cache.CountersOf(iosched::TenantSlot{9});
  EXPECT_EQ(c9.hits[0] + c9.misses[0] + c9.evictions, 0u);
}

TEST(BlockCacheTest, EvictionChargedToVictimTenant) {
  BlockCache cache(100);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  BlockCache::TenantCounters& t2 = cache.Counters(iosched::TenantSlot{2});
  const std::string backing(60, 'x');
  Slot s1, s2;
  cache.Insert(s1, t1, backing);
  cache.Insert(s2, t2, backing);  // evicts tenant 1's block
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.CountersOf(iosched::TenantSlot{1}).evictions, 1u);
  EXPECT_EQ(cache.CountersOf(iosched::TenantSlot{2}).evictions, 0u);
  // The eviction emptied the victim's slot.
  EXPECT_FALSE(s1.resident());
  EXPECT_TRUE(s1.bytes().empty());
  EXPECT_FALSE(cache.Get(s1, kDat, t1));
  EXPECT_TRUE(cache.Get(s2, kDat, t2));
}

TEST(BlockCacheTest, InsertReplacesExistingKey) {
  BlockCache cache(0);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  const std::string old_bytes(10, 'o'), new_bytes(20, 'n');
  Slot slot;
  cache.Insert(slot, t1, old_bytes);
  cache.Insert(slot, t1, new_bytes);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 20u);
  EXPECT_EQ(cache.evictions(), 0u);  // replacement is not an eviction
  ASSERT_TRUE(cache.Get(slot, kDat, t1));
  EXPECT_EQ(slot.bytes(), new_bytes);
}

TEST(BlockCacheTest, OversizedInsertKeepsNewestEntry) {
  // An entry larger than the whole budget still becomes resident — the
  // eviction loop never evicts the block just inserted.
  BlockCache cache(10);
  const std::string backing(50, 'x');
  Slot slot;
  cache.Insert(slot, cache.Counters(iosched::TenantSlot{1}), backing);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 50u);
  EXPECT_TRUE(slot.resident());
}

TEST(BlockCacheTest, EraseTableDropsAllKindsForThatTableOnly) {
  // A table is erased slot by slot when its reader dies; the other table
  // and the other tenant's table of the same number stay.
  BlockCache cache(0);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  BlockCache::TenantCounters& t2 = cache.Counters(iosched::TenantSlot{2});
  const std::string backing(10, 'x');
  std::array<Slot, 4> table7;  // index, filter, two data blocks
  Slot table8_index, tenant2_table7_index;
  for (Slot& s : table7) {
    cache.Insert(s, t1, backing);
  }
  cache.Insert(table8_index, t1, backing);
  cache.Insert(tenant2_table7_index, t2, backing);
  for (Slot& s : table7) {
    cache.Erase(s);
  }
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 20u);
  EXPECT_EQ(cache.evictions(), 0u);  // deletion is not an eviction
  EXPECT_TRUE(cache.Get(table8_index, kIdx, t1));
  EXPECT_TRUE(cache.Get(tenant2_table7_index, kIdx, t2));
  cache.Erase(table7[0]);  // erasing an empty slot is a no-op
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(BlockCacheTest, RefPinsBlockPastEviction) {
  BlockCache cache(100);
  BlockCache::TenantCounters& t1 = cache.Counters(iosched::TenantSlot{1});
  const std::string table_bytes(60, 'p');
  auto parsed = std::make_shared<TableIndex>();
  parsed->emplace_back("pinned", 0, 60);
  Slot index, data, other;
  cache.Insert(index, t1, table_bytes, parsed);
  ASSERT_TRUE(cache.Get(index, kIdx, t1));
  const TableIndexRef ref = index.index();
  parsed.reset();
  cache.Insert(other, t1, table_bytes);  // evicts the index
  EXPECT_FALSE(index.resident());
  EXPECT_EQ(index.index(), nullptr);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(std::get<0>((*ref)[0]), "pinned");  // the caller's ref holds

  // A data block is a view of the table bytes: a view taken before its
  // eviction reads the same bytes after it.
  cache.Insert(data, t1, table_bytes);  // evicts `other`
  const std::string_view view = data.bytes();
  cache.Insert(other, t1, table_bytes);  // evicts `data`
  EXPECT_FALSE(data.resident());
  EXPECT_EQ(view, table_bytes);
}

TEST(BlockCacheTest, IndexOnlyModeReportsNoDataCaching) {
  BlockCache full(0);
  EXPECT_TRUE(full.caches_data());
  BlockCache index_only(0, /*cache_data=*/false);
  EXPECT_FALSE(index_only.caches_data());
}

// The keyed LRU the slot cache replaced: one ordered map from (tenant,
// table, kind, offset) to an LRU list entry. Kept here as the reference
// the slot cache must match operation for operation.
class KeyedLru {
 public:
  explicit KeyedLru(uint64_t capacity) : capacity_(capacity) {}

  bool Get(uint64_t tenant, uint64_t table, int kind, uint64_t offset) {
    const Key key{tenant, table, kind, offset};
    BlockCache::TenantCounters& tc = tenants_[tenant];
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++tc.misses[kind];
      return false;
    }
    ++tc.hits[kind];
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  void Insert(uint64_t tenant, uint64_t table, int kind, uint64_t offset,
              uint64_t bytes) {
    const Key key{tenant, table, kind, offset};
    EraseKey(key);
    lru_.push_front(Entry{key, bytes});
    map_[key] = lru_.begin();
    resident_bytes_ += bytes;
    if (capacity_ == 0) {
      return;
    }
    while (resident_bytes_ > capacity_ && lru_.size() > 1) {
      const Entry& victim = lru_.back();
      resident_bytes_ -= victim.bytes;
      ++tenants_[std::get<0>(victim.key)].evictions;
      map_.erase(victim.key);
      lru_.pop_back();
    }
  }

  void EraseTable(uint64_t tenant, uint64_t table) {
    auto it = map_.lower_bound(Key{tenant, table, 0, 0});
    while (it != map_.end() && std::get<0>(it->first) == tenant &&
           std::get<1>(it->first) == table) {
      resident_bytes_ -= it->second->bytes;
      lru_.erase(it->second);
      it = map_.erase(it);
    }
  }

  bool Contains(uint64_t tenant, uint64_t table, int kind,
                uint64_t offset) const {
    return map_.count(Key{tenant, table, kind, offset}) > 0;
  }
  BlockCache::TenantCounters CountersOf(uint64_t tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? BlockCache::TenantCounters{} : it->second;
  }
  uint64_t resident_bytes() const { return resident_bytes_; }
  size_t entries() const { return map_.size(); }

 private:
  using Key = std::tuple<uint64_t, uint64_t, int, uint64_t>;
  struct Entry {
    Key key;
    uint64_t bytes;
  };
  void EraseKey(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return;
    }
    resident_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }

  uint64_t capacity_;
  std::list<Entry> lru_;
  std::map<Key, std::list<Entry>::iterator> map_;
  std::map<uint64_t, BlockCache::TenantCounters> tenants_;
  uint64_t resident_bytes_ = 0;
};

// A seeded random mix of inserts, gets and reader destructions over
// several tenants' tables under a tight budget: after every operation the
// slot cache and the keyed reference agree on the hit or miss, the set of
// resident blocks (so on every eviction victim), every tenant's counters
// and the resident bytes.
TEST(BlockCacheTest, SlotsMatchKeyedLruDifferentially) {
  constexpr int kTenants = 4;
  constexpr int kTables = 16;
  constexpr int kBlocks = 6;           // data blocks per table
  constexpr int kSlots = 2 + kBlocks;  // index, filter, data blocks
  constexpr uint64_t kCapacity = 256 * 1024;
  const std::string backing(4096, 'b');

  // One reader's slots: [0] index, [1] filter, [2..] data blocks.
  struct Reader {
    std::array<Slot, kSlots> slots;
  };
  const auto kind_of = [](int s) { return s < 2 ? s : 2; };
  const auto offset_of = [](int s) -> uint64_t {
    return s < 2 ? 0 : static_cast<uint64_t>(s - 2) * 4096;
  };

  BlockCache cache(kCapacity);
  KeyedLru ref(kCapacity);
  std::vector<BlockCache::TenantCounters*> counters;
  for (int t = 0; t < kTenants; ++t) {
    counters.push_back(&cache.Counters(static_cast<iosched::TenantSlot>(t)));
  }
  // readers[t][f]: tenant t's table f (tables reuse numbers across
  // tenants, as partitions on a shared cache do).
  std::vector<std::vector<std::unique_ptr<Reader>>> readers(kTenants);
  for (auto& tables : readers) {
    for (int f = 0; f < kTables; ++f) {
      tables.push_back(std::make_unique<Reader>());
    }
  }

  Rng rng(20240);
  uint64_t hits = 0;
  uint64_t destroyed = 0;
  for (int op = 0; op < 20000; ++op) {
    const int t = static_cast<int>(rng.NextU64(kTenants));
    const int f = static_cast<int>(rng.NextU64(kTables));
    const int s = static_cast<int>(rng.NextU64(kSlots));
    Reader& reader = *readers[t][f];
    const uint64_t dice = rng.NextU64(100);
    if (dice < 45) {
      const bool got = cache.Get(reader.slots[s],
                                 static_cast<BlockCache::Kind>(kind_of(s)),
                                 *counters[t]);
      ASSERT_EQ(got, ref.Get(t, f, kind_of(s), offset_of(s))) << op;
      hits += got;
    } else if (dice < 98) {
      const uint64_t bytes = 1 + rng.NextU64(backing.size());
      cache.Insert(reader.slots[s], *counters[t], Bytes(backing, bytes));
      ref.Insert(t, f, kind_of(s), offset_of(s), bytes);
    } else {
      // The reader dies (its table was deleted) and a new one takes its
      // number, as LsmDb's table handles do.
      for (Slot& slot : reader.slots) {
        cache.Erase(slot);
      }
      readers[t][f] = std::make_unique<Reader>();
      ref.EraseTable(t, f);
      ++destroyed;
    }
    ASSERT_EQ(cache.resident_bytes(), ref.resident_bytes()) << op;
    ASSERT_EQ(cache.entries(), ref.entries()) << op;
    for (int tt = 0; tt < kTenants; ++tt) {
      const auto a = cache.CountersOf(static_cast<iosched::TenantSlot>(tt));
      const auto b = ref.CountersOf(tt);
      for (int k = 0; k < BlockCache::kNumKinds; ++k) {
        ASSERT_EQ(a.hits[k], b.hits[k]) << op;
        ASSERT_EQ(a.misses[k], b.misses[k]) << op;
      }
      ASSERT_EQ(a.evictions, b.evictions) << op;
      for (int ff = 0; ff < kTables; ++ff) {
        for (int ss = 0; ss < kSlots; ++ss) {
          ASSERT_EQ(readers[tt][ff]->slots[ss].resident(),
                    ref.Contains(tt, ff, kind_of(ss), offset_of(ss)))
              << op;
        }
      }
    }
  }
  // The mix exercised every path.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(cache.evictions(), 1000u);
  EXPECT_GT(destroyed, 100u);
  for (auto& tables : readers) {
    for (auto& reader : tables) {
      for (Slot& slot : reader->slots) {
        cache.Erase(slot);
      }
    }
  }
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

}  // namespace
}  // namespace libra::lsm
