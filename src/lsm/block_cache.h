// Byte-budget LRU cache for SSTable blocks: the one place a table's index,
// filter and (optionally) data blocks stay in memory. Every SstableReader
// reads through one.
//
// One cache serves three block kinds — parsed index blocks, bloom filter
// blocks, and raw data blocks — under a single capacity, so hot filters can
// displace cold data blocks and vice versa. A cache hit costs zero device
// IO; a miss makes the caller re-read (and re-charge, via its IoTag) the
// block from the device, which is how eviction pressure shows up in a
// tenant's attributed VOPs.
//
// Keys carry the owning tenant: with one node-shared cache, tenants of
// different DB partitions reuse table file numbers (each LsmDb numbers its
// own files from 1), and per-tenant hit/miss/eviction counters feed the
// node-stats `block_cache` section. The key map is ordered so EraseTable —
// dropping every block of a deleted table — is a deterministic range erase.
//
// Entries are shared_ptr<const CachedBlock>: a lookup in flight keeps a
// just-evicted block alive until it finishes; the next lookup re-reads it.
// Capacity 0 = unbounded: every index and filter is read once and stays
// until its table is erased, the LsmDb default. `cache_data` false
// restricts the cache to index and filter blocks (LsmOptions'
// table_cache_bytes mode).

#ifndef LIBRA_SRC_LSM_BLOCK_CACHE_H_
#define LIBRA_SRC_LSM_BLOCK_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/iosched/io_tag.h"

namespace libra::lsm {

// Parsed sstable index: {last_key, block offset, block size} per data block.
using TableIndex = std::vector<std::tuple<std::string, uint64_t, uint32_t>>;
using TableIndexRef = std::shared_ptr<const TableIndex>;

// One cached block. Index blocks live parsed (`index` set); filter and data
// blocks keep their raw bytes.
struct CachedBlock {
  TableIndexRef index;
  std::string bytes;
};
using CachedBlockRef = std::shared_ptr<const CachedBlock>;

class BlockCache {
 public:
  enum class Kind : uint8_t { kIndex = 0, kFilter = 1, kData = 2 };
  static constexpr int kNumKinds = 3;

  // Per-tenant view of the cache's behavior, indexed by Kind.
  struct TenantCounters {
    uint64_t hits[kNumKinds] = {0, 0, 0};
    uint64_t misses[kNumKinds] = {0, 0, 0};
    uint64_t evictions = 0;  // this tenant's blocks pushed out by pressure
  };

  explicit BlockCache(uint64_t capacity_bytes = 0, bool cache_data = true)
      : capacity_bytes_(capacity_bytes), cache_data_(cache_data) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // nullptr on miss; a hit refreshes the entry's LRU position. `offset` is
  // the block's file offset (0 for the per-table index and filter blocks).
  CachedBlockRef Get(iosched::TenantId tenant, uint64_t table, Kind kind,
                     uint64_t offset);

  // Inserts (replacing any previous entry under the same key), charging
  // `bytes` (the block's on-disk size) against capacity, then evicts from
  // the LRU tail until resident bytes fit. The inserted entry itself is
  // never evicted by its own insertion.
  void Insert(iosched::TenantId tenant, uint64_t table, Kind kind,
              uint64_t offset, CachedBlockRef block, uint64_t bytes);

  // Drops every block of `table` when it is deleted (not an eviction).
  void EraseTable(iosched::TenantId tenant, uint64_t table);

  bool caches_data() const { return cache_data_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t resident_bytes() const { return resident_bytes_; }
  size_t entries() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  // Zeroed counters for a tenant the cache has never seen.
  TenantCounters CountersOf(iosched::TenantId tenant) const;

 private:
  struct Key {
    iosched::TenantId tenant = 0;
    uint64_t table = 0;
    Kind kind = Kind::kIndex;
    uint64_t offset = 0;

    bool operator<(const Key& o) const {
      return std::tie(tenant, table, kind, offset) <
             std::tie(o.tenant, o.table, o.kind, o.offset);
    }
  };
  struct Entry {
    Key key;
    CachedBlockRef block;
    uint64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  void EraseKey(const Key& key);

  uint64_t capacity_bytes_;
  bool cache_data_;
  LruList lru_;                            // front = most recent
  std::map<Key, LruList::iterator> map_;   // ordered: EraseTable range-scans
  std::map<iosched::TenantId, TenantCounters> tenants_;
  uint64_t resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_BLOCK_CACHE_H_
