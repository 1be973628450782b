// Byte-budget LRU cache for SSTable blocks: the one place a table's index,
// filter and (optionally) data blocks stay in memory. Every SstableReader
// reads through one.
//
// One cache serves three block kinds — parsed index blocks, bloom filter
// blocks, and data blocks — under a single capacity, so hot filters can
// displace cold data blocks and vice versa. A cache hit costs zero device
// IO; a miss makes the caller re-read (and re-charge, via its IoTag) the
// block from the device, which is how eviction pressure shows up in a
// tenant's attributed VOPs.
//
// The cache has no lookup structure of its own. Every block has a Slot in
// the reader of its table — one for the index, one for the filter, one per
// data block — and the LRU list links the resident slots. A hit is a check
// of the slot, a splice to the list front and a counter bump; an eviction
// empties the victim's slot; a reader's destruction erases its occupied
// slots (not an eviction). Slots belong to one reader, so tenants whose
// partitions reuse table file numbers on a node-shared cache never meet.
//
// Filter and data blocks are views of the table bytes stored in SimFs (a
// table is immutable while its reader lives): the cache holds no copy. An
// index stays parsed, owned through a shared_ptr, so a scan cursor pins it
// past eviction. The budget charges each block's on-disk size, the length
// of the view.
//
// Per-tenant, per-kind hit/miss and per-tenant eviction counters feed the
// node-stats `block_cache` section.
// Capacity 0 = unbounded: every index and filter is read once and stays
// until its table is deleted, the LsmDb default. `cache_data` false
// restricts the cache to index and filter blocks (LsmOptions'
// table_cache_bytes mode).

#ifndef LIBRA_SRC_LSM_BLOCK_CACHE_H_
#define LIBRA_SRC_LSM_BLOCK_CACHE_H_

#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/iosched/io_tag.h"

namespace libra::lsm {

// Parsed sstable index: {last_key, block offset, block size} per data block.
using TableIndex = std::vector<std::tuple<std::string, uint64_t, uint32_t>>;
using TableIndexRef = std::shared_ptr<const TableIndex>;

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

  // One block's place in the cache, owned by the block's reader. Empty, or
  // resident: linked into the LRU and holding the block. A slot must not
  // move while resident, and its owner erases it before it dies.
  class Slot {
   public:
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    bool resident() const { return tenant_ != nullptr; }
    // The block's on-disk bytes, a view of the table; empty when not
    // resident.
    std::string_view bytes() const { return bytes_; }
    // The parsed index of an index slot; null otherwise or when not
    // resident.
    const TableIndexRef& index() const { return index_; }

   private:
    friend class BlockCache;
    Slot* prev_ = nullptr;  // LRU neighbours while resident
    Slot* next_ = nullptr;
    TenantCounters* tenant_ = nullptr;  // the owner's counters while resident
    std::string_view bytes_;
    TableIndexRef index_;
  };

  explicit BlockCache(uint64_t capacity_bytes = 0, bool cache_data = true);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // The counters of the tenant in `slot` (its node's TenantSlot), created
  // zeroed on first use. The reference stays valid for the cache's
  // lifetime: a reader looks it up once.
  TenantCounters& Counters(iosched::TenantSlot slot) {
    const size_t i = iosched::SlotIndex(slot);
    if (i >= tenants_.size()) {
      tenants_.resize(i + 1);
    }
    if (tenants_[i] == nullptr) {
      tenants_[i] = std::make_unique<TenantCounters>();
    }
    return *tenants_[i];
  }

  // Probes `slot` for a block of `kind` on behalf of `tenant`: a hit
  // refreshes its LRU position. Counts the hit or the miss.
  bool Get(Slot& slot, Kind kind, TenantCounters& tenant) {
    if (!slot.resident()) {
      ++misses_;
      ++tenant.misses[static_cast<int>(kind)];
      return false;
    }
    ++hits_;
    ++tenant.hits[static_cast<int>(kind)];
    Unlink(slot);
    LinkFront(slot);
    return true;
  }

  // Makes `slot` resident with `bytes` (and, for an index, its parsed
  // `index`), replacing what it held, charging bytes.size() against
  // capacity, then evicts from the LRU tail until resident bytes fit. The
  // inserted slot itself is never evicted by its own insertion.
  void Insert(Slot& slot, TenantCounters& tenant, std::string_view bytes,
              TableIndexRef index = nullptr);

  // Empties `slot` if it is resident (not an eviction).
  void Erase(Slot& slot);

  bool caches_data() const { return cache_data_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t resident_bytes() const { return resident_bytes_; }
  size_t entries() const { return entries_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  // Zeroed counters for a tenant the cache has never seen.
  TenantCounters CountersOf(iosched::TenantSlot slot) const;

 private:
  void LinkFront(Slot& slot) {
    slot.prev_ = &lru_;
    slot.next_ = lru_.next_;
    lru_.next_->prev_ = &slot;
    lru_.next_ = &slot;
  }
  static void Unlink(Slot& slot) {
    slot.prev_->next_ = slot.next_;
    slot.next_->prev_ = slot.prev_;
  }

  uint64_t capacity_bytes_;
  bool cache_data_;
  Slot lru_;  // sentinel of the circular LRU list: next_ = most recent
  size_t entries_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  // By TenantSlot, boxed so growing the table never moves the counters a
  // reader holds (nullptr: a slot with no reader yet).
  std::vector<std::unique_ptr<TenantCounters>> tenants_;
};

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_BLOCK_CACHE_H_
