// Write-through LRU object cache (the "Key-Value Protocol/Cache" layer of
// Fig. 1). GET hits are served from memory without touching the IO path;
// the paper's disk-bound experiments run with the cache disabled, and its
// presence is why realistic IO-bound workloads skew PUT-heavy (§6.3).
//
// One cache serves every tenant of a node, so entries are keyed by
// (tenant slot, user key): tenants' keyspaces never alias. An entry costs
// its user key and value bytes against the budget.

#ifndef LIBRA_SRC_KV_CACHE_H_
#define LIBRA_SRC_KV_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/iosched/io_tag.h"

namespace libra::kv {

class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Returns the cached value and refreshes recency.
  std::optional<std::string> Get(iosched::TenantSlot slot,
                                 const std::string& key);

  // Inserts/overwrites; evicts LRU entries to fit. Objects larger than the
  // whole cache are not admitted.
  void Put(iosched::TenantSlot slot, const std::string& key,
           std::string value);

  void Erase(iosched::TenantSlot slot, const std::string& key);

  // Drops every entry (a crash loses RAM); the counters keep counting.
  void Clear();

  size_t size_bytes() const { return used_; }
  size_t entries() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Key {
    iosched::TenantSlot slot;
    std::string key;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>()(k.key) ^
             iosched::SlotIndex(k.slot) * 0x9e3779b97f4a7c15ULL;
    }
  };
  struct Entry {
    Key key;
    std::string value;
    size_t bytes() const { return key.key.size() + value.size(); }
  };

  void EvictToFit();

  size_t capacity_;
  size_t used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
};

}  // namespace libra::kv

#endif  // LIBRA_SRC_KV_CACHE_H_
